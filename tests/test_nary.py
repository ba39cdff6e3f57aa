"""The n-tuple algebra (Section 7 future work): k = 2 is relation
algebra's composition/closure, k = 3 coincides with TriAL."""

import pytest
from hypothesis import example, given, settings

from repro.errors import AlgebraError, TriplestoreError
from repro.core import HashJoinEngine, R, star
from repro.core.conditions import Cond
from repro.core.expressions import (
    Diff,
    Join,
    Rel,
    Select,
    Star,
    Union,
)
from repro.core.positions import Const, Pos
from repro.nary import (
    NCond,
    NDiff,
    NJoin,
    NRel,
    NSelect,
    NStar,
    NUnion,
    NaryEngine,
    NaryStore,
    composition,
    const,
    transitive_closure,
)
from repro.workloads import chain_store
from tests.conftest import expressions, stores

ENGINE = NaryEngine()


class TestModel:
    def test_arity_checked(self):
        with pytest.raises(TriplestoreError):
            NaryStore(2, {"R": [("a", "b", "c")]})
        with pytest.raises(TriplestoreError):
            NaryStore(0, {})

    def test_round_trip_with_triplestore(self, small_store):
        nary = NaryStore.from_triplestore(small_store)
        assert nary.arity == 3
        assert nary.to_triplestore() == small_store

    def test_non_triple_store_cannot_convert(self):
        with pytest.raises(TriplestoreError):
            NaryStore(2, {"R": [("a", "b")]}).to_triplestore()


class TestBinaryCase:
    STORE = NaryStore(
        2,
        {"R": [("a", "b"), ("b", "c"), ("c", "d")]},
        rho={"a": 1, "b": 1, "c": 2, "d": 2},
    )

    def test_composition_is_relational_composition(self):
        got = ENGINE.evaluate(composition(NRel("R", 2), NRel("R", 2)), self.STORE)
        assert got == {("a", "c"), ("b", "d")}

    def test_transitive_closure(self):
        got = ENGINE.evaluate(transitive_closure(NRel("R", 2)), self.STORE)
        assert got == {
            ("a", "b"), ("b", "c"), ("c", "d"),
            ("a", "c"), ("b", "d"), ("a", "d"),
        }

    def test_select_on_data(self):
        sel = NSelect(NRel("R", 2), (NCond(0, 1, "=", on_data=True),))
        assert ENGINE.evaluate(sel, self.STORE) == {("a", "b"), ("c", "d")}

    def test_constant_condition(self):
        sel = NSelect(NRel("R", 2), (NCond(0, const("b")),))
        assert ENGINE.evaluate(sel, self.STORE) == {("b", "c")}

    def test_union_diff(self):
        r = NRel("R", 2)
        comp = composition(r, r)
        assert ENGINE.evaluate(NUnion(r, comp), self.STORE) >= self.STORE.relation("R")
        assert ENGINE.evaluate(NDiff(r, r), self.STORE) == frozenset()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(AlgebraError):
            NJoin(NRel("R", 2), NRel("S", 3), (0, 1))
        with pytest.raises(AlgebraError):
            NJoin(NRel("R", 2), NRel("S", 2), (0, 1, 2))
        with pytest.raises(AlgebraError):
            ENGINE.evaluate(NRel("R", 3), self.STORE)


def _to_nary(expr) -> "object":
    """Translate a TriAL expression tree into the k = 3 nTA tree."""
    def conv_term(t):
        return ("const", t.value) if isinstance(t, Const) else t.index

    def conv_conds(conds):
        return tuple(
            NCond(conv_term(c.left), conv_term(c.right), c.op, c.on_data)
            for c in conds
        )

    if isinstance(expr, Rel):
        return NRel(expr.name, 3)
    if isinstance(expr, Select):
        return NSelect(_to_nary(expr.expr), conv_conds(expr.conditions))
    if isinstance(expr, Union):
        return NUnion(_to_nary(expr.left), _to_nary(expr.right))
    if isinstance(expr, Diff):
        return NDiff(_to_nary(expr.left), _to_nary(expr.right))
    if isinstance(expr, Join):
        return NJoin(
            _to_nary(expr.left), _to_nary(expr.right), expr.out, conv_conds(expr.conditions)
        )
    if isinstance(expr, Star):
        return NStar(
            _to_nary(expr.expr), expr.out, conv_conds(expr.conditions), expr.side
        )
    from repro.core.expressions import Intersect

    if isinstance(expr, Intersect):
        # nTA has no primitive intersection; use the paper's join encoding.
        return NJoin(
            _to_nary(expr.left),
            _to_nary(expr.right),
            (0, 1, 2),
            tuple(NCond(i, i + 3) for i in range(3)),
        )
    raise AssertionError(f"unhandled {type(expr).__name__}")


class TestTernaryCoincidesWithTriAL:
    @given(expressions(max_depth=3, allow_star=True), stores(max_triples=10))
    @example(star(R("E"), "1,2,3'", "3=1'"), chain_store(8))
    @settings(max_examples=60, deadline=None)
    def test_agreement(self, expr, store):
        """For k = 3 the n-ary engine is an independent TriAL implementation."""
        from repro.core.expressions import Universe

        if any(isinstance(n, Universe) for n in expr.walk()):
            return
        nary_store = NaryStore.from_triplestore(store)
        want = HashJoinEngine().evaluate(expr, store)
        got = ENGINE.evaluate(_to_nary(expr), nary_store)
        assert want == got


class TestHigherArity:
    STORE = NaryStore(
        4,
        {"R": [("a", "b", "c", "d"), ("d", "x", "y", "z")]},
    )

    def test_join_keeps_four_positions(self):
        # Compose on last = first, keep (0, 1, 6, 7).
        j = NJoin(NRel("R", 4), NRel("R", 4), (0, 1, 6, 7), (NCond(3, 4),))
        got = ENGINE.evaluate(j, self.STORE)
        assert got == {("a", "b", "y", "z")}

    def test_star_at_arity_4(self):
        chain = NaryStore(
            4,
            {"R": [("a", "m", "m", "b"), ("b", "m", "m", "c"), ("c", "m", "m", "d")]},
        )
        # Reach: keep (0, 1, 2, 7), join on 3 = 4'.
        s = NStar(NRel("R", 4), (0, 1, 2, 7), (NCond(3, 4),), "right")
        got = ENGINE.evaluate(s, chain)
        assert ("a", "m", "m", "d") in got
