"""Edge cases across subsystems that the focused suites don't reach."""

import pytest

from repro.core import (
    FastEngine,
    HashJoinEngine,
    NaiveEngine,
    R,
    Universe,
    evaluate,
    join,
    select,
    star,
    universe_as_joins,
)
from repro.core.conditions import Cond
from repro.core.positions import Const, Pos
from repro.triplestore import Triplestore


class TestMultiRelationQueries:
    STORE = Triplestore(
        {
            "Travel": [("a", "s1", "b"), ("b", "s2", "c")],
            "Hierarchy": [("s1", "part_of", "co"), ("s2", "part_of", "co")],
        },
        rho={"a": 1, "b": 2, "c": 1},
    )

    @pytest.mark.parametrize(
        "engine", [HashJoinEngine(), NaiveEngine(), FastEngine()], ids=type
    )
    def test_cross_relation_join(self, engine):
        e = join(R("Travel"), R("Hierarchy"), "1,3',3", "2=1'")
        got = evaluate(e, self.STORE, engine)
        assert got == {("a", "co", "b"), ("b", "co", "c")}

    def test_universe_spans_all_relations(self):
        got = evaluate(Universe(), self.STORE)
        # Active domain: a,b,c,s1,s2,part_of,co = 7 objects.
        assert len(got) == 7 ** 3

    def test_universe_as_joins_multi_relation(self):
        native = evaluate(Universe(), self.STORE)
        derived = evaluate(universe_as_joins(["Travel", "Hierarchy"]), self.STORE)
        assert native == derived

    def test_star_over_multi_relation_union(self):
        e = star(R("Travel") | R("Hierarchy"), "1,2,3'", "3=1'")
        got = evaluate(e, self.STORE)
        assert ("a", "s1", "c") in got


class TestDegenerateInputs:
    def test_empty_store_everything_empty(self):
        t = Triplestore([])
        for e in (R("E"), select(R("E"), "1=2"), join(R("E"), R("E"), "1,2,3"),
                  star(R("E"), "1,2,3'", "3=1'"), Universe()):
            assert evaluate(e, t) == frozenset()

    def test_self_loop_triple(self):
        t = Triplestore([("a", "a", "a")])
        got = evaluate(star(R("E"), "1,2,3'", "3=1'"), t)
        assert got == {("a", "a", "a")}

    def test_conditions_with_none_data_values(self):
        """Objects without ρ compare as None — equal to each other."""
        t = Triplestore([("a", "p", "b")])  # nobody has a data value
        got = evaluate(
            select(R("E"), (Cond(Pos(0), Pos(2), "=", on_data=True),)), t
        )
        assert got == {("a", "p", "b")}

    def test_object_vs_data_constant_distinction(self):
        t = Triplestore([("a", "p", "b")], rho={"a": "p"})
        # θ: position 1 equals the OBJECT "p" — false (subject is "a").
        theta = select(R("E"), (Cond(Pos(0), Const("p")),))
        # η: ρ(position 1) equals the DATA VALUE "p" — true.
        eta_ = select(R("E"), (Cond(Pos(0), Const("p"), "=", True),))
        assert evaluate(theta, t) == frozenset()
        assert evaluate(eta_, t) == {("a", "p", "b")}

    def test_non_string_objects(self):
        """Objects are any hashables — integers, tuples…"""
        t = Triplestore([(1, (2, 3), frozenset({4}))])
        got = evaluate(R("E"), t)
        assert (1, (2, 3), frozenset({4})) in got

    def test_star_output_not_feeding_join_terminates(self):
        """A star whose out-spec breaks the chain still terminates."""
        t = Triplestore([("a", "p", "b"), ("b", "q", "c")])
        got = evaluate(star(R("E"), "2,2,2'", "3=1'"), t)
        assert got  # the fixpoint saturates quickly


class TestEngineInternals:
    def test_hash_join_split(self):
        from repro.core.plan import split_conditions
        from repro.core.conditions import parse_conditions

        conds = parse_conditions("1=2 & 1'=2' & 3=1' & 2!=3' & 'a'='a'")
        left, right, cross_eq, cross_neq, const = split_conditions(conds)
        assert len(left) == 1 and len(right) == 1
        assert len(cross_eq) == 1 and len(cross_neq) == 1 and len(const) == 1

    def test_cross_condition_normalised(self):
        from repro.core.plan import split_conditions

        # 1' = 2 arrives right-side-first; the splitter flips it.
        conds = (Cond(Pos(3), Pos(1)),)
        _, _, cross_eq, _, _ = split_conditions(conds)
        assert cross_eq[0].left == Pos(1)
        assert cross_eq[0].right == Pos(3)

    def test_memoisation_shares_subresults(self):
        engine = HashJoinEngine()
        t = Triplestore([("a", "p", "b")])
        shared = join(R("E"), R("E"), "1,2,3'", "3=1'")
        e = shared | join(shared, shared, "1,2,3")
        assert engine.evaluate(e, t) is not None  # smoke: no recursion blowup

    def test_fast_engine_active_domain(self):
        engine = FastEngine()
        t = Triplestore([("a", "p", "b")], extra_objects=["iso"])
        assert engine.active_domain(t) == {"a", "p", "b"}
