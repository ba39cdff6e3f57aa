"""E11/E12: TriAL ↔ FO translations (Theorems 4 and 6)."""

import itertools

import pytest
from hypothesis import example, given, settings

from repro.errors import TranslationError
from repro.core import R, evaluate, example2_expr, join, select, star
from repro.logic import (
    And,
    Eq,
    Exists,
    Not,
    Or,
    RelAtom,
    Sim,
    Var,
    active_domain,
    answers,
    satisfies,
)
from repro.logic.trcl import Trcl, answers_trcl, satisfies_trcl
from repro.translations import fo3_to_trial, trial_to_fo
from repro.triplestore import Triplestore
from repro.workloads import transport_network
from tests.conftest import expressions, stores

from hypothesis import strategies as st


class TestTrialToFO6:
    @given(expressions(max_depth=3, allow_star=False), stores(max_triples=8))
    @example(
        example2_expr(),
        transport_network(n_cities=6, n_services=2, n_companies=2, seed=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_agreement_and_variable_bound(self, expr, store):
        """Theorem 4.1: e ≡ ϕ_e and ϕ_e ∈ FO⁶."""
        try:
            phi = trial_to_fo(expr)
        except TranslationError:
            # η-conditions against data constants are outside ⟨E, ∼⟩.
            return
        assert phi.num_variables() <= 6
        assert answers(phi, store, ("v1", "v2", "v3")) == evaluate(expr, store)

    def test_data_constants_rejected(self):
        with pytest.raises(TranslationError):
            trial_to_fo(select(R("E"), "rho(1)=7"))

    def test_universe_translation(self):
        from repro.core import Universe

        t = Triplestore([("a", "p", "b")])
        phi = trial_to_fo(Universe(), rel_names=("E",))
        assert len(answers(phi, t, ("v1", "v2", "v3"))) == 27

    def test_complement_translation(self):
        from repro.core import complement

        t = Triplestore([("a", "p", "b")])
        phi = trial_to_fo(complement(R("E")), rel_names=("E",))
        got = answers(phi, t, ("v1", "v2", "v3"))
        assert len(got) == 26 and ("a", "p", "b") not in got


class TestStarToTrCl:
    SMALL = Triplestore(
        [("a", "p", "b"), ("b", "q", "c"), ("c", "p", "a")],
        rho={"a": 1, "b": 1, "c": 2},
    )

    @pytest.mark.parametrize(
        "expr",
        [
            star(R("E"), "1,2,3'", "3=1'"),
            star(R("E"), "1,3',3", "2=1'"),
            star(R("E"), "1,2,3'", "3=1' & 2=2'"),
        ],
        ids=["reach-any", "example2-star", "same-label"],
    )
    def test_star_agreement(self, expr):
        """Theorem 6.1: stars become trcl constructs with equal semantics.

        TrCl⁶ counts the closure's argument tuples with reuse; our AST
        names them apart, so the formula may use twice the six names.
        """
        phi = trial_to_fo(expr)
        assert any(isinstance(n, Trcl) for n in phi.walk())
        assert phi.num_variables() <= 12
        got = answers_trcl(phi, self.SMALL, ("v1", "v2", "v3"))
        assert got == evaluate(expr, self.SMALL)

    def test_left_star_agreement(self):
        from repro.core import lstar

        expr = lstar(R("E"), "1,2,2'", "3=1'")
        phi = trial_to_fo(expr)
        got = answers_trcl(phi, self.SMALL, ("v1", "v2", "v3"))
        assert got == evaluate(expr, self.SMALL)


VARS = ("x", "y", "z")


@st.composite
def fo3_formulas(draw, depth: int = 2):
    if depth <= 0:
        kind = draw(st.sampled_from(("rel", "eq", "sim")))
    else:
        kind = draw(st.sampled_from(("rel", "eq", "sim", "not", "and", "or", "exists")))
    if kind == "rel":
        return RelAtom("E", tuple(Var(draw(st.sampled_from(VARS))) for _ in range(3)))
    if kind == "eq":
        return Eq(Var(draw(st.sampled_from(VARS))), Var(draw(st.sampled_from(VARS))))
    if kind == "sim":
        return Sim(Var(draw(st.sampled_from(VARS))), Var(draw(st.sampled_from(VARS))))
    if kind == "not":
        return Not(draw(fo3_formulas(depth=depth - 1)))
    if kind in ("and", "or"):
        cls = And if kind == "and" else Or
        return cls(draw(fo3_formulas(depth=depth - 1)), draw(fo3_formulas(depth=depth - 1)))
    return Exists(draw(st.sampled_from(VARS)), draw(fo3_formulas(depth=depth - 1)))


class TestFO3ToTrial:
    @given(fo3_formulas(), stores(max_triples=6))
    @settings(max_examples=50, deadline=None)
    def test_agreement(self, formula, store):
        """Theorem 4.2: every FO³ formula has an equivalent TriAL expr."""
        expr = fo3_to_trial(formula)
        got = evaluate(expr, store)
        domain = sorted(active_domain(store), key=repr)
        want = frozenset(
            (a, b, c)
            for a, b, c in itertools.product(domain, repeat=3)
            if satisfies(formula, store, {"x": a, "y": b, "z": c})
        )
        assert got == want

    def test_extra_variables_rejected(self):
        with pytest.raises(TranslationError):
            fo3_to_trial(Eq(Var("x"), Var("w")))

    def test_forall(self):
        from repro.logic import Forall

        t = Triplestore([("a", "p", "a"), ("p", "a", "p")])
        # ∀x ∃y E(x, y, x): true for every active object here.
        phi = Forall("x", Exists("y", RelAtom("E", (Var("x"), Var("y"), Var("x")))))
        got = evaluate(fo3_to_trial(phi), t)
        assert len(got) == 8  # all (x, y, z) combos, x/y/z free ranging

    def test_translation_produces_nonrecursive(self):
        phi = Exists("y", RelAtom("E", (Var("x"), Var("y"), Var("z"))))
        assert not fo3_to_trial(phi).is_recursive()


class TestTrCl3ToTrial:
    CHAIN = Triplestore([("a", "p", "b"), ("b", "p", "c"), ("c", "q", "d")])

    def test_simple_closure(self):
        step = Exists("z", RelAtom("E", (Var("x"), Var("z"), Var("y"))))
        tr = Trcl(("x",), ("y",), step, ("x",), ("y",))
        expr = fo3_to_trial(tr)
        assert expr.is_recursive()
        domain = sorted(active_domain(self.CHAIN), key=repr)
        want = frozenset(
            (a, b, c)
            for a, b, c in itertools.product(domain, repeat=3)
            if satisfies_trcl(tr, self.CHAIN, {"x": a, "y": b, "z": c})
        )
        assert evaluate(expr, self.CHAIN) == want

    def test_parameterised_closure(self):
        step = RelAtom("E", (Var("x"), Var("z"), Var("y")))
        tr = Trcl(("x",), ("y",), step, ("x",), ("y",))
        expr = fo3_to_trial(tr)
        domain = sorted(active_domain(self.CHAIN), key=repr)
        want = frozenset(
            (a, b, c)
            for a, b, c in itertools.product(domain, repeat=3)
            if satisfies_trcl(tr, self.CHAIN, {"x": a, "y": b, "z": c})
        )
        assert evaluate(expr, self.CHAIN) == want

    def test_argument_identification(self):
        """[trcl ϕ](x, x) — both endpoints the same variable."""
        step = Exists("z", RelAtom("E", (Var("x"), Var("z"), Var("y"))))
        cyc = Triplestore([("a", "p", "b"), ("b", "p", "a")])
        tr = Trcl(("x",), ("y",), step, ("x",), ("x",))
        expr = fo3_to_trial(tr)
        domain = sorted(active_domain(cyc), key=repr)
        want = frozenset(
            (a, b, c)
            for a, b, c in itertools.product(domain, repeat=3)
            if satisfies_trcl(tr, cyc, {"x": a, "y": b, "z": c})
        )
        assert evaluate(expr, cyc) == want
