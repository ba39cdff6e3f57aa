"""Theorem 5's upper bound, constructively: TriAL= → FO⁴.

``trial_eq_to_fo4`` folds θ-equalities into shared variables, then
miniscopes and greedily reuses names.  We assert:

* semantic agreement with the algebra on random stores (always);
* ≤ 4 variable names on the fragment's characteristic join shapes
  (composition, same-label, products, selections, nesting, difference).

The full Lemma 1 guarantee also covers η-equality-only joins through
∼-chaining with intermediate variables; our heuristic does not implement
that chaining, so purely-data-joined products may use a 5th name — a
known gap, which is why ``FO4_SHAPES`` joins on data only beside a
θ-equality.
"""

import pytest
from hypothesis import given, settings

from repro.core import R, evaluate, example2_expr, join, select
from repro.core.builder import intersect_as_join
from repro.errors import TranslationError
from repro.logic import answers
from repro.logic.minimize import minimize_variables, miniscope, reuse_names
from repro.translations.trial_to_fo import trial_eq_to_fo4, trial_to_fo
from tests.conftest import expressions, stores

FO4_SHAPES = [
    R("E"),
    example2_expr(),
    join(R("E"), R("E"), "1,2,3'", "3=1'"),
    join(R("E"), R("E"), "1,2,3'", "3=1' & 2=2'"),
    join(R("E"), R("E"), "1,1',2'"),
    select(join(R("E"), R("E"), "1,3',3", "2=1'"), "1=3"),
    intersect_as_join(R("E"), R("E")),
    join(
        join(R("E"), R("E"), "1,3',3", "2=1'"),
        R("E"),
        "1,2,3'",
        "3=1' & 2=2'",
    ),
    join(R("E"), R("E"), "1,2,3'", "rho(2)=rho(2') & 3=1'"),
    R("E") - join(R("E"), R("E"), "1,2,3'", "3=1'"),
]


class TestFO4Bound:
    @pytest.mark.parametrize("expr", FO4_SHAPES, ids=repr)
    def test_characteristic_shapes_land_in_fo4(self, expr):
        phi = trial_eq_to_fo4(expr)
        assert phi.num_variables() <= 4, sorted(phi.all_vars())

    @pytest.mark.parametrize("expr", FO4_SHAPES, ids=repr)
    @pytest.mark.parametrize("seed_store_idx", [0, 1])
    def test_shapes_agree_semantically(self, expr, seed_store_idx, small_store, two_relation_store):
        store = [small_store, two_relation_store.restrict(["E"])][seed_store_idx]
        phi = trial_eq_to_fo4(expr)
        assert answers(phi, store, ("v1", "v2", "v3")) == evaluate(expr, store)

    def test_rejects_inequalities(self):
        with pytest.raises(TranslationError):
            trial_eq_to_fo4(select(R("E"), "1!=2"))

    def test_rejects_stars(self):
        from repro.core import reach_forward

        with pytest.raises(TranslationError):
            trial_eq_to_fo4(reach_forward())


class TestSemanticPreservation:
    @given(expressions(max_depth=3, allow_star=False), stores(max_triples=8))
    @settings(max_examples=50, deadline=None)
    def test_folded_translation_agrees(self, expr, store):
        """Equality folding never changes semantics (all expressions)."""
        try:
            phi = trial_to_fo(expr, fold_equalities=True)
        except TranslationError:
            return  # data constants, outside the ⟨E, ∼⟩ vocabulary
        assert answers(phi, store, ("v1", "v2", "v3")) == evaluate(expr, store)

    @given(expressions(max_depth=3, allow_star=False), stores(max_triples=8))
    @settings(max_examples=50, deadline=None)
    def test_minimisation_preserves_semantics(self, expr, store):
        try:
            phi = trial_to_fo(expr)
        except TranslationError:
            return
        minimised = minimize_variables(phi, pool=("v1", "v2", "v3", "v4", "v5", "v6"))
        assert minimised.num_variables() <= phi.num_variables()
        assert answers(minimised, store, ("v1", "v2", "v3")) == answers(
            phi, store, ("v1", "v2", "v3")
        )


class TestMinimizeUnits:
    def test_miniscope_splits_conjunctions(self):
        from repro.logic import And, Exists, RelAtom, Var

        phi = Exists(
            "w",
            And(
                RelAtom("E", (Var("x"), Var("y"), Var("z"))),
                RelAtom("E", (Var("w"), Var("w"), Var("w"))),
            ),
        )
        out = miniscope(phi)
        assert isinstance(out, And)

    def test_miniscope_drops_unused_quantifier(self):
        from repro.logic import Eq, Exists, Var

        assert miniscope(Exists("w", Eq(Var("x"), Var("x")))) == Eq(Var("x"), Var("x"))

    def test_reuse_names_shares_disjoint_scopes(self):
        from repro.logic import And, Exists, RelAtom, Var

        phi = And(
            Exists("a", RelAtom("E", (Var("a"), Var("x"), Var("x")))),
            Exists("b", RelAtom("E", (Var("b"), Var("x"), Var("x")))),
        )
        out = reuse_names(phi, pool=("v1",))
        names = out.all_vars()
        assert names == {"v1", "x"}

    def test_reuse_names_avoids_capture(self):
        from repro.logic import Exists, RelAtom, Var

        # Binder scope contains free v1: the binder must avoid v1.
        phi = Exists("a", RelAtom("E", (Var("a"), Var("v1"), Var("v1"))))
        out = reuse_names(phi, pool=("v1", "v2"))
        assert out.var == "v2"
