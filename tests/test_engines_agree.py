"""Property tests: all engines implement one semantics.

The central correctness property of the library — the paper-faithful
NaiveEngine (Theorem 3 procedures), the HashJoinEngine (semi-naive
fixpoints) and the FastEngine (Prop 4/5 algorithms) must agree on every
expression/store pair.  The hash-join and fast engines run compiled
physical plans; the planner applied to *optimised* expressions is held
to the same oracle (plans of rewritten trees must mean the same thing).
"""

from hypothesis import given, settings

from repro.core import FastEngine, HashJoinEngine, NaiveEngine, optimize, star, R
from tests.conftest import expressions, stores

HASH = HashJoinEngine()
NAIVE = NaiveEngine()
FAST = FastEngine()


@given(expressions(max_depth=3, allow_star=False), stores())
@settings(max_examples=120, deadline=None)
def test_nonrecursive_agreement(expr, store):
    expected = HASH.evaluate(expr, store)
    assert NAIVE.evaluate(expr, store) == expected
    assert FAST.evaluate(expr, store) == expected


@given(expressions(max_depth=3, allow_star=True), stores())
@settings(max_examples=80, deadline=None)
def test_recursive_agreement(expr, store):
    expected = HASH.evaluate(expr, store)
    assert NAIVE.evaluate(expr, store) == expected
    assert FAST.evaluate(expr, store) == expected


@given(stores(min_triples=2, max_triples=14))
@settings(max_examples=60, deadline=None)
def test_reach_stars_agree_with_generic_fixpoint(store):
    """The Prop 5 BFS algorithms equal the generic fixpoint semantics."""
    for conds in ("3=1'", "3=1' & 2=2'"):
        expr = star(R("E"), "1,2,3'", conds)
        assert FAST.evaluate(expr, store) == HASH.evaluate(expr, store)


@given(expressions(max_depth=2, allow_star=True), stores())
@settings(max_examples=60, deadline=None)
def test_results_are_closed(expr, store):
    """Closure (§3): results are sets of triples over the store's objects."""
    result = HASH.evaluate(expr, store)
    for triple in result:
        assert len(triple) == 3
        assert all(obj in store.objects for obj in triple)


@given(expressions(max_depth=3, allow_star=True), stores())
@settings(max_examples=60, deadline=None)
def test_planned_optimized_expression_agrees_with_naive(expr, store):
    """optimize → compile → execute equals the oracle on the raw tree."""
    assert HASH.evaluate(optimize(expr), store) == NAIVE.evaluate(expr, store)


@given(expressions(max_depth=2, allow_star=True), stores())
@settings(max_examples=40, deadline=None)
def test_composition_property(expr, store):
    """Results can be installed as relations and queried again (§3)."""
    result = HASH.evaluate(expr, store)
    composed = store.with_relation("Out", result)
    again = HASH.evaluate(R("Out"), composed)
    assert again == result
