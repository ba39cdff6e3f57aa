"""The physical planner: compilation, cost model, operator semantics."""

import pytest
from hypothesis import given, settings

from repro.core import (
    FastEngine,
    HashJoinEngine,
    NaiveEngine,
    R,
    join,
    query_q,
    select,
    star,
)
from repro.core.expressions import Rel, Select
from repro.core.parser import parse
from repro.core.plan import (
    ExecContext,
    FilterOp,
    HashJoinOp,
    IndexLookupOp,
    ReachStarOp,
    ScanOp,
    StarOp,
    UnionOp,
    compile_plan,
)
from repro.errors import UnknownRelationError
from repro.rdf import figure1
from repro.triplestore import DEFAULT_STATS, Triplestore
from repro.workloads import random_store, transport_network
from tests.conftest import expressions, stores


def run(plan, store, **kw):
    return ExecContext(store, **kw).execute(plan)


class TestCompilation:
    def test_rel_becomes_scan(self):
        plan = compile_plan(R("E"), figure1())
        assert isinstance(plan, ScanOp)
        assert plan.name == "E"
        assert plan.est_rows == len(figure1().relation("E"))

    def test_constant_select_becomes_index_lookup(self):
        plan = compile_plan(parse("select[2='part_of'](E)"), figure1())
        assert isinstance(plan, IndexLookupOp)
        assert plan.positions == (1,)
        assert plan.key == ("part_of",)

    def test_nonconstant_select_becomes_filter(self):
        plan = compile_plan(parse("select[1=2](E)"), figure1())
        assert isinstance(plan, FilterOp)

    def test_rho_select_is_not_index_served(self):
        """η-conditions go through ρ, which store indexes cannot key."""
        plan = compile_plan(parse("select[rho(1)=rho(2)](E)"), figure1())
        assert isinstance(plan, FilterOp)

    def test_reach_star_routed_by_fast_engine_only(self):
        expr = star(R("E"), "1,2,3'", "3=1'")
        assert isinstance(FastEngine().compile(expr, figure1()), ReachStarOp)
        assert isinstance(HashJoinEngine().compile(expr, figure1()), StarOp)

    def test_general_star_is_generic_for_both(self):
        expr = star(R("E"), "1,2,2'", "3=1'")
        assert isinstance(FastEngine().compile(expr, figure1()), StarOp)

    def test_shared_subexpressions_compile_once(self):
        expr = parse("(E | E)")
        plan = compile_plan(expr, figure1())
        assert isinstance(plan, UnionOp)
        assert plan.left is plan.right

    def test_compiles_without_store(self):
        plan = compile_plan(query_q())
        assert plan.est_cost > 0
        assert "Star" in plan.pretty()

    def test_plan_pretty_mentions_costs(self):
        text = compile_plan(query_q(), figure1()).pretty()
        assert "rows≈" in text and "cost≈" in text


class TestBuildSideChoice:
    def test_base_scan_build_side_uses_store_index(self):
        plan = compile_plan(parse("join[1,2,3'; 3=1'](E, E)"), figure1())
        assert isinstance(plan, HashJoinOp)
        assert plan.index_positions == (0,)

    def test_eta_key_disables_store_index(self):
        plan = compile_plan(parse("join[1,2,3'; rho(3)=rho(1')](E, E)"), figure1())
        assert isinstance(plan, HashJoinOp)
        assert plan.index_positions is None

    def test_smaller_side_is_built_when_no_index(self):
        store = Triplestore(
            {
                "Big": [(f"s{i}", "p", f"o{i}") for i in range(100)],
                "Small": [("a", "p", "b")],
            }
        )
        # Wrap both sides so neither is a plain scan (no store index).
        expr = join(
            select(R("Big"), "1!=2"), select(R("Small"), "1!=2"), "1,2,3'", "3=1'"
        )
        plan = compile_plan(expr, store)
        assert isinstance(plan, HashJoinOp)
        assert plan.build_side == "right"
        swapped = join(
            select(R("Small"), "1!=2"), select(R("Big"), "1!=2"), "1,2,3'", "3=1'"
        )
        plan = compile_plan(swapped, store)
        assert plan.build_side == "left"


class TestCostModel:
    @given(expressions(max_depth=3, allow_star=True), stores())
    @settings(max_examples=60, deadline=None)
    def test_cumulative_cost_is_monotone(self, expr, store):
        """Every node's cumulative cost strictly exceeds each child's."""
        plan = compile_plan(expr, store)
        for node in plan.walk():
            for child in node.children():
                assert node.est_cost > child.est_cost
                assert child.est_rows >= 0

    def test_scan_cost_grows_with_cardinality(self):
        small = random_store(20, 50, seed=1)
        large = random_store(20, 400, seed=1)
        expr = parse("join[1,2,3'; 3=1'](E, E)")
        assert (
            compile_plan(expr, large).est_cost > compile_plan(expr, small).est_cost
        )

    def test_filter_estimates_fewer_rows_than_child(self):
        plan = compile_plan(parse("select[1=2](E)"), random_store(20, 200, seed=2))
        assert isinstance(plan, FilterOp)
        assert plan.est_rows < plan.child.est_rows

    def test_index_lookup_cheaper_than_scan_filter(self):
        """The planner's reason to exist: the index path must cost less."""
        store = random_store(40, 500, seed=17)
        lookup = compile_plan(parse("select[2='l0'](E)"), store)
        scan_filter = FilterOp(
            ScanOp("E", 500.0, 501.0), parse("select[2='l0'](E)").conditions, 50.0, 1002.0
        )
        assert isinstance(lookup, IndexLookupOp)
        assert lookup.est_cost < scan_filter.est_cost

    def test_default_stats_used_without_store(self):
        plan = compile_plan(parse("join[1,2,3'; 3=1'](E, E)"), stats=DEFAULT_STATS)
        assert plan.est_rows > 0


class TestExecutionSemantics:
    @given(expressions(max_depth=3, allow_star=True), stores())
    @settings(max_examples=80, deadline=None)
    def test_plan_execution_matches_naive_oracle(self, expr, store):
        plan = compile_plan(expr, store)
        assert run(plan, store) == NaiveEngine().evaluate(expr, store)

    @given(expressions(max_depth=3, allow_star=True), stores())
    @settings(max_examples=60, deadline=None)
    def test_reach_routing_never_changes_results(self, expr, store):
        with_reach = compile_plan(expr, store, use_reach=True)
        without = compile_plan(expr, store, use_reach=False)
        assert run(with_reach, store) == run(without, store)

    def test_unknown_relation_raises_at_execution(self):
        plan = compile_plan(parse("join[1,2,3](Nope, E)"), figure1())
        with pytest.raises(UnknownRelationError):
            run(plan, figure1())

    def test_index_lookup_on_real_data(self):
        store = figure1()
        plan = compile_plan(parse("select[2='part_of'](E)"), store)
        assert run(plan, store) == {
            t for t in store.relation("E") if t[1] == "part_of"
        }

    def test_query_q_through_planner(self):
        store = transport_network(n_cities=10, n_services=3, n_companies=2, seed=1)
        expected = NaiveEngine().evaluate(query_q(), store)
        for use_reach in (False, True):
            assert run(compile_plan(query_q(), store, use_reach=use_reach), store) == expected

    def test_memoised_execution_of_shared_subplans(self):
        calls = []
        original = ScanOp._execute

        def counting(self, ctx):
            calls.append(self.name)
            return original(self, ctx)

        expr = parse("(E | E)")
        plan = compile_plan(expr, figure1())
        ScanOp._execute = counting
        try:
            run(plan, figure1())
        finally:
            ScanOp._execute = original
        assert calls == ["E"]


class TestPlanCache:
    def test_prepared_plan_is_correct_on_a_different_store(self):
        """Statistics pick a plan's strategy, never its answer: a plan
        compiled on one store runs correctly on another."""
        engine = HashJoinEngine()
        expr = parse("join[1,2,3'; 3=1'](E, E)")
        plan = engine.compile(expr, figure1())
        other = random_store(10, 40, seed=5)
        assert engine.execute_plan(plan, other) == NaiveEngine().evaluate(expr, other)
