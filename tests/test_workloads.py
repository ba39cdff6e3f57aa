"""Workload generators and their reference implementations (ground truth)."""

import pytest

from repro.core import FastEngine, HashJoinEngine, R, Star, evaluate, query_q, star
from repro.core.conditions import Cond
from repro.core.positions import Pos
from repro.workloads import (
    chain_store,
    clique_graph,
    cycle_store,
    random_graph,
    random_store,
    reference_query_q,
    same_type_reachability_reference,
    social_network_store,
    transport_network,
)


class TestGenerators:
    def test_random_store_deterministic(self):
        assert random_store(6, 10, seed=3) == random_store(6, 10, seed=3)
        assert random_store(6, 10, seed=3) != random_store(6, 10, seed=4)

    def test_random_store_multi_relation(self):
        t = random_store(6, 12, n_relations=3)
        assert len(t.relation_names) == 3

    def test_chain_store(self):
        t = chain_store(5, label_cycle=2)
        assert len(t) == 5
        assert ("o0", "l0", "o1") in t

    def test_cycle_store(self):
        t = cycle_store(4)
        assert ("o3", "l", "o0") in t

    def test_clique_graph(self):
        g = clique_graph(4)
        assert len(g.edges) == 12
        assert len({g.rho(v) for v in g.nodes}) == 4

    def test_random_graph_no_isolated_nodes(self):
        g = random_graph(10, 8, seed=5)
        for node in g.nodes:
            touched = any(node in (u, v) for u, _, v in g.edges)
            assert touched


class TestTransportGroundTruth:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_cities=6, n_services=3, n_companies=2),
            dict(n_cities=8, n_services=4, n_companies=3, hierarchy_depth=3),
            dict(n_cities=5, n_services=2, n_companies=2, extra_routes=4),
        ],
    )
    def test_reference_matches_algebra(self, seed, kwargs):
        """query Q (TriAL*) equals the independent per-company BFS."""
        store = transport_network(seed=seed, **kwargs)
        assert evaluate(query_q(), store) == reference_query_q(store)

    def test_reference_matches_on_figure1(self):
        from repro.rdf.datasets import figure1

        assert evaluate(query_q(), figure1()) == reference_query_q(figure1())

    def test_transitivity_matters(self):
        """comp0 ⊂ comp1 makes comp1 witness comp0's routes."""
        store = transport_network(n_cities=4, n_services=1, n_companies=2, seed=0)
        result = evaluate(query_q(), store)
        assert any(p == "comp1" for _, p, _ in result)


class TestSocialGroundTruth:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_type_reachability(self, seed):
        store = social_network_store(8, 14, data_mode="type", seed=seed)
        expr = Star(
            R("E"),
            (0, 1, 5),
            (Cond(Pos(2), Pos(3)), Cond(Pos(1), Pos(4), "=", True)),
        )
        assert evaluate(expr, store) == same_type_reachability_reference(store)

    def test_quintuple_mode(self):
        store = social_network_store(3, 2, data_mode="quintuple", seed=0)
        users = [o for o in store.objects if str(o).startswith("u")]
        assert all(store.rho(u)[3] is None for u in users)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            social_network_store(3, 2, data_mode="nope")


class TestFastEngineOnWorkloads:
    @pytest.mark.parametrize(
        "engine", [FastEngine(), HashJoinEngine()], ids=["bfs", "semi-naive"]
    )
    def test_reach_star_on_chain(self, engine):
        t = chain_store(30)
        expr = star(R("E"), "1,2,3'", "3=1'")
        closure = engine.evaluate(expr, t)
        # Chain closure: (o_i, l_i, o_j) for all i < j ≤ n.
        assert len(closure) == 30 * 31 // 2
