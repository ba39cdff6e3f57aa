"""End-to-end integration tests across subsystem boundaries.

Each test strings several subsystems together the way a downstream user
would: files → parser → optimiser → engine → composition; RDF → σ →
graph languages → translations → algebra; datalog → validation →
algebra → FO.
"""

from pathlib import Path

import pytest

from repro.api import explain_report
from repro.core import (
    FastEngine,
    HashJoinEngine,
    R,
    evaluate,
    join,
    parse,
    project13,
    query_q,
    star,
)
from repro.core.optimizer import optimize
from repro.datalog import datalog_to_trial, parse_program, run_program
from repro.graphdb import evaluate_gxpath, parse_gxpath
from repro.logic import answers
from repro.rdf import RDFGraph, figure1, parse_ntriples, serialize_ntriples, sigma
from repro.translations import gxpath_to_trial, trial_to_fo
from repro.triplestore import Triplestore, dumps, loads
from repro.workloads import random_graph, transport_network

DATA = Path(__file__).parent.parent / "data"


class TestFileRoundTrips:
    def test_shipped_figure1_matches_dataset(self):
        stored = loads((DATA / "figure1.tstore").read_text())
        assert stored == figure1()

    def test_shipped_query_q_program(self):
        program = parse_program((DATA / "query_q.dl").read_text())
        store = loads((DATA / "figure1.tstore").read_text())
        assert run_program(program, store) == evaluate(query_q(), store)

    def test_store_survives_serialisation_under_queries(self):
        store = transport_network(n_cities=10, n_services=3, n_companies=2, seed=1)
        reloaded = loads(dumps(store))
        q = query_q()
        assert evaluate(q, store) == evaluate(q, reloaded)

    def test_rdf_ntriples_to_algebra(self):
        doc = parse_ntriples(serialize_ntriples(RDFGraph(figure1().relation("E"))))
        assert evaluate(query_q(), doc.to_triplestore()) == evaluate(
            query_q(), figure1()
        )


class TestTextToResultPipelines:
    def test_parse_optimize_evaluate(self):
        store = figure1()
        text = "select[2='part_of'](select[](E)) | (E - E)"
        raw = parse(text)
        opt = optimize(raw)
        assert opt.size() < raw.size()
        assert evaluate(opt, store) == evaluate(raw, store)
        assert evaluate(opt, store) == {
            t for t in store.relation("E") if t[1] == "part_of"
        }

    def test_explained_plan_runs_on_every_plan_engine(self):
        expr = parse("star[1,2,3'; 3=1'](E)")
        assert explain_report(expr).plan["op"] == "ReachStar"
        for engine in (FastEngine(), HashJoinEngine()):
            assert evaluate(expr, figure1(), engine) == evaluate(expr, figure1())

    def test_composition_chain(self):
        """Closure in practice: feed one query's output into the next."""
        store = figure1()
        hops_with_company = evaluate(parse("join[1,3',3; 2=1'](E, E)"), store)
        stage2 = store.with_relation("ByCompany", hops_with_company)
        same_company_chain = evaluate(
            star(R("ByCompany"), "1,2,3'", "3=1' & 2=2'"), stage2
        )
        assert ("St. Andrews", "NatExpress", "Edinburgh") in same_company_chain


class TestCrossSubsystemAgreement:
    def test_gxpath_text_to_algebra_to_fo(self):
        """GXPath text → TriAL* → (non-recursive part) FO, one chain."""
        g = random_graph(5, 8, seed=21)
        alpha = parse_gxpath("a/b-")
        expr = gxpath_to_trial(alpha)
        native = evaluate_gxpath(g, alpha)
        via_algebra = project13(evaluate(expr, g.to_triplestore()))
        assert native == via_algebra
        phi = trial_to_fo(expr)
        via_fo = frozenset(
            (row[0], row[2])
            for row in answers(phi, g.to_triplestore(), ("v1", "v2", "v3"))
        )
        assert via_fo == native

    def test_datalog_file_to_algebra_to_engines(self):
        program = parse_program((DATA / "query_q.dl").read_text())
        expr = datalog_to_trial(program)
        store = transport_network(n_cities=12, n_services=3, n_companies=2, seed=4)
        reference = run_program(program, store)
        for engine in (HashJoinEngine(), FastEngine()):
            assert engine.evaluate(expr, store) == reference

    def test_sigma_round_through_graph_queries(self):
        doc = RDFGraph(figure1().relation("E"))
        g = sigma(doc)
        # "next" over sigma == direct travel hops.
        pairs = evaluate_gxpath(g, parse_gxpath("next"))
        direct = {(s, o) for s, _, o in doc}
        assert pairs == direct


class TestErrorPropagation:
    def test_unknown_relation_surfaces_from_deep_pipelines(self):
        from repro.errors import UnknownRelationError

        expr = join(R("Nope"), R("E"), "1,2,3")
        with pytest.raises(UnknownRelationError):
            evaluate(expr, figure1())

    def test_budget_error_from_universe_in_big_store(self):
        from repro.errors import EvaluationBudgetError

        store = Triplestore([(f"o{i}", f"p{i}", f"q{i}") for i in range(300)])
        engine = HashJoinEngine(max_universe_objects=100)
        with pytest.raises(EvaluationBudgetError):
            engine.evaluate(parse("compl(E)"), store)
