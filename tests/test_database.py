"""The Database facade: caching, invalidation, frontend routing."""

import pytest

from repro.api import NativeQuery, get_language
from repro.core import (
    FastEngine,
    HashJoinEngine,
    NaiveEngine,
    evaluate,
    optimize,
    parse,
    project13,
    query_q,
)
from repro.core.plan import compile_plan
from repro.datalog import parse_program, run_program, trial_to_datalog
from repro.db import BACKENDS, Database
from repro.errors import ReproError, UnknownRelationError
from repro.graphdb import (
    evaluate_gxpath,
    evaluate_rpq,
    graph_database,
    gxpath_pairs,
    parse_gxpath,
    parse_nre,
    rpq_pairs,
)
from repro.graphdb.nre import evaluate_nre
from repro.rdf import RDFGraph, figure1
from repro.rdf.nsparql_query import Filter, NSparqlQuery, Pattern, QVar
from repro.workloads import random_graph, transport_network


@pytest.fixture()
def db():
    return Database(figure1())


class TestQueryPath:
    def test_query_accepts_text_and_ast(self, db):
        text = "join[1,3',3; 2=1'](E, E)"
        assert db.query(text) == db.query(parse(text))

    def test_matches_direct_evaluation(self, db):
        assert db.query(query_q()) == evaluate(query_q(), figure1())

    def test_query_pairs_projects(self, db):
        assert db.query(query_q()).pairs() == project13(db.query(query_q()).to_set())

    def test_parse_errors_surface(self, db):
        with pytest.raises(ReproError):
            db.query("join[**](E)")

    def test_unknown_relation_surfaces(self, db):
        with pytest.raises(UnknownRelationError):
            db.query("Nope")

    def test_works_with_every_engine(self):
        expected = evaluate(query_q(), figure1())
        for engine in (NaiveEngine(), HashJoinEngine(), FastEngine()):
            assert Database(figure1(), engine).query(query_q()) == expected


class TestCaching:
    def test_repeated_query_hits_cache(self, db):
        q = "star[1,2,3'; 3=1'](E)"
        db.query(q)
        before = db.cache_info()["results"].hits
        db.query(q)
        assert db.cache_info()["results"].hits == before + 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_answer_is_computed_and_held_once(self, backend):
        """A query, its prepared statement and two spellings the optimizer
        folds to it share one result entry: 1 miss, 3 hits, and the cache
        holds the answer's rows once."""
        db = Database(figure1(), backend=backend)
        q = "select[2='part_of'](E)"
        answer = db.query(q)
        assert db.prepare(q).execute() == answer
        assert db.query(f"({q} | {q})") == answer
        assert db.query("select[2='part_of' & 2='part_of'](E)") == answer
        info = db.cache_info()["results"]
        assert (info.misses, info.hits, info.size) == (1, 3, 1)
        assert db.result_cache_rows() == len(answer) > 0

    def test_plan_is_the_prepared_statements_plan(self, db):
        """``plan(q)`` binds the statement's cached plan: no second plan
        entry, and the same plan text as compiling ``q`` directly."""
        q = "join[1,2,3'; 3=1'](select[2='part_of'](E), E)"
        db.prepare(q)
        plan = db.plan(q)
        assert db.cache_info()["plans"].size == 1
        assert plan.pretty() == compile_plan(optimize(parse(q)), db.store).pretty()

    def test_results_are_cached_by_expression_identity(self, db):
        db.query("E")
        db.query("E")  # same parse → same Expr → hit
        info = db.cache_info()["results"]
        assert info.hits == 1 and info.misses == 1

    def test_install_invalidates(self, db):
        q = "E"
        first = db.query(q)
        db.install("E", [("x", "y", "z")])
        second = db.query(q)
        assert second == {("x", "y", "z")}
        assert second != first
        # Post-install lookups are misses, not stale hits.
        assert db.cache_info()["results"].misses >= 2

    def test_install_query_result_composes(self, db):
        db.install("Q", query_q())
        assert db.query("Q") == evaluate(query_q(), figure1())

    def test_clear_cache(self, db):
        db.query("E")
        db.clear_cache()
        db.query("E")
        assert db.cache_info()["results"].misses == 2

    def test_result_cache_bytes_counts_the_held_key_arrays(self):
        queries = ("E", "join[1,2,3'; 3=1'](E, E)", "star[1,2,3'; 3=1'](E)")
        # Figure 1 beside a padding relation: |T| = 27 rows of allowance
        # hold the three answers' 21.
        store = figure1().with_relation("Pad", [(i, "p", i + 1) for i in range(20)])
        for backend in ("columnar", "sharded"):
            db = Database(store, backend=backend)
            assert db.result_cache_bytes() == 0 == db.result_cache_rows()
            rows = sum(len(db.query(q)) for q in queries)
            db.query(queries[0])  # a hit holds nothing more
            assert db.result_cache_rows() == rows == 21
            assert db.result_cache_bytes() == 8 * rows
            db.install("F", [("x", "y", "z")])  # kills nothing that reads E
            db.query("F")
            assert db.result_cache_bytes() == 8 * (rows + 1)
            db.clear_cache()
            assert db.result_cache_bytes() == 0 == db.result_cache_rows()
        # Set-backed payloads (frozensets of object tuples) count as 0
        # bytes, and weigh their rows like any other.
        db = Database(store, backend="set")
        db.query(queries[1])
        assert db.cache_info()["results"].size == 1 and db.result_cache_bytes() == 0
        assert db.result_cache_rows() == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_result_cache_holds_at_most_store_rows_and_always_the_newest(
        self, backend
    ):
        # Figure 1 is 7 triples; E answers 7 rows, the join 3, the star 11.
        db = Database(figure1(), backend=backend)
        held = lambda: db.cache_info()["results"]
        db.query("E")
        assert (held().size, held().weight, held().budget) == (1, 7, 7)
        db.query("join[1,2,3'; 3=1'](E, E)")  # 7 + 3 > 7: E goes
        assert (held().size, held().weight) == (1, 3)
        db.query("(E - E)")  # 3 + 0 fits
        assert (held().size, held().weight) == (2, 3)
        db.query("star[1,2,3'; 3=1'](E)")  # larger than |T| by itself
        assert (held().size, held().weight) == (1, 11)
        hits = held().hits
        db.query("star[1,2,3'; 3=1'](E)")
        assert held().hits == hits + 1

    def test_cache_size_zero_disables(self):
        db = Database(figure1(), cache_size=0)
        db.query("E")
        db.query("E")
        info = db.cache_info()["results"]
        assert info.hits == 0 and info.size == 0

    def test_lru_evicts_oldest(self):
        db = Database(figure1(), cache_size=2)
        db.query("E")
        db.query("select[1=3](E)")
        db.query("(E - E)")  # evicts "E"
        db.query("E")
        assert db.cache_info()["results"].hits == 0

    def test_plan_cache_counts(self, db):
        q = "join[1,2,3'; 3=1'](E, E)"
        db.plan(q)
        db.plan(q)
        info = db.cache_info()["plans"]
        assert info.hits >= 1


class TestExplain:
    def test_explain_names_the_fragment(self, db):
        text = str(db.explain("star[1,2,3'; 3=1'](E)"))
        assert "reachTA=" in text

    def test_explain_shows_plan_and_costs(self, db):
        text = str(db.explain("join[1,3',3; 2=1'](E, E)"))
        assert "HashJoin" in text
        assert "cost≈" in text
        assert "|T|=7" in text

    def test_explain_routes_reach_star(self, db):
        text = str(db.explain("star[1,2,3'; 3=1'](E)"))
        assert "ReachStar" in text


class TestGraphFrontends:
    def test_gxpath_agrees_with_native(self):
        g = random_graph(5, 8, seed=21)
        alpha = parse_gxpath("a/b-")
        assert gxpath_pairs(g, "a/b-") == evaluate_gxpath(g, alpha)

    def test_rpq_agrees_with_native(self):
        g = random_graph(6, 10, seed=3)
        assert rpq_pairs(g, "a.(b)*") == evaluate_rpq(g, "a.(b)*")

    def test_nre_agrees_with_native(self):
        g = random_graph(6, 10, seed=7)
        nre = parse_nre("a.[b]")
        db = graph_database(g)
        assert db.query(nre, lang="nre").pairs() == evaluate_nre(g, nre)

    def test_graph_database_session_caches_across_queries(self):
        g = random_graph(5, 8, seed=21)
        db = graph_database(g)
        db.query("a/b-", lang="gxpath")
        db.query("a/b-", lang="gxpath")
        assert db.cache_info()["results"].hits >= 1


class TestRdfAndDatalogFrontends:
    def test_nsparql_through_facade(self):
        doc = RDFGraph(figure1().relation("E"))
        q = NSparqlQuery(
            patterns=[Pattern(QVar("x"), parse_nre("next"), QVar("y"))],
            select=("x", "y"),
        )
        db = Database.from_rdf(doc)
        assert db.query(q, lang="nsparql") == q.evaluate(doc)
        # Pattern pair sets are memoised in the session.
        db.query(q, lang="nsparql")
        assert db.cache_info()["aux"].hits >= 1

    def test_nsparql_requires_rdf_session(self, db):
        q = NSparqlQuery(
            patterns=[Pattern(QVar("x"), parse_nre("next"), QVar("y"))],
            select=("x", "y"),
        )
        with pytest.raises(ReproError):
            db.query(q, lang="nsparql")

    def test_datalog_translated_path_matches_native(self):
        store = transport_network(n_cities=8, n_services=2, n_companies=2, seed=9)
        program = trial_to_datalog(query_q())
        db = Database(store)
        assert db.query(program, lang="datalog") == run_program(program, store)

    def test_datalog_text_input(self, db):
        result = db.query(
            "R(x,y,z) :- E(x,y,z).\nAns(x,y,z) :- R(x,y,z).\n", lang="datalog"
        )
        assert result == figure1().relation("E")

    @pytest.mark.parametrize(
        "text",
        [
            # Binary predicates have no triple encoding.
            "P(x,z) :- E(x,y,z).\nAns(x,y,z) :- E(x,y,z), P(x, z).\n",
            # A negated literal's variable bound only by an equality with
            # a constant, and a rule with no positive literal: no anti-join.
            "Ans(x,y,z) :- E(x,y,w), z = 'zz', not E(x,y,z).",
            "Ans(x,y,z) :- x = 'a', y = 'p', z = 'c', not E(x,y,z).",
        ],
        ids=["binary", "constant-bound", "no-positive"],
    )
    def test_datalog_fallback_outside_fragment(self, db, text):
        # Translation refuses the program's shape; the native stratified
        # evaluator answers.
        program = parse_program(text)
        assert isinstance(get_language("datalog").compile(db, program), NativeQuery)
        expected = run_program(program, figure1())
        assert expected
        assert db.query(program, lang="datalog") == expected


class TestConstructors:
    def test_open_round_trips(self, tmp_path):
        from repro.triplestore import dump_path

        path = tmp_path / "s.tstore"
        dump_path(figure1(), str(path))
        assert Database.open(str(path)).query("E") == figure1().relation("E")

    def test_from_triples(self):
        db = Database.from_triples([("a", "p", "b")])
        assert db.query("E") == {("a", "p", "b")}

    def test_repr_mentions_engine(self, db):
        assert type(db.engine).__name__ in repr(db)
        assert f"backend={db.backend}" in repr(db)


class TestClose:
    def test_double_close_is_noop(self, db):
        db.close()
        db.close()

    def test_close_runs_hooks_once(self, db):
        calls = []
        db.add_close_hook(lambda _db: calls.append(1))
        db.close()
        db.close()
        assert calls == [1]

    def test_close_after_failed_init_is_noop(self):
        # A Database that never finished __init__ (e.g. bad arguments)
        # must still close without raising — __del__-style cleanup paths
        # call close() on partially-constructed objects.
        shell = object.__new__(Database)
        shell.close()

    def test_close_after_failed_open_is_noop(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Database.open(str(tmp_path / "missing.tstore"))
        # Nothing leaked: a fresh in-memory database still works.
        db = Database(figure1())
        db.query("E")
        db.close()
