"""The v2 query API: prepared statements, cursors, explain, batches.

Covers the acceptance bar of the API redesign:

* a prepared TriAL statement executed under several parameter bindings
  compiles exactly once (``cache_info()``) and returns exactly what a
  fresh per-binding compilation returns, on all four backends;
* ``ResultSet`` behaves like the frozenset it replaced while keeping
  columnar results undecoded until rows are consumed;
* mutation invalidation is relation-aware, and ``db.batch()`` is
  transactional;
* the structured explain report round-trips through JSON.
"""

import json
import threading

import pytest

from repro.api import LANGUAGES, PreparedStatement, ResultSet, explain_report
from repro.core import NaiveEngine, parse
from repro.core.engines import PlanEngine
from repro.core.params import (
    bind_plan,
    canonicalize_constants,
    expr_params,
    plan_params,
    substitute_params,
)
from repro.core.positions import Param
from repro.db import Database, _LRU
from repro.errors import AlgebraError, ReproError, UnboundParameterError
from repro.rdf import figure1
from repro.triplestore.model import Triplestore
from repro.workloads import transport_network

#: A small fixed store with two relations and label variety.
STORE = Triplestore(
    {
        "E": [
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("c", "q", "a"),
            ("a", "q", "c"),
            ("d", "p", "a"),
            ("d", "r", "b"),
        ],
        "F": [("b", "r", "d"), ("c", "r", "d")],
    },
    rho={"a": 0, "b": 1, "c": 0, "d": 1, "p": 0, "q": 1, "r": 0},
)

#: The four execution stacks of the acceptance criterion.
BACKEND_DBS = {
    "naive": lambda store: Database(store, NaiveEngine()),
    "fast": lambda store: Database(store, backend="set"),
    "columnar": lambda store: Database(store, backend="columnar"),
    "sharded": lambda store: Database(store, backend="sharded", shards=3),
}

PARAM_QUERY = "join[1,3',3; 2=1'](select[2=$label](E), (E | F))"
BINDINGS = ["p", "q", "r"]


# --------------------------------------------------------------------- #
# Parameterized expressions (core machinery)
# --------------------------------------------------------------------- #


class TestParams:
    def test_dollar_syntax_round_trips(self):
        expr = parse("select[2=$label & rho(1)=$dv](E)")
        assert expr_params(expr) == ("label", "dv")
        assert parse(repr(expr)) == expr

    def test_param_name_must_be_identifier(self):
        with pytest.raises(AlgebraError):
            Param("not an identifier")

    def test_substitute_params_yields_constant_expr(self):
        expr = parse("select[2=$x](E)")
        assert substitute_params(expr, {"x": "p"}) == parse("select[2='p'](E)")

    def test_canonicalize_extracts_all_constants(self):
        canon, binds = canonicalize_constants(parse("select[2='p' & 1='a'](E)"))
        assert expr_params(canon) == tuple(binds)
        assert sorted(binds.values()) == ["a", "p"]
        assert substitute_params(canon, binds) == parse("select[2='p' & 1='a'](E)")

    def test_canonicalize_is_constant_blind(self):
        canon_a, _ = canonicalize_constants(parse("select[2='p'](E)"))
        canon_b, _ = canonicalize_constants(parse("select[2='zzz'](E)"))
        assert canon_a == canon_b

    def test_canonicalize_avoids_user_name_collisions(self):
        canon, binds = canonicalize_constants(parse("select[2=$_c0 & 1='a'](E)"))
        assert "_c0" not in binds  # the user owns $_c0; the auto name skipped it
        assert set(expr_params(canon)) == {"_c0"} | set(binds)

    def test_bind_plan_substitutes_and_shares(self):
        db = Database(STORE)
        plan = db.plan("select[2=$x](E)")
        assert plan_params(plan) == ("x",)
        bound = bind_plan(plan, {"x": "p"})
        assert plan_params(bound) == ()
        # Parameter-free operators are shared, not copied.
        assert bind_plan(plan, {}) is plan

    def test_unbound_execution_raises(self):
        db = Database(STORE)
        with pytest.raises(UnboundParameterError):
            db.query("select[2=$x](E)")

    def test_unknown_binding_rejected(self):
        db = Database(STORE)
        with pytest.raises(AlgebraError):
            db.query("select[2=$x](E)", x="p", typo="q")


# --------------------------------------------------------------------- #
# Prepared statements — the acceptance criterion
# --------------------------------------------------------------------- #


class TestPreparedStatements:
    @pytest.mark.parametrize("backend", sorted(BACKEND_DBS))
    def test_compiles_once_and_matches_fresh_compilation(self, backend):
        db = BACKEND_DBS[backend](STORE)
        stmt = db.prepare(PARAM_QUERY)
        assert isinstance(stmt, PreparedStatement)
        assert stmt.params == ("label",)
        plan_misses_after_prepare = db.cache_info()["plans"].misses

        results = {}
        for label in BINDINGS:
            results[label] = stmt.execute(label=label).to_set()

        info = db.cache_info()["plans"]
        # Compiled exactly once: no further planning happened while the
        # three bindings executed.
        assert info.misses == plan_misses_after_prepare
        if isinstance(db.engine, PlanEngine):
            # Plan engines fetch the cached plan per execution.
            assert info.hits >= len(BINDINGS)

        for label in BINDINGS:
            fresh = BACKEND_DBS[backend](STORE)
            constant_query = PARAM_QUERY.replace("$label", f"'{label}'")
            assert results[label] == fresh.query(constant_query).to_set(), label

    @pytest.mark.parametrize("backend", sorted(BACKEND_DBS))
    def test_same_plan_object_across_bindings(self, backend):
        db = BACKEND_DBS[backend](STORE)
        stmt = db.prepare("select[2=$x](E)")
        assert stmt.plan() is stmt.plan()

    def test_repeated_binding_hits_result_cache(self):
        db = Database(STORE)
        stmt = db.prepare("select[2=$x](E)")
        stmt.execute(x="p")
        before = db.cache_info()["results"].hits
        stmt.execute(x="p")
        assert db.cache_info()["results"].hits == before + 1

    @pytest.mark.parametrize("backend", sorted(BACKEND_DBS))
    def test_statements_differing_only_in_constants_do_not_collide(self, backend):
        # Both canonicalize to select[2=$_c0](E): the result-cache key
        # must carry the canonicalized constants, not just user bindings.
        db = BACKEND_DBS[backend](STORE)
        s1 = db.prepare("select[2='p'](E)")
        s2 = db.prepare("select[2='q'](E)")
        assert s1.execute().to_set() == db.query("select[2='p'](E)").to_set()
        assert s2.execute().to_set() == db.query("select[2='q'](E)").to_set()
        assert s1.execute().to_set() != s2.execute().to_set()

    @pytest.mark.parametrize("backend", ["fast", "columnar", "sharded"])
    def test_executing_unbound_plan_raises(self, backend):
        # A parameterized plan handed straight to an engine must raise,
        # not silently miss the index and return an empty result.
        db = BACKEND_DBS[backend](STORE)
        stmt = db.prepare("select[2=$x](E)")
        with pytest.raises(UnboundParameterError):
            db.engine.execute_plan(stmt.plan(), db.store)

    def test_executemany(self):
        db = Database(STORE)
        stmt = db.prepare("select[2=$x](E)")
        a, b = stmt.executemany([{"x": "p"}, {"x": "q"}])
        assert a == db.query("select[2='p'](E)")
        assert b == db.query("select[2='q'](E)")

    def test_missing_binding_raises(self):
        stmt = Database(STORE).prepare(PARAM_QUERY)
        with pytest.raises(UnboundParameterError, match="label"):
            stmt.execute()

    def test_eta_parameter_binds_data_values(self):
        db = Database(STORE)
        stmt = db.prepare("select[rho(1)=$dv](E)")
        assert stmt.execute(dv=0) == db.query("select[rho(1)=0](E)")
        assert stmt.execute(dv=1) == db.query("select[rho(1)=1](E)")

    def test_cross_parameter_plan_cache_for_plain_queries(self):
        # Not just prepared statements: ad-hoc queries differing only in
        # constants canonicalize to one plan-cache entry.
        db = Database(STORE)
        db.query("select[2='p'](E)")
        before = db.cache_info()["plans"]
        db.query("select[2='q'](E)")
        db.query("select[2='r'](E)")
        after = db.cache_info()["plans"]
        assert after.misses == before.misses
        assert after.hits >= before.hits + 2

    def test_prepare_rejects_non_algebraic_languages(self):
        doc_db = Database(STORE)
        with pytest.raises(ReproError, match="prepared"):
            doc_db.prepare(
                "P(x,z) :- E(x,y,z).\nAns(x,y,z) :- E(x,y,z), P(x, z).\n",
                lang="datalog",
            )

    def test_prepare_graph_language(self):
        db = Database(figure1())
        stmt = db.prepare("a/b-", lang="gxpath")
        assert stmt.execute().pairs() == db.query("a/b-", lang="gxpath").pairs()

    def test_randomized_bound_equals_recompiled(self):
        """Differential: bound execution ≡ fresh compilation, random stores.

        Random stores and constants from the differential harness's
        generator; every backend must agree between (a) one prepared
        plan bound per constant and (b) a per-constant recompilation.
        """
        import random

        from tests.diffcheck import random_triplestore

        rng = random.Random(20260729)
        for round_no in range(5):
            store = random_triplestore(rng)
            objects = sorted(store.objects, key=repr)
            labels = [rng.choice(objects) for _ in range(3)]
            for backend, make_db in BACKEND_DBS.items():
                db = make_db(store)
                stmt = db.prepare("join[1,2,3'; 3=1'](select[2=$l](E), E)")
                for label in labels:
                    bound = stmt.execute(l=label).to_set()
                    fresh = make_db(store).query(
                        parse("join[1,2,3'; 3=1'](select[2=$l](E), E)"),
                        l=label,
                    )
                    assert bound == fresh.to_set(), (backend, round_no, label)


# --------------------------------------------------------------------- #
# ResultSet: the lazy cursor
# --------------------------------------------------------------------- #


class TestResultSet:
    @pytest.mark.parametrize("backend", sorted(BACKEND_DBS))
    def test_set_compatibility(self, backend):
        db = BACKEND_DBS[backend](STORE)
        rs = db.query("E")
        expected = STORE.relation("E")
        assert rs == expected
        assert expected == rs
        assert len(rs) == len(expected)
        assert set(rs) == set(expected)
        assert ("a", "p", "b") in rs
        assert ("a", "zzz", "b") not in rs
        assert "not-a-triple" not in rs
        assert hash(rs) == hash(frozenset(expected))
        assert (rs | {("x", "y", "z")}) == expected | {("x", "y", "z")}
        assert (rs - expected) == frozenset()
        assert bool(rs) and not bool(db.query("E - E"))

    @pytest.mark.parametrize("backend", sorted(BACKEND_DBS))
    def test_limit_offset_window(self, backend):
        db = BACKEND_DBS[backend](STORE)
        rs = db.query("E")
        rows = rs.to_list()
        assert rs.limit(2).to_list() == rows[:2]
        assert rs.offset(2).to_list() == rows[2:]
        assert rs.offset(1).limit(3).to_list() == rows[1:4]
        assert rs.limit(3).offset(1).to_list() == rows[1:3]
        assert rs.limit(0).to_list() == []
        assert len(rs.offset(len(rows) + 5)) == 0
        assert rs.total == len(rows)
        assert rs.limit(2).total == len(rows)
        assert rs.first() == rows[0]
        with pytest.raises(AlgebraError):
            rs.limit(-1)

    def test_iteration_is_deterministic(self):
        a = Database(STORE).query("E").to_list()
        b = Database(STORE).query("E").to_list()
        assert a == b

    def test_pairs_projection(self):
        for backend in sorted(BACKEND_DBS):
            rs = BACKEND_DBS[backend](STORE).query("join[1,2,3'; 3=1'](E, E)")
            assert rs.pairs() == frozenset((s, o) for s, p, o in rs), backend

    def test_windowed_membership(self):
        rs = Database(STORE, backend="columnar").query("E")
        head = rs.limit(2)
        rows = rs.to_list()
        assert rows[0] in head and rows[1] in head
        assert rows[2] not in head

    def test_columnar_iteration_defers_decode(self, monkeypatch):
        from repro.triplestore.columnar import ColumnarStore

        decoded_rows = []
        real = ColumnarStore.decode_list

        def counting(self, keys):
            decoded_rows.append(len(keys))
            return real(self, keys)

        monkeypatch.setattr(ColumnarStore, "decode_list", counting)
        store = transport_network(n_cities=30, n_services=4, n_companies=3, seed=5)
        db = Database(store, backend="columnar")
        rs = db.query("join[1,2,3'; 3=1'](E, E)")
        assert rs.total > 3  # big enough for the window to matter
        rs.limit(3).to_list()
        assert sum(decoded_rows) == 3  # only the shown rows were decoded

    def test_columnar_full_decode_not_triggered_by_len(self, monkeypatch):
        from repro.triplestore.columnar import ColumnarStore

        def forbidden(self, keys):  # pragma: no cover — failing path
            raise AssertionError("len()/limit() must not decode")

        db = Database(STORE, backend="columnar")
        rs = db.query("E")
        monkeypatch.setattr(ColumnarStore, "decode_list", forbidden)
        monkeypatch.setattr(ColumnarStore, "decode_triples", forbidden)
        assert len(rs) == len(STORE.relation("E"))
        assert rs.limit(3).total == len(STORE.relation("E"))

    def test_from_iterable_set_algebra_result_type(self):
        rs = Database(STORE).query("E")
        out = rs & frozenset(list(STORE.relation("E"))[:2])
        assert isinstance(out, ResultSet)

    def test_cache_hits_share_the_rows_payload(self):
        # A repeated query must reuse the cached rows object (and its
        # decoded state), not rebuild and re-decode it per call.
        db = Database(STORE, backend="columnar")
        r1 = db.query("E")
        r2 = db.query("E")
        assert r1._rows is r2._rows
        r1.to_set()
        assert r2._rows._decoded is not None  # decode happened once, shared


# --------------------------------------------------------------------- #
# Relation-aware invalidation + transactional batches
# --------------------------------------------------------------------- #


class TestInvalidationAndBatch:
    def test_install_only_invalidates_dependents(self):
        db = Database(STORE)
        db.query("E")
        db.query("F")
        db.plan("E")
        db.install("F", [("x", "r", "y")])
        # E entries still hit; F entries recompute.
        db.query("E")
        assert db.cache_info()["results"].hits >= 1
        assert db.query("F") == {("x", "r", "y")}

    def test_install_invalidates_plans_of_dependents_only(self):
        db = Database(STORE)
        db.plan("join[1,2,3'; 3=1'](E, E)")
        db.plan("F")
        before = db.cache_info()["plans"]
        db.install("F", [("x", "r", "y")])
        db.plan("join[1,2,3'; 3=1'](E, E)")  # unaffected → hit
        db.plan("F")  # mutated → recompiled
        after = db.cache_info()["plans"]
        assert after.hits == before.hits + 1
        assert after.misses == before.misses + 1

    def test_universe_queries_depend_on_every_mutation(self):
        db = Database(Triplestore([("a", "b", "c")]))
        db.query("U")
        db.install("G", [("a", "b", "a")])
        db.query("U")
        assert db.cache_info()["results"].misses >= 2

    def test_install_on_queried_relation_still_invalidates(self):
        db = Database(STORE)
        first = db.query("E").to_set()
        db.install("E", [("x", "y", "z")])
        assert db.query("E") == {("x", "y", "z")}
        assert db.query("E") != first

    def test_batch_commits_atomically(self):
        db = Database(STORE)
        base_e = db.query("E").to_set()
        with db.batch():
            db.install("Closure", "star[1,2,3'; 3=1'](E)")
            db.install("Extra", [("x", "p", "y")])
            # Staged mutations are invisible inside the batch.
            assert "Closure" not in db.store.relation_names
        assert db.query("Extra") == {("x", "p", "y")}
        assert db.query("Closure").to_set() >= base_e

    def test_batch_rolls_back_on_error(self):
        db = Database(STORE)
        with pytest.raises(ValueError):
            with db.batch():
                db.install("Doomed", [("x", "p", "y")])
                raise ValueError("boom")
        assert "Doomed" not in db.store.relation_names

    def test_nested_batch_rejected(self):
        db = Database(STORE)
        with db.batch():
            with pytest.raises(ReproError):
                with db.batch():
                    pass  # pragma: no cover

    def test_batch_single_invalidation(self):
        db = Database(STORE)
        db.query("E")
        db.query("F")
        with db.batch():
            db.install("A", [("x", "p", "y")])
            db.install("B", [("x", "q", "y")])
        # E and F were untouched by the batch: their entries still hit.
        db.query("E")
        db.query("F")
        assert db.cache_info()["results"].hits >= 2


# --------------------------------------------------------------------- #
# Thread safety
# --------------------------------------------------------------------- #


class TestThreadSafety:
    def test_lru_concurrent_hammer(self):
        lru = _LRU(maxsize=8)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(500):
                    key = (seed * 7 + i) % 23
                    value = lru.get(key, lambda k=key: k * 2)
                    assert value == key * 2
            except Exception as exc:  # pragma: no cover — failing path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = lru.info()
        assert info.size <= 8
        assert info.hits + info.misses == 8 * 500

    def test_concurrent_queries_on_shared_database(self):
        db = Database(STORE, backend="sharded", shards=2)
        expected = db.query("join[1,2,3'; 3=1'](E, E)").to_set()
        errors = []

        def worker() -> None:
            try:
                for _ in range(20):
                    assert db.query("join[1,2,3'; 3=1'](E, E)") == expected
            except Exception as exc:  # pragma: no cover — failing path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


# --------------------------------------------------------------------- #
# Structured explain
# --------------------------------------------------------------------- #


class TestExplainReport:
    def test_report_round_trips_through_json(self):
        db = Database(STORE)
        report = db.explain("join[1,2,3'; 3=1'](select[2='p'](E), F)")
        data = json.loads(report.to_json())
        assert data["logical"]["fragment"].startswith("TriAL")
        assert data["statistics"] == {"triples": len(STORE), "objects": STORE.n_objects}
        assert data["plan"]["op"] == "HashJoin"
        kinds = set()

        def walk(node):
            kinds.add(node["op"])
            for child in node.get("children", ()):
                walk(child)

        walk(data["plan"])
        assert {"HashJoin", "IndexLookup", "Scan"} <= kinds

    def test_report_shows_parameters(self):
        report = Database(STORE).explain("select[2=$x](E)")
        assert report.parameters == ("x",)
        assert "$x" in report.to_json()

    def test_sharded_report_names_backend_over_the_set_plan(self):
        query = "join[1,2,3'; 3=1'](E, E)"
        data = json.loads(
            Database(STORE, backend="sharded", shards=3).explain(query).to_json()
        )
        assert data["backend"].startswith("sharded(3-way")
        assert data["plan"] == Database(STORE).explain(query).to_dict()["plan"]

    def test_columnar_report_names_backend_over_the_set_plan(self):
        query = "star[1,2,3'; 3=1'](E)"
        data = json.loads(
            Database(STORE, backend="columnar").explain(query).to_json()
        )
        assert data["backend"] == "columnar"
        assert data["plan"]["op"] == "ReachStar"
        assert "strategy" not in data["plan"]
        assert data["plan"] == Database(STORE).explain(query).to_dict()["plan"]

    def test_function_form_without_store(self):
        report = explain_report(parse("star[1,2,3'; 3=1'](E)"))
        data = json.loads(report.to_json())
        assert data["statistics"] is None


# --------------------------------------------------------------------- #
# The language registry
# --------------------------------------------------------------------- #


class TestLanguageRegistry:
    def test_registered_languages(self):
        assert {"trial", "datalog", "gxpath", "rpq", "nre", "nsparql"} <= set(LANGUAGES)

    def test_unknown_language_rejected(self):
        with pytest.raises(ReproError, match="unknown query language"):
            Database(STORE).query("E", lang="sql")

    def test_trial_rejects_foreign_ast(self):
        with pytest.raises(AlgebraError):
            Database(STORE).query(12345)

    def test_all_algebraic_languages_share_the_compile_path(self):
        db = Database(figure1())
        db.query("a/b-", lang="gxpath")
        # The translated expression went through the same plan cache.
        assert db.cache_info()["plans"].misses >= 1
