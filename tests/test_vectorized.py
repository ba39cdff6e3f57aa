"""Unit tests for the columnar store and the vectorised execution backend.

The randomized cross-engine agreement lives in ``test_differential.py``;
these tests pin the deterministic pieces: the packed-key encoding, the
backend-aware lowering, the dense/sparse representation choice with its
``MatrixTooLargeError`` fallback, and the facade/CLI wiring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FastEngine,
    NaiveEngine,
    R,
    VectorEngine,
    join,
    select,
    star,
)
from repro.core.plan import ReachStarOp, StarOp, compile_plan, lower_plan
from repro.db import Database
from repro.errors import (
    EvaluationBudgetError,
    MatrixTooLargeError,
    ReproError,
    TriplestoreError,
    UnknownRelationError,
)
from repro.triplestore import ColumnarStore, MatrixStore
from repro.triplestore.model import Triplestore
from repro.workloads import chain_store, random_store


@pytest.fixture()
def store() -> Triplestore:
    return Triplestore(
        [
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("c", "q", "a"),
            ("a", "q", "c"),
            ("c", "q", "c"),
        ],
        rho={"a": 0, "b": 1, "c": 0, "p": 1, "q": 0},
    )


# --------------------------------------------------------------------- #
# ColumnarStore
# --------------------------------------------------------------------- #


class TestColumnarStore:
    def test_roundtrip_relation(self, store):
        cs = store.columnar()
        assert cs.decode_triples(cs.relation_keys("E")) == store.relation("E")

    def test_encode_decode_arbitrary_triples(self, store):
        cs = store.columnar()
        triples = {("a", "a", "a"), ("c", "b", "p")}
        assert cs.decode_triples(cs.encode_triples(triples)) == triples

    def test_keys_are_sorted_unique(self, store):
        keys = store.columnar().relation_keys("E")
        assert np.all(np.diff(keys) > 0)

    def test_pack_unpack_inverse(self, store):
        cs = store.columnar()
        cols = cs.relation_columns("E")
        assert np.array_equal(cs.unpack(cs.pack(cols)), cols)

    def test_dv_codes_encode_rho(self, store):
        cs = store.columnar()
        for code, obj in enumerate(cs.objects):
            assert cs.dv_values[cs.dv_codes[code]] == store.rho(obj)

    def test_view_is_cached_on_the_store(self, store):
        assert store.columnar() is store.columnar()

    def test_unknown_relation(self, store):
        with pytest.raises(UnknownRelationError):
            store.columnar().relation_keys("Nope")

    def test_unknown_constants_encode_to_sentinel(self, store):
        cs = store.columnar()
        assert cs.code_of("not-there") == -1
        assert cs.dv_code_of("not-there") == -1


# --------------------------------------------------------------------- #
# MatrixTooLargeError (MatrixStore guard + columnar fallback)
# --------------------------------------------------------------------- #


class TestMatrixGuard:
    def test_matrix_store_raises_dedicated_error(self):
        big = random_store(30, 40, seed=1)
        with pytest.raises(MatrixTooLargeError) as excinfo:
            MatrixStore(big, max_objects=8)
        assert excinfo.value.n_objects == big.n_objects
        assert excinfo.value.limit == 8

    def test_matrix_error_is_a_triplestore_error(self):
        """Callers catching the old TriplestoreError keep working."""
        with pytest.raises(TriplestoreError):
            MatrixStore(random_store(30, 40, seed=1), max_objects=8)

    def test_dense_reach_guard_trips_and_falls_back(self):
        """A dense-lowered plan over a too-big store degrades to sparse."""
        small = random_store(5, 8, seed=3)
        big = random_store(40, 120, seed=4)
        engine = VectorEngine(max_matrix_objects=10)
        expr = star(R("E"), "1,2,3'", "3=1'")
        plan = engine.compile(expr, small)
        (op,) = [op for op in plan.walk() if isinstance(op, ReachStarOp)]
        assert op.vector_strategy == "dense"
        # Same cached plan, bigger store: the guard raises inside the
        # dense path and execution silently completes sparse.
        assert engine.execute_plan(plan, big) == FastEngine().evaluate(expr, big)

    def test_dense_path_raises_when_called_directly(self):
        from repro.core.engines.vectorized import reach_dense

        big = random_store(40, 120, seed=4)
        keys = big.columnar().relation_keys("E")
        with pytest.raises(MatrixTooLargeError):
            reach_dense(big.columnar(), 10, keys, same_label=False)

    def test_dense_closure_survives_256_path_witnesses(self):
        """Regression: a uint8 matmul accumulator wraps at 256 witnesses.

        z → a → m_k → b for 256 midpoints: the (a, b) closure entry has
        exactly 256 two-step witnesses, which a mod-256 accumulator
        counts as zero — silently dropping (z, p, b) from the result.
        """
        triples = [("z", "p", "a")]
        triples += [("a", "p", f"m{k}") for k in range(256)]
        triples += [(f"m{k}", "p", "b") for k in range(256)]
        store = Triplestore(triples)
        expr = star(R("E"), "1,2,3'", "3=1'")
        engine = VectorEngine()
        plan = engine.compile(expr, store)
        (op,) = [op for op in plan.walk() if isinstance(op, ReachStarOp)]
        assert op.vector_strategy == "dense"  # the bug needs the dense path
        result = engine.evaluate(expr, store)
        assert ("z", "p", "b") in result
        assert result == FastEngine().evaluate(expr, store)


# --------------------------------------------------------------------- #
# Lowering
# --------------------------------------------------------------------- #


class TestLowering:
    def test_columnar_lowering_annotates_stars(self, store):
        expr = star(R("E"), "1,2,3'", "3=1'")
        plan = compile_plan(expr, store, backend="columnar")
        (op,) = [op for op in plan.walk() if isinstance(op, ReachStarOp)]
        assert op.vector_strategy == "dense"
        assert "[dense]" in op.label()

    def test_sparse_verdict_above_the_guard(self):
        big = chain_store(600)
        expr = star(R("E"), "1,2,3'", "3=1'")
        plan = compile_plan(expr, big, backend="columnar")
        (op,) = [op for op in plan.walk() if isinstance(op, ReachStarOp)]
        assert op.vector_strategy == "sparse"

    def test_general_stars_are_always_sparse(self, store):
        expr = star(R("E"), "1,2,2'", "3=1'")
        plan = compile_plan(expr, store, backend="columnar", use_reach=True)
        (op,) = [op for op in plan.walk() if isinstance(op, StarOp)]
        assert op.vector_strategy == "sparse"

    def test_set_lowering_is_identity(self, store):
        expr = star(R("E"), "1,2,3'", "3=1'")
        plan = compile_plan(expr, store, backend="set")
        for op in plan.walk():
            assert getattr(op, "vector_strategy", None) is None

    def test_unknown_backend_rejected(self, store):
        with pytest.raises(ReproError):
            lower_plan(compile_plan(R("E"), store), backend="quantum")


# --------------------------------------------------------------------- #
# Engine behaviour pinned on fixed cases
# --------------------------------------------------------------------- #


class TestVectorEngine:
    def test_agrees_on_a_fixed_workload(self, store):
        naive, vector = NaiveEngine(), VectorEngine()
        workload = [
            R("E"),
            select(R("E"), "2='p' & rho(1)=rho(3)"),
            join(R("E"), R("E"), "1,2,3'", "3=1' & rho(2)=rho(2')"),
            join(R("E"), R("E"), "1,1',3", "1!=1'"),
            star(R("E"), "1,2,3'", "3=1'"),
            star(R("E"), "1,2,3'", "3=1' & 2=2'"),
            star(R("E"), "1,2,2'", "3=1'"),
        ]
        for expr in workload:
            assert vector.evaluate(expr, store) == naive.evaluate(expr, store), repr(expr)

    def test_universe_budget_enforced(self):
        big = random_store(50, 120, seed=2)
        engine = VectorEngine(max_universe_objects=10)
        from repro.core import universe

        with pytest.raises(EvaluationBudgetError):
            engine.evaluate(universe(), big)

    def test_closed_join_gate_does_not_suppress_child_errors(self):
        """Regression: children run before the constant gate, like the oracle.

        A join whose constant-only condition is false still evaluates its
        operands first, so a U child over an oversized store raises the
        budget error on every backend instead of vanishing on one.
        """
        from repro.core import universe
        from repro.core.expressions import Join

        big = random_store(50, 120, seed=2)
        expr = Join(universe(), R("E"), (0, 1, 2), "'x'='y'")
        engine = VectorEngine(max_universe_objects=10)
        with pytest.raises(EvaluationBudgetError):
            engine.evaluate(expr, big)

    def test_unknown_relation_propagates(self, store):
        with pytest.raises(UnknownRelationError):
            VectorEngine().evaluate(R("Nope"), store)

    def test_composite_key_compression_preserves_join_semantics(
        self, store, monkeypatch
    ):
        """Regression: radix-folded join keys must not overflow int64.

        Forcing the compression threshold down makes every multi-equality
        join take the dense-re-ranking path; results must be unchanged.
        """
        import repro.core.engines.vectorized as vz

        monkeypatch.setattr(vz, "_MAX_COMPOSITE_KEY", 4)
        expr = join(
            R("E"), R("E"), "1,2,3'", "3=1' & 2=2' & rho(1)=rho(1')"
        )
        assert VectorEngine().evaluate(expr, store) == NaiveEngine().evaluate(
            expr, store
        )


# --------------------------------------------------------------------- #
# Facade and CLI wiring
# --------------------------------------------------------------------- #


class TestBackendWiring:
    def test_database_backend_selects_vector_engine(self, store):
        db = Database(store, backend="columnar")
        assert isinstance(db.engine, VectorEngine)
        assert db.backend == "columnar"
        assert db.query("star[1,2,3'; 3=1'](E)") == Database(store).query(
            "star[1,2,3'; 3=1'](E)"
        )

    def test_backend_inferred_from_engine(self, store):
        assert Database(store, VectorEngine()).backend == "columnar"
        assert Database(store, FastEngine()).backend == "set"

    def test_env_var_default(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "columnar")
        assert Database(store).backend == "columnar"
        monkeypatch.delenv("REPRO_BACKEND")
        assert Database(store).backend == "set"

    def test_unknown_backend_rejected(self, store):
        with pytest.raises(ReproError):
            Database(store, backend="quantum")

    def test_contradictory_engine_backend_rejected(self, store):
        with pytest.raises(ReproError):
            Database(store, FastEngine(), backend="columnar")
        with pytest.raises(ReproError):
            Database(store, VectorEngine(), backend="set")
        # Agreeing pairs stay fine.
        assert Database(store, VectorEngine(), backend="columnar").backend == "columnar"

    def test_plan_cache_keyed_per_backend(self, store):
        db = Database(store, backend="columnar")
        db.plan("star[1,2,3'; 3=1'](E)")
        info = db.cache_info()["plans"]
        assert info.misses == 1
        db.plan("star[1,2,3'; 3=1'](E)")
        assert db.cache_info()["plans"].hits == 1

    def test_explain_mentions_backend_and_strategy(self, store):
        db = Database(store, backend="columnar")
        text = db.explain("star[1,2,3'; 3=1'](E)", physical=True)
        assert "backend    : columnar" in text
        assert "[dense]" in text or "[sparse]" in text

    def test_cli_backend_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.triplestore import dump_path

        path = tmp_path / "s.tstore"
        dump_path(Triplestore([("a", "p", "b"), ("b", "p", "c")]), str(path))
        assert main(["query", str(path), "star[1,2,3'; 3=1'](E)", "--backend", "columnar"]) == 0
        out = capsys.readouterr().out
        assert "# 3 triples" in out

    def test_cli_backend_engine_conflict(self, tmp_path, capsys):
        from repro.cli import main
        from repro.triplestore import dump_path

        path = tmp_path / "s.tstore"
        dump_path(Triplestore([("a", "p", "b")]), str(path))
        assert main(["query", str(path), "E", "--engine", "naive", "--backend", "columnar"]) == 1
        assert "columnar" in capsys.readouterr().err
        # --engine vector with an explicit set backend is contradictory...
        assert main(["query", str(path), "E", "--engine", "vector", "--backend", "set"]) == 1
        assert "columnar" in capsys.readouterr().err
        # ...but --engine vector alone implies columnar and works.
        assert main(["query", str(path), "E", "--engine", "vector"]) == 0
        capsys.readouterr()
