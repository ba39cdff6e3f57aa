"""Unit tests for the columnar store and the vectorised execution backend.

The randomized cross-engine agreement lives in ``test_differential.py``;
these tests pin the deterministic pieces: the packed-key encoding, the
dense/sparse reach verdict made on the store being run (and the
``MatrixTooLargeError`` guard it never trips), and the facade/CLI wiring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FastEngine,
    NaiveEngine,
    R,
    ShardedEngine,
    VectorEngine,
    join,
    select,
    star,
)
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
        keys = cs.relation_keys("E")
        cols = cs.unpack(keys)
        assert np.array_equal(cs.pack(cols), keys)
        assert np.array_equal(cs.unpack(cs.pack(cols)), cols)
        for pos in range(3):
            assert np.array_equal(cs.column(keys, pos), cols[:, pos])

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
# MatrixTooLargeError (MatrixStore guard + the dense kernel's guard)
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

    def test_dense_path_raises_when_called_directly(self, monkeypatch):
        from repro.core.engines import vectorized
        from repro.core.engines.vectorized import reach_dense

        monkeypatch.setattr(vectorized, "DENSE_MATRIX_MAX_OBJECTS", 10)
        big = random_store(40, 120, seed=4)
        keys = big.columnar().relation_keys("E")
        with pytest.raises(MatrixTooLargeError):
            reach_dense(big.columnar(), keys, same_label=False)

    def test_dense_closure_survives_256_path_witnesses(self, monkeypatch):
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
        calls = _spy_dense(monkeypatch)
        result = VectorEngine().evaluate(expr, store)
        assert calls == [None]  # the bug needs the dense path
        assert ("z", "p", "b") in result
        assert result == FastEngine().evaluate(expr, store)


# --------------------------------------------------------------------- #
# The dense/sparse reach verdict, made on the store being run
# --------------------------------------------------------------------- #


def _spy_dense(monkeypatch) -> list:
    """Record every dense-kernel matrix build (both array backends go
    through ``_reach_dense_emit``): ``None`` per build that returned,
    the exception per build that raised."""
    from repro.core.engines import vectorized

    real = vectorized._reach_dense_emit
    calls: list = []

    def spy(cs, cols):
        try:
            out = real(cs, cols)
        except Exception as exc:
            calls.append(exc)
            raise
        calls.append(None)
        return out

    monkeypatch.setattr(vectorized, "_reach_dense_emit", spy)
    return calls


REACH = star(R("E"), "1,2,3'", "3=1'")
SAME_LABEL_REACH = star(R("E"), "1,2,3'", "3=1' & 2=2'")


def _array_engines():
    return [VectorEngine(), ShardedEngine(shards=3)]


class TestDenseVerdict:
    def test_sparse_store_runs_sparse_whoever_compiled_the_plan(self, monkeypatch):
        """103 objects, 50 triples: |T|/|O| < 0.5, so the reach star runs
        the sparse fixpoint — from the vector engine's own plan and from
        the plan a set engine compiled, which is now the same plan."""
        chain = [(f"n{i}", "p", f"n{i + 1}") for i in range(50)]
        store = Triplestore(chain, extra_objects=[f"x{i}" for i in range(51)])
        assert (store.n_objects, len(store)) == (103, 50)
        calls = _spy_dense(monkeypatch)
        vector = VectorEngine()
        expected = FastEngine().evaluate(REACH, store)
        for plan in (FastEngine().compile(REACH, store), vector.compile(REACH, store)):
            assert vector.execute_plan(plan, store) == expected
        assert calls == []

    def test_cached_plan_meets_a_bigger_store_without_raising(self, monkeypatch):
        """A plan cached against a 50-node store and run on a 3 000-node
        one takes the sparse path directly: the dense guard never trips."""
        small = chain_store(50)
        big = Triplestore(
            t
            for i in range(1000)
            for t in ((f"a{i}", "p", f"b{i}"), (f"b{i}", "p", f"c{i}"))
        )
        calls = _spy_dense(monkeypatch)
        engine = VectorEngine()
        assert engine.evaluate(REACH, small) == FastEngine().evaluate(REACH, small)
        assert calls == [None]  # dense on the small store
        assert engine.evaluate(REACH, big) == FastEngine().evaluate(REACH, big)
        assert calls == [None]  # nothing built, nothing raised on the big one

    @pytest.mark.parametrize("engine", _array_engines(), ids=lambda e: type(e).__name__)
    def test_small_dense_store_takes_the_dense_kernel(self, engine, store, monkeypatch):
        calls = _spy_dense(monkeypatch)
        assert engine.evaluate(REACH, store) == FastEngine().evaluate(REACH, store)
        assert calls == [None]

    @pytest.mark.parametrize("engine", _array_engines(), ids=lambda e: type(e).__name__)
    def test_above_the_guard_runs_sparse(self, engine, monkeypatch):
        big = chain_store(600)
        calls = _spy_dense(monkeypatch)
        assert len(engine.evaluate(REACH, big)) == 600 * 601 // 2
        assert calls == []

    def test_guard_patched_to_zero_forces_sparse(self, store, monkeypatch):
        from repro.core.engines import vectorized

        monkeypatch.setattr(vectorized, "DENSE_MATRIX_MAX_OBJECTS", 0)
        calls = _spy_dense(monkeypatch)
        for engine in _array_engines():
            assert engine.evaluate(REACH, store) == FastEngine().evaluate(REACH, store)
        assert calls == []

    def test_same_label_star_with_many_labels_runs_sparse(self, monkeypatch):
        """One matrix per label pays off only for a few labels: nine
        labels on an otherwise dense store run the sparse fixpoint."""
        store = Triplestore(
            (f"n{i % 12}", f"l{i % 9}", f"n{(i + 1) % 12}") for i in range(40)
        )
        calls = _spy_dense(monkeypatch)
        for engine in _array_engines():
            got = engine.evaluate(SAME_LABEL_REACH, store)
            assert got == FastEngine().evaluate(SAME_LABEL_REACH, store)
        assert calls == []

    def test_general_stars_never_take_the_dense_kernel(self, store, monkeypatch):
        expr = star(R("E"), "1,2,2'", "3=1'")
        calls = _spy_dense(monkeypatch)
        for engine in _array_engines():
            assert engine.evaluate(expr, store) == NaiveEngine().evaluate(expr, store)
        assert calls == []


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

    def test_default_session_is_columnar(self, store, tmp_path):
        db = Database(store)
        assert db.backend == "columnar" and isinstance(db.engine, VectorEngine)
        db = Database(path=str(tmp_path / "s"))
        try:
            assert db.backend == "columnar" and isinstance(db.engine, VectorEngine)
        finally:
            db.close()

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

    def test_explain_mentions_backend_not_a_strategy(self, store):
        db = Database(store, backend="columnar")
        text = str(db.explain("star[1,2,3'; 3=1'](E)"))
        assert "backend    : columnar" in text
        assert "[dense]" not in text and "[sparse]" not in text

    def test_cli_vector_engine(self, tmp_path, capsys):
        from repro.cli import main
        from repro.triplestore import dump_path

        path = tmp_path / "s.tstore"
        dump_path(Triplestore([("a", "p", "b"), ("b", "p", "c")]), str(path))
        assert main(["query", str(path), "star[1,2,3'; 3=1'](E)", "--engine", "vector"]) == 0
        out = capsys.readouterr().out
        assert "# 3 triples" in out

    def test_cli_query_runs_vector_engine_by_default(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.triplestore import dump_path

        path = tmp_path / "s.tstore"
        dump_path(Triplestore([(1, "p", "a"), (1.0, "p", "c")]), str(path))
        ran = []
        real = VectorEngine.execute_plan_keys

        def spy(self, plan, store):
            ran.append(type(self))
            return real(self, plan, store)

        monkeypatch.setattr(VectorEngine, "execute_plan_keys", spy)
        assert main(["query", str(path), "E"]) == 0
        assert ran == [VectorEngine]
        # One object per == class: 1.0 is the store's 1.
        rows = capsys.readouterr().out.splitlines()
        assert "1\t'p'\t'a'" in rows and "1\t'p'\t'c'" in rows

    def test_cli_datalog_runs_vector_engine_by_default(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.triplestore import dump_path

        path = tmp_path / "s.tstore"
        dump_path(Triplestore([("a", "p", "b"), ("b", "p", "c")]), str(path))
        program = tmp_path / "reach.dl"
        program.write_text("Ans(x, y, z) :- E(x, y, z).\n")
        ran = []
        real = VectorEngine.execute_plan_keys

        def spy(self, plan, store):
            ran.append(type(self))
            return real(self, plan, store)

        monkeypatch.setattr(VectorEngine, "execute_plan_keys", spy)
        assert main(["datalog", str(path), str(program)]) == 0
        assert ran == [VectorEngine]
        assert "# 2 triples" in capsys.readouterr().out
