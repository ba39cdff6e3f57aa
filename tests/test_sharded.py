"""Unit tests for the hash-sharded columnar store and its executor.

The randomized cross-engine agreement (which includes the sharded
engine) lives in ``test_differential.py``; these tests pin the
deterministic pieces: the partition invariants, the co-partitioned /
repartition / broadcast join strategies, the fixpoint bookkeeping, the
store-layer error-type fixes that rode along with the backend, the
degenerate ``n = 0`` columnar store, and the facade/CLI wiring.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import (
    FastEngine,
    NaiveEngine,
    R,
    ShardedEngine,
    VectorEngine,
    complement,
    join,
    select,
    star,
)
from repro.core.engines.sharded import (
    DEFAULT_SHARDS,
    ShardedExecContext,
    choose_shard_key,
    shard_output_partition,
)
from repro.api import explain_report
from repro.core.parser import parse
from repro.core.plan import JoinSpec
from repro.db import Database
from repro.errors import (
    EvaluationBudgetError,
    ReproError,
    TriplestoreError,
    UnknownRelationError,
)
from repro.triplestore import ShardedColumnarStore
from repro.triplestore.columnar import sorted_unique
from repro.triplestore.model import Triplestore
from repro.workloads import random_store


@pytest.fixture()
def store() -> Triplestore:
    return Triplestore(
        {
            "E": [
                ("a", "p", "b"),
                ("b", "p", "c"),
                ("c", "q", "a"),
                ("a", "q", "c"),
                ("c", "q", "c"),
            ],
            "F": [("b", "r", "d"), ("c", "r", "d")],
        },
        rho={"a": 0, "b": 1, "c": 0, "d": 1, "p": 1, "q": 0, "r": 0},
    )


#: Two relations with η collisions, big enough for skewed shards.
SKEWED = random_store(60, 4000, n_relations=2, data_values=range(6), seed=3)

#: Co-partitioned and repartitioned joins, an η join, set operations,
#: selections, and both star fixpoints, over ``SKEWED``.
SKEWED_QUERIES = [
    "E0",
    "select[2='o3'](E0) | select[rho(1)=rho(3)](E0)",
    "join[1,2,3'; 1=1'](E0, E1)",
    "join[1,3',3; 2=1'](E0, E1)",
    "join[1,2,3'; 3=1' & rho(2)=rho(2')](E0, E1)",
    "(E0 | E1) - select[1=3](E0)",
    "(E0 & E0) | (E1 & E1)",
    "star[1,2,3'; 3=1'](E0)",
    "star[1,2,2'; 3=1' & 1!=3'](E0)",
]

#: Over 4 096 rows — where a shard thread pool once took over — yet
#: sparse enough that every star closes in a few thousand rows.
LARGE = random_store(20000, 4500, seed=11)

#: One query per operator family that used to dispatch shard tasks.
LARGE_QUERIES = [
    "join[1,2,3'; 3=1'](E, E)",
    "join[1,3',3; 2=1' & rho(2)=rho(2')](E, E)",
    "(E - select[2=3](E)) | (E & E)",
    "star[1,2,3'; 3=1'](E)",
    "star[1,2,2'; 3=1' & 1!=3'](E)",
]


# --------------------------------------------------------------------- #
# ShardedColumnarStore
# --------------------------------------------------------------------- #


class TestShardedStore:
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_shards_partition_the_relation(self, store, k):
        ss = store.sharded(k)
        for name in store.relation_names:
            shards = ss.relation_shards(name)
            assert len(shards) == k
            merged = np.concatenate(shards)
            full = store.columnar().relation_keys(name)
            # Disjoint and exhaustive: union equals the relation.
            assert len(merged) == len(full)
            assert set(merged.tolist()) == set(full.tolist())
            for s, shard in enumerate(shards):
                # Each shard sorted unique and hash-consistent.
                if len(shard) > 1:
                    assert np.all(np.diff(shard) > 0)
                assert np.all(ss.shard_ids(shard, 0) == s)

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_partition_splits_on_any_position(self, k, pos):
        """Exchanges and set operations re-partition intermediates on
        every position, not only the stored subject."""
        ss = SKEWED.sharded(k)
        keys = SKEWED.columnar().relation_keys("E0")
        shards = ss.partition(keys, pos)
        assert len(shards) == k
        merged = np.concatenate(shards)
        assert len(merged) == len(keys)
        assert set(merged.tolist()) == set(keys.tolist())
        for s, shard in enumerate(shards):
            if len(shard) > 1:
                assert np.all(np.diff(shard) > 0)
            assert np.all(ss.shard_ids(shard, pos) == s)

    def test_shares_the_parent_dictionary_encoding(self, store):
        assert store.sharded(3).cs is store.columnar()

    def test_cached_per_configuration(self, store):
        assert store.sharded(3) is store.sharded(3)
        assert store.sharded(3) is not store.sharded(4)

    def test_more_shards_than_rows(self, store):
        ss = store.sharded(64)
        shards = ss.relation_shards("F")
        assert sum(len(s) for s in shards) == 2
        assert sum(1 for s in shards if len(s)) <= 2

    def test_invalid_configuration_rejected(self, store):
        with pytest.raises(TriplestoreError):
            ShardedColumnarStore(store.columnar(), 0)

    def test_unknown_relation(self, store):
        with pytest.raises(UnknownRelationError):
            store.sharded(2).relation_shards("Nope")


# --------------------------------------------------------------------- #
# The shard-key choice the executor makes per join
# --------------------------------------------------------------------- #


class TestShardKeyChoice:
    def _spec(self, text_out: str, conds: str) -> JoinSpec:
        expr = join(R("E"), R("E"), text_out, conds)
        return JoinSpec(expr.out, expr.conditions)

    def test_co_partitioned_when_keys_align(self):
        spec = self._spec("1,2,3'", "1=1'")
        cond, aligned = choose_shard_key(spec, 0, 0)
        assert cond is not None and aligned == 2

    def test_theta_preferred_over_eta(self):
        spec = self._spec("1,2,3'", "3=1' & rho(2)=rho(2')")
        cond, _ = choose_shard_key(spec, 0, 0)
        assert not cond.on_data

    def test_cartesian_has_no_key(self):
        spec = self._spec("1,1',3", "1!=1'")
        assert choose_shard_key(spec, 0, 0) == (None, 0)

    def test_output_partition_tracks_the_key(self):
        spec = self._spec("1,2,3'", "1=1'")
        cond, _ = choose_shard_key(spec, 0, 0)
        # Output position 1 is the left join key (and the right one, via
        # the equality) — the join's result stays partitioned on it.
        assert shard_output_partition(spec, cond, 0) == 0

    def test_output_partition_lost_when_key_projected_away(self):
        spec = self._spec("2,2,2'", "3=1'")
        cond, _ = choose_shard_key(spec, 0, 0)
        assert shard_output_partition(spec, cond, 0) is None

    def test_join_plans_are_the_set_plans(self, store):
        """Left-misaligned, both-misaligned and η joins: the sharded
        engine compiles the set engine's plan and decides its exchanges
        at run time, agreeing with the oracle."""
        engine = ShardedEngine(shards=3)
        for conds in ("3=1'", "3=3'", "rho(3)=rho(1')"):
            expr = join(R("E"), R("E"), "1,2,3'", conds)
            plan = engine.compile(expr, store)
            assert plan.pretty() == FastEngine().compile(expr, store).pretty()
            assert engine.execute_plan(plan, store) == NaiveEngine().evaluate(expr, store)


# --------------------------------------------------------------------- #
# Engine behaviour pinned on fixed cases
# --------------------------------------------------------------------- #

#: Queries exercising each shard strategy and both fixpoint families.
WORKLOAD = [
    R("E"),
    select(R("E"), "2='q' & rho(1)=rho(3)"),
    join(R("E"), R("E"), "1,2,3'", "1=1'"),  # co-partitioned
    join(R("E"), R("E"), "1,2,3'", "3=1'"),  # repartition(left)
    join(R("E"), R("F"), "1,3',3", "2=1' & rho(2)=rho(2')"),  # θ over η
    join(R("E"), R("E"), "1,2,3'", "rho(3)=rho(1')"),  # pure η exchange
    join(R("E"), R("E"), "1,1',3", "1!=1'"),  # broadcast + inequality
    join(R("E"), R("E"), "2,2,2'", "3=1'"),  # key projected away
    (R("E") | R("F")) - select(R("E"), "1=3"),
    star(R("E"), "1,2,3'", "3=1'"),  # reach, any path
    star(R("E"), "1,2,3'", "3=1' & 2=2'"),  # reach, same label
    star(R("E"), "1,2,2'", "3=1'"),  # general star
]


class TestShardedEngine:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_agrees_on_the_fixed_workload(self, store, k):
        naive, sharded = NaiveEngine(), ShardedEngine(shards=k)
        for expr in WORKLOAD:
            assert sharded.evaluate(expr, store) == naive.evaluate(expr, store), expr

    def test_agrees_on_a_larger_random_store(self):
        big = random_store(40, 500, seed=17)
        fast, sharded = FastEngine(), ShardedEngine(shards=4)
        for expr in WORKLOAD:
            if "F" in expr.relation_names():  # single-relation store
                continue
            assert sharded.evaluate(expr, big) == fast.evaluate(expr, big), expr

    def test_complement_and_budget(self, store):
        fast, sharded = FastEngine(), ShardedEngine(shards=3)
        expr = complement(R("E"))
        assert sharded.evaluate(expr, store) == fast.evaluate(expr, store)
        with pytest.raises(EvaluationBudgetError):
            ShardedEngine(max_universe_objects=3, shards=3).evaluate(expr, store)

    def test_partitioned_intermediates_respect_the_invariant(self, store):
        engine = ShardedEngine(shards=3)
        # The join key (1=1') survives in output position 1, so the
        # result stays partitioned — and must be disjoint across shards.
        expr = join(R("E"), R("E"), "1,2,3'", "1=1'")
        plan = engine.compile(expr, store)
        ctx = ShardedExecContext(store, shards=3)
        result = ctx.run(plan)
        assert result.part_pos == 0
        ss = store.sharded(3)
        seen: set[int] = set()
        for s, shard in enumerate(result.shards):
            assert np.all(ss.shard_ids(shard, result.part_pos) == s)
            if len(shard) > 1:
                assert np.all(np.diff(shard) > 0)
            rows = set(shard.tolist())
            assert not rows & seen  # globally deduplicated
            seen |= rows
        assert ctx.execute(plan) == NaiveEngine().evaluate(expr, store)

    def test_lost_partition_key_stays_raw_until_consumed(self, store):
        # The projection drops the join key, so the join's own result is
        # raw (sorted chunks, possible cross-chunk duplicates)…
        expr = join(R("E"), R("E"), "2,2,2'", "3=1'")
        ctx = ShardedExecContext(store, shards=3)
        engine = ShardedEngine(shards=3)
        raw = ctx.run(engine.compile(expr, store))
        assert raw.part_pos is None
        for shard in raw.shards:
            if len(shard) > 1:
                assert np.all(np.diff(shard) > 0)
        assert ctx.execute(engine.compile(expr, store)) == NaiveEngine().evaluate(
            expr, store
        )
        # …and a set-operation consumer re-partitions (re-deduplicating).
        diff_expr = expr - R("E")
        result = ctx.run(engine.compile(diff_expr, store))
        assert result.part_pos == 0
        merged = np.concatenate(result.shards)
        assert len(set(merged.tolist())) == len(merged)
        assert ctx.execute(engine.compile(diff_expr, store)) == NaiveEngine().evaluate(
            diff_expr, store
        )

    @pytest.mark.parametrize("query", LARGE_QUERIES)
    def test_a_large_query_starts_no_thread(self, query):
        """Shard tasks run on the calling thread: operator inputs of
        4 096 rows and more, where a shard thread pool once took over,
        leave the process's threads as they were."""
        expr = parse(query)
        assert len(LARGE) >= 4096
        before = set(threading.enumerate())
        got = ShardedEngine(shards=4).evaluate(expr, LARGE)
        after = threading.enumerate()
        assert set(after) == before
        assert not [t.name for t in after if t.name.startswith("repro-shard")]
        assert got == VectorEngine().evaluate(expr, LARGE)

    @pytest.mark.parametrize("k", [3, 4], ids=["3-way", "4-way"])
    @pytest.mark.parametrize("query", SKEWED_QUERIES)
    def test_agrees_with_columnar_on_skewed_shards(self, query, k):
        expr = parse(query)
        expected = VectorEngine().evaluate(expr, SKEWED)
        assert ShardedEngine(shards=k).evaluate(expr, SKEWED) == expected

    def test_an_unknown_relation_raises_as_itself(self):
        with pytest.raises(UnknownRelationError):
            ShardedEngine(shards=4).evaluate(parse("NOPE"), SKEWED)

    @pytest.mark.parametrize("pos", [0, 1, 2])
    @pytest.mark.parametrize("on_data", [False, True], ids=["theta", "eta"])
    def test_exchange_rehashes_packed_keys_on_the_join_key(self, pos, on_data):
        """An exchange sends each packed key to the shard of its
        component at ``pos`` — its ρ-code for an η key — and loses or
        repeats none."""
        ctx = ShardedExecContext(SKEWED, shards=4)
        shards = ctx.ss.relation_shards("E0")
        out = ctx._exchange(shards, pos, on_data)
        assert len(out) == 4
        assert sorted(np.concatenate(out).tolist()) == sorted(
            np.concatenate(shards).tolist()
        )
        for t, keys in enumerate(out):
            comp = ctx.cs.column(keys, pos)
            ids = (ctx.cs.dv_codes[comp] if on_data else comp) % 4
            assert np.all(ids == t)

    def test_shard_count_validated(self):
        with pytest.raises(ReproError):
            ShardedEngine(shards=0)

    def test_default_shard_count(self, store):
        assert ShardedEngine().shards == DEFAULT_SHARDS
        assert Database(store, backend="sharded").engine.shards == DEFAULT_SHARDS


# --------------------------------------------------------------------- #
# The degenerate n = 0 columnar store (satellite regression)
# --------------------------------------------------------------------- #


class TestDegenerateStores:
    def test_empty_store_packs_with_radix_one(self):
        cs = Triplestore.empty().columnar()
        assert cs.n == 0 and cs.radix == 1
        assert len(cs.active_codes()) == 0
        assert cs.decode_triples(cs.relation_keys("E")) == frozenset()

    @pytest.mark.parametrize(
        "engine",
        [FastEngine(), ShardedEngine(shards=3)],
        ids=["set", "sharded"],
    )
    def test_empty_store_evaluates_everywhere(self, engine):
        empty = Triplestore.empty()
        for expr in WORKLOAD:
            if "F" in expr.relation_names():  # single-relation store
                continue
            assert engine.evaluate(expr, empty) == frozenset()

    def test_empty_store_universe_is_empty(self):
        from repro.core import universe

        assert ShardedEngine(shards=2).evaluate(universe(), Triplestore.empty()) == (
            frozenset()
        )


# --------------------------------------------------------------------- #
# Facade and CLI wiring
# --------------------------------------------------------------------- #


class TestBackendWiring:
    def test_database_backend_selects_sharded_engine(self, store):
        db = Database(store, backend="sharded", shards=3)
        assert isinstance(db.engine, ShardedEngine)
        assert db.engine.shards == 3
        assert db.query("join[1,2,3'; 3=1'](E, E)") == Database(store).query(
            "join[1,2,3'; 3=1'](E, E)"
        )

    def test_shards_alone_implies_sharded_backend(self, store):
        assert Database(store, shards=2).backend == "sharded"

    def test_shards_with_other_backend_rejected(self, store):
        with pytest.raises(ReproError):
            Database(store, backend="columnar", shards=2)

    def test_shards_engine_mismatch_rejected(self, store):
        with pytest.raises(ReproError):
            Database(store, engine=ShardedEngine(shards=2), shards=3)

    def test_process_executor_is_gone(self, store):
        with pytest.raises(ReproError, match="process shard executor was removed"):
            Database(store, executor="process")

    def test_thread_executor_spelling_still_builds_a_session(self, store):
        # The exact call benchmarks/e2e/tracing.py makes for its sharded2 row.
        db = Database(store, backend="sharded", shards=2, executor="thread")
        assert isinstance(db.engine, ShardedEngine) and db.engine.shards == 2
        assert db.query("join[1,2,3'; 3=1'](E, E)") == Database(store).query(
            "join[1,2,3'; 3=1'](E, E)"
        )

    def test_explain_mentions_backend_not_a_strategy(self, store):
        db = Database(store, backend="sharded", shards=4)
        text = str(db.explain("join[1,2,3'; 3=1'](E, E)"))
        assert "backend    : sharded(4-way, key position 1)" in text
        assert "shard=" not in text

    def test_explain_names_no_executor(self, store):
        expr = parse("join[1,2,3'; 3=1'](E, F)")
        rendered = str(explain_report(expr, store, ShardedEngine(shards=4)))
        assert "backend    : sharded(4-way, key position 1)" in rendered
        assert "executor" not in rendered
        assert "shm" not in rendered

    def test_sharded_database_close_is_idempotent_and_context_managed(self):
        calls = []
        with Database(random_store(10, 40, seed=9), backend="sharded", shards=2) as db:
            db.add_close_hook(calls.append)
        assert calls == [db]
        db.close()  # second close is a no-op
        assert calls == [db]
        # The session stays usable after close.
        assert db.query("E") == Database(db.store).query("E")

    def test_cli_sharded_engine(self, tmp_path, capsys):
        from repro.cli import main
        from repro.triplestore.io import dump_path

        path = tmp_path / "store.tstore"
        dump_path(
            Triplestore([("a", "p", "b"), ("b", "p", "c")], rho={"a": 1}), str(path)
        )
        code = main(
            ["query", str(path), "star[1,2,3'; 3=1'](E)",
             "--engine", "sharded", "--limit", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# 3 triples" in out

    @pytest.mark.parametrize("flags", [["--backend", "sharded"], ["--shards", "4"]])
    def test_cli_explain_takes_no_backend(self, flags, capsys):
        """One plan for every backend: ``explain`` has no backend to
        compile for."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["explain", "join[1,2,3'; 3=1'](E, E)", *flags])
        assert exc.value.code == 2
        assert main(["explain", "join[1,2,3'; 3=1'](E, E)"]) == 0
        assert "shard=" not in capsys.readouterr().out


# --------------------------------------------------------------------- #
# Store-layer error-type regressions (satellite fixes)
# --------------------------------------------------------------------- #


class TestStoreLayerErrors:
    def test_restrict_unknown_relation(self, store):
        with pytest.raises(UnknownRelationError) as err:
            store.restrict(["E", "Nope"])
        assert "Nope" in str(err.value)
        assert "E" in str(err.value)  # lists what is available

    def test_encode_triples_outside_universe(self, store):
        cs = store.columnar()
        with pytest.raises(TriplestoreError) as err:
            cs.encode_triples([("a", "p", "zebra")])
        assert "zebra" in str(err.value)
        assert not isinstance(err.value, KeyError)

    def test_active_codes_still_sorted_unique(self, store):
        active = store.columnar().active_codes()
        assert np.all(np.diff(active) > 0)
        decoded = {store.columnar().objects[c] for c in active.tolist()}
        expected = {o for t in store.all_triples() for o in t}
        assert decoded == expected

    def test_sorted_unique_is_the_merge_primitive(self):
        keys = np.array([5, 1, 5, 3, 1], dtype=np.int64)
        assert sorted_unique(keys).tolist() == [1, 3, 5]
