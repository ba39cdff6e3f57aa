"""Shard tasks on the thread pool: agreement, errors, the dispatch threshold.

The sharded engine runs a shard task on the process-wide thread pool
only when the operator's input reaches ``SHARD_DISPATCH_MIN`` rows;
below it (every store in the unit suite) the tasks run inline on the
calling thread.  These tests force each branch explicitly and check
that both give the same answer as the columnar engine, that errors
surface as themselves, and that small inputs never touch the pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest

from repro.core import FastEngine, ShardedEngine, VectorEngine
from repro.core.engines import sharded
from repro.core.engines.sharded import ShardedExecContext
from repro.api import explain_report
from repro.core.parser import parse
from repro.db import Database
from repro.errors import UnknownRelationError
from repro.workloads.generators import random_store

#: Two relations with η collisions, big enough for skewed shards.
STORE = random_store(60, 4000, n_relations=2, data_values=range(6), seed=3)

#: Co-partitioned and repartitioned joins, an η join, set operations,
#: selections, and both star fixpoints (coordinator-driven rounds).
QUERIES = [
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


def _on_pool(engine, expr, store):
    """Evaluate with every shard task dispatched to a private pool."""
    with ThreadPoolExecutor(max_workers=2) as pool, mock.patch.multiple(
        sharded, SHARD_DISPATCH_MIN=0, _shared_pool=lambda: pool
    ):
        return engine.evaluate(expr, store)


def _inline(engine, expr, store):
    """Evaluate with no pool at all, as on a single-core host."""
    with mock.patch.object(sharded, "_shared_pool", lambda: None):
        return engine.evaluate(expr, store)


@pytest.mark.parametrize("key_pos", [0, 2], ids=["subject-key", "object-key"])
@pytest.mark.parametrize("query", QUERIES)
def test_pool_dispatch_agrees_with_inline_and_columnar(query, key_pos):
    engine = ShardedEngine(shards=4, key_pos=key_pos)
    expr = parse(query)
    expected = VectorEngine().evaluate(expr, STORE)
    assert _on_pool(engine, expr, STORE) == expected
    assert _inline(engine, expr, STORE) == expected


def test_pool_dispatch_raises_app_errors_as_themselves():
    with pytest.raises(UnknownRelationError):
        _on_pool(ShardedEngine(shards=4), parse("NOPE"), STORE)


def test_map_below_threshold_runs_on_the_calling_thread():
    with ThreadPoolExecutor(max_workers=2, thread_name_prefix="pool") as pool:
        ctx = ShardedExecContext(STORE, shards=4, pool=pool)
        names = ctx._map(
            lambda s: threading.current_thread().name,
            range(4),
            rows=sharded.SHARD_DISPATCH_MIN - 1,
        )
    assert names == [threading.current_thread().name] * 4


def test_map_at_threshold_runs_on_the_pool_in_shard_order():
    with ThreadPoolExecutor(max_workers=2, thread_name_prefix="pool") as pool:
        ctx = ShardedExecContext(STORE, shards=4, pool=pool)
        out = ctx._map(
            lambda s: (s, threading.current_thread().name),
            range(4),
            rows=sharded.SHARD_DISPATCH_MIN,
        )
    assert [s for s, _ in out] == [0, 1, 2, 3]
    assert all(name.startswith("pool") for _, name in out)


def test_map_on_the_pool_reraises_a_task_error():
    def task(s):
        if s == 2:
            raise ValueError("shard 2 failed")
        return s

    with ThreadPoolExecutor(max_workers=2) as pool:
        ctx = ShardedExecContext(STORE, shards=4, pool=pool)
        with pytest.raises(ValueError, match="shard 2 failed"):
            ctx._map(task, range(4), rows=sharded.SHARD_DISPATCH_MIN)


def test_small_store_never_touches_the_pool():
    """Below the dispatch threshold no shard task reaches the pool."""
    refusing = mock.Mock(spec=ThreadPoolExecutor)
    refusing.map.side_effect = AssertionError("pool used below threshold")
    small = random_store(20, 100, seed=5)
    assert len(small) < sharded.SHARD_DISPATCH_MIN
    expr = parse("join[1,2,3'; 3=1'](E, E)")
    with mock.patch.object(sharded, "_shared_pool", lambda: refusing):
        got = ShardedEngine(shards=4).evaluate(expr, small)
    assert got == FastEngine().evaluate(expr, small)
    refusing.map.assert_not_called()


def test_explain_names_no_executor():
    expr = parse("join[1,2,3'; 3=1'](E0, E1)")
    rendered = str(explain_report(expr, STORE, ShardedEngine(shards=4)))
    assert "backend    : sharded(4-way, key position 1)" in rendered
    assert "executor" not in rendered
    assert "shm" not in rendered


def test_sharded_database_close_is_idempotent_and_context_managed():
    calls = []
    with Database(random_store(10, 40, seed=9), backend="sharded", shards=2) as db:
        db.add_close_hook(calls.append)
    assert calls == [db]
    db.close()  # second close is a no-op
    assert calls == [db]
    # The session stays usable after close.
    assert db.query("E") == Database(db.store).query("E")
