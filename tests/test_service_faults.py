"""Fault injection behind the service: worker death, deadlines, overload.

The promise under test: *failures cross the wire as structured, typed
errors, and the server keeps serving afterwards*.  Worker faults reuse
the procpool test hooks (``ShardedEngine.fault`` forwards a
die-at-dispatch / die-in-collective instruction to the worker pool, see
``tests/test_procpool.py``), injected into a live process-sharded
tenant behind a running server.  Timeouts are exercised at both layers:
the shard deadline (``REPRO_SHARD_TIMEOUT`` machinery) and the server's
own per-query budget.  Admission control is driven to both rejection
reasons with a deliberately tiny server.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

import pytest

from repro.core.engines import procpool
from repro.core.engines.sharded import ShardedEngine
from repro.core.parser import parse
from repro.db import Database
from repro.errors import RemoteError
from repro.service import QueryServer, ServiceClient, ServiceConfig
from repro.service.metrics import parse_exposition
from repro.workloads.generators import random_store

#: Same family as the procpool suite: big enough to dispatch to workers.
STORE = random_store(60, 4000, n_relations=2, data_values=range(6), seed=3)

JOIN = "join[1,3',3; 2=1'](E0, E1)"


def _pool_or_skip():
    pool = procpool.get_pool(2)
    if pool is None:  # pragma: no cover — spawn-hostile sandboxes
        pytest.skip("cannot spawn worker processes here")
    return pool


def _expected_rows(query: str) -> set:
    engine = ShardedEngine(shards=4, executor="thread")
    return set(engine.evaluate(parse(query), STORE))


@pytest.fixture()
def proc_server():
    """A server over one process-sharded tenant, caches off.

    ``cache_size=0`` so every request really dispatches to the worker
    pool — a cached result would dodge the injected fault.
    ``dispatch_min=0`` forces the process path regardless of store size.
    """
    _pool_or_skip()
    engine = ShardedEngine(
        shards=4, executor="process", workers=2, dispatch_min=0
    )
    db = Database(STORE, engine, cache_size=0)
    config = ServiceConfig(port=0, max_inflight=4, query_timeout=None)
    with QueryServer(db, config) as srv:
        yield srv


def test_worker_killed_once_is_transparent(proc_server):
    """A worker dying once (at dispatch or inside a collective) is
    restarted and retried — the client sees only the correct rows."""
    engine = proc_server.pool.session("default").db.engine
    expected = _expected_rows(JOIN)
    with ServiceClient(proc_server.url) as client:
        for when in ("start", "collective"):
            marker = tempfile.mktemp(prefix="repro-svc-die-once-")
            engine.fault = {"rank": 1, "when": when, "marker": marker}
            try:
                body = client.query(JOIN)
            finally:
                engine.fault = None
            assert {tuple(r) for r in body["rows"]} == expected, when
            os.unlink(marker)


def test_worker_killed_always_is_structured_503(proc_server):
    """Persistent worker death exhausts the retry and reaches the client
    as a typed ShardWorkerError over HTTP 503 — and the very next
    request on the same server succeeds."""
    engine = proc_server.pool.session("default").db.engine
    with ServiceClient(proc_server.url) as client:
        engine.fault = {"rank": 0, "when": "start"}
        try:
            with pytest.raises(RemoteError) as excinfo:
                client.query(JOIN)
        finally:
            engine.fault = None
        assert excinfo.value.remote_type == "ShardWorkerError"
        assert excinfo.value.status == 503
        assert "attempt" in str(excinfo.value)
        # The server (and its worker pool) keeps serving.
        body = client.query(JOIN)
        assert {tuple(r) for r in body["rows"]} == _expected_rows(JOIN)
        series = parse_exposition(client.metrics())
        key = (
            'repro_queries_total{tenant="default",lang="trial",'
            'status="worker_error"}'
        )
        assert series[key] == 1


def test_worker_fault_over_websocket_keeps_connection_usable(proc_server):
    """A worker crash mid-stream answers with a structured error message
    on the socket; the transport (and server) survive it."""
    engine = proc_server.pool.session("default").db.engine
    with ServiceClient(proc_server.url) as client:
        engine.fault = {"rank": 0, "when": "start"}
        try:
            with pytest.raises(RemoteError) as excinfo:
                list(client.stream(JOIN))
        finally:
            engine.fault = None
        assert excinfo.value.remote_type == "ShardWorkerError"
        pages = list(client.stream(JOIN, page_size=512))
        assert pages[-1]["done"] and pages[-1]["total"] == len(
            _expected_rows(JOIN)
        )


def test_shard_deadline_is_structured_503(proc_server):
    """An expired shard deadline (the REPRO_SHARD_TIMEOUT machinery the
    service budget maps onto) aborts the workers and reaches the client
    typed, without a retry."""
    engine = proc_server.pool.session("default").db.engine
    with ServiceClient(proc_server.url) as client:
        engine.query_timeout = 0.0
        try:
            with pytest.raises(RemoteError) as excinfo:
                client.query("star[1,2,3'; 3=1'](E0)")
        finally:
            engine.query_timeout = None
        assert excinfo.value.remote_type == "ShardWorkerError"
        assert excinfo.value.status == 503
        assert "deadline" in str(excinfo.value)
        assert client.health()["status"] == "ok"


class _Gate:
    """Swap a tenant's ``db.query`` for one that blocks on an event."""

    def __init__(self, db):
        self.db = db
        self.release = threading.Event()
        self.entered = threading.Event()
        self._original = db.query

    def __enter__(self):
        def gated(query, lang="trial", **bindings):
            self.entered.set()
            self.release.wait(timeout=60.0)
            return self._original(query, lang=lang, **bindings)

        self.db.query = gated
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release.set()
        self.db.query = self._original
        return False


def test_server_budget_times_out_as_504():
    """The server-side per-query budget answers 504 on expiry, on any
    backend, while the stuck worker drains in the background."""
    db = Database(random_store(20, 200, seed=4))
    config = ServiceConfig(port=0, query_timeout=0.2)
    with QueryServer(db, config) as srv:
        with _Gate(db) as gate, ServiceClient(srv.url) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.query("E")
            assert excinfo.value.remote_type == "QueryTimeoutError"
            assert excinfo.value.status == 504
            assert gate.entered.is_set()
        # Budget released and query path restored: normal service.
        with ServiceClient(srv.url) as client:
            assert client.query("E")["total"] == len(db.store)
            series = parse_exposition(client.metrics())
            key = (
                'repro_queries_total{tenant="default",lang="trial",'
                'status="timeout"}'
            )
            assert series[key] == 1


def test_admission_queue_full_is_429():
    """One slot, no queue: a concurrent second query is refused with a
    structured 429 naming the reason."""
    db = Database(random_store(20, 200, seed=4))
    config = ServiceConfig(
        port=0, max_inflight=1, queue_depth=0, query_timeout=None
    )
    with QueryServer(db, config) as srv:
        with _Gate(db) as gate:
            holder_error: list = []

            def hold():
                try:
                    with ServiceClient(srv.url) as c:
                        c.query("E")
                except BaseException as exc:
                    holder_error.append(repr(exc))

            holder = threading.Thread(target=hold, daemon=True)
            holder.start()
            assert gate.entered.wait(timeout=10.0)
            with ServiceClient(srv.url) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.query("E")
            assert excinfo.value.remote_type == "AdmissionRejectedError"
            assert excinfo.value.status == 429
            assert excinfo.value.payload["reason"] == "queue_full"
            gate.release.set()
            holder.join(timeout=30.0)
            assert not holder.is_alive() and not holder_error
        with ServiceClient(srv.url) as client:
            series = parse_exposition(client.metrics())
            assert series[
                'repro_admission_rejections_total{reason="queue_full"}'
            ] == 1


def test_admission_queue_timeout_is_429():
    """One slot, one queue seat, tiny patience: the queued query is
    rejected with reason=queue_timeout when the slot never frees."""
    db = Database(random_store(20, 200, seed=4))
    config = ServiceConfig(
        port=0,
        max_inflight=1,
        queue_depth=1,
        queue_timeout=0.2,
        query_timeout=None,
    )
    with QueryServer(db, config) as srv:
        with _Gate(db) as gate:
            def hold():
                with ServiceClient(srv.url) as c:
                    c.query("E")

            holder = threading.Thread(target=hold, daemon=True)
            holder.start()
            assert gate.entered.wait(timeout=10.0)
            with ServiceClient(srv.url) as client:
                started = time.monotonic()
                with pytest.raises(RemoteError) as excinfo:
                    client.query("E")
                waited = time.monotonic() - started
            assert excinfo.value.remote_type == "AdmissionRejectedError"
            assert excinfo.value.payload["reason"] == "queue_timeout"
            assert waited >= 0.2
            gate.release.set()
            holder.join(timeout=30.0)
        with ServiceClient(srv.url) as client:
            series = parse_exposition(client.metrics())
            assert series[
                'repro_admission_rejections_total{reason="queue_timeout"}'
            ] == 1
            assert series["repro_admission_inflight"] == 0
            assert series["repro_admission_queued"] == 0


# --------------------------------------------------------------------- #
# Client: a failed request never wedges the connection
# --------------------------------------------------------------------- #


def test_client_recovers_after_refused_connect():
    """A refused connect used to leave the retry's ``HTTPConnection``
    mid-request, and every later call raised ``CannotSendRequest`` even
    once the server was up (benchmarks/e2e finding 11)."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    client = ServiceClient(f"http://127.0.0.1:{port}")
    with pytest.raises(OSError):
        client.health()
    db = Database(random_store(20, 200, seed=4))
    with QueryServer(db, ServiceConfig(port=port)):
        with client:
            assert client.health()["status"] == "ok"
            assert client.query("E")["total"] == len(db.store)
