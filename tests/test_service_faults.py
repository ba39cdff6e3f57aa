"""Fault injection behind the service: deadlines and overload.

The promise under test: *failures cross the wire as structured, typed
errors, and the server keeps serving afterwards*.  The server's own
per-query budget is exercised with a gated query, and admission control
is driven to both rejection reasons with a deliberately tiny server.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.db import Database
from repro.errors import RemoteError
from repro.service import QueryServer, ServiceClient, ServiceConfig
from repro.service.metrics import parse_exposition
from repro.workloads.generators import random_store


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


def test_server_budget_times_out_as_504_on_a_sharded_tenant():
    """A sharded tenant past its budget is answered 504 like any other,
    and the server keeps serving it afterwards."""
    from repro.core.engines.sharded import ShardedEngine

    db = Database(random_store(20, 200, seed=4), ShardedEngine(shards=4))
    config = ServiceConfig(port=0, query_timeout=0.2)
    with QueryServer(db, config) as srv:
        with _Gate(db) as gate, ServiceClient(srv.url) as client:
            with pytest.raises(RemoteError) as excinfo:
                client.query("E")
            assert excinfo.value.remote_type == "QueryTimeoutError"
            assert excinfo.value.status == 504
            assert gate.entered.is_set()
        with ServiceClient(srv.url) as client:
            assert client.health()["status"] == "ok"
            assert client.query("E")["total"] == len(db.store)


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
