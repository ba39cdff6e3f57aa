"""Concurrency soak for the query service: many clients, zero drops.

One server, three tenants (one per execution backend), and a pool of
client threads mixing ad-hoc queries, prepared statements and WebSocket
streams.  The service's promises under load are checked exactly:

* every request is answered — no hung thread, no dropped query, and
  every row count matches the single-threaded ground truth;
* sessions are isolated — a statement prepared on one tenant does not
  exist on another;
* ``/metrics`` tells the truth — the query counter reconciles with the
  number of requests issued, and the cache counters reconcile with
  ``Database.cache_info()`` on the live sessions.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from http.server import ThreadingHTTPServer

import pytest

from repro.core.engines.sharded import ShardedEngine
from repro.db import Database
from repro.errors import RemoteError
from repro.service import QueryServer, ServiceClient, ServiceConfig
from repro.service.metrics import parse_exposition
from repro.workloads.generators import random_store

#: One deterministic store for every tenant, so ground truth is shared.
STORE = random_store(50, 2500, n_relations=2, data_values=range(6), seed=11)

#: The soak mix: a scan, a selection, a repartitioned join, a fixpoint.
AD_HOC = [
    "E0",
    "select[rho(1)=rho(3)](E0)",
    "join[1,3',3; 2=1'](E0, E1)",
    "star[1,2,3'; 3=1'](E0)",
]

PREPARED = "select[1=$s](E0)"
PREPARED_BINDING = {"s": "o3"}

N_THREADS = 32
OPS_PER_THREAD = 6


@pytest.fixture(scope="module")
def server():
    tenants = {
        "set": Database(STORE),
        "columnar": Database(STORE, backend="columnar"),
        "sharded": Database(
            STORE, ShardedEngine(shards=4)
        ),
    }
    config = ServiceConfig(
        port=0,
        max_inflight=8,
        queue_depth=256,
        queue_timeout=60.0,
        query_timeout=120.0,
    )
    with QueryServer(tenants, config) as srv:
        yield srv


@pytest.fixture(scope="module")
def truth():
    """Single-threaded ground truth, computed once on the set backend."""
    db = Database(STORE)
    totals = {q: db.query(q).total for q in AD_HOC}
    totals[PREPARED] = db.query(PREPARED, **PREPARED_BINDING).total
    return totals


def _soak_worker(url: str, tenant: str, sids: dict, truth: dict, errors: list):
    """One client session: ad-hoc + prepared + streamed queries."""
    try:
        with ServiceClient(url, tenant=tenant) as client:
            for i in range(OPS_PER_THREAD):
                query = AD_HOC[i % len(AD_HOC)]
                mode = i % 3
                if mode == 0:
                    body = client.query(query, limit=0)
                    assert body["total"] == truth[query], query
                elif mode == 1:
                    body = client.execute(sids[tenant], params=PREPARED_BINDING)
                    assert body["total"] == truth[PREPARED]
                else:
                    rows = 0
                    done = None
                    for message in client.stream(query, page_size=128):
                        if message.get("done"):
                            done = message
                            break
                        rows += len(message["rows"])
                    assert done is not None, f"stream never finished: {query}"
                    assert rows == done["total"] == truth[query], query
    except BaseException as exc:  # surfaces in the main thread
        errors.append((tenant, repr(exc)))


def test_soak_many_concurrent_sessions(server, truth):
    """≥32 concurrent client sessions over all three backends: every
    query answered correctly, nothing hung, nothing dropped."""
    with ServiceClient(server.url) as admin:
        sids = {
            tenant: admin.prepare(PREPARED, tenant=tenant)["statement"]
            for tenant in ("set", "columnar", "sharded")
        }
    errors: list = []
    threads = [
        threading.Thread(
            target=_soak_worker,
            args=(
                server.url,
                ("set", "columnar", "sharded")[i % 3],
                sids,
                truth,
                errors,
            ),
            daemon=True,
        )
        for i in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=180.0)
    hung = [t for t in threads if t.is_alive()]
    assert not hung, f"{len(hung)} client thread(s) hung"
    assert not errors, errors

    # Zero-drop accounting: the ok-counter across tenants must equal
    # exactly the number of queries the soak issued (prepares are not
    # queries; admission never rejected anything at this queue depth).
    with ServiceClient(server.url) as admin:
        series = parse_exposition(admin.metrics())
    issued = N_THREADS * OPS_PER_THREAD
    counted = sum(
        value
        for name, value in series.items()
        if name.startswith("repro_queries_total{") and 'status="ok"' in name
    )
    assert counted == issued
    rejected = sum(
        value
        for name, value in series.items()
        if name.startswith("repro_admission_rejections_total")
    )
    assert rejected == 0
    # Quiesced: nothing in flight or queued once the soak has joined.
    assert series["repro_admission_inflight"] == 0
    assert series["repro_admission_queued"] == 0
    assert series["repro_query_seconds_count"] == issued
    # The server notices a departed streaming client when it processes
    # the close frame — moments after the client thread has joined.
    deadline = time.monotonic() + 10.0
    while series["repro_ws_connections"] != 0:
        assert time.monotonic() < deadline, "WebSocket connections leaked"
        time.sleep(0.05)
        with ServiceClient(server.url) as admin:
            series = parse_exposition(admin.metrics())


def test_metrics_reconcile_with_cache_info(server, truth):
    """The /metrics cache counters are the sessions' own LRU counters.

    Scraped totals must equal ``Database.cache_info()`` exactly — per
    tenant, per cache, per event — while the sessions are live.
    """
    with ServiceClient(server.url, tenant="set") as client:
        client.query(AD_HOC[0], limit=0)
        client.query(AD_HOC[0], limit=0)  # result-cache hit
        client.query(AD_HOC[0], limit=0, tenant="columnar")  # a held key array
        series = parse_exposition(client.metrics())
    for session in server.pool:
        info = session.db.cache_info()
        for cache, counters in info.items():
            for event, value in (
                ("hit", counters.hits),
                ("miss", counters.misses),
            ):
                key = (
                    "repro_cache_events_total{"
                    f'tenant="{session.name}",cache="{cache}",event="{event}"'
                    "}"
                )
                assert series[key] == value, key
        key = f'repro_result_cache_bytes{{tenant="{session.name}"}}'
        assert series[key] == session.db.result_cache_bytes(), key
        key = f'repro_result_cache_rows{{tenant="{session.name}"}}'
        assert series[key] == session.db.result_cache_rows(), key
        assert series[key] <= len(STORE) + max(truth.values()), key
    # The repeated ad-hoc query above must actually have hit a cache.
    set_info = server.pool.session("set").db.cache_info()
    assert set_info["results"].hits + set_info["plans"].hits > 0
    assert series['repro_result_cache_bytes{tenant="columnar"}'] > 0
    assert series['repro_result_cache_rows{tenant="set"}'] > 0


def test_statements_are_per_tenant(server):
    """Session isolation: a statement id is meaningless on any tenant
    other than the one that prepared it."""
    with ServiceClient(server.url) as client:
        sid = client.prepare(PREPARED, tenant="set")["statement"]
        body = client.execute(sid, params=PREPARED_BINDING, tenant="set")
        assert body["total"] >= 0
        with pytest.raises(RemoteError) as excinfo:
            client.execute(sid, params=PREPARED_BINDING, tenant="columnar")
    assert excinfo.value.remote_type == "ProtocolError"
    assert excinfo.value.status == 400
    assert "columnar" in str(excinfo.value)


def test_statement_count_is_scraped(server):
    """The prepared-statement gauge mirrors the registries at scrape."""
    with ServiceClient(server.url) as client:
        client.prepare(PREPARED, tenant="sharded")
        series = parse_exposition(client.metrics())
    for session in server.pool:
        key = f'repro_prepared_statements{{tenant="{session.name}"}}'
        assert series[key] == session.statement_count()


def test_concurrent_prepare_and_execute_race(server, truth):
    """Prepare/execute raced from many threads: every returned id is
    immediately executable, ids never collide."""
    ids: list = []
    errors: list = []
    lock = threading.Lock()

    def worker():
        try:
            with ServiceClient(server.url, tenant="set") as client:
                sid = client.prepare(PREPARED)["statement"]
                body = client.execute(sid, params=PREPARED_BINDING)
                assert body["total"] == truth[PREPARED]
                with lock:
                    ids.append(sid)
        except BaseException as exc:
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not errors, errors
    assert len(ids) == 16
    assert len(set(ids)) == 16


def test_the_listen_backlog_holds_everyone_admission_could_admit(monkeypatch):
    """Who waits and who is refused is admission's call, not the kernel's:
    with the accept loop held back, as many clients as admission could
    take connect and send; once it runs, every one of them is answered
    by the server — none reset out of a 5-deep accept queue."""
    release = threading.Event()
    serve_forever = ThreadingHTTPServer.serve_forever

    def held_back(self, poll_interval=0.5):
        release.wait(timeout=120.0)
        serve_forever(self, poll_interval)

    monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", held_back)
    config = ServiceConfig(
        port=0, max_inflight=1, queue_depth=64, queue_timeout=60.0
    )
    body = json.dumps({"query": "E0", "limit": 0})
    clients: list = []
    with QueryServer(Database(STORE), config) as srv:
        try:
            for _ in range(48):
                conn = http.client.HTTPConnection(*srv.address, timeout=20.0)
                clients.append(conn)
                conn.request(
                    "POST",
                    "/v1/query",
                    body,
                    {"Content-Type": "application/json"},
                )
            release.set()
            statuses = [conn.getresponse().status for conn in clients]
        finally:
            release.set()  # stop() waits for the accept loop
            for conn in clients:
                conn.close()
        series = parse_exposition(srv.registry.expose())
    # Answered (200) or refused by admission (429) — here the queue is
    # deep enough for all of them.
    assert statuses == [200] * 48
    assert series["repro_query_seconds_count"] == 48
