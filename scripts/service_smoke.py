"""End-to-end smoke test for the query service (the CI service-smoke job).

Starts a real :class:`~repro.service.server.QueryServer` over a
generated store, drives it the way a deployment would — HTTP queries,
prepared statements, WebSocket streaming, an injected failure, a
metrics scrape — then shuts down cleanly and verifies no threads piled
up.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import os
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.engines.sharded import ShardedEngine  # noqa: E402
from repro.db import Database  # noqa: E402
from repro.errors import RemoteError  # noqa: E402
from repro.service import (  # noqa: E402
    QueryServer,
    ServiceClient,
    ServiceConfig,
)
from repro.service.metrics import parse_exposition  # noqa: E402
from repro.workloads.generators import random_store  # noqa: E402


def main() -> int:
    store = random_store(60, 4000, n_relations=2, data_values=range(6), seed=3)
    threads_before = threading.active_count()

    tenants = {
        "default": Database(store),
        "sharded": Database(store, ShardedEngine(shards=4)),
    }
    expected_scan = Database(store).query("E0").total
    join = "join[1,3',3; 2=1'](E0, E1)"
    expected_join = Database(store).query(join).total

    config = ServiceConfig(port=0, max_inflight=8, query_timeout=60.0)
    server = QueryServer(tenants, config).start()
    print(f"serving on {server.url}")
    failures = []

    def check(label, ok):
        print(f"  {'ok ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    with ServiceClient(server.url) as client:
        check("healthz", client.health()["status"] == "ok")
        check(
            "http scan (set tenant)",
            client.query("E0")["total"] == expected_scan,
        )
        check(
            "http join (sharded tenant)",
            client.query(join, tenant="sharded")["total"] == expected_join,
        )
        sid = client.prepare("select[1=$s](E0)", tenant="sharded")["statement"]
        bound = client.execute(sid, params={"s": "o3"}, tenant="sharded")
        check("prepared execute", bound["total"] == bound["returned"])
        rows = 0
        pages = 0
        for message in client.stream(join, tenant="sharded", page_size=256):
            if message.get("done"):
                check(
                    "ws stream totals",
                    rows == message["total"] == expected_join
                    and pages == message["pages"],
                )
                break
            rows += len(message["rows"])
            pages += 1
        try:
            client.query("NOPE")
            check("structured remote error", False)
        except RemoteError as exc:
            check(
                "structured remote error",
                exc.remote_type == "UnknownRelationError" and exc.status == 404,
            )
        series = parse_exposition(client.metrics())
        ok_queries = sum(
            v
            for k, v in series.items()
            if k.startswith("repro_queries_total{") and 'status="ok"' in k
        )
        check("metrics scrape counts queries", ok_queries >= 4)
        check(
            "metrics name both tenants",
            any('tenant="sharded"' in k for k in series)
            and any('tenant="default"' in k for k in series),
        )

    server.stop()
    check("clean shutdown (idempotent)", server._httpd is None)
    server.stop()  # second stop is a no-op

    # Handler threads are daemonic and torn down with the listener; a
    # few may still be winding down — but no unbounded growth.
    check(
        "no thread pile-up",
        threading.active_count() <= threads_before + 4,
    )

    if failures:
        print(f"FAIL: {len(failures)} smoke check(s) failed: {failures}")
        return 1
    print("OK: service smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
