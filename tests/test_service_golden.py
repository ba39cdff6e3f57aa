"""Golden-file tests for the service's wire formats.

Two formats are pinned byte for byte:

* the ``/metrics`` Prometheus exposition of a *fresh* server — every
  family, help string, label set and zero value.  Renaming a metric or
  dropping a label breaks dashboards silently; here it breaks a
  readable golden diff instead;
* the ``/v1/explain`` response — which must be *the same report* the
  in-process API produces, the one ``test_explain_golden.py`` pins
  against the ``tests/golden/*_set.json`` explain goldens (HTTP parity:
  the service adds transport, not its own dialect).

Regenerate after an intentional change::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_service_golden.py
"""

from __future__ import annotations

import json
import os

import pytest
from test_explain_golden import BACKENDS, CASES, GOLDEN_STORE, _render_json

from repro.db import Database
from repro.service import QueryServer, ServiceClient, ServiceConfig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _fresh_server() -> QueryServer:
    """The pinned server shape: one set tenant, one sharded tenant.

    Everything that shows in the exposition is fixed — tenant names,
    backends (pinned, so the session default cannot move the default
    tenant's), the shard count, and a config
    whose values do not appear in any metric.
    """
    from repro.core.engines.sharded import ShardedEngine

    tenants = {
        "default": Database(GOLDEN_STORE, backend="set"),
        "sharded": Database(
            GOLDEN_STORE, ShardedEngine(shards=4)
        ),
    }
    return QueryServer(tenants, ServiceConfig(port=0))


def test_metrics_exposition_matches_golden():
    with _fresh_server() as server:
        with ServiceClient(server.url) as client:
            rendered = client.metrics()
    path = os.path.join(GOLDEN_DIR, "metrics.txt")
    if os.environ.get("UPDATE_GOLDEN"):
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(rendered)
        pytest.skip(f"regenerated {path}")
    with open(path, encoding="utf-8") as fp:
        expected = fp.read()
    assert rendered == expected, (
        f"/metrics exposition drifted from {path}; metric renames break "
        "dashboards — if intentional, regenerate with UPDATE_GOLDEN=1"
    )


def test_metrics_exposition_is_deterministic():
    """Two fresh servers expose byte-identical text (ordering is fixed
    by registration and sorted labels, not dict happenstance)."""
    with _fresh_server() as one:
        with ServiceClient(one.url) as client:
            first = client.metrics()
    with _fresh_server() as two:
        with ServiceClient(two.url) as client:
            second = client.metrics()
    assert first == second


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("name,query", CASES, ids=[c[0] for c in CASES])
def test_http_explain_matches_explain_goldens(name, query, backend):
    """HTTP parity: ``POST /v1/explain`` returns exactly the report the
    in-process API renders for the same (query, backend) pair.

    There is no UPDATE path here — the goldens belong to
    ``test_explain_golden.py`` and this test only asserts parity.
    """
    expected = json.loads(_render_json(query, backend))
    db = Database(GOLDEN_STORE, BACKENDS[backend]())
    with QueryServer(db, ServiceConfig(port=0)) as server:
        with ServiceClient(server.url) as client:
            report = client.explain(query)
    assert report == expected
