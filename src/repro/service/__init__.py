"""The query service layer: a long-running server over Query API v2.

Nothing in the core library serves traffic; this package does.  It
layers a long-running query server on the session/prepared-statement
API of :class:`repro.db.Database`:

* :class:`~repro.service.server.QueryServer` — HTTP for
  request/response (``/v1/query``, ``/v1/prepare``, ``/v1/execute``,
  ``/v1/explain``) plus WebSocket streaming of result pages
  (``/v1/ws``), a Prometheus-style ``/metrics`` endpoint and
  ``/healthz``;
* :class:`~repro.service.pool.TenantPool` — per-tenant ``Database``
  sessions with per-session prepared-statement registries;
* :class:`~repro.service.admission.AdmissionController` — bounded
  in-flight queries with a bounded wait queue (backpressure instead of
  collapse);
* :class:`~repro.service.client.ServiceClient` — the matching client,
  used by ``repro connect`` and the test suite.

Errors cross the wire as structured JSON (``{"error": {"type": ...,
"message": ...}}``) reusing the :mod:`repro.errors` classes, so a
failed query degrades to a clean, typed client error while the server
keeps serving.
"""

from repro.service.admission import AdmissionController
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.pool import TenantPool
from repro.service.server import QueryServer

__all__ = [
    "AdmissionController",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueryServer",
    "ServiceClient",
    "ServiceConfig",
    "TenantPool",
]
