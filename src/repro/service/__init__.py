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

Importing this package imports none of its modules (each name is
imported from its home module on first use), so a client process —
:mod:`repro.service.client` imports only the stdlib, :mod:`repro.errors`
and :mod:`repro.service.ws` — loads neither the server nor the engines.

Errors cross the wire as structured JSON (``{"error": {"type": ...,
"message": ...}}``) reusing the :mod:`repro.errors` classes, so a
failed query degrades to a clean, typed client error while the server
keeps serving.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.service.client": "ServiceClient",
        "repro.service.config": "ServiceConfig",
        "repro.service.server": "QueryServer",
    },
)
