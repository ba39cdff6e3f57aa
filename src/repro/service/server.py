"""The query server: HTTP request/response + WebSocket streaming.

:class:`QueryServer` serves one :class:`~repro.service.pool.TenantPool`
over a threading HTTP server (stdlib only):

* ``POST /v1/query``    — ad-hoc query in any registered language;
* ``POST /v1/prepare``  — compile once server-side, get a statement id;
* ``POST /v1/execute``  — bind and run a prepared statement;
* ``POST /v1/explain``  — the structured explain report as JSON;
* ``GET  /v1/ws``       — WebSocket: stream result pages;
* ``GET  /metrics``     — Prometheus text exposition;
* ``GET  /healthz``     — liveness.

Execution discipline: every query passes the
:class:`~repro.service.admission.AdmissionController` (bounded
in-flight, bounded queue → structured 429s under overload), runs under
the per-query time budget (a bounded wait on a long-lived budget worker
thread), and streams rows off the lazy :class:`~repro.api.ResultSet`
cursor — an HTTP ``limit`` or a WebSocket page decodes only the rows it
returns, never the full result.  The budget bounds the wait for the
answer, not the work: on every backend a query past its budget is
answered 504 and then keeps computing in its spent worker thread,
outside the admission slot it has released, until it finishes (ROADMAP
item B2 is what makes such work stop).

Wire discipline: nothing on the way out waits for a timer.  Every
message — an HTTP response, the 101 upgrade, a WebSocket frame — is
handed to the socket as one buffer in one call, and accepted sockets
carry ``TCP_NODELAY``, so no part of a message queues behind the peer's
delayed ACK of another.

Failure discipline: *every* response has a structured JSON body (see
:mod:`repro.service.protocol`), including 500s, and the server keeps
serving the next request.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from queue import SimpleQueue
from time import perf_counter
from typing import Mapping, Union

from repro.api import get_language
from repro.db import Database
from repro.errors import (
    AdmissionRejectedError,
    PayloadTooLargeError,
    ProtocolError,
    QueryTimeoutError,
    ReproError,
)
from repro.service import ws as wsproto
from repro.service.admission import AdmissionController
from repro.service.config import ServiceConfig
from repro.service.metrics import MetricsRegistry
from repro.service.pool import TenantPool, TenantSession
from repro.service.protocol import (
    error_body,
    jsonable_row,
    parse_request,
    status_for,
)

__all__ = ["QueryServer"]

#: Seconds between the accept loop's checks for a shutdown request.
_ACCEPT_POLL = 0.05

#: Known routes, for the bounded ``route`` metric label.
_ROUTES = {
    "/healthz",
    "/metrics",
    "/v1/query",
    "/v1/prepare",
    "/v1/execute",
    "/v1/explain",
    "/v1/ws",
}


def _status_label(exc: BaseException) -> str:
    """The bounded ``status`` label for the per-query counter."""
    if isinstance(exc, AdmissionRejectedError):
        return "rejected"
    if isinstance(exc, QueryTimeoutError):
        return "timeout"
    if isinstance(exc, ProtocolError):
        return "protocol_error"
    return "error"


class _BudgetWorker:
    """A long-lived thread that runs queries, one at a time, for handler
    threads that wait on it with a time budget.

    A worker whose query overran the budget is never handed another: it
    finishes that query — nothing stops it — and then exits.
    """

    def __init__(self) -> None:
        self.spent = False
        self._jobs: SimpleQueue = SimpleQueue()
        self._done = threading.Event()
        self._outcome: tuple | None = None
        threading.Thread(
            target=self._loop, name="repro-budget-worker", daemon=True
        ).start()

    def _loop(self) -> None:
        while (fn := self._jobs.get()) is not None:
            try:
                self._outcome = (fn(), None)
            except BaseException as exc:  # re-raised by the waiting handler
                self._outcome = (None, exc)
            del fn  # an idle worker keeps no request alive
            self._done.set()

    def run(self, fn, timeout: float):
        """``fn()``'s value (or its exception), or QueryTimeoutError once
        ``timeout`` seconds have passed — which leaves the worker spent."""
        self._jobs.put(fn)
        if not self._done.wait(timeout):
            self.retire()
            raise QueryTimeoutError(timeout)
        self._done.clear()
        value, error = self._outcome
        self._outcome = None
        if error is not None:
            raise error
        return value

    def retire(self) -> None:
        """Exit once the job in hand, if any, is done."""
        self.spent = True
        self._jobs.put(None)


def _egress(rs, lang: str):
    """``(total, render)`` of a result about to leave the server.

    ``render(offset, limit)`` is that window of the result as JSON-ready
    rows, and costs only the window: keys-backed results are rendered
    from the cursor's code columns, pair-language results are sorted
    here, once, and converted slice by slice.
    """
    if get_language(lang).pairs:
        pairs = sorted(rs.pairs(), key=repr)

        def render(offset: int, limit) -> list:
            stop = None if limit is None else offset + limit
            return [jsonable_row(p) for p in pairs[offset:stop]]

        return len(pairs), render

    def render(offset: int, limit) -> list:
        window = rs.offset(offset) if offset else rs
        if limit is not None:
            window = window.limit(limit)
        rows = window.wire_rows()
        if rows is None:  # set-backed payload: no columns to render from
            rows = [jsonable_row(t) for t in window]
        return rows

    return rs.total, render


class QueryServer:
    """A long-running query service over one or more tenant sessions.

    ``tenants`` is either a single :class:`~repro.db.Database` (served
    as tenant ``"default"``) or a mapping of tenant name to session.
    The server owns the sessions: :meth:`stop` closes them.

    Usage::

        server = QueryServer(Database(store), ServiceConfig(port=0))
        server.start()
        ...  # server.url is the base URL
        server.stop()
    """

    def __init__(
        self,
        tenants: Union[Database, Mapping[str, Database]],
        config: ServiceConfig | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        if isinstance(tenants, Database):
            tenants = {"default": tenants}
        self.pool = TenantPool(tenants)
        self.registry = MetricsRegistry()
        self._build_metrics()
        self.admission = AdmissionController(
            self.config.max_inflight,
            self.config.queue_depth,
            self.config.queue_timeout,
            inflight_gauge=self._m_inflight,
            queue_gauge=self._m_queued,
            rejection_counter=self._m_rejections,
        )
        # Idle budget workers, most recently used last.  Admission
        # bounds the queries in flight, and so the workers ever idle here.
        self._idle_workers: deque[_BudgetWorker] = deque()
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def _build_metrics(self) -> None:
        r = self.registry
        self._m_http = r.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route and status code.",
            ("route", "status"),
        )
        self._m_queries = r.counter(
            "repro_queries_total",
            "Queries executed, by tenant, language and outcome.",
            ("tenant", "lang", "status"),
        )
        self._m_latency = r.histogram(
            "repro_query_seconds",
            "Query latency in seconds (admission wait included).",
        )
        self._m_inflight = r.gauge(
            "repro_admission_inflight",
            "Queries executing right now.",
        )
        self._m_queued = r.gauge(
            "repro_admission_queued",
            "Queries waiting for an execution slot.",
        )
        self._m_rejections = r.counter(
            "repro_admission_rejections_total",
            "Queries refused by admission control, by reason.",
            ("reason",),
        )
        # Pre-create the rejection reasons so the exposition names them
        # at zero — dashboards should not discover label values late.
        self._m_rejections.labels(reason="queue_full")
        self._m_rejections.labels(reason="queue_timeout")
        self._m_ws_conns = r.gauge(
            "repro_ws_connections",
            "Open WebSocket connections.",
        )
        self._m_ws_pages = r.counter(
            "repro_ws_pages_total",
            "Result pages streamed over WebSocket.",
        )
        self._m_cache = r.counter(
            "repro_cache_events_total",
            "Session cache hits/misses, by tenant and cache "
            "(mirrors Database.cache_info at scrape time).",
            ("tenant", "cache", "event"),
        )
        self._m_cache_bytes = r.gauge(
            "repro_result_cache_bytes",
            "Bytes of packed-key arrays held by the session result cache, "
            "by tenant (set-backed results count as 0).",
            ("tenant",),
        )
        self._m_cache_rows = r.gauge(
            "repro_result_cache_rows",
            "Rows held by the session result cache, by tenant (bounded by "
            "the tenant's store size |T|, the newest result aside).",
            ("tenant",),
        )
        self._m_statements = r.gauge(
            "repro_prepared_statements",
            "Prepared statements held, by tenant.",
            ("tenant",),
        )
        self._m_tenant_info = r.gauge(
            "repro_tenant_info",
            "One series per tenant: its execution backend.",
            ("tenant", "backend"),
        )
        for session in self.pool:
            self._m_tenant_info.labels(
                tenant=session.name, backend=session.db.backend
            ).set(1)

    def _refresh_metrics(self) -> None:
        """Pull scrape-time values from the tenant sessions."""
        for session in self.pool:
            info = session.db.cache_info()
            for cache, counters in info.items():
                for event, value in (
                    ("hit", counters.hits),
                    ("miss", counters.misses),
                ):
                    self._m_cache.labels(
                        tenant=session.name, cache=cache, event=event
                    ).set_total(value)
            self._m_cache_bytes.labels(tenant=session.name).set(
                session.db.result_cache_bytes()
            )
            self._m_cache_rows.labels(tenant=session.name).set(
                info["results"].weight
            )
            self._m_statements.labels(tenant=session.name).set(
                session.statement_count()
            )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "QueryServer":
        """Bind and serve in a background thread; returns self."""
        if self._httpd is not None:
            raise ReproError("server is already running")
        handler = type("_BoundHandler", (_Handler,), {"qs": self})
        # Admission decides who waits and who is refused, so the listen
        # backlog holds everyone it could admit: with the stock 5, a
        # burst of clients is reset by the kernel before admission ever
        # sees them.
        server = type(
            "_BoundServer",
            (ThreadingHTTPServer,),
            {
                "daemon_threads": True,
                "request_queue_size": max(
                    ThreadingHTTPServer.request_queue_size,
                    self.config.max_inflight + self.config.queue_depth,
                ),
            },
        )
        self._httpd = server((self.config.host, self.config.port), handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            # How long stop() may have to wait for the accept loop.
            kwargs={"poll_interval": _ACCEPT_POLL},
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ephemeral port requests."""
        if self._httpd is None:
            raise ReproError("server is not running")
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self) -> None:
        """Stop serving and close every tenant session (idempotent)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
            if self._thread is not None:
                self._thread.join(timeout=5.0)
                self._thread = None
        while self._idle_workers:
            self._idle_workers.pop().retire()
        self.pool.close()

    def __enter__(self) -> "QueryServer":
        return self.start() if self._httpd is None else self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------ #
    # Query execution (shared by HTTP and WebSocket)
    # ------------------------------------------------------------------ #

    def _run_with_budget(self, fn):
        """Run ``fn`` under the per-query time budget.

        The query runs on a budget worker and this (handler) thread
        waits for it, at most the budget: on expiry the request is
        answered with a structured
        :class:`~repro.errors.QueryTimeoutError` and the query keeps
        computing on its worker, outside the admission slot it has
        released, until it finishes — on every backend, since nothing
        cancels it (ROADMAP item B2).  Workers are started when no idle one is at hand and go back to
        the idle stack when their query made the budget; one that did
        not is left to finish and exit.
        """
        timeout = self.config.query_timeout
        if timeout is None:
            return fn()
        try:
            worker = self._idle_workers.pop()
        except IndexError:
            worker = _BudgetWorker()
        try:
            return worker.run(fn, timeout)
        finally:
            if not worker.spent:
                self._idle_workers.append(worker)

    def _render_rows(self, rs, lang: str, limit, offset: int) -> dict:
        """Serialize one window of a result, decoding only that window."""
        total, render = _egress(rs, lang)
        rows = render(offset, limit)
        return {"rows": rows, "total": total, "returned": len(rows)}

    def _execute_request(self, req: dict) -> dict:
        """The full admission → budget → execute → serialize path."""
        session = self.pool.session(req["tenant"])
        started = perf_counter()
        try:
            with self.admission.admit():
                payload = self._run_with_budget(
                    lambda: self._do_execute(session, req)
                )
        except BaseException as exc:
            self._count_query(req, started, _status_label(exc))
            raise
        self._count_query(req, started, "ok")
        return payload

    def _count_query(self, req: dict, started: float, status: str) -> None:
        """Account one query — on either transport, before its answer (an
        HTTP response, a stream's ``done`` frame) is sent: a client that
        has its answer finds the query in the next ``/metrics`` scrape."""
        self._m_latency.observe(perf_counter() - started)
        self._m_queries.labels(
            tenant=req["tenant"], lang=req["lang"], status=status
        ).inc()

    def _do_execute(self, session: TenantSession, req: dict) -> dict:
        if req["statement"] is not None:
            stmt = session.statement(req["statement"])
            rs = stmt.execute(**req["params"])
            lang = stmt.lang
            warnings = self._analysis_warnings(session, stmt.expr, "trial")
        else:
            rs = session.db.query(
                req["query"], lang=req["lang"], **req["params"]
            )
            lang = req["lang"]
            warnings = self._analysis_warnings(session, req["query"], lang)
        payload = self._render_rows(rs, lang, req["limit"], req["offset"])
        if warnings:
            payload["analysis"] = warnings
        return payload

    @staticmethod
    def _analysis_warnings(session: TenantSession, query, lang: str) -> list:
        """Non-fatal semantic-analyzer findings for a query envelope.

        Advisory only — an analyzer failure must never fail a query
        that executed, so everything is swallowed here.
        """
        try:
            return [f.to_dict() for f in session.db.analyze(query, lang)]
        except Exception:
            return []

    # -- non-query endpoints ------------------------------------------- #

    def _prepare(self, req: dict) -> dict:
        if req["query"] is None:
            raise ProtocolError("prepare needs a 'query' field")
        session = self.pool.session(req["tenant"])
        sid, stmt = session.prepare(req["query"], req["lang"])
        return {
            "statement": sid,
            "tenant": req["tenant"],
            "lang": req["lang"],
            "params": list(stmt.params),
        }

    def _explain(self, req: dict) -> dict:
        if req["query"] is None:
            raise ProtocolError("explain needs a 'query' field")
        session = self.pool.session(req["tenant"])
        return session.db.explain(req["query"], lang=req["lang"]).to_dict()

    # -- WebSocket streaming ------------------------------------------- #

    def _stream_query(self, session: TenantSession, req: dict):
        """Yield response messages for one WebSocket query request.

        Admission and the time budget cover query execution; the page
        loop after it is client-paced and decodes one page at a time
        off the lazy cursor.
        """
        page_size = req["page_size"] or self.config.page_size
        page_size = min(page_size, self.config.page_size * 8)
        qid = req["id"]
        stmt = None
        if req["statement"] is not None:
            stmt = session.statement(req["statement"])
        lang = stmt.lang if stmt is not None else req["lang"]
        with self.admission.admit():
            rs = self._run_with_budget(
                lambda: stmt.execute(**req["params"])
                if stmt is not None
                else session.db.query(
                    req["query"], lang=req["lang"], **req["params"]
                )
            )
        total, render = _egress(rs, lang)
        npages = 0
        for start in range(0, total, page_size):
            self._m_ws_pages.inc()
            yield {"id": qid, "seq": npages, "rows": render(start, page_size)}
            npages += 1
        yield {"id": qid, "done": True, "total": total, "pages": npages}


# --------------------------------------------------------------------- #
# The request handler
# --------------------------------------------------------------------- #


class _Handler(BaseHTTPRequestHandler):
    """One HTTP connection; ``qs`` is bound per server via a subclass."""

    qs: QueryServer
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    #: Socket timeout: a stalled peer (e.g. a deliberately truncated
    #: body) cannot pin a handler thread forever.
    timeout = 60.0
    #: ``TCP_NODELAY`` on every accepted socket: a small message (the
    #: ``done`` frame closing a stream) is sent at once instead of
    #: waiting for the peer to acknowledge the page before it.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------- #

    def log_message(self, format: str, *args) -> None:
        """Silence the default stderr access log (metrics cover it)."""

    def _route_label(self, path: str) -> str:
        return path if path in _ROUTES else "other"

    def _send(self, status: int, headers: list, body: bytes = b"") -> None:
        """One response, one segment: head and body leave in one write.

        ``send_response`` / ``end_headers`` would hand the head to the
        socket by itself and the body in a second write.  The head is
        the one they build: status line, ``Server``, ``Date``, then
        ``headers`` — and none at all for an HTTP/0.9 request.
        """
        head = b""
        if self.request_version != "HTTP/0.9":
            lines = [
                f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
                f"Server: {self.version_string()}",
                f"Date: {self.date_time_string()}",
            ]
            lines += [f"{name}: {value}" for name, value in headers]
            head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.wfile.write(head + body)

    def _respond(self, status: int, payload: dict) -> None:
        self._respond_text(status, json.dumps(payload), "application/json")

    def _respond_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode()
        self._send(
            status,
            [("Content-Type", content_type), ("Content-Length", len(body))],
            body,
        )

    def _finish(self, path: str, status: int, payload: dict) -> None:
        self.qs._m_http.labels(
            route=self._route_label(path), status=str(status)
        ).inc()
        self._respond(status, payload)

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        if length is None:
            raise ProtocolError("request needs a Content-Length header")
        try:
            length = int(length)
        except ValueError:
            raise ProtocolError("Content-Length must be an integer") from None
        limit = self.qs.config.max_body_bytes
        if length > limit:
            # Not draining the oversized body; the connection dies with
            # the response.
            self.close_connection = True
            raise PayloadTooLargeError(length, limit)
        return self.rfile.read(length)

    def _decode_json(self, raw: bytes):
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from None

    # -- dispatch ------------------------------------------------------- #

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        try:
            if self.path == "/healthz":
                self._finish(
                    self.path,
                    200,
                    {"status": "ok", "tenants": self.qs.pool.names()},
                )
            elif self.path == "/metrics":
                self.qs._refresh_metrics()
                self.qs._m_http.labels(route="/metrics", status="200").inc()
                self._respond_text(
                    200,
                    self.qs.registry.expose(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif self.path == "/v1/ws":
                self._websocket()
            else:
                self._finish(
                    self.path,
                    404,
                    error_body(ProtocolError(f"no such route: {self.path}")),
                )
        except Exception as exc:  # never crash the connection thread
            self._safe_error(exc)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = self.path
        try:
            if path not in ("/v1/query", "/v1/prepare", "/v1/execute",
                            "/v1/explain"):
                self._finish(
                    path,
                    404,
                    error_body(ProtocolError(f"no such route: {path}")),
                )
                return
            payload = self._decode_json(self._read_body())
            req = parse_request(
                payload, require_query=(path != "/v1/execute")
            )
            if path == "/v1/query":
                body = self.qs._execute_request(req)
            elif path == "/v1/execute":
                if req["statement"] is None:
                    raise ProtocolError("execute needs a 'statement' field")
                body = self.qs._execute_request(req)
            elif path == "/v1/prepare":
                body = self.qs._prepare(req)
            else:
                body = self.qs._explain(req)
            self._finish(path, 200, body)
        except Exception as exc:
            self._safe_error(exc)

    def do_PUT(self) -> None:  # noqa: N802
        self._method_not_allowed()

    def do_DELETE(self) -> None:  # noqa: N802
        self._method_not_allowed()

    def _method_not_allowed(self) -> None:
        self._finish(
            self.path,
            405,
            error_body(ProtocolError(f"method {self.command} not allowed")),
        )

    def _safe_error(self, exc: Exception) -> None:
        """Answer any failure with a structured body, best effort."""
        try:
            self._finish(self.path, status_for(exc), error_body(exc))
        except OSError:
            self.close_connection = True

    # -- the WebSocket endpoint ---------------------------------------- #

    def _websocket(self) -> None:
        key = self.headers.get("Sec-WebSocket-Key")
        upgrade = (self.headers.get("Upgrade") or "").lower()
        if upgrade != "websocket" or not key:
            self._finish(
                self.path,
                400,
                error_body(
                    ProtocolError(
                        "/v1/ws needs a WebSocket upgrade "
                        "(Upgrade/Sec-WebSocket-Key headers)"
                    )
                ),
            )
            return
        self._send(
            101,
            [
                ("Upgrade", "websocket"),
                ("Connection", "Upgrade"),
                ("Sec-WebSocket-Accept", wsproto.accept_key(key)),
            ],
        )
        self.close_connection = True
        self.qs._m_http.labels(route="/v1/ws", status="101").inc()
        self.qs._m_ws_conns.inc()
        try:
            self._ws_loop()
        finally:
            self.qs._m_ws_conns.dec()

    def _ws_loop(self) -> None:
        sock = self.connection
        limit = self.qs.config.max_body_bytes
        while True:
            try:
                frame = wsproto.read_frame(
                    sock, max_payload=limit, require_mask=True
                )
            except PayloadTooLargeError:
                wsproto.send_close(sock, 1009, "frame too large", mask=False)
                return
            except (ProtocolError, OSError):
                # Truncated/garbled frame or a vanished peer: close the
                # transport — there is no frame boundary to recover to.
                wsproto.send_close(sock, 1002, "protocol error", mask=False)
                return
            if frame.opcode == wsproto.OP_CLOSE:
                wsproto.send_close(sock, 1000, mask=False)
                return
            if frame.opcode == wsproto.OP_PING:
                wsproto.send_frame(
                    sock, wsproto.OP_PONG, frame.payload, mask=False
                )
                continue
            if frame.opcode != wsproto.OP_TEXT or not frame.fin:
                wsproto.send_close(
                    sock, 1003, "expected single text frames", mask=False
                )
                return
            try:
                self._ws_message(sock, frame.payload)
            except OSError:
                return  # peer went away mid-stream

    def _ws_message(self, sock, payload: bytes) -> None:
        """One query request message → a stream of page messages.

        Application errors (bad query, unknown tenant, timeout,
        admission rejection) answer with a structured error
        *message* and keep the connection open; only transport-level
        violations close it.
        """
        qid = None
        try:
            decoded = json.loads(payload.decode("utf-8"))
            if isinstance(decoded, dict):
                qid = decoded.get("id")
            req = parse_request(decoded)
            session = self.qs.pool.session(req["tenant"])
            started = perf_counter()
            counted = False
            try:
                for message in self.qs._stream_query(session, req):
                    if message.get("done"):
                        # Before the frame leaves, not after the loop.
                        self.qs._count_query(req, started, "ok")
                        counted = True
                    wsproto.send_frame(
                        sock,
                        wsproto.OP_TEXT,
                        json.dumps(message).encode(),
                        mask=False,
                    )
            except BaseException as exc:
                if not counted:
                    self.qs._count_query(req, started, _status_label(exc))
                raise
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._ws_error(sock, qid, ProtocolError(f"bad JSON message: {exc}"))
        except OSError:
            raise
        except Exception as exc:
            self._ws_error(sock, qid, exc)

    def _ws_error(self, sock, qid, exc: Exception) -> None:
        body = error_body(exc)
        body["id"] = qid
        try:
            wsproto.send_frame(
                sock, wsproto.OP_TEXT, json.dumps(body).encode(), mask=False
            )
        except OSError:
            pass
