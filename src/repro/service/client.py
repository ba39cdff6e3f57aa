"""The matching client for the query service (stdlib only).

:class:`ServiceClient` speaks both transports:

* HTTP for request/response — ``query``, ``prepare``, ``execute``,
  ``explain``, ``metrics``, ``health``;
* WebSocket for streaming — :meth:`stream` yields result pages as the
  server sends them, so a million-row result is consumed page by page
  on both sides.

Non-2xx responses carrying the structured error envelope raise
:class:`~repro.errors.RemoteError` with the server-side exception class
name on ``remote_type`` — a client sees an expired query budget as
``RemoteError(remote_type="QueryTimeoutError")``, typed and catchable,
not as a dead connection.

One client holds one HTTP connection and is **not** thread-safe; give
each thread its own client (they are cheap).
"""

from __future__ import annotations

import base64
import json
import os
import socket
from http.client import HTTPConnection, HTTPException
from typing import Any, Iterator, Mapping, Optional
from urllib.parse import urlparse

from repro.errors import ProtocolError, RemoteError, ServiceError
from repro.service import ws as wsproto

__all__ = ["ServiceClient"]


class ServiceClient:
    """A session against one query server.

    ``url`` is the server base (``http://host:port``); ``tenant`` the
    default tenant for every call (overridable per call).
    """

    def __init__(
        self,
        url: str,
        tenant: str = "default",
        timeout: float = 60.0,
    ) -> None:
        parsed = urlparse(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("http", "ws", ""):
            raise ServiceError(f"unsupported scheme {parsed.scheme!r}")
        if not parsed.hostname or not parsed.port:
            raise ServiceError(f"client needs host:port, got {url!r}")
        self.host = parsed.hostname
        self.port = parsed.port
        self.tenant = tenant
        self.timeout = timeout
        self._conn: Optional[HTTPConnection] = None

    # -- HTTP plumbing -------------------------------------------------- #

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _roundtrip(self, method: str, path: str, body, headers):
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response, response.read()
        except (OSError, HTTPException):
            # Never keep a connection that failed mid-request: its state
            # machine would answer every later call with CannotSendRequest.
            self.close()
            raise

    def _request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            response, raw = self._roundtrip(method, path, body, headers)
        except OSError:
            # One reconnect: the pooled connection may have been closed
            # by a keep-alive timeout on the server side.
            response, raw = self._roundtrip(method, path, body, headers)
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("text/plain"):
            if response.status >= 400:
                raise RemoteError(
                    "HTTPError", raw.decode(errors="replace"), response.status
                )
            return raw.decode()
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise RemoteError(
                "ProtocolError",
                f"server sent a non-JSON body (status {response.status})",
                response.status,
            ) from None
        if response.status >= 400 or (
            isinstance(decoded, dict) and "error" in decoded
        ):
            error = (decoded.get("error") or {}) if isinstance(decoded, dict) else {}
            raise RemoteError(
                error.get("type", "InternalError"),
                error.get("message", f"HTTP {response.status}"),
                response.status,
                error,
            )
        return decoded

    # -- the API -------------------------------------------------------- #

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The raw Prometheus text exposition."""
        return self._request("GET", "/metrics")

    def query(
        self,
        query: str,
        lang: str = "trial",
        params: Optional[Mapping[str, Any]] = None,
        limit: Optional[int] = None,
        offset: int = 0,
        tenant: Optional[str] = None,
    ) -> dict:
        """Run an ad-hoc query; returns ``{rows, total, returned}``."""
        return self._request("POST", "/v1/query", self._payload(
            query=query, lang=lang, params=params, limit=limit,
            offset=offset, tenant=tenant,
        ))

    def prepare(
        self,
        query: str,
        lang: str = "trial",
        tenant: Optional[str] = None,
    ) -> dict:
        """Compile server-side; returns ``{statement, params, ...}``."""
        return self._request("POST", "/v1/prepare", self._payload(
            query=query, lang=lang, tenant=tenant,
        ))

    def execute(
        self,
        statement: str,
        params: Optional[Mapping[str, Any]] = None,
        limit: Optional[int] = None,
        offset: int = 0,
        tenant: Optional[str] = None,
    ) -> dict:
        """Run a prepared statement under a parameter binding."""
        payload = self._payload(
            params=params, limit=limit, offset=offset, tenant=tenant,
        )
        payload["statement"] = statement
        return self._request("POST", "/v1/execute", payload)

    def explain(
        self,
        query: str,
        lang: str = "trial",
        tenant: Optional[str] = None,
    ) -> dict:
        """The structured explain report for a query."""
        return self._request("POST", "/v1/explain", self._payload(
            query=query, lang=lang, tenant=tenant,
        ))

    def _payload(self, **fields) -> dict:
        payload: dict = {}
        for name, value in fields.items():
            if name == "tenant":
                payload["tenant"] = value or self.tenant
            elif name == "params":
                if value:
                    payload["params"] = dict(value)
            elif name == "offset":
                if value:
                    payload["offset"] = value
            elif value is not None:
                payload[name] = value
        return payload

    # -- WebSocket streaming -------------------------------------------- #

    def stream(
        self,
        query: Optional[str] = None,
        lang: str = "trial",
        params: Optional[Mapping[str, Any]] = None,
        page_size: Optional[int] = None,
        tenant: Optional[str] = None,
        statement: Optional[str] = None,
    ) -> Iterator[dict]:
        """Stream one query's result pages over WebSocket.

        Yields the server's page messages (``{"id", "seq", "rows"}``)
        and finally the summary (``{"id", "done": True, "total",
        "pages"}``).  A structured server error raises
        :class:`~repro.errors.RemoteError`.
        """
        request = self._payload(
            query=query, lang=lang, params=params, tenant=tenant,
        )
        if page_size is not None:
            request["page_size"] = page_size
        if statement is not None:
            request["statement"] = statement
            request.pop("lang", None)
        request["id"] = "q1"
        with self._ws_socket() as sock:
            wsproto.send_frame(
                sock,
                wsproto.OP_TEXT,
                json.dumps(request).encode(),
                mask=True,
            )
            while True:
                frame = wsproto.read_frame(
                    sock, max_payload=1 << 30, require_mask=False
                )
                if frame.opcode == wsproto.OP_CLOSE:
                    raise ProtocolError(
                        "server closed the stream before completion"
                    )
                if frame.opcode == wsproto.OP_PING:
                    wsproto.send_frame(
                        sock, wsproto.OP_PONG, frame.payload, mask=True
                    )
                    continue
                message = json.loads(frame.payload.decode("utf-8"))
                if "error" in message:
                    error = message["error"]
                    raise RemoteError(
                        error.get("type", "InternalError"),
                        error.get("message", "stream failed"),
                        payload=error,
                    )
                yield message
                if message.get("done"):
                    wsproto.send_close(sock, 1000, mask=True)
                    return

    def _ws_socket(self) -> socket.socket:
        """A socket with the WebSocket handshake completed.

        ``TCP_NODELAY`` as on the HTTP connection (``http.client`` sets
        it): a small frame never waits for the server's ACK of the last.
        """
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            key = base64.b64encode(os.urandom(16)).decode()
            handshake = (
                f"GET /v1/ws HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            )
            sock.sendall(handshake.encode())
            response = _read_http_head(sock)
            status_line = response.split("\r\n", 1)[0]
            if " 101 " not in status_line + " ":
                raise ProtocolError(
                    f"WebSocket upgrade refused: {status_line!r}"
                )
            expected = wsproto.accept_key(key)
            if f"Sec-WebSocket-Accept: {expected}" not in response:
                raise ProtocolError("bad Sec-WebSocket-Accept from server")
            return sock
        except BaseException:
            sock.close()
            raise


def _read_http_head(sock: socket.socket) -> str:
    """Read an HTTP response head (through the blank line)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(1024)
        if not chunk:
            raise ProtocolError("connection closed during WebSocket handshake")
        data += chunk
        if len(data) > 64 * 1024:
            raise ProtocolError("oversized WebSocket handshake response")
    return data.split(b"\r\n\r\n", 1)[0].decode(errors="replace")
