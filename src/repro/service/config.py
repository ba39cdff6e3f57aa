"""Service configuration: one dataclass, checked on construction.

The same object is shared by the server, the admission controller and
the CLI; ``repro serve`` builds it from its flags, leaving every flag
not given at its default here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

__all__ = ["ServiceConfig"]


@dataclass
class ServiceConfig:
    """Tunables for one :class:`~repro.service.server.QueryServer`.

    Attributes
    ----------
    host, port:
        The bind address.  Port 0 picks an ephemeral port (the bound
        address is on ``QueryServer.address`` after ``start()``).
    max_inflight:
        Queries executing at once, across all tenants.  Requests beyond
        this wait in the admission queue.
    queue_depth:
        Waiting requests tolerated before immediate rejection
        (``queue_full``).  0 disables queueing: a busy server rejects.
    queue_timeout:
        Seconds a request may wait for an execution slot before
        rejection (``queue_timeout``).
    query_timeout:
        Per-query time budget in seconds (``None`` disables).  Expiry
        answers the request with a structured
        :class:`~repro.errors.QueryTimeoutError` (504) on every backend;
        the query itself keeps computing in its worker thread until it
        finishes (ROADMAP item B2 makes such work stop).
    max_body_bytes:
        Largest accepted request body / WebSocket message.
    page_size:
        Default rows per WebSocket streaming page (client-overridable
        per request, capped at 8× this value).
    """

    host: str = "127.0.0.1"
    port: int = 8377
    max_inflight: int = 8
    queue_depth: int = 32
    queue_timeout: float = 10.0
    query_timeout: float | None = 60.0
    max_body_bytes: int = 4 * 1024 * 1024
    page_size: int = 256

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ReproError(f"port must be in 0-65535, got {self.port}")
        if self.max_inflight < 1:
            raise ReproError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.queue_depth < 0:
            raise ReproError(f"queue_depth must be >= 0, got {self.queue_depth}")
        if self.page_size < 1:
            raise ReproError(f"page_size must be >= 1, got {self.page_size}")
        if self.query_timeout is not None and self.query_timeout <= 0:
            raise ReproError(
                f"query_timeout must be positive (or None), got {self.query_timeout}"
            )
