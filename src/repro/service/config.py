"""Service configuration: one dataclass, env-var overridable.

Every knob has a ``REPRO_SERVICE_*`` environment override (applied by
:meth:`ServiceConfig.from_env`) so a deployment can be tuned without
code; explicit constructor arguments always win.  The same object is
shared by the server, the admission controller and the CLI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.errors import ReproError

__all__ = ["ServiceConfig"]

#: Environment-variable prefix for every override.
_ENV_PREFIX = "REPRO_SERVICE_"

#: field name -> (env suffix, parser)
_ENV_FIELDS = {
    "host": ("HOST", str),
    "port": ("PORT", int),
    "max_inflight": ("MAX_INFLIGHT", int),
    "queue_depth": ("QUEUE_DEPTH", int),
    "queue_timeout": ("QUEUE_TIMEOUT", float),
    "query_timeout": ("TIMEOUT", float),
    "max_body_bytes": ("MAX_BODY", int),
    "page_size": ("PAGE_SIZE", int),
    "max_statements": ("MAX_STATEMENTS", int),
}


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
    max_statements:
        Prepared statements retained per tenant before ``prepare``
        is refused.
    """

    host: str = "127.0.0.1"
    port: int = 8377
    max_inflight: int = 8
    queue_depth: int = 32
    queue_timeout: float = 10.0
    query_timeout: float | None = 60.0
    max_body_bytes: int = 4 * 1024 * 1024
    page_size: int = 256
    max_statements: int = 1024

    def __post_init__(self) -> None:
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

    @classmethod
    def from_env(cls, **overrides) -> "ServiceConfig":
        """A config from ``REPRO_SERVICE_*`` variables; kwargs win."""
        values: dict = {}
        for name, (suffix, parse) in _ENV_FIELDS.items():
            raw = os.environ.get(_ENV_PREFIX + suffix)
            if raw is None:
                continue
            try:
                values[name] = parse(raw)
            except ValueError:
                raise ReproError(
                    f"{_ENV_PREFIX}{suffix} must be a {parse.__name__}, "
                    f"got {raw!r}"
                ) from None
        known = {f.name for f in fields(cls)}
        for name in overrides:
            if name not in known:
                raise ReproError(f"unknown service config field {name!r}")
        values.update(
            {k: v for k, v in overrides.items() if v is not None}
        )
        return cls(**values)
