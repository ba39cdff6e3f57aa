"""Tenant sessions: per-tenant ``Database`` instances and statements.

A *tenant* is one isolation unit: its own store, its own
:class:`~repro.db.Database` session (so plan/result caches, mutation
versions and prepared statements never leak across tenants), created
once and reused for every request naming it.  The pool is built from
either ready ``Database`` objects (tests, embedding) or store paths
(the CLI), and owns their lifecycle: ``close()`` tears every session
down via :meth:`repro.db.Database.close`.

Prepared statements are server-side session state: ``prepare`` stores
the compiled :class:`~repro.api.PreparedStatement` under an opaque id
and ``execute`` binds per call, so the plan really is compiled once per
statement no matter how many clients execute it.  The statement
registry is registered as a session close hook — closing the session
drops its statements.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterator, Mapping

from repro.api import PreparedStatement
from repro.db import Database
from repro.errors import ProtocolError, ReproError, ServiceError

__all__ = ["TenantPool", "TenantSession"]

#: Prepared statements a tenant holds before ``prepare`` is refused.
MAX_STATEMENTS = 1024


class TenantSession:
    """One tenant's session: a database plus its statement registry."""

    __slots__ = ("name", "db", "_statements", "_ids", "_lock")

    def __init__(self, name: str, db: Database) -> None:
        self.name = name
        self.db = db
        self._statements: dict[str, PreparedStatement] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        # Session lifecycle hook: closing the session drops its
        # statements, so a pooled tenant never resurrects stale plans.
        db.add_close_hook(lambda _db: self._statements.clear())

    def prepare(self, query, lang: str) -> tuple[str, PreparedStatement]:
        stmt = self.db.prepare(query, lang=lang)
        with self._lock:
            if len(self._statements) >= MAX_STATEMENTS:
                raise ServiceError(
                    f"tenant {self.name!r} already holds "
                    f"{MAX_STATEMENTS} prepared statements"
                )
            sid = f"stmt-{next(self._ids)}"
            self._statements[sid] = stmt
        return sid, stmt

    def statement(self, sid: str) -> PreparedStatement:
        with self._lock:
            stmt = self._statements.get(sid)
        if stmt is None:
            raise ProtocolError(
                f"unknown statement {sid!r} for tenant {self.name!r} "
                "(statements are per-tenant and dropped on session close)"
            )
        return stmt

    def statement_count(self) -> int:
        with self._lock:
            return len(self._statements)

    def close(self) -> None:
        self.db.close()


class TenantPool:
    """The server's tenant sessions, by name."""

    def __init__(self, tenants: Mapping[str, Database]) -> None:
        if not tenants:
            raise ReproError("a query server needs at least one tenant")
        self._sessions = {
            name: TenantSession(name, db) for name, db in tenants.items()
        }

    def session(self, name: str) -> TenantSession:
        session = self._sessions.get(name)
        if session is None:
            raise ProtocolError(
                f"unknown tenant {name!r} (tenants: "
                + ", ".join(sorted(self._sessions))
                + ")"
            )
        return session

    def __iter__(self) -> Iterator[TenantSession]:
        return iter(self._sessions.values())

    def names(self) -> list[str]:
        return sorted(self._sessions)

    def close(self) -> None:
        for session in self._sessions.values():
            session.close()
