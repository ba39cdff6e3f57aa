"""The service wire protocol: request schemas and structured errors.

One module owns what crosses the wire, for both transports:

* request validation — :func:`parse_request` enforces field presence
  and types *before* anything touches a session, so malformed input is
  a structured 4xx, never a stack trace;
* the error envelope — :func:`error_body` renders any exception as
  ``{"error": {"type", "message", ...}}`` and :func:`status_for` maps
  it onto an HTTP status.  Library errors (:mod:`repro.errors`) cross
  with their class name and detail fields intact (e.g.
  ``UnknownRelationError`` carries ``relation`` and ``available``), so
  clients can dispatch on ``error.type`` without parsing messages;
* row serialization — store objects are arbitrary Python values;
  :func:`jsonable_row` keeps JSON-native scalars as themselves and
  falls back to ``repr`` for the rest, matching the CLI's display
  convention.

Unexpected exceptions (genuine bugs) still produce a *structured* 500
body — the contract under fuzzing is "never a 500 without a body, never
a crash".
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import (
    AdmissionRejectedError,
    AlgebraError,
    DatalogError,
    EvaluationBudgetError,
    FragmentError,
    GraphError,
    LogicError,
    MatrixTooLargeError,
    ParseError,
    PayloadTooLargeError,
    PlanVerificationError,
    ProtocolError,
    QueryTimeoutError,
    RemoteError,
    ReproError,
    ServiceError,
    StorageError,
    StoreCorruptionError,
    StratificationError,
    TranslationError,
    TriplestoreError,
    UnboundParameterError,
    UnknownRelationError,
)
from repro.triplestore.columnar import JSON_NATIVE

__all__ = [
    "error_body",
    "jsonable_row",
    "parse_request",
    "status_for",
]

#: Languages a request may name (validated against the live registry at
#: execution time; this guard exists so the error is a protocol error
#: with the known names, not a KeyError shape).
_REQUEST_FIELDS = {
    "query": str,
    "lang": str,
    "tenant": str,
    "params": dict,
    "limit": int,
    "offset": int,
    "page_size": int,
    "id": (str, int),
}


def parse_request(payload: Any, *, require_query: bool = True) -> dict:
    """Validate one decoded query-request object into canonical form.

    Returns a dict with ``query``, ``lang``, ``tenant``, ``params``,
    ``limit``, ``offset``, ``page_size`` and ``id`` keys (defaults
    filled in).  Raises :class:`ProtocolError` on any shape violation.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - set(_REQUEST_FIELDS) - {"statement"}
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {', '.join(sorted(map(str, unknown)))}"
        )
    for name, types in _REQUEST_FIELDS.items():
        if name not in payload:
            continue
        value = payload[name]
        # bool is an int subclass; reject it wherever int is expected.
        bad = not isinstance(value, types) or (
            types is int and isinstance(value, bool)
        )
        if bad:
            wanted = (
                types.__name__
                if isinstance(types, type)
                else " or ".join(t.__name__ for t in types)
            )
            raise ProtocolError(
                f"field {name!r} must be {wanted}, "
                f"got {type(value).__name__}"
            )
    if require_query and "query" not in payload and "statement" not in payload:
        raise ProtocolError("request is missing the 'query' field")
    params = payload.get("params", {})
    for key, value in params.items():
        if not isinstance(key, str):
            raise ProtocolError("parameter names must be strings")
        if not isinstance(value, (str, int, float)) or isinstance(value, bool):
            raise ProtocolError(
                f"parameter ${key} must be a scalar, "
                f"got {type(value).__name__}"
            )
    for bound in ("limit", "offset", "page_size"):
        if bound in payload and payload[bound] < 0:
            raise ProtocolError(f"field {bound!r} must be non-negative")
    statement = payload.get("statement")
    if statement is not None and not isinstance(statement, str):
        raise ProtocolError(
            f"field 'statement' must be a str, got {type(statement).__name__}"
        )
    return {
        "query": payload.get("query"),
        "statement": statement,
        "lang": payload.get("lang", "trial"),
        "tenant": payload.get("tenant", "default"),
        "params": dict(params),
        "limit": payload.get("limit"),
        "offset": payload.get("offset", 0),
        "page_size": payload.get("page_size"),
        "id": payload.get("id"),
    }


# --------------------------------------------------------------------- #
# The error envelope
# --------------------------------------------------------------------- #

#: Exception class -> HTTP status.  First match wins, so subclasses are
#: listed before their families.  Every concrete leaf class in
#: :mod:`repro.errors` appears explicitly (the ERR-MAP lint rule), so
#: adding an error type forces a deliberate wire-status decision here.
_STATUS_MAP: tuple[tuple[type, int], ...] = (
    (PayloadTooLargeError, 413),
    (AdmissionRejectedError, 429),
    (QueryTimeoutError, 504),
    (ProtocolError, 400),
    # A relayed remote failure surfaced by a proxying server: the
    # upstream, not this request, is at fault — Bad Gateway.
    (RemoteError, 502),
    (UnknownRelationError, 404),
    (MatrixTooLargeError, 400),
    (ParseError, 400),
    (FragmentError, 400),
    (UnboundParameterError, 400),
    (PlanVerificationError, 400),
    (AlgebraError, 400),
    (StratificationError, 400),
    (DatalogError, 400),
    (LogicError, 400),
    (GraphError, 400),
    (TranslationError, 400),
    (TriplestoreError, 400),
    # Durable-storage failures are the server's disk, not the client's
    # request: corruption and I/O problems both answer 500.
    (StoreCorruptionError, 500),
    (StorageError, 500),
    (EvaluationBudgetError, 400),
    (ServiceError, 400),
    (ReproError, 400),
)


def status_for(exc: BaseException) -> int:
    """The HTTP status an exception maps to (500 for genuine bugs)."""
    for cls, status in _STATUS_MAP:
        if isinstance(exc, cls):
            return status
    return 500


def error_body(exc: BaseException) -> dict:
    """The structured error envelope for any exception.

    Library errors keep their class name and machine-readable detail
    fields; unexpected exceptions are flattened to ``InternalError``
    with their class named in ``detail`` — typed for the client, but
    without promising stability for bugs.
    """
    if isinstance(exc, ReproError):
        error: dict[str, Any] = {
            "type": type(exc).__name__,
            "message": str(exc),
        }
        for attr in (
            "reason",
            "seconds",
            "size",
            "limit",
            "name",
            "available",
            "known",
        ):
            value = getattr(exc, attr, None)
            if value is not None and value != ():
                error[attr if attr != "name" else "relation"] = (
                    list(value) if isinstance(value, tuple) else value
                )
        return {"error": error}
    return {
        "error": {
            "type": "InternalError",
            "message": str(exc) or type(exc).__name__,
            "detail": type(exc).__name__,
        }
    }


# --------------------------------------------------------------------- #
# Row serialization
# --------------------------------------------------------------------- #


def jsonable_row(row: Any) -> list:
    """One result row as a JSON array (repr for non-native objects).

    The per-row form of the rule; keys-backed results leave through its
    column-wise form, :meth:`ColumnarStore.wire_rows`.
    """
    return [v if isinstance(v, JSON_NATIVE) else repr(v) for v in row]
