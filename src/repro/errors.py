"""Exception hierarchy for the TriAL reproduction.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing genuine bugs (``TypeError`` etc. propagate untouched).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TriplestoreError(ReproError):
    """Problems with triplestore construction or access."""


class UnknownRelationError(TriplestoreError):
    """A query referenced a relation name the triplestore does not have."""

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = available
        hint = f" (available: {', '.join(available)})" if available else ""
        super().__init__(f"unknown relation {name!r}{hint}")

    def __reduce__(self):
        # Unpickling rebuilds an exception from ``args``; rebuild from the
        # constructor arguments instead, so the message is not re-wrapped
        # around the formatted text.
        return (UnknownRelationError, (self.name, self.available))


class MatrixTooLargeError(TriplestoreError):
    """A dense matrix representation was refused by its object-count guard.

    Dense (cubic or quadratic) array representations are refused above a
    configurable object count instead of silently exhausting memory.  The
    error carries the offending ``n_objects`` and the ``limit``.  The
    columnar backend's dense reachability kernel keeps the guard but
    never trips it: its dense/sparse verdict is made on the store being
    run, whose object count bounds every matrix it builds.
    """

    def __init__(self, n_objects: int, limit: int, what: str = "matrix"):
        self.n_objects = n_objects
        self.limit = limit
        self.what = what
        super().__init__(
            f"refusing to build a dense {what} representation over "
            f"{n_objects} objects (limit {limit}); raise the limit to override"
        )

    def __reduce__(self):
        return (MatrixTooLargeError, (self.n_objects, self.limit, self.what))


class AlgebraError(ReproError):
    """Malformed Triple Algebra expressions or conditions."""


class FragmentError(AlgebraError):
    """An expression was required to belong to a fragment but does not.

    Raised, e.g., when the Proposition 4/5 fast algorithms are asked to
    evaluate an expression outside TriAL= / reachTA=.
    """


class UnboundParameterError(AlgebraError):
    """A parameterized expression was executed without binding a parameter.

    Raised when a ``$name`` placeholder (:class:`repro.core.positions.Param`)
    reaches evaluation unbound — e.g. ``stmt.execute()`` missing a keyword,
    or an engine handed a parameterized plan directly.
    """

    def __init__(self, name: str, known: tuple[str, ...] = ()):
        self.name = name
        self.known = known
        hint = f" (expression parameters: {', '.join(known)})" if known else ""
        super().__init__(f"parameter ${name} is not bound{hint}")

    def __reduce__(self):
        return (UnboundParameterError, (self.name, self.known))


class PlanVerificationError(AlgebraError):
    """A compiled physical plan failed verification.

    Raised by :func:`repro.analysis.verify.assert_plan_valid` — so by
    ``compile_plan``, which calls it on every plan — and by the sharded
    executor's run-time partition check, when a plan violates one of
    the operator invariants catalogued in
    :mod:`repro.analysis.invariants`.  ``violations`` carries the full
    tuple of :class:`repro.analysis.invariants.Violation` records; the
    message lists every invariant ID so logs stay actionable even where
    only the string survives.
    """

    def __init__(self, message: str, violations: tuple = ()):
        self.violations = tuple(violations)
        super().__init__(message)

    def __reduce__(self):
        return (PlanVerificationError, (self.args[0], self.violations))


class ParseError(ReproError):
    """Syntax errors in any of the small text languages we parse."""

    def __init__(self, message: str, text: str = "", pos: int | None = None):
        self.text = text
        self.pos = pos
        if pos is not None:
            snippet = text[max(0, pos - 20):pos + 20]
            message = f"{message} at position {pos} (near {snippet!r})"
        super().__init__(message)

    def __reduce__(self):
        # args[0] is the already-formatted message; pos=None keeps it as-is.
        return (ParseError, (self.args[0], self.text, None))


class DatalogError(ReproError):
    """Malformed Datalog programs (shape violations, unsafe rules...)."""


class StratificationError(DatalogError):
    """The program uses negation through recursion and cannot be stratified."""


class LogicError(ReproError):
    """Malformed FO / TrCl formulas."""


class TranslationError(ReproError):
    """A language translation was asked for an unsupported construct."""


class GraphError(ReproError):
    """Problems with graph database construction or queries."""


class EvaluationBudgetError(ReproError):
    """An evaluation exceeded an explicit resource budget.

    The universal relation U is cubic in the number of objects; engines
    raise this instead of silently materialising enormous intermediates
    when the caller sets a budget.
    """


class StorageError(ReproError):
    """Problems with the durable storage layer (:mod:`repro.storage`).

    The family base: anything that goes wrong while opening, writing,
    snapshotting or recovering an on-disk store directory and is not
    better described as corruption.
    """


class StoreCorruptionError(StorageError):
    """A durable store directory failed an integrity check.

    Raised when opening a store whose committed state cannot be trusted:
    a segment or WAL record inside the committed region fails its CRC,
    the manifest is unreadable, or a referenced segment file is missing.
    ``findings`` carries the structured
    :class:`repro.analysis.invariants.Finding` records (``STOR-*``
    rules) so ``repro fsck`` and recovery report identically.  A *torn
    WAL tail* — bytes past the committed pointer — is not corruption:
    recovery truncates it and this error is never raised for it.
    """

    def __init__(self, message: str, findings: tuple = ()):
        self.findings = tuple(findings)
        super().__init__(message)

    def __reduce__(self):
        return (StoreCorruptionError, (self.args[0], self.findings))


class ServiceError(ReproError):
    """Base class for the query service layer (:mod:`repro.service`).

    Every service error has a stable wire shape: the error class name
    and message cross HTTP/WebSocket as structured JSON (see
    :func:`repro.service.protocol.error_body`), so clients distinguish
    admission rejections from timeouts from protocol violations without
    parsing message text.
    """


class ProtocolError(ServiceError):
    """A malformed client request: bad JSON, wrong field types, unknown
    routes, or a broken WebSocket frame (truncated, reserved bits,
    unmasked client payload).  Always the client's fault — maps to the
    4xx family on the wire, and never takes the server down."""


class PayloadTooLargeError(ProtocolError):
    """A request body (or WebSocket frame) exceeded the configured size
    limit.  Carries the sizes so clients can adapt."""

    def __init__(self, size: int, limit: int, what: str = "request body"):
        self.size = size
        self.limit = limit
        self.what = what
        super().__init__(f"{what} of {size} bytes exceeds the limit of {limit}")

    def __reduce__(self):
        return (PayloadTooLargeError, (self.size, self.limit, self.what))


class AdmissionRejectedError(ServiceError):
    """The server refused to start a query under admission control.

    ``reason`` is ``"queue_full"`` (the bounded wait queue was already
    at capacity) or ``"queue_timeout"`` (a slot did not free up within
    the queue wait budget).  Rejected queries never executed — clients
    can safely retry with backoff.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(detail or f"query rejected by admission control ({reason})")

    def __reduce__(self):
        return (AdmissionRejectedError, (self.reason, self.args[0]))


class QueryTimeoutError(ServiceError):
    """A query exceeded its per-query time budget.

    The server answers the request with this error once the budget has
    passed; the query itself is not stopped — on every backend it keeps
    computing in its worker thread, outside the admission slot it has
    released, until it finishes (ROADMAP item B2 makes such work stop).
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        super().__init__(f"query exceeded its {seconds:g}s time budget")

    def __reduce__(self):
        return (QueryTimeoutError, (self.seconds,))


class RemoteError(ServiceError):
    """A structured error relayed by a query server to its client.

    The service client raises this for any non-2xx response carrying a
    structured error body; ``remote_type`` is the server-side exception
    class name (e.g. ``"QueryTimeoutError"``), ``status`` the HTTP-level
    code, and ``payload`` the full decoded error object.
    """

    def __init__(self, remote_type: str, message: str, status: int = 500,
                 payload: dict | None = None):
        self.remote_type = remote_type
        self.status = status
        self.payload = payload or {}
        super().__init__(f"{remote_type}: {message}")

    def __reduce__(self):
        return (
            RemoteError,
            (self.remote_type, self.args[0].split(": ", 1)[-1], self.status,
             self.payload),
        )
