"""The layered public query API (v2): results, statements, explain, languages.

:class:`repro.db.Database` is the session object; this module defines
the value types its v2 surface trades in:

* :class:`ResultSet` — the lazy cursor every query returns.  It behaves
  like a frozen set of rows (``in``, ``len``, iteration, set algebra,
  comparison with plain sets) but holds its backing representation
  undecoded: on the columnar and sharded backends that is the packed
  integer key array, and rows are dictionary-decoded only as they are
  consumed.  ``limit``/``offset`` slice the keys *before* decoding, so a
  10-row read of a million-row result decodes 10 triples.
* :class:`PreparedStatement` — ``db.prepare(...)`` compiles a (possibly
  ``$param``-placeholder) query once; ``stmt.execute(city="Edinburgh")``
  binds constants into the cached physical plan per execution
  (:func:`repro.core.params.bind_plan`), on any backend.
* :class:`ExplainReport` — the one explain: the fragment and the
  paper's guarantee for it, the compiled physical operator tree with
  cost estimates, the backend that would run it, the plan verifier's
  violations and the semantic analyzer's findings.  ``str(report)`` is
  the text ``repro explain`` prints, :meth:`~ExplainReport.to_json` the
  data ``repro explain --json``, ``/v1/explain`` and the golden tests
  read; :func:`explain_report` is its only builder.
* :data:`LANGUAGES` — one table mapping language names to their
  compile step, so ``db.query(text, lang=...)`` and ``db.prepare(...)``
  share a single compile path for TriAL, Datalog, GXPath, RPQs, NREs
  and nSPARQL.

Iteration order of a :class:`ResultSet` is deterministic: packed-key
order on the columnar backends (object-``repr`` lexicographic), sorted
by ``repr`` on the set backend.
"""

from __future__ import annotations

import json
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

from repro.errors import AlgebraError, PlanVerificationError, ReproError
from repro.core.expressions import (
    Diff,
    Expr,
    Star,
    Universe,
    in_reach_ta_eq,
    in_trial,
    in_trial_eq,
    is_equality_only,
    star_is_reach,
)
from repro.core.optimizer import optimize
from repro.core.params import (
    canonicalize_constants,
    check_bindings,
    expr_params,
)
from repro.core.plan import (
    FilterOp,
    HashJoinOp,
    IndexLookupOp,
    PlanOp,
    ReachStarOp,
    ScanOp,
    StarOp,
)
from repro.core.semijoin import in_semijoin_algebra

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    import numpy as np

    from repro.db import Database
    from repro.triplestore.columnar import ColumnarStore

__all__ = [
    "ExplainReport",
    "LANGUAGES",
    "Language",
    "NativeQuery",
    "PreparedStatement",
    "ResultSet",
    "explain_report",
    "plan_to_dict",
]


# --------------------------------------------------------------------- #
# Row payloads: the undecoded backing store of a ResultSet
# --------------------------------------------------------------------- #


class _SetRows:
    """Rows held as a frozenset of tuples (the set backends, native paths)."""

    __slots__ = ("rows", "_ordered")

    def __init__(self, rows: frozenset) -> None:
        self.rows = rows
        self._ordered: Optional[list] = None

    def __len__(self) -> int:
        return len(self.rows)

    def ordered(self) -> list:
        if self._ordered is None:
            self._ordered = sorted(self.rows, key=repr)
        return self._ordered

    def iter_rows(self, offset: int, limit: Optional[int]) -> Iterator:
        stop = len(self.rows) if limit is None else offset + limit
        return iter(self.ordered()[offset:stop])

    def wire_rows(self, offset: int, limit: Optional[int]) -> None:
        # No code columns to render from; the caller converts row by row.
        return None

    def contains(self, row: Any) -> bool:
        return row in self.rows

    def to_set(self) -> frozenset:
        return self.rows

    def pairs(self) -> frozenset:
        return frozenset((t[0], t[2]) for t in self.rows)


class _ColumnarRows:
    """Rows held as a sorted unique packed-key array plus its dictionary.

    Decoding is deferred: ``iter_rows`` decodes in chunks as rows are
    consumed, ``pairs`` projects and deduplicates on integer codes
    before decoding, and ``contains`` is a binary search on the keys.
    """

    __slots__ = ("cs", "keys", "_decoded")

    #: Rows decoded per iteration step — large enough to amortise the
    #: per-chunk numpy gather, small enough that ``--limit 20`` on a
    #: million-row result stays O(chunk).
    CHUNK = 1024

    def __init__(self, cs: "ColumnarStore", keys: "np.ndarray") -> None:
        self.cs = cs
        self.keys = keys
        self._decoded: Optional[frozenset] = None

    def __len__(self) -> int:
        return len(self.keys)

    def iter_rows(self, offset: int, limit: Optional[int]) -> Iterator:
        keys = self.keys
        stop = len(keys) if limit is None else min(len(keys), offset + limit)
        decode = self.cs.decode_list
        for start in range(offset, stop, self.CHUNK):
            yield from decode(keys[start : min(start + self.CHUNK, stop)])

    def wire_rows(self, offset: int, limit: Optional[int]) -> list:
        stop = None if limit is None else offset + limit
        return self.cs.wire_rows(self.keys[offset:stop])

    def contains(self, row: Any) -> bool:
        if not (isinstance(row, tuple) and len(row) == 3):
            return False
        key = self.cs.encode_triple_key(row)
        if key < 0:
            return False
        import numpy as np

        i = int(np.searchsorted(self.keys, key))
        return i < len(self.keys) and int(self.keys[i]) == key

    def to_set(self) -> frozenset:
        if self._decoded is None:
            self._decoded = self.cs.decode_triples(self.keys)
        return self._decoded

    def pairs(self) -> frozenset:
        return self.cs.decode_pairs(self.keys)


# --------------------------------------------------------------------- #
# ResultSet
# --------------------------------------------------------------------- #


class ResultSet(AbstractSet):
    """A lazy, set-like view over one query result.

    Compatible with the old eager frozenset returns — ``in``, ``len``,
    iteration, ``==`` against sets, ``|``/``&``/``-`` — while keeping
    the columnar backends' results undecoded until rows are consumed.

    ``limit``/``offset`` return a *window* onto the same payload (keys
    are sliced before decode); iteration order is deterministic, so
    paging through a result is stable.
    """

    __slots__ = ("_rows", "_offset", "_limit", "_window")

    def __init__(self, rows, offset: int = 0, limit: Optional[int] = None) -> None:
        self._rows = rows
        self._offset = offset
        self._limit = limit
        self._window: Optional[frozenset] = None

    # -- construction ---------------------------------------------------- #

    @classmethod
    def from_set(cls, rows) -> "ResultSet":
        """Wrap an eager set of rows (any arity)."""
        return cls(_SetRows(frozenset(rows)))

    @classmethod
    def from_keys(cls, cs: "ColumnarStore", keys: "np.ndarray") -> "ResultSet":
        """Wrap an undecoded packed-key array over ``cs``'s dictionary."""
        return cls(_ColumnarRows(cs, keys))

    @classmethod
    def _from_iterable(cls, iterable) -> "ResultSet":
        # collections.abc.Set uses this to build results of set algebra.
        return cls.from_set(iterable)

    # -- the windowing cursor -------------------------------------------- #

    @property
    def total(self) -> int:
        """Rows in the underlying result, ignoring the window."""
        return len(self._rows)

    def limit(self, n: int) -> "ResultSet":
        """At most the first ``n`` rows of this window (keys-only slice)."""
        if n < 0:
            raise AlgebraError(f"limit must be non-negative, got {n}")
        new = n if self._limit is None else min(self._limit, n)
        return ResultSet(self._rows, self._offset, new)

    def offset(self, n: int) -> "ResultSet":
        """This window minus its first ``n`` rows."""
        if n < 0:
            raise AlgebraError(f"offset must be non-negative, got {n}")
        new_limit = self._limit if self._limit is None else max(0, self._limit - n)
        return ResultSet(self._rows, self._offset + n, new_limit)

    @property
    def _windowed(self) -> bool:
        return self._offset > 0 or (
            self._limit is not None and self._limit < len(self._rows)
        )

    def __len__(self) -> int:
        span = max(0, len(self._rows) - self._offset)
        return span if self._limit is None else min(span, self._limit)

    def __iter__(self) -> Iterator:
        return self._rows.iter_rows(self._offset, self._limit)

    def __contains__(self, row: Any) -> bool:
        if not self._windowed:
            return self._rows.contains(row)
        return row in self.to_set()

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- materialisation ------------------------------------------------- #

    def to_set(self) -> frozenset:
        """All rows of this window as a frozenset (decodes them all)."""
        if not self._windowed:
            return self._rows.to_set()
        if self._window is None:
            self._window = frozenset(self)
        return self._window

    def to_list(self) -> list:
        """All rows of this window, in iteration order."""
        return list(self)

    def first(self) -> Optional[tuple]:
        """The first row of this window, or ``None`` when empty."""
        return next(iter(self), None)

    def wire_rows(self) -> Optional[list]:
        """This window as JSON-ready rows in iteration order, rendered
        straight from the code columns (:meth:`ColumnarStore.wire_rows`:
        JSON-native objects as themselves, ``repr`` for the rest) — or
        ``None`` when the payload is a set of tuples and there are no
        columns to render from.  The query service's egress path."""
        return self._rows.wire_rows(self._offset, self._limit)

    def pairs(self) -> frozenset:
        """π₁,₃ — the binary-query convention of §6.2, as (subject, object)
        pairs.  On columnar payloads the projection and deduplication
        run on integer codes; only the surviving pairs are decoded."""
        if not self._windowed:
            return self._rows.pairs()
        return frozenset((t[0], t[2]) for t in self)

    def pages(self, page_size: int) -> Iterator["ResultSet"]:
        """Iterate this window as consecutive ``page_size``-row windows.

        Each page is itself a lazy :class:`ResultSet` over the same
        undecoded payload — the query service streams large results
        page by page over WebSocket without ever decoding (or holding)
        the full result server-side.  Iteration order is the cursor's
        deterministic order, so pages tile the window exactly.
        """
        if page_size <= 0:
            raise AlgebraError(f"page size must be positive, got {page_size}")
        total = len(self)
        for start in range(0, total, page_size):
            yield self.offset(start).limit(page_size)

    # -- set behaviour ---------------------------------------------------- #

    __hash__ = AbstractSet._hash

    def __repr__(self) -> str:
        kind = "columnar" if isinstance(self._rows, _ColumnarRows) else "set"
        window = ""
        if self._windowed:
            window = f", window={self._offset}:+{self._limit}"
        return f"<ResultSet {len(self)} rows ({kind}{window})>"


# --------------------------------------------------------------------- #
# Prepared statements
# --------------------------------------------------------------------- #


class PreparedStatement:
    """One compiled query, executable under many parameter bindings.

    Created by :meth:`repro.db.Database.prepare`, and once per call by
    :meth:`repro.db.Database.query`.  The expression is optimized and
    its constants canonicalized into parameters once; the session plans
    the canonical expression once and caches it, and :meth:`execute`
    substitutes the binding into that plan
    (:func:`repro.core.params.bind_plan`) — a shallow structural copy,
    not a recompilation — and runs it on the session's backend.  Plans
    and results are session-cached by the canonical expression, so every
    spelling the optimizer folds to one expression shares them.

    Attributes
    ----------
    expr:
        The logical expression as written, user ``$params`` intact —
        what :meth:`explain` analyzes.
    params:
        The parameter names :meth:`execute` expects as keywords.
    """

    __slots__ = ("db", "lang", "expr", "params", "_canonical", "_consts")

    def __init__(self, db: "Database", expr: Expr, lang: str = "trial") -> None:
        self.db = db
        self.lang = lang
        self.expr = expr
        self.params = expr_params(expr)
        self._canonical, self._consts = canonicalize_constants(optimize(expr))

    def execute(self, **bindings: Any) -> ResultSet:
        """Run the statement with ``bindings`` for its ``$params``."""
        check_bindings(self.params, bindings)
        return self.db._execute_canonical(
            self._canonical, {**self._consts, **bindings}
        )

    def executemany(self, bindings_seq) -> list[ResultSet]:
        """Run the statement once per binding mapping, in order."""
        return [self.execute(**b) for b in bindings_seq]

    def plan(self) -> PlanOp:
        """The cached (parameterized, unbound) physical plan."""
        return self.db._cached_plan(self._canonical)

    def explain(self) -> "ExplainReport":
        """The explain of the statement's (unbound) expression as written."""
        return self.db.explain(self.expr)

    def __repr__(self) -> str:
        params = ", ".join(f"${p}" for p in self.params) or "(none)"
        return (
            f"PreparedStatement({self.expr!r}, params: {params}, "
            f"backend={self.db.backend})"
        )


# --------------------------------------------------------------------- #
# Structured explain
# --------------------------------------------------------------------- #


def plan_to_dict(op: PlanOp) -> dict:
    """One physical operator (and its subtree) as plain JSON-able data.

    Shared sub-plans are expanded per edge, matching the text renderer.
    Estimates are rounded to two decimals so reports stay readable and
    golden files stay stable across float-formatting changes.
    """
    node: dict[str, Any] = {
        "op": type(op).__name__.removesuffix("Op"),
        "label": op.label(),
        "est_rows": round(op.est_rows, 2),
        "est_cost": round(op.est_cost, 2),
    }
    if isinstance(op, ScanOp):
        node["relation"] = op.name
    elif isinstance(op, IndexLookupOp):
        node["relation"] = op.name
        node["key_positions"] = [p + 1 for p in op.positions]
        node["key"] = [repr(v) for v in op.key]
        if op.residual:
            node["residual"] = [repr(c) for c in op.residual]
    elif isinstance(op, FilterOp):
        node["conditions"] = [repr(c) for c in op.conditions]
    elif isinstance(op, HashJoinOp):
        node["out"] = list(op.spec.out)
        node["conditions"] = [repr(c) for c in op.spec.conditions]
        node["build_side"] = op.build_side
        node["access"] = "store-index" if op.index_positions is not None else "hash"
    elif isinstance(op, StarOp):
        node["out"] = list(op.spec.out)
        node["conditions"] = [repr(c) for c in op.spec.conditions]
        node["side"] = op.side
    elif isinstance(op, ReachStarOp):
        node["variant"] = "same-label" if op.same_label else "any-path"
    children = [plan_to_dict(child) for child in op.children()]
    if children:
        node["children"] = children
    return node


def _fragment_of(expr: Expr) -> tuple[str, str]:
    """The paper's Section 5 fragment of ``expr`` and its guarantee."""
    if in_reach_ta_eq(expr):
        if not in_trial_eq(expr):
            return "reachTA=", "O(|e|·|O|·|T|) — Proposition 5"
        if in_semijoin_algebra(expr):
            return "semijoin algebra (⊆ TriAL=)", "O(|e|·|O|·|T|) — Proposition 4"
        return "TriAL=", "O(|e|·|O|·|T|) — Proposition 4"
    if in_trial(expr):
        return "TriAL", "O(|e|·|T|²) — Theorem 3"
    if is_equality_only(expr):
        return (
            "TriAL*= (equality-only, general stars)",
            "O(|e|·|O|·|T|²) — Section 5 remark",
        )
    return "TriAL*", "O(|e|·|T|³) — Theorem 3"


def _logical(expr: Expr) -> dict:
    """The static features of ``expr`` that drive its cost."""
    nodes = list(expr.walk())
    stars = [n for n in nodes if isinstance(n, Star)]
    fragment, guarantee = _fragment_of(expr)
    return {
        "size": expr.size(),
        "relations": tuple(sorted(expr.relation_names())),
        "recursive": bool(stars),
        "n_stars": len(stars),
        "n_reach_stars": sum(1 for s in stars if star_is_reach(s)),
        "uses_universe": any(isinstance(n, Universe) for n in nodes),
        "uses_complement": any(
            isinstance(n, Diff) and isinstance(n.left, Universe) for n in nodes
        ),
        "equality_only": is_equality_only(expr),
        "fragment": fragment,
        "guarantee": guarantee,
    }


@dataclass(frozen=True)
class ExplainReport:
    """The explain of one query: logical analysis + physical plan, as data.

    ``logical`` carries the expression's fragment, the paper's guarantee
    for it and the structural features that drive cost; ``plan`` the
    nested operator tree of :func:`plan_to_dict` — the same tree on
    every backend; ``backend`` names the one that would run it.
    ``violations`` are the plan verifier's findings (``PLAN-*`` rule
    IDs, as finding dicts) and ``verified`` is ``True`` when there are
    none; a plan rejected inside compile has ``plan`` ``None``.
    ``analysis`` carries the semantic analyzer's findings (``SEM-*``
    rule IDs) for the query as written.  ``str(report)`` is the text
    form, :meth:`to_json` the data form.
    """

    expression: str
    parameters: tuple[str, ...]
    logical: dict
    backend: str
    compiled_by: str
    verified: bool
    violations: tuple[dict, ...]
    analysis: tuple[dict, ...]
    statistics: Optional[dict]
    plan: Optional[dict]
    #: ``plan.pretty()`` — the exact estimates, for the text form.
    plan_text: str = field(default="", repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "expression": self.expression,
            "parameters": list(self.parameters),
            "logical": self.logical,
            "backend": self.backend,
            "compiled_by": self.compiled_by,
            "verified": self.verified,
            "violations": list(self.violations),
            "analysis": list(self.analysis),
            "statistics": self.statistics,
            "plan": self.plan,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def text(self) -> str:
        """The plan with cost estimates, then one line per violation and
        per semantic finding."""
        from repro.analysis.invariants import Finding

        lines = [
            f"expression : {self.expression}",
            f"fragment   : {self.logical['fragment']}",
            f"guarantee  : {self.logical['guarantee']}",
            f"compiled by: {self.compiled_by}",
        ]
        if self.backend != "set":
            lines.append(f"backend    : {self.backend}")
        stats = self.statistics
        lines.append(
            "statistics : "
            + (
                f"store with |T|={stats['triples']}, |O|={stats['objects']}"
                if stats is not None
                else "none (textbook defaults)"
            )
        )
        if self.plan is None:
            lines.append("physical plan: rejected by the plan verifier")
        else:
            lines.append(
                "physical plan (rows = output estimate, cost = cumulative):"
            )
            lines.append(self.plan_text)
        lines += [f"violation  : {Finding(**v)}" for v in self.violations]
        lines += [f"finding    : {Finding(**f)}" for f in self.analysis]
        return "\n".join(lines)

    __str__ = text


def explain_report(expr: Expr, store=None, engine=None) -> ExplainReport:
    """The explain of one expression — the builder behind every surface.

    The semantic analyzer reads ``expr`` as written — the call
    :meth:`repro.db.Database.analyze` makes — so verdicts the pruning
    rewrites would consume are still reported.  The plan is compiled
    from the optimized expression, as every session runs it, by
    ``engine``; with no engine, or one that interprets directly, as a
    default session compiles it (``VectorEngine``, columnar).  ``store``
    anchors the estimates in real statistics.  Compiling verifies the
    plan, so its only violations are those of a plan the verifier
    rejected inside compile; that plan is ``None``.
    """
    from repro.analysis.semantics import analyze_expr
    from repro.core.engines.base import PlanEngine
    from repro.core.engines.vectorized import VectorEngine

    analysis = tuple(f.to_dict() for f in analyze_expr(expr, store))
    expr = optimize(expr)
    planner = engine if isinstance(engine, PlanEngine) else VectorEngine()
    compiled_by = type(planner).__name__
    if engine is None:
        engine = planner
    elif engine is not planner:
        compiled_by += (
            f" — note: {type(engine).__name__} interprets directly "
            "and will not run this plan"
        )
    plan: Optional[PlanOp] = None
    violations = ()
    try:
        plan = planner.compile(expr, store)
    except PlanVerificationError as exc:
        violations = exc.violations
    backend = getattr(engine, "backend", "set")
    if backend == "sharded":
        backend = f"sharded({engine.shards}-way, key position 1)"
    return ExplainReport(
        expression=repr(expr),
        parameters=expr_params(expr),
        logical=_logical(expr),
        backend=backend,
        compiled_by=compiled_by,
        verified=not violations,
        violations=tuple(v.to_dict() for v in violations),
        analysis=analysis,
        statistics=(
            {"triples": len(store), "objects": store.n_objects}
            if store is not None
            else None
        ),
        plan=plan_to_dict(plan) if plan is not None else None,
        plan_text=plan.pretty() if plan is not None else "",
    )


# --------------------------------------------------------------------- #
# The language registry
# --------------------------------------------------------------------- #


class NativeQuery:
    """A compiled query that does not factor through the Triple Algebra.

    ``run(db)`` produces the result rows directly: nSPARQL, and Datalog
    programs whose shape ``datalog_to_trial`` cannot translate.
    """

    __slots__ = ("run",)

    def __init__(self, run: Callable[["Database"], frozenset]) -> None:
        self.run = run


@dataclass(frozen=True)
class Language:
    """One front-door language: a name and its compile step.

    ``compile(db, source)`` returns either an :class:`Expr` (executed
    through the session's optimizer/planner/cache pipeline) or a
    :class:`NativeQuery`.  ``pairs=True`` marks languages whose
    conventional answer is the π₁,₃ node-pair projection.
    """

    name: str
    compile: Callable[["Database", Any], Any]
    pairs: bool = False


def _compile_trial(db: "Database", source: Any) -> Expr:
    from repro.core.parser import parse as parse_expr

    if isinstance(source, str):
        return parse_expr(source)
    if isinstance(source, Expr):
        return source
    raise AlgebraError(
        f"cannot compile {type(source).__name__} as a TriAL expression"
    )


def _compile_gxpath(db: "Database", source: Any) -> Expr:
    from repro.graphdb.gxpath_parser import parse_gxpath
    from repro.translations.graph_to_trial import gxpath_to_trial

    if isinstance(source, str):
        source = parse_gxpath(source)
    return gxpath_to_trial(source)


def _compile_rpq(db: "Database", source: Any) -> Expr:
    from repro.translations.graph_to_trial import rpq_to_trial

    return rpq_to_trial(source)


def _compile_nre(db: "Database", source: Any) -> Expr:
    from repro.graphdb.nre import parse_nre
    from repro.translations.graph_to_trial import nre_to_trial

    if isinstance(source, str):
        source = parse_nre(source)
    return nre_to_trial(source)


def _compile_datalog(db: "Database", source: Any) -> Expr | NativeQuery:
    from repro.datalog import datalog_to_trial, parse_program, run_program

    program = parse_program(source) if isinstance(source, str) else source
    try:
        return datalog_to_trial(program)
    except ReproError:
        # Outside the translatable fragments — decided by the program's
        # shape, never the store: the native stratified evaluator.
        return NativeQuery(lambda db: run_program(program, db.store))


def _compile_nsparql(db: "Database", source: Any) -> NativeQuery:
    if db.document is None:
        raise ReproError(
            "nSPARQL queries need a Database.from_rdf session "
            "(the nSPARQL axes are defined on the RDF document)"
        )
    return NativeQuery(lambda db: source.evaluate(db.document, db=db))


#: The front-door languages, by ``lang=`` name.
LANGUAGES: dict[str, Language] = {
    "trial": Language("trial", _compile_trial),
    "datalog": Language("datalog", _compile_datalog),
    "gxpath": Language("gxpath", _compile_gxpath, pairs=True),
    "rpq": Language("rpq", _compile_rpq, pairs=True),
    "nre": Language("nre", _compile_nre, pairs=True),
    "nsparql": Language("nsparql", _compile_nsparql),
}


def get_language(name: str) -> Language:
    """Look up a front-door language, with a helpful error."""
    try:
        return LANGUAGES[name]
    except KeyError:
        raise ReproError(
            f"unknown query language {name!r}; registered: "
            + ", ".join(sorted(LANGUAGES))
        ) from None
