"""The unified ``Database`` session facade — public query API v2.

One object ties the whole pipeline together — store → statistics →
logical optimizer → physical planner → executor — and fronts it with
thread-safe LRU plan/result caches, so every frontend language
evaluates through one seam::

    from repro.db import Database

    db = Database.open("store.tstore")              # or Database(store)
    db.query("join[1,3',3; 2=1'](E, E)")            # lazy ResultSet
    db.query("a/b-", lang="gxpath").pairs()         # any registered language
    stmt = db.prepare("select[2=$label](E)")        # compiled once
    stmt.execute(label="part_of")                   # bound per execution
    report = db.explain_report("star[1,2,3'; 3=1'](E)")
    report.to_json()                                # structured explain

    with db.batch():                                # transactional mutations
        db.install("Closure", "star[1,2,3'; 3=1'](E)")
        db.install("Friends", triples)

Caching is *relation-aware*: every plan/result cache key embeds the
version of each relation the expression mentions (its dependency set),
so :meth:`Database.install` invalidates — and evicts, at the commit —
exactly the entries that read the mutated relation; queries over
unrelated relations keep their warm plans and results.  The result
cache is bounded in rows by |T|, the size of the store its answers would
be re-used against (the newest answer always stays).  Constants are
canonicalized into parameters before
planning (:mod:`repro.core.params`), which turns the plan cache into a
cross-parameter cache: ``select[2='a'](E)`` and ``select[2='b'](E)``
share one compiled plan, bound per execution.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Union as TypingUnion

from repro.api import (
    ExplainReport,
    NativeQuery,
    PreparedStatement,
    ResultSet,
    _ColumnarRows,
    _SetRows,
    explain_report as _build_explain_report,
    get_language,
)
from repro.core.engines.base import Engine, PlanEngine
from repro.core.engines.hashjoin import FastEngine
from repro.core.engines.sharded import ShardedEngine
from repro.core.engines.vectorized import VectorEngine
from repro.core.expressions import Expr, Universe
from repro.core.optimizer import optimize as optimize_expr
from repro.core.params import (
    bind_plan,
    canonicalize_constants,
    check_bindings,
    expr_params,
    substitute_params,
)
from repro.core.parser import parse as parse_expr
from repro.core.plan import PlanOp, compile_plan
from repro.errors import ReproError
from repro.triplestore.model import Triple, Triplestore, _as_triple

__all__ = ["BACKENDS", "CacheInfo", "Database", "MutationBatch"]

Query = TypingUnion[Expr, str]

#: Execution backends a session can run on: ``"set"`` executes plans
#: tuple-at-a-time over Python sets (HashJoin/Fast engines), ``"columnar"``
#: array-at-a-time over the store's packed numpy encoding (VectorEngine),
#: ``"sharded"`` shard-wise over its k-way hash partition (ShardedEngine).
BACKENDS = ("set", "columnar", "sharded")

#: Environment override for the default backend (used by CI to run the
#: whole suite on the columnar executor: ``REPRO_BACKEND=columnar``).
_BACKEND_ENV = "REPRO_BACKEND"


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of one LRU cache's counters.

    ``weight`` is what a budgeted cache holds in its own unit (rows, for
    the result cache) and ``budget`` what it may hold right now; a
    count-bound cache reports ``0`` / ``None``.
    """

    hits: int
    misses: int
    size: int
    maxsize: int
    weight: int = 0
    budget: int | None = None


class _LRU:
    """A small thread-safe LRU map with hit/miss counters (no external deps).

    Bounded by entries (``maxsize``; 0 disables) and, when built with a
    ``budget``, by weight as well: every value weighs ``len(value)``,
    the running total is kept beside the map, and an insertion evicts
    LRU-first while the entries outnumber ``maxsize`` or outweigh
    ``budget()`` — but never the entry it just inserted, so the newest
    value is always held, however large.  ``budget`` is a callable read
    at every insertion (it takes no lock of its own), so the allowance
    can follow whatever it is derived from.  :meth:`evict` drops the
    entries a caller knows can never be hit again.

    The sharded backend runs thread-pool tasks against a shared
    ``Database``, so get/insert/evict hold a lock; the ``compute``
    callback runs *outside* it (a racing pair may both compute — the
    first insert wins, which is harmless for our pure computations, and
    the loser's value is never weighed — but no lock is ever held across
    planning or execution).
    """

    __slots__ = ("maxsize", "hits", "misses", "_budget", "_data", "_weight", "_lock")

    def __init__(
        self, maxsize: int, budget: Callable[[], int] | None = None
    ) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._budget = budget
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._weight = 0
        self._lock = threading.Lock()

    def _weigh(self, value: Any) -> int:
        return len(value) if self._budget is not None else 0

    def get(self, key: Any, compute: Callable[[], Any]) -> Any:
        if self.maxsize <= 0:
            with self._lock:
                self.misses += 1
            return compute()
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
            else:
                self.hits += 1
                self._data.move_to_end(key)
                return value
        value = compute()
        budget = self._budget() if self._budget is not None else None
        with self._lock:
            existing = self._data.get(key, _MISSING)
            if existing is not _MISSING:
                return existing
            self._data[key] = value
            self._weight += self._weigh(value)
            while len(self._data) > 1 and (
                len(self._data) > self.maxsize
                or (budget is not None and self._weight > budget)
            ):
                _, dropped = self._data.popitem(last=False)
                self._weight -= self._weigh(dropped)
        return value

    def evict(self, dead: Callable[[Any], bool]) -> None:
        """Drop every entry whose key ``dead`` says yes to (one pass)."""
        with self._lock:
            # dict.keys, not the OrderedDict's own iterator: that one
            # looks every key it yields up again, and hashing a key walks
            # an expression tree.  The order of the scan does not matter.
            for key in [k for k in dict.keys(self._data) if dead(k)]:
                self._weight -= self._weigh(self._data.pop(key))

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._weight = 0

    def snapshot(self) -> list[tuple[Any, Any]]:
        """The cached ``(key, value)`` pairs, LRU→MRU order.

        Used by the durable-store catalog to persist the plan cache at
        close time; counters are not part of the snapshot.
        """
        with self._lock:
            return list(self._data.items())

    def info(self) -> CacheInfo:
        budget = self._budget() if self._budget is not None else None
        with self._lock:
            return CacheInfo(
                self.hits,
                self.misses,
                len(self._data),
                self.maxsize,
                self._weight,
                budget,
            )


_MISSING = object()


class MutationBatch:
    """A transactional group of :meth:`Database.install` mutations.

    Entered via ``with db.batch():`` — installs inside the block are
    *staged*: queries keep seeing the pre-batch store, and on successful
    exit all staged relations are swapped in as one store replacement
    with one relation-aware invalidation.  If the block raises, nothing
    is applied.
    """

    __slots__ = ("db", "_staged")

    def __init__(self, db: "Database") -> None:
        self.db = db
        self._staged: "OrderedDict[str, frozenset]" = OrderedDict()

    def stage(self, name: str, triples: frozenset) -> None:
        self._staged[name] = triples

    def __enter__(self) -> "MutationBatch":
        if self.db._batch is not None:
            raise ReproError("already inside a mutation batch")
        self.db._batch = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.db._batch = None
        if exc_type is not None:
            return False  # discard the staged mutations, propagate
        if self._staged:
            db = self.db
            if db._storage is not None:
                # One WAL record per batch — the unit of crash atomicity.
                # fsync'd before the in-memory swap, so a query can never
                # observe state the log would not reproduce.
                db._storage.commit(self._staged)
            db.store = db.store._with_frozen(self._staged)
            db._invalidate(self._staged)
            if db._storage is not None:
                db._storage.maybe_compact(db)
        return False


class Database:
    """A query session over one triplestore.

    Parameters
    ----------
    store:
        The triplestore to query.  Mutually exclusive with ``path``.
    path:
        A durable store directory (:mod:`repro.storage`) to open — or
        initialise, if empty.  The session then serves queries from the
        mmap'd segments, every ``install``/``batch`` commits through
        the write-ahead log before becoming visible, and :meth:`close`
        folds the WAL into a fresh snapshot and persists the
        statistics/plan catalog so the next open starts warm.
    engine:
        Any :class:`~repro.core.engines.base.Engine`; defaults to the
        ``backend``'s engine — a
        :class:`~repro.core.engines.hashjoin.FastEngine` for ``"set"``
        (Proposition 4/5 reach operators enabled), a
        :class:`~repro.core.engines.vectorized.VectorEngine` for
        ``"columnar"``, a
        :class:`~repro.core.engines.sharded.ShardedEngine` for
        ``"sharded"``.
    backend:
        One of :data:`BACKENDS`.  ``None`` (default) means: the given
        engine's backend if an engine was passed, else the
        ``REPRO_BACKEND`` environment variable, else ``"set"``.
    shards:
        With ``backend="sharded"``: the shard count for the default
        :class:`~repro.core.engines.sharded.ShardedEngine` (``None``
        defers to ``REPRO_SHARDS``, then the engine default).  Invalid
        with any other backend.
    executor:
        ``None`` or ``"thread"``, the sharded backend's only shard
        executor; kept so existing callers keep working, and slated for
        removal.  Any other value raises: the process shard executor was
        removed in 3.0.0.  Invalid with any other backend.
    optimize:
        Apply the logical rewrites of :mod:`repro.core.optimizer` before
        planning (default True).
    cache_size:
        Max entries in each of the plan, result and auxiliary LRU caches;
        0 disables caching.  The result cache is also bounded in rows:
        the answers it holds never outnumber the store's triples, |T|,
        except that the newest answer is always held.
    """

    def __init__(
        self,
        store: Triplestore | None = None,
        engine: Engine | None = None,
        *,
        path: str | os.PathLike | None = None,
        backend: str | None = None,
        shards: int | None = None,
        executor: str | None = None,
        optimize: bool = True,
        cache_size: int = 128,
    ) -> None:
        # Lifecycle attributes first, so close() after a failed open (or
        # on a partially-constructed object via __del__) is a no-op.
        self._close_hooks: list[Callable[["Database"], None]] = []
        self._storage = None
        if path is not None:
            if store is not None:
                raise ReproError("pass either a store or path=, not both")
            from repro.storage import DurableStore

            storage = DurableStore(path)
            store = storage.open()
            self._storage = storage
        elif store is None:
            raise ReproError("Database needs a store (or a path= to open one)")
        if backend is None:
            if engine is not None:
                backend = getattr(engine, "backend", "set")
            elif shards is not None or executor is not None:
                backend = "sharded"
            else:
                backend = os.environ.get(_BACKEND_ENV, "set")
        if backend not in BACKENDS:
            raise ReproError(
                f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
            )
        if shards is not None and backend != "sharded":
            raise ReproError(
                f"shards={shards} only applies to the sharded backend, not {backend!r}"
            )
        if executor not in (None, "thread"):
            raise ReproError(
                f"executor={executor!r}: the process shard executor was "
                "removed in 3.0.0; the sharded backend runs its shard tasks "
                "on threads (pass executor='thread' or leave it out)"
            )
        if executor is not None and backend != "sharded":
            raise ReproError(
                f"executor={executor!r} only applies to the sharded backend, "
                f"not {backend!r}"
            )
        if engine is None:
            if backend == "columnar":
                engine = VectorEngine()
            elif backend == "sharded":
                engine = ShardedEngine(shards=shards)
            else:
                engine = FastEngine()
        elif shards is not None and getattr(engine, "shards", shards) != shards:
            raise ReproError(
                f"engine runs {engine.shards} shards, not {shards}; "
                "drop one of the two arguments"
            )
        elif getattr(engine, "backend", "set") != backend:
            # An explicit engine/backend pair must agree — otherwise the
            # repr, explain output and cache keys would all mislabel what
            # actually executes.
            raise ReproError(
                f"engine {type(engine).__name__} runs the "
                f"{getattr(engine, 'backend', 'set')!r} backend, not {backend!r}; "
                "drop one of the two arguments"
            )
        self.store = store
        self.engine = engine
        self.backend = backend
        self.optimize = optimize
        # Answers are triplestores again and no bound in |T| holds for
        # their size, so the result cache is bounded in rows by the store
        # it would be re-used against; plans and aux entries are small
        # and stay count-bound.  (Through a weak reference: a cache that
        # held its session would leave a dropped one — its store and its
        # caches — to the cycle collector.)
        session = weakref.ref(self)
        self._results = _LRU(cache_size, budget=lambda: len(session().store))
        self._plans = _LRU(cache_size)
        self._aux = _LRU(cache_size)
        #: Per-relation versions: bumped by :meth:`install` for exactly
        #: the mutated relations.  Every cache key embeds the versions of
        #: the relations its expression mentions (its dependency set), so
        #: a mutation invalidates precisely the dependent entries.
        self._rel_versions: dict[str, int] = {}
        #: Bumped on *every* mutation — the dependency token of
        #: Universe-using expressions (U spans the whole active domain)
        #: and of the auxiliary frontend cache.
        self._store_version = 0
        if self._storage is not None:
            self._rel_versions.update(self._storage.rel_versions)
            self._store_version = self._storage.store_version
        #: The active :class:`MutationBatch`, if any.
        self._batch: MutationBatch | None = None
        #: Set by :meth:`from_rdf`; used by the nSPARQL frontend.
        self.document = None
        # (Close hooks — the service's per-session teardown seam — were
        # initialised first, before the durable open could raise.)
        if self._storage is not None:
            self._storage.load_warm(self)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def open(cls, path: str, **kwargs: Any) -> "Database":
        """Open a store: a durable directory or an ``io``-format text file.

        A directory (existing or not-yet-existing durable store) opens
        through :mod:`repro.storage`; anything else is read as a
        :mod:`repro.triplestore.io` text file into a purely in-memory
        session.
        """
        if os.path.isdir(path) or (
            not os.path.exists(path) and str(path).endswith(os.sep)
        ):
            return cls(path=path, **kwargs)
        from repro.triplestore.io import load_path

        return cls(load_path(path), **kwargs)

    @classmethod
    def from_triples(
        cls, triples: Iterable[Triple], rho: dict | None = None, **kwargs: Any
    ) -> "Database":
        """A session over a fresh single-relation store."""
        return cls(Triplestore(triples, rho), **kwargs)

    @classmethod
    def from_graph(cls, graph: Any, relation: str = "E", **kwargs: Any) -> "Database":
        """A session over a graph database's triplestore encoding
        (Section 6.2's ``T_G``); accepts anything with ``to_triplestore``."""
        return cls(graph.to_triplestore(relation), **kwargs)

    @classmethod
    def from_rdf(cls, document: Any, relation: str = "E", **kwargs: Any) -> "Database":
        """A session over an RDF document; keeps the document around so
        the nSPARQL frontend can use the Theorem 1 axis semantics."""
        db = cls(document.to_triplestore(relation), **kwargs)
        db.document = document
        return db

    # ------------------------------------------------------------------ #
    # Core query path: compile → canonicalize → plan → bind → execute
    # ------------------------------------------------------------------ #

    def _coerce(self, query: Query) -> Expr:
        if isinstance(query, str):
            return parse_expr(query)
        return query

    def _logical(self, query: Query) -> Expr:
        """The (optionally optimised) logical expression for ``query``."""
        expr = self._coerce(query)
        return optimize_expr(expr) if self.optimize else expr

    def _dep_token(self, expr: Expr) -> tuple:
        """The expression's dependency versions — part of every cache key.

        An entry keyed with a stale token can never be hit again —
        :meth:`_invalidate` evicts it at the commit that made it stale;
        entries whose relations were not mutated keep matching.  ``U``
        reads the whole active domain, so Universe-using expressions
        depend on every mutation.
        """
        if any(isinstance(n, Universe) for n in expr.walk()):
            return ("U", self._store_version)
        return tuple(
            (name, self._rel_versions.get(name, 0))
            for name in sorted(expr.relation_names())
        )

    def query(self, query: Any, lang: str = "trial", **bindings: Any) -> ResultSet:
        """Evaluate a query in any registered language — the v2 front door.

        ``query`` is language source text (or the language's AST — a
        TriAL :class:`Expr`, a parsed Datalog program, a GXPath path,
        …); ``lang`` selects the compile step from the language
        registry (:data:`repro.api.LANGUAGES`).  ``$name`` parameters in
        the query are bound from keyword arguments.  Returns a lazy
        :class:`~repro.api.ResultSet`; binary-convention languages
        (gxpath/rpq/nre) conventionally read ``.pairs()`` off it.
        """
        compiled = get_language(lang).compile(self, query)
        if isinstance(compiled, NativeQuery):
            if bindings:
                raise ReproError(f"{lang} queries take no $parameters")
            return ResultSet.from_set(compiled.run(self))
        return self._run_expr(compiled, bindings)

    def prepare(self, query: Any, lang: str = "trial") -> PreparedStatement:
        """Compile a (possibly ``$param``-placeholder) query once.

        The returned :class:`~repro.api.PreparedStatement` binds
        constants into the cached physical plan per
        :meth:`~repro.api.PreparedStatement.execute` — no re-parsing,
        no re-planning, on any backend.  Languages without an algebraic
        translation (nSPARQL, non-fragment Datalog) cannot be prepared.
        """
        compiled = get_language(lang).compile(self, query)
        if isinstance(compiled, NativeQuery):
            raise ReproError(
                f"{lang} query has no algebraic translation and cannot be "
                "prepared; run it with query(...)"
            )
        expr = optimize_expr(compiled) if self.optimize else compiled
        return PreparedStatement(self, expr, lang)

    def _run_expr(self, expr: Expr, bindings: Mapping[str, Any]) -> ResultSet:
        """Execute a TriAL expression with ``bindings`` for its parameters."""
        check_bindings(expr_params(expr), bindings)
        key = (
            expr,
            tuple(sorted(bindings.items(), key=lambda kv: kv[0])),
            self._dep_token(expr),
        )
        payload = self._results.get(key, lambda: self._compute_payload(expr, bindings))
        return self._wrap(payload)

    def _compute_payload(self, expr: Expr, bindings: Mapping[str, Any]):
        prepared = optimize_expr(expr) if self.optimize else expr
        canonical, consts = canonicalize_constants(prepared)
        return self._execute_payload(canonical, {**consts, **bindings})

    def _execute_payload(self, canonical: Expr, all_bindings: Mapping[str, Any]):
        """Run a canonical (parameterized) expression under a full binding.

        Plan engines execute the cached parameterized plan with the
        constants bound in (:func:`repro.core.params.bind_plan`);
        columnar/sharded engines return the undecoded packed keys so
        the :class:`ResultSet` can decode lazily.  Any other engine
        evaluates the substituted constant expression directly.
        """
        engine = self.engine
        if not isinstance(engine, PlanEngine):
            return _SetRows(
                engine.evaluate(substitute_params(canonical, all_bindings), self.store)
            )
        bound = bind_plan(self._cached_plan(canonical), all_bindings)
        if engine.backend == "set":
            return _SetRows(engine.execute_plan(bound, self.store))
        cs, keys = engine.execute_plan_keys(bound, self.store)
        return _ColumnarRows(cs, keys)

    def _cached_plan(self, expr: Expr) -> PlanOp:
        """The session plan cache in front of the engine's compiler.

        Execution passes canonical (parameterized) expressions, so one
        entry serves every constant.  Engines that interpret directly
        are planned with the default compiler, for inspection only.
        """
        key = (expr, self._dep_token(expr))
        if isinstance(self.engine, PlanEngine):
            return self._plans.get(key, lambda: self.engine.compile(expr, self.store))
        return self._plans.get(key, lambda: compile_plan(expr, self.store))

    def _execute_canonical(
        self,
        expr: Expr,
        canonical: Expr,
        all_bindings: Mapping[str, Any],
    ) -> ResultSet:
        """Prepared-statement execution: cached per (statement, binding).

        The key carries the *full* binding — user parameters plus the
        canonicalized constants — because statements differing only in
        embedded constants share one canonical expression.
        """
        key = (
            "stmt",
            canonical,
            tuple(sorted(all_bindings.items(), key=lambda kv: kv[0])),
            self._dep_token(expr),
        )
        payload = self._results.get(
            key, lambda: self._execute_payload(canonical, all_bindings)
        )
        return self._wrap(payload)

    @staticmethod
    def _wrap(payload) -> ResultSet:
        # The rows payload object itself is what the result cache holds,
        # so its lazily-decoded state (sort order, decoded frozenset) is
        # shared across repeated queries; only the window state of the
        # ResultSet view is per-call.
        return ResultSet(payload)

    def plan(self, query: Query) -> PlanOp:
        """The physical plan the session's engine would execute — cached.

        Shown with the query's own constants (the execution path shares
        one canonicalized plan across constants; see :meth:`prepare`).
        Raises :class:`~repro.errors.ReproError` subclasses on parse
        errors; engines without a planner (e.g. NaiveEngine) are
        planned with the default compiler for inspection purposes.
        """
        return self._cached_plan(self._logical(query))

    def explain(self, query: Query, physical: bool = False) -> str:
        """A logical analysis of ``query``, or the physical plan text."""
        from repro.core.explain import explain, explain_physical

        expr = self._logical(query)
        if physical:
            return explain_physical(expr, self.store, engine=self.engine)
        return explain(expr).summary()

    def explain_report(self, query: Any, lang: str = "trial") -> ExplainReport:
        """The structured explain — logical tree, physical ops, costs
        and backend — with ``.to_json()``."""
        compiled = get_language(lang).compile(self, query)
        if isinstance(compiled, NativeQuery):
            raise ReproError(
                f"{lang} query has no algebraic translation to explain"
            )
        expr = optimize_expr(compiled) if self.optimize else compiled
        return _build_explain_report(expr, self.store, engine=self.engine)

    def analyze(self, query: Any, lang: str = "trial") -> tuple:
        """Semantic findings (``SEM-*`` rules) for a query, unexecuted.

        Runs :func:`repro.analysis.semantics.analyze_expr` over the
        *un-optimized* translation, so verdicts the pruning rewrites
        would consume (unsatisfiable conditions, provably-empty
        subexpressions, redundant conditions) are still reported.
        Languages without an algebraic translation yield no findings.
        """
        from repro.analysis.semantics import analyze_expr

        compiled = get_language(lang).compile(self, query)
        if isinstance(compiled, NativeQuery):
            return ()
        return tuple(analyze_expr(compiled, self.store))

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #

    def add_close_hook(self, hook: Callable[["Database"], None]) -> None:
        """Register a callback run (once) by the next :meth:`close`.

        Hooks run before the session's own resource release, in
        registration order; a hook that raises does not stop the
        others, and the exception is swallowed — close is teardown, not
        a failure path.
        """
        self._close_hooks.append(hook)

    def close(self) -> None:
        """Release session resources (idempotent).

        Runs registered close hooks first (each at most once); on a
        durable session (``path=``) it then folds any outstanding WAL
        records into a fresh snapshot and persists the statistics/plan
        catalog, so the next open serves straight from mmap'd segments
        with warm caches.  The session object stays usable afterwards
        (durable commits reopen their log handle); calling close again —
        or on a session whose open failed partway — is a no-op.
        """
        hooks = getattr(self, "_close_hooks", None) or []
        self._close_hooks = []
        for hook in hooks:
            try:
                hook(self)
            except Exception:
                pass
        storage = getattr(self, "_storage", None)
        if storage is not None:
            try:
                storage.flush(self)
            except Exception:
                # Close is teardown, not a failure path: a store that
                # cannot flush its catalog still closes (the WAL already
                # holds every committed batch).
                pass
            storage.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover — GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Mutations / cache lifecycle
    # ------------------------------------------------------------------ #

    def install(self, name: str, triples_or_query: Query | Iterable[Triple]) -> None:
        """Bind a relation in the session's store (closure in practice).

        Accepts either raw triples or a query whose *result* is
        installed.  The store object is replaced (stores stay immutable)
        and exactly the cache entries depending on ``name`` are
        invalidated.  Inside a :meth:`batch`, the mutation is staged —
        queries see it only after the batch commits.
        """
        if isinstance(triples_or_query, (Expr, str)):
            triples: Iterable[Triple] = self.query(triples_or_query).to_set()
        else:
            triples = triples_or_query
        # Coerced and validated (arity, hashability) before anything is
        # staged or logged: a record the store would refuse on replay
        # must never become durable.
        name, triples = str(name), frozenset(_as_triple(t) for t in triples)
        if self._batch is not None:
            self._batch.stage(name, triples)
            return
        if self._storage is not None:
            self._storage.commit({name: triples})
        self.store = self.store._with_frozen({name: triples})
        self._invalidate((name,))
        if self._storage is not None:
            self._storage.maybe_compact(self)

    def batch(self) -> MutationBatch:
        """A transactional mutation batch::

            with db.batch():
                db.install("A", ...)
                db.install("B", ...)

        Staged installs apply (and invalidate, relation-aware) once on
        exit; an exception inside the block discards them all.
        """
        return MutationBatch(self)

    def _invalidate(self, names: Iterable[str]) -> None:
        """Relation-aware invalidation: age the mutated relations' versions
        and evict what that killed.

        Dependent cache entries (recorded in each key as the dependency
        token captured at compile time) stop matching; they are dropped
        here, at the commit, so neither a dead answer nor the store
        version it was computed on stays reachable.  Everything else
        stays warm.  The tokens stay in the keys: a query that was
        already running when the commit landed inserts its entry under
        the old token, where no later lookup can reach it.
        """
        names = set(names)
        self._store_version += 1
        for name in names:
            self._rel_versions[name] = self._rel_versions.get(name, 0) + 1

        def dead(key: tuple) -> bool:
            # The token ends every key shape: ("U", version), or a
            # (name, version) pair per relation read.
            for part in key[-1]:
                if part == "U" or part[0] in names:
                    return True
            return False

        self._results.evict(dead)
        self._plans.evict(dead)
        # Every aux key embeds _store_version, so every entry is dead.
        self._aux.clear()

    def clear_cache(self) -> None:
        """Drop all cached plans and results (counters are kept)."""
        self._results.clear()
        self._plans.clear()
        self._aux.clear()

    def cache_info(self) -> dict[str, CacheInfo]:
        """Hit/miss counters for the result, plan and auxiliary caches."""
        return {
            "results": self._results.info(),
            "plans": self._plans.info(),
            "aux": self._aux.info(),
        }

    def result_cache_rows(self) -> int:
        """Rows the result cache holds — the unit its budget, |T|, is in."""
        return self._results.info().weight

    def result_cache_bytes(self) -> int:
        """Bytes of packed-key arrays the result cache holds alive.

        The sum of ``keys.nbytes`` over the keys-backed payloads
        (columnar and sharded sessions).  Set-backed payloads count as
        0: a frozenset of object tuples has no size short of walking it.
        """
        return sum(
            payload.keys.nbytes
            for _, payload in self._results.snapshot()
            if isinstance(payload, _ColumnarRows)
        )

    def cached(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Memoise an arbitrary frontend computation against this session.

        Used by frontends whose semantics does not factor through TriAL
        (e.g. per-pattern NRE pair sets in nSPARQL evaluation) so they
        still benefit from — and are invalidated with — the session cache.
        """
        return self._aux.get((key, self._store_version), compute)

    def __repr__(self) -> str:
        info = self._results.info()
        return (
            f"Database({self.store!r}, engine={type(self.engine).__name__}, "
            f"backend={self.backend}, cache={info.size}/{info.maxsize})"
        )
