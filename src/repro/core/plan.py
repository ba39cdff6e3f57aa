"""Physical query plans: cost-based compilation and execution of TriAL(*).

This is the seam between the logical algebra (:mod:`repro.core.expressions`
plus the rewrites of :mod:`repro.core.optimizer`) and the engines.  A
logical ``Expr`` tree is compiled by :func:`compile_plan` into a tree of
physical operators, each annotated with a cardinality estimate and a
cumulative cost derived from :class:`~repro.triplestore.stats.TriplestoreStats`:

* :class:`ScanOp` — read a stored relation;
* :class:`IndexLookupOp` — a selection with constant ``θ``-equalities on a
  base relation, served from the store's cached hash index;
* :class:`FilterOp` — residual selection conditions;
* :class:`HashJoinOp` — one hash join with a statistics-chosen build side,
  reusing :meth:`Triplestore.index` when the build side is a base scan;
* :class:`UnionOp` / :class:`DiffOp` / :class:`IntersectOp` — set operations;
* :class:`StarOp` — semi-naive Kleene fixpoint with the constant operand's
  hash index hoisted out of the iteration;
* :class:`ReachStarOp` — the Proposition 4/5 BFS algorithms for the two
  reachTA= star shapes;
* :class:`UniverseOp` — materialise U (budget-guarded).

The compiler deduplicates structurally identical sub-expressions into a
single shared operator, and execution memoises per operator.

Costs are unit-free "rows touched" figures: monotone (a node's cumulative
cost strictly exceeds each child's) and comparable between alternative
plans for the same query, which is all a planner needs.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import AlgebraError, EvaluationBudgetError
from repro.core.conditions import Cond
from repro.core.expressions import (
    LEFT,
    RIGHT,
    Diff,
    Expr,
    Intersect,
    Join,
    Rel,
    Select,
    Star,
    Union,
    Universe,
    star_is_reach,
)
from repro.core.positions import Const, Param, Pos, format_out_spec
from repro.triplestore.model import Triple, Triplestore
from repro.triplestore.stats import DEFAULT_STATS

__all__ = [
    "PlanOp",
    "EmptyOp",
    "ScanOp",
    "IndexLookupOp",
    "FilterOp",
    "HashJoinOp",
    "UnionOp",
    "DiffOp",
    "IntersectOp",
    "StarOp",
    "ReachStarOp",
    "UniverseOp",
    "ExecContext",
    "JoinSpec",
    "compile_plan",
    "split_conditions",
]

TripleSet = frozenset[Triple]

#: Default equality selectivity when no distinct count anchors it.
_EQ_SELECTIVITY = 0.1
#: Inequalities filter almost nothing under the uniform assumption.
_NEQ_SELECTIVITY = 0.9
#: Assumed number of semi-naive rounds for a generic star's cost.
_STAR_ROUNDS = 4.0


def _project_out(left: Triple, right: Triple, out: tuple[int, int, int]) -> Triple:
    i, j, k = out
    return (
        left[i] if i < 3 else right[i - 3],
        left[j] if j < 3 else right[j - 3],
        left[k] if k < 3 else right[k - 3],
    )


def split_conditions(conditions: tuple[Cond, ...]) -> tuple[
    tuple[Cond, ...], tuple[Cond, ...], tuple[Cond, ...], tuple[Cond, ...], tuple[Cond, ...]
]:
    """Partition join conditions by which operand(s) they touch.

    Returns ``(left_local, right_local, cross_eq, cross_neq, const_only)``.
    A condition is *local* when all its positions fall in one operand
    (constants do not count); *cross* when it mentions both.  Cross
    conditions are normalised so ``cond.left`` is the left-operand term.
    """
    left_local: list[Cond] = []
    right_local: list[Cond] = []
    cross_eq: list[Cond] = []
    cross_neq: list[Cond] = []
    const_only: list[Cond] = []
    for cond in conditions:
        sides = {p.is_right for p in cond.positions()}
        if not sides:
            const_only.append(cond)
        elif sides == {False}:
            left_local.append(cond)
        elif sides == {True}:
            right_local.append(cond)
        else:
            if isinstance(cond.left, Pos) and cond.left.is_right:
                cond = Cond(cond.right, cond.left, cond.op, cond.on_data)
            (cross_eq if cond.is_equality else cross_neq).append(cond)
    return (
        tuple(left_local),
        tuple(right_local),
        tuple(cross_eq),
        tuple(cross_neq),
        tuple(const_only),
    )


# --------------------------------------------------------------------- #
# Join machinery shared by HashJoinOp and StarOp
# --------------------------------------------------------------------- #


class JoinSpec:
    """Compile-time analysis of one join's output spec and conditions."""

    __slots__ = (
        "out",
        "conditions",
        "left_local",
        "right_local",
        "cross_eq",
        "cross_neq",
        "const_only",
    )

    def __init__(self, out: tuple[int, int, int], conditions: tuple[Cond, ...]) -> None:
        self.out = out
        self.conditions = conditions
        (
            self.left_local,
            self.right_local,
            self.cross_eq,
            self.cross_neq,
            self.const_only,
        ) = split_conditions(conditions)

    def gate_open(self, rho: Callable[[Any], Any]) -> bool:
        """Evaluate the constant-only conditions (a static boolean gate)."""
        return all(c.evaluate((None,) * 3, (None,) * 3, rho) for c in self.const_only)

    def filter_left(self, triples: Iterable[Triple], rho) -> Iterable[Triple]:
        if not self.left_local:
            return triples
        return {
            t for t in triples if all(c.evaluate(t, None, rho) for c in self.left_local)
        }

    def filter_right(self, triples: Iterable[Triple], rho) -> Iterable[Triple]:
        if not self.right_local:
            return triples
        shifted = tuple(c.swap_sides() for c in self.right_local)
        return {t for t in triples if all(c.evaluate(t, None, rho) for c in shifted)}

    def key_extractors(
        self, rho: Callable[[Any], Any]
    ) -> tuple[Callable[[Triple], Any], Callable[[Triple], Any]]:
        """Key functions for both operands of the hash join.

        Each cross equality contributes one key component; θ-conditions
        use the object itself, η-conditions its ρ-value.  With no cross
        equalities both keys are constant (a cartesian product, as the
        algebra demands).
        """
        left_parts: list[Callable[[Triple], Any]] = []
        right_parts: list[Callable[[Triple], Any]] = []
        for cond in self.cross_eq:
            lpos, rpos = cond.left, cond.right
            assert isinstance(lpos, Pos) and isinstance(rpos, Pos)
            li, ri = lpos.index, rpos.index - 3
            if cond.on_data:
                left_parts.append(lambda t, i=li: rho(t[i]))
                right_parts.append(lambda t, i=ri: rho(t[i]))
            else:
                left_parts.append(lambda t, i=li: t[i])
                right_parts.append(lambda t, i=ri: t[i])
        return (
            lambda t: tuple(f(t) for f in left_parts),
            lambda t: tuple(f(t) for f in right_parts),
        )

    def index_key_positions(self, side: str) -> Optional[tuple[int, ...]]:
        """Local key positions on one operand, if servable by a store index.

        Store indexes key on raw triple components, so every cross
        equality must be a plain θ-condition (η keys go through ρ).
        """
        if any(c.on_data for c in self.cross_eq):
            return None
        if side == RIGHT:
            return tuple(c.right.index - 3 for c in self.cross_eq)  # type: ignore[union-attr]
        return tuple(c.left.index for c in self.cross_eq)  # type: ignore[union-attr]

    def one_sided(self) -> Optional[str]:
        """The operand the whole output reads, when nothing links the two.

        A join with no cross (in)equalities whose output positions all
        come from one operand is that operand's projection — the other
        operand only has to be non-empty — so no pair need be
        enumerated (NRE ``a.[b]`` and GXPath ``a/[<b>]`` compile to
        ``join[1,1,1](X, X)``).  ``None`` for every other join.
        """
        if self.cross_eq or self.cross_neq:
            return None
        sides = {i < 3 for i in self.out}
        if len(sides) == 2:
            return None
        return LEFT if sides.pop() else RIGHT

    def execute(
        self,
        left: Iterable[Triple],
        right: Iterable[Triple],
        rho: Callable[[Any], Any],
        build_side: str = RIGHT,
        prebuilt: Optional[dict[Any, list[Triple]]] = None,
        prefiltered: bool = False,
    ) -> set[Triple]:
        """Run the hash join.

        ``prebuilt`` supplies a ready hash index over the build operand
        (keyed by that operand's key extractor) — used for store-index
        reuse and for hoisting the constant operand out of fixpoints.
        ``prefiltered`` skips the local-condition filters (callers that
        filtered once outside a loop).
        """
        if not self.gate_open(rho):
            return set()
        if not prefiltered:
            left = self.filter_left(left, rho)
            right = self.filter_right(right, rho)
        if not left or not right:
            return set()
        side = self.one_sided()
        if side is not None:
            i, j, k = (p % 3 for p in self.out)
            return {(t[i], t[j], t[k]) for t in (left if side == LEFT else right)}
        key_left, key_right = self.key_extractors(rho)

        if build_side == RIGHT:
            build, probe, key_build, key_probe = right, left, key_right, key_left
        else:
            build, probe, key_build, key_probe = left, right, key_left, key_right

        index = prebuilt
        if index is None:
            index = {}
            for t in build:
                index.setdefault(key_build(t), []).append(t)

        check_neq = None
        if self.cross_neq:
            neqs = self.cross_neq
            check_neq = lambda lt, rt: all(  # noqa: E731
                c.evaluate(lt, rt, rho) for c in neqs
            )

        # The probe loop is the hot path: the projection is inlined
        # (one function call per produced pair is measurable) and the
        # output-position arithmetic hoisted out of the loop.
        i, j, k = self.out
        il, jl, kl = i < 3, j < 3, k < 3
        ir, jr, kr = i - 3, j - 3, k - 3
        result: set[Triple] = set()
        add = result.add
        index_get = index.get
        if build_side == RIGHT:
            for lt in probe:
                bucket = index_get(key_probe(lt))
                if not bucket:
                    continue
                for rt in bucket:
                    if check_neq is None or check_neq(lt, rt):
                        add((
                            lt[i] if il else rt[ir],
                            lt[j] if jl else rt[jr],
                            lt[k] if kl else rt[kr],
                        ))
        else:
            for rt in probe:
                bucket = index_get(key_probe(rt))
                if not bucket:
                    continue
                for lt in bucket:
                    if check_neq is None or check_neq(lt, rt):
                        add((
                            lt[i] if il else rt[ir],
                            lt[j] if jl else rt[jr],
                            lt[k] if kl else rt[kr],
                        ))
        return result

    def build_index(
        self, triples: Iterable[Triple], rho, side: str
    ) -> dict[Any, list[Triple]]:
        """Hash ``triples`` (one operand, already filtered) on its join key."""
        key_left, key_right = self.key_extractors(rho)
        key = key_right if side == RIGHT else key_left
        index: dict[Any, list[Triple]] = {}
        for t in triples:
            index.setdefault(key(t), []).append(t)
        return index


# --------------------------------------------------------------------- #
# Execution context
# --------------------------------------------------------------------- #


class ExecContext:
    """Per-execution state: the store, ρ, budget and the operator memo."""

    __slots__ = ("store", "rho", "max_universe_objects", "_memo")

    def __init__(self, store: Triplestore, max_universe_objects: int = 400) -> None:
        self.store = store
        self.rho = store.rho
        self.max_universe_objects = max_universe_objects
        self._memo: dict[int, TripleSet] = {}

    def execute(self, plan: "PlanOp") -> TripleSet:
        """Run a plan to its triple set — the entry point the columnar
        and sharded contexts share (those decode; sets need not)."""
        return self.run(plan)

    def run(self, op: "PlanOp") -> TripleSet:
        """Execute ``op`` (memoised — shared sub-plans run once)."""
        result = self._memo.get(id(op))
        if result is None:
            result = op._execute(self)
            self._memo[id(op)] = result
        return result


# --------------------------------------------------------------------- #
# Operators
# --------------------------------------------------------------------- #


class PlanOp:
    """Base physical operator.

    ``est_rows`` is the planner's output-cardinality estimate and
    ``est_cost`` the *cumulative* cost (own work plus all children) —
    monotone by construction, so the root's cost prices the whole plan.
    """

    __slots__ = ("est_rows", "est_cost")

    def __init__(self, est_rows: float, est_cost: float) -> None:
        self.est_rows = est_rows
        self.est_cost = est_cost

    def children(self) -> tuple["PlanOp", ...]:
        return ()

    def walk(self) -> Iterator["PlanOp"]:
        """Pre-order traversal (shared sub-plans are visited per edge)."""
        yield self
        for child in self.children():
            yield from child.walk()

    def _execute(self, ctx: ExecContext) -> TripleSet:
        raise NotImplementedError

    def label(self) -> str:
        """One-line operator description (without estimates)."""
        raise NotImplementedError

    def pretty(self) -> str:
        """An indented plan tree with per-node row/cost estimates."""
        lines: list[str] = []

        def fmt(op: PlanOp, depth: int) -> None:
            lines.append(
                f"{'  ' * depth}{op.label()}"
                f"  [rows≈{_fmt_num(op.est_rows)} cost≈{_fmt_num(op.est_cost)}]"
            )
            for child in op.children():
                fmt(child, depth + 1)

        fmt(self, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<{self.label()} rows≈{_fmt_num(self.est_rows)} cost≈{_fmt_num(self.est_cost)}>"


def _fmt_num(x: float) -> str:
    if x >= 10000:
        return f"{x:.3g}"
    if x == int(x):
        return str(int(x))
    return f"{x:.1f}"


def _fmt_conds(conditions: tuple[Cond, ...]) -> str:
    return " & ".join(map(repr, conditions))


class EmptyOp(PlanOp):
    """Constant-empty result for a provably-empty query.

    Emitted by ``compile_plan`` when the semantic analyzer proves the
    *whole* expression empty on every store and every binding (see
    :func:`repro.analysis.semantics.expr_is_empty`), so no backend
    scans, joins or exchanges anything.  Always a plan root — empty
    subexpressions are the optimizer's job (canonical ∅ selections),
    not the planner's.
    """

    __slots__ = ("reason",)

    def __init__(self, reason: str = "expression is provably empty") -> None:
        super().__init__(0.0, 0.0)
        self.reason = reason

    def _execute(self, ctx: ExecContext) -> TripleSet:
        return frozenset()

    def label(self) -> str:
        return "Empty(∅)"


class ScanOp(PlanOp):
    """Full scan of a stored relation."""

    __slots__ = ("name",)

    def __init__(self, name: str, est_rows: float, est_cost: float) -> None:
        super().__init__(est_rows, est_cost)
        self.name = name

    def _execute(self, ctx: ExecContext) -> TripleSet:
        return ctx.store.relation(self.name)

    def label(self) -> str:
        return f"Scan({self.name})"


class UniverseOp(PlanOp):
    """Materialise U — all triples over the active domain (budget-guarded)."""

    __slots__ = ()

    def _execute(self, ctx: ExecContext) -> TripleSet:
        domain: set = set()
        for triple in ctx.store.all_triples():
            domain.update(triple)
        if len(domain) > ctx.max_universe_objects:
            raise EvaluationBudgetError(
                f"universal relation over {len(domain)} objects would hold "
                f"{len(domain) ** 3} triples (limit {ctx.max_universe_objects} objects); "
                "raise max_universe_objects to proceed"
            )
        return frozenset(itertools.product(domain, repeat=3))

    def label(self) -> str:
        return "Universe(U)"


class IndexLookupOp(PlanOp):
    """Constant-key lookup in the store's cached hash index.

    Serves ``σ``-selections whose conditions include constant
    ``θ``-equalities on a base relation: those positions become the index
    key, the rest stay as a residual filter.
    """

    __slots__ = ("name", "positions", "key", "residual")

    def __init__(
        self,
        name: str,
        positions: tuple[int, ...],
        key: tuple,
        residual: tuple[Cond, ...],
        est_rows: float,
        est_cost: float,
    ) -> None:
        super().__init__(est_rows, est_cost)
        self.name = name
        self.positions = positions
        self.key = key
        self.residual = residual

    def bound_key(self) -> tuple:
        """The lookup key, verified parameter-free.

        Raises :class:`~repro.errors.UnboundParameterError` when a
        :class:`~repro.core.positions.Param` is still in the key (a
        parameterized plan executed without
        :func:`repro.core.params.bind_plan`) — a silent ``.get`` miss
        would otherwise return an empty result instead of an error.
        """
        for value in self.key:
            if isinstance(value, Param):
                from repro.errors import UnboundParameterError

                raise UnboundParameterError(value.name)
        return self.key

    def _execute(self, ctx: ExecContext) -> TripleSet:
        bucket = ctx.store.index(self.name, self.positions).get(self.bound_key(), ())
        if not self.residual:
            return frozenset(bucket)
        rho = ctx.rho
        return frozenset(
            t for t in bucket if all(c.evaluate(t, None, rho) for c in self.residual)
        )

    def label(self) -> str:
        key = ", ".join(
            f"{p + 1}={v!r}" for p, v in zip(self.positions, self.key)
        )
        residual = f"; filter {_fmt_conds(self.residual)}" if self.residual else ""
        return f"IndexLookup({self.name}[{key}]{residual})"


class FilterOp(PlanOp):
    """Residual selection conditions over a child operator."""

    __slots__ = ("child", "conditions")

    def __init__(
        self,
        child: PlanOp,
        conditions: tuple[Cond, ...],
        est_rows: float,
        est_cost: float,
    ) -> None:
        super().__init__(est_rows, est_cost)
        self.child = child
        self.conditions = conditions

    def children(self) -> tuple[PlanOp, ...]:
        return (self.child,)

    def _execute(self, ctx: ExecContext) -> TripleSet:
        rho = ctx.rho
        conds = self.conditions
        return frozenset(
            t for t in ctx.run(self.child) if all(c.evaluate(t, None, rho) for c in conds)
        )

    def label(self) -> str:
        return f"Filter({_fmt_conds(self.conditions)})"


class _SetOp(PlanOp):
    __slots__ = ("left", "right")

    def __init__(
        self, left: PlanOp, right: PlanOp, est_rows: float, est_cost: float
    ) -> None:
        super().__init__(est_rows, est_cost)
        self.left = left
        self.right = right

    def children(self) -> tuple[PlanOp, ...]:
        return (self.left, self.right)


class UnionOp(_SetOp):
    __slots__ = ()

    def _execute(self, ctx: ExecContext) -> TripleSet:
        return ctx.run(self.left) | ctx.run(self.right)

    def label(self) -> str:
        return "Union"


class DiffOp(_SetOp):
    __slots__ = ()

    def _execute(self, ctx: ExecContext) -> TripleSet:
        return ctx.run(self.left) - ctx.run(self.right)

    def label(self) -> str:
        return "Diff"


class IntersectOp(_SetOp):
    __slots__ = ()

    def _execute(self, ctx: ExecContext) -> TripleSet:
        return ctx.run(self.left) & ctx.run(self.right)

    def label(self) -> str:
        return "Intersect"


class HashJoinOp(PlanOp):
    """One hash join with a statistics-chosen build side.

    When the build child is a :class:`ScanOp` and every cross equality is
    a plain θ-condition, the hash table comes from the store's cached
    index (:meth:`Triplestore.index`) instead of being rebuilt — repeated
    queries against one store then share build work.
    """

    __slots__ = ("left", "right", "spec", "build_side", "index_positions")

    def __init__(
        self,
        left: PlanOp,
        right: PlanOp,
        spec: JoinSpec,
        build_side: str,
        index_positions: Optional[tuple[int, ...]],
        est_rows: float,
        est_cost: float,
    ) -> None:
        super().__init__(est_rows, est_cost)
        self.left = left
        self.right = right
        self.spec = spec
        self.build_side = build_side
        self.index_positions = index_positions

    def children(self) -> tuple[PlanOp, ...]:
        return (self.left, self.right)

    def _execute(self, ctx: ExecContext) -> TripleSet:
        left = ctx.run(self.left)
        right = ctx.run(self.right)
        prebuilt = None
        if self.index_positions is not None:
            build_child = self.right if self.build_side == RIGHT else self.left
            assert isinstance(build_child, ScanOp)
            prebuilt = ctx.store.index(build_child.name, self.index_positions)
        return frozenset(
            self.spec.execute(
                left, right, ctx.rho, build_side=self.build_side, prebuilt=prebuilt
            )
        )

    def label(self) -> str:
        conds = _fmt_conds(self.spec.conditions)
        sep = "; " if conds else ""
        access = "store-index" if self.index_positions is not None else "hash"
        return (
            f"HashJoin[{format_out_spec(self.spec.out)}{sep}{conds}]"
            f" build={self.build_side} via {access}"
        )


class StarOp(PlanOp):
    """Semi-naive Kleene fixpoint with the constant operand hoisted.

    Each round joins the previous frontier with the star's base relation.
    The base operand never changes, so its local filter and hash index
    are built once, not per round.
    """

    __slots__ = ("child", "spec", "side")

    def __init__(
        self,
        child: PlanOp,
        spec: JoinSpec,
        side: str,
        est_rows: float,
        est_cost: float,
    ) -> None:
        super().__init__(est_rows, est_cost)
        self.child = child
        self.spec = spec
        self.side = side

    def children(self) -> tuple[PlanOp, ...]:
        return (self.child,)

    def _execute(self, ctx: ExecContext) -> TripleSet:
        base = ctx.run(self.child)
        rho = ctx.rho
        spec = self.spec
        acc: set[Triple] = set(base)
        if not spec.gate_open(rho):
            return frozenset(acc)
        # The constant operand: right for a right star, left for a left one.
        if self.side == RIGHT:
            const_side = RIGHT
            const = spec.filter_right(base, rho)
        else:
            const_side = LEFT
            const = spec.filter_left(base, rho)
        prebuilt = spec.build_index(const, rho, const_side)
        frontier: set[Triple] = set(base)
        while frontier:
            if self.side == RIGHT:
                varying = spec.filter_left(frontier, rho)
                produced = spec.execute(
                    varying, const, rho,
                    build_side=RIGHT, prebuilt=prebuilt, prefiltered=True,
                )
            else:
                varying = spec.filter_right(frontier, rho)
                produced = spec.execute(
                    const, varying, rho,
                    build_side=LEFT, prebuilt=prebuilt, prefiltered=True,
                )
            frontier = produced - acc
            acc |= frontier
        return frozenset(acc)

    def label(self) -> str:
        conds = _fmt_conds(self.spec.conditions)
        sep = "; " if conds else ""
        name = "Star" if self.side == RIGHT else "LeftStar"
        return f"{name}[{format_out_spec(self.spec.out)}{sep}{conds}] semi-naive"


class ReachStarOp(PlanOp):
    """Proposition 4/5 BFS reachability for the two reachTA= star shapes."""

    __slots__ = ("child", "same_label")

    def __init__(
        self, child: PlanOp, same_label: bool, est_rows: float, est_cost: float
    ) -> None:
        super().__init__(est_rows, est_cost)
        self.child = child
        self.same_label = same_label

    def children(self) -> tuple[PlanOp, ...]:
        return (self.child,)

    def _execute(self, ctx: ExecContext) -> TripleSet:
        # Imported here: repro.core.engines.base imports this module at
        # package init, so a top-level import of the engines package
        # from here would be circular.
        from repro.core.engines.reach import reach_star_any, reach_star_same_label

        base = ctx.run(self.child)
        if self.same_label:
            return frozenset(reach_star_same_label(base))
        return frozenset(reach_star_any(base))

    def label(self) -> str:
        variant = "same-label" if self.same_label else "any-path"
        return f"ReachStar({variant} BFS)"


# --------------------------------------------------------------------- #
# Compiler
# --------------------------------------------------------------------- #


def compile_plan(
    expr: Expr,
    store: Optional[Triplestore] = None,
    *,
    use_reach: bool = True,
    stats=None,
) -> PlanOp:
    """Compile a (preferably optimised) expression into a physical plan.

    ``stats`` defaults to ``store.stats()`` when a store is given and to
    :data:`~repro.triplestore.stats.DEFAULT_STATS` otherwise, so plans
    can be built (and printed) without data.  ``use_reach`` routes
    reach-shaped stars to the Proposition 4/5 BFS operators — the
    FastEngine behaviour; the plain hash-join engine keeps the generic
    fixpoint for them.

    The plan is the same for every backend: a TriAL expression means
    one relation whatever represents the store.  Representation choices
    that depend on the data (dense vs sparse reachability, shard
    exchanges) are made by the executors, on the store they run over.

    Every plan is checked by :func:`repro.analysis.verify.assert_plan_valid`
    before it is returned: a plan that breaks an executor invariant
    raises :class:`~repro.errors.PlanVerificationError` here, never runs.
    """
    if stats is None:
        stats = store.stats() if store is not None else DEFAULT_STATS

    # Provably-empty queries compile to a constant plan: nothing to
    # scan, join or exchange.  Imported lazily like the verifier below
    # (repro.analysis depends on core).  Expressions mentioning U are
    # exempt: materialising U is budget-guarded, and the executors'
    # contract is to surface that error exactly when the oracle does —
    # even from a dead branch.
    from repro.analysis.semantics import expr_is_empty

    plan: PlanOp
    if expr_is_empty(expr) and not any(
        isinstance(node, Universe) for node in expr.walk()
    ):
        plan = EmptyOp()
    else:
        memo: dict[Expr, PlanOp] = {}

        def compile_node(e: Expr) -> PlanOp:
            cached = memo.get(e)
            if cached is not None:
                return cached
            op = _compile(e, compile_node, stats, use_reach)
            memo[e] = op
            return op

        plan = compile_node(expr)
    # Imported lazily: repro.analysis.verify imports this module.
    from repro.analysis.verify import assert_plan_valid

    assert_plan_valid(plan, expr=expr)
    return plan


def _distinct_estimate(op: PlanOp, local_pos: int, stats) -> float:
    """Distinct-count estimate at one position of an operator's output."""
    if isinstance(op, ScanOp):
        return max(1.0, stats.distinct(op.name, local_pos))
    # Derived inputs: assume mild duplication.
    return max(1.0, op.est_rows / 2.0)


def _join_estimates(
    left: PlanOp, right: PlanOp, spec: JoinSpec, stats
) -> tuple[float, float]:
    """(output rows, own cost) of a hash join under uniformity."""
    rows_l = left.est_rows * _local_selectivity(spec.left_local)
    rows_r = right.est_rows * _local_selectivity(spec.right_local)
    out_rows = rows_l * rows_r
    for cond in spec.cross_eq:
        assert isinstance(cond.left, Pos) and isinstance(cond.right, Pos)
        d_l = _distinct_estimate(left, cond.left.index, stats)
        d_r = _distinct_estimate(right, cond.right.index - 3, stats)
        out_rows /= max(d_l, d_r)
    out_rows *= _NEQ_SELECTIVITY ** len(spec.cross_neq)
    own_cost = rows_l + rows_r + out_rows + 1.0
    return max(out_rows, 0.0), own_cost


def _local_selectivity(conditions: tuple[Cond, ...]) -> float:
    sel = 1.0
    for cond in conditions:
        sel *= _EQ_SELECTIVITY if cond.is_equality else _NEQ_SELECTIVITY
    return sel


def _select_estimates(child_rows: float, conditions: tuple[Cond, ...]) -> float:
    sel = 1.0
    for cond in conditions:
        sel *= _EQ_SELECTIVITY if cond.is_equality else _NEQ_SELECTIVITY
    return child_rows * sel


def _compile(e: Expr, compile_node, stats, use_reach: bool) -> PlanOp:
    if isinstance(e, Rel):
        rows = float(stats.cardinality(e.name))
        return ScanOp(e.name, rows, rows + 1.0)

    if isinstance(e, Universe):
        rows = float(stats.n_objects) ** 3
        return UniverseOp(rows, rows + 1.0)

    if isinstance(e, Select):
        return _compile_select(e, compile_node, stats)

    if isinstance(e, (Union, Diff, Intersect)):
        left = compile_node(e.left)
        right = compile_node(e.right)
        cls, rows = {
            Union: (UnionOp, left.est_rows + right.est_rows),
            Diff: (DiffOp, left.est_rows),
            Intersect: (IntersectOp, min(left.est_rows, right.est_rows)),
        }[type(e)]
        cost = left.est_cost + right.est_cost + left.est_rows + right.est_rows + 1.0
        return cls(left, right, rows, cost)

    if isinstance(e, Join):
        left = compile_node(e.left)
        right = compile_node(e.right)
        spec = JoinSpec(e.out, e.conditions)
        build_side, index_positions = _choose_build_side(left, right, spec)
        rows, own = _join_estimates(left, right, spec, stats)
        return HashJoinOp(
            left,
            right,
            spec,
            build_side,
            index_positions,
            rows,
            left.est_cost + right.est_cost + own,
        )

    if isinstance(e, Star):
        child = compile_node(e.expr)
        if use_reach and star_is_reach(e):
            # Prop 4/5: one BFS per distinct source — O(|O|·|T|)-ish.
            rows = child.est_rows * max(4.0, child.est_rows ** 0.5)
            own = rows + child.est_rows + 1.0
            return ReachStarOp(
                child,
                same_label=len(e.conditions) == 2,
                est_rows=rows,
                est_cost=child.est_cost + own,
            )
        spec = JoinSpec(e.out, e.conditions)
        rows, join_own = _join_estimates(child, child, spec, stats)
        rows = max(rows, child.est_rows)
        own = _STAR_ROUNDS * join_own + 1.0
        return StarOp(child, spec, e.side, rows, child.est_cost + own)

    raise AlgebraError(f"unknown expression node {type(e).__name__}")


def _compile_select(e: Select, compile_node, stats) -> PlanOp:
    inner = e.expr
    if isinstance(inner, Rel):
        # Constant θ-equalities become an index key; the rest a residual.
        key_parts: dict[int, Any] = {}
        residual: list[Cond] = []
        for cond in e.conditions:
            pos, const = _constant_equality(cond)
            if pos is not None and pos not in key_parts:
                key_parts[pos] = const
            else:
                residual.append(cond)
        if key_parts:
            positions = tuple(sorted(key_parts))
            key = tuple(key_parts[p] for p in positions)
            card = float(stats.cardinality(inner.name))
            rows = card
            for p in positions:
                rows /= max(1.0, stats.distinct(inner.name, p))
            rows = _select_estimates(rows, tuple(residual))
            # Cost: amortised index probe + residual filtering; strictly
            # greater than the implicit scan child it replaces is *not*
            # required — the lookup replaces the scan entirely.
            cost = rows + len(residual) * rows + 2.0
            return IndexLookupOp(
                inner.name, positions, key, tuple(residual), rows, cost
            )
    child = compile_node(inner)
    rows = _select_estimates(child.est_rows, e.conditions)
    return FilterOp(
        child, e.conditions, rows, child.est_cost + child.est_rows + 1.0
    )


def _constant_equality(cond: Cond) -> tuple[Optional[int], Any]:
    """Recognise ``position = constant`` θ-equalities (either order).

    A :class:`~repro.core.positions.Param` placeholder counts as a
    constant — the lookup key then carries the ``Param`` itself, to be
    substituted by :func:`repro.core.params.bind_plan` at execution
    time, so parameterized and constant queries share one plan shape.
    """
    if cond.on_data or not cond.is_equality:
        return None, None
    if isinstance(cond.left, Pos) and isinstance(cond.right, (Const, Param)):
        right = cond.right
        return cond.left.index, right.value if isinstance(right, Const) else right
    if isinstance(cond.right, Pos) and isinstance(cond.left, (Const, Param)):
        left = cond.left
        return cond.right.index, left.value if isinstance(left, Const) else left
    return None, None


def _choose_build_side(
    left: PlanOp, right: PlanOp, spec: JoinSpec
) -> tuple[str, Optional[tuple[int, ...]]]:
    """Pick the hash-build side and a reusable store index, if any.

    A base-relation scan whose join key is all-θ can be served by the
    store's cached index — free after the first build — so it wins over
    the plain smaller-side rule; otherwise build on the smaller estimate.
    Local conditions on the build side disable index reuse (the index
    holds unfiltered triples), but the side choice stands.
    """
    right_positions = spec.index_key_positions(RIGHT)
    left_positions = spec.index_key_positions(LEFT)
    right_indexable = (
        isinstance(right, ScanOp) and right_positions is not None and not spec.right_local
    )
    left_indexable = (
        isinstance(left, ScanOp) and left_positions is not None and not spec.left_local
    )
    if right_indexable and (not left_indexable or right.est_rows <= left.est_rows):
        return RIGHT, right_positions
    if left_indexable:
        return LEFT, left_positions
    if left.est_rows < right.est_rows:
        return LEFT, None
    return RIGHT, None
