"""Static verification of compiled physical plans.

:func:`verify_plan` walks a :class:`~repro.core.plan.PlanOp` tree and
checks every invariant in :data:`repro.analysis.invariants.INVARIANTS`
without executing anything.  Each check *recomputes* the property from
the plan structure using the same helpers the compiler used to
establish it (:func:`~repro.core.plan.split_conditions`,
:meth:`~repro.core.plan.JoinSpec.index_key_positions`,
:func:`~repro.core.plan.shard_plan_expectations`, the dense-lowering
formula), so a freshly compiled plan always verifies clean and any
mutation — hand-built plans, future rewrite passes, bugs in a join
enumerator — that breaks an executor assumption is caught before the
executor trusts it.

Three entry points:

* :func:`verify_plan` — the core pass; returns the violations.
* :func:`assert_plan_valid` — raises
  :class:`~repro.errors.PlanVerificationError` on any violation; this
  is what ``compile_plan`` calls when ``REPRO_PLAN_VERIFY`` is on.
* :func:`verify_compiled` — convenience wrapper that takes the
  backend/limits from the engine that compiled the plan and the stats
  from the store; used by ``explain --json``'s ``verified`` field and
  ``repro lint-plan``.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from repro.analysis.invariants import Finding, Violation
from repro.core.engines.base import PlanEngine
from repro.core.expressions import LEFT, RIGHT, Expr, Universe
from repro.core.params import expr_params, plan_params
from repro.core.plan import (
    DENSE_MATRIX_MAX_OBJECTS,
    _DENSE_MIN_AVG_DEGREE,
    FilterOp,
    HashJoinOp,
    IndexLookupOp,
    JoinSpec,
    PlanOp,
    ReachStarOp,
    ScanOp,
    StarOp,
    UniverseOp,
    shard_plan_expectations,
    split_conditions,
)
from repro.errors import PlanVerificationError

__all__ = ["assert_plan_valid", "verify_compiled", "verify_plan"]


def _unique_ops(plan: PlanOp) -> Iterator[PlanOp]:
    """Pre-order traversal visiting each shared operator exactly once.

    ``PlanOp.walk`` yields shared sub-plans once per edge (right for
    explain output); verification wants one report per operator.
    """
    seen: set[int] = set()
    for op in plan.walk():
        if id(op) not in seen:
            seen.add(id(op))
            yield op


def _violation(rule: str, op: str, message: str) -> Finding:
    """A plan-verifier finding (operator-located, no source path)."""
    return Finding(rule, message, op=op)


def _label(op: PlanOp) -> str:
    """``op.label()``, robust to mutations that break the formatter itself."""
    try:
        return op.label()
    except Exception:
        return type(op).__name__


def _local_condition_violations(
    op: PlanOp, conditions, what: str
) -> Iterator[Violation]:
    """Selection conditions must stay within one operand (positions 0..2)."""
    for cond in conditions:
        if cond.max_position() > 2:
            yield _violation(
                "PLAN-ARITY",
                _label(op),
                f"{what} condition {cond!r} references a right-operand "
                "position; single-operand filters may only use positions 1..3",
            )


def _spec_violations(op: PlanOp, spec: JoinSpec) -> Iterator[Violation]:
    """Output-spec typing plus the condition-split consistency check."""
    out = spec.out
    if (
        not isinstance(out, tuple)
        or len(out) != 3
        or not all(isinstance(i, int) and 0 <= i <= 5 for i in out)
    ):
        yield _violation(
            "PLAN-ARITY",
            _label(op),
            f"output spec {out!r} is not three positions in 1..3/1'..3'",
        )
    expected = split_conditions(spec.conditions)
    actual = (
        spec.left_local,
        spec.right_local,
        spec.cross_eq,
        spec.cross_neq,
        spec.const_only,
    )
    if actual != expected:
        names = ("left_local", "right_local", "cross_eq", "cross_neq", "const_only")
        broken = [n for n, a, e in zip(names, actual, expected) if a != e]
        yield _violation(
            "PLAN-ARITY",
            _label(op),
            "join-spec condition split disagrees with a recomputation from "
            f"its condition list ({', '.join(broken)}); the spec was mutated "
            "after construction",
        )


def _check_arity(plan: PlanOp) -> Iterator[Violation]:
    for op in _unique_ops(plan):
        if isinstance(op, HashJoinOp):
            yield from _spec_violations(op, op.spec)
            if op.build_side not in (LEFT, RIGHT):
                yield _violation(
                    "PLAN-ARITY",
                    _label(op),
                    f"build side {op.build_side!r} is neither left nor right",
                )
        elif isinstance(op, StarOp):
            yield from _spec_violations(op, op.spec)
            if op.side not in (LEFT, RIGHT):
                yield _violation(
                    "PLAN-ARITY",
                    _label(op),
                    f"star side {op.side!r} is neither left nor right",
                )
        elif isinstance(op, FilterOp):
            yield from _local_condition_violations(op, op.conditions, "filter")
        elif isinstance(op, IndexLookupOp):
            yield from _local_condition_violations(op, op.residual, "residual")


def _check_keys(plan: PlanOp) -> Iterator[Violation]:
    for op in _unique_ops(plan):
        if isinstance(op, IndexLookupOp):
            positions = op.positions
            if (
                not positions
                or any(p not in (0, 1, 2) for p in positions)
                or any(a >= b for a, b in zip(positions, positions[1:]))
            ):
                yield _violation(
                    "PLAN-KEY",
                    _label(op),
                    f"index positions {positions!r} are not strictly "
                    "increasing within 1..3",
                )
            if len(op.key) != len(positions):
                yield _violation(
                    "PLAN-KEY",
                    _label(op),
                    f"lookup key has {len(op.key)} value(s) for "
                    f"{len(positions)} indexed position(s)",
                )
        elif isinstance(op, HashJoinOp) and op.index_positions is not None:
            build = op.right if op.build_side == RIGHT else op.left
            if not isinstance(build, ScanOp):
                yield _violation(
                    "PLAN-KEY",
                    _label(op),
                    "store-index reuse requires a base-relation scan on the "
                    f"build side, found {type(build).__name__}",
                )
            locals_ = (
                op.spec.right_local if op.build_side == RIGHT else op.spec.left_local
            )
            if locals_:
                yield _violation(
                    "PLAN-KEY",
                    _label(op),
                    "store-index reuse with local conditions on the build "
                    "side; the store index holds unfiltered triples",
                )
            expected = op.spec.index_key_positions(op.build_side)
            if expected is None or op.index_positions != expected:
                yield _violation(
                    "PLAN-KEY",
                    _label(op),
                    f"store-index positions {op.index_positions!r} do not "
                    f"match the build side's θ key positions {expected!r}",
                )


def _check_params(
    plan: PlanOp, expr: Optional[Expr], params
) -> Iterator[Violation]:
    if expr is None and params is None:
        return
    declared: set[str] = set(params or ())
    if expr is not None:
        declared.update(expr_params(expr))
    carried = plan_params(plan)
    undeclared = [name for name in carried if name not in declared]
    if not undeclared:
        return
    # Attach each violation to an operator that carries the parameter.
    for op in _unique_ops(plan):
        local = set(plan_params(op)) - {
            n for c in op.children() for n in plan_params(c)
        }
        for name in undeclared:
            if name in local:
                yield _violation(
                    "PLAN-PARAM",
                    _label(op),
                    f"parameter ${name} is not declared by the source "
                    "expression or binding set; bind_plan can never resolve it",
                )


def _check_shard(plan: PlanOp, shard_key_pos: int) -> Iterator[Violation]:
    expected = shard_plan_expectations(plan, shard_key_pos)
    for op in _unique_ops(plan):
        if not isinstance(op, HashJoinOp):
            continue
        want = expected[id(op)][1]
        if op.shard_strategy != want:
            yield _violation(
                "PLAN-SHARD",
                _label(op),
                f"annotated shard strategy {op.shard_strategy!r} but the "
                f"partition states of its inputs require {want!r}; a "
                "dropped or stale exchange would merge shards that are "
                "not co-partitioned",
            )


def _check_dense(
    plan: PlanOp, stats, max_matrix_objects: Optional[int]
) -> Iterator[Violation]:
    want: Optional[str] = None
    if stats is not None:
        limit = (
            DENSE_MATRIX_MAX_OBJECTS
            if max_matrix_objects is None
            else max_matrix_objects
        )
        n = stats.n_objects
        total = stats.total_triples
        dense_ok = 0 < n <= limit and total / n >= _DENSE_MIN_AVG_DEGREE
        want = "dense" if dense_ok else "sparse"
    for op in _unique_ops(plan):
        if isinstance(op, StarOp):
            if op.vector_strategy != "sparse":
                yield _violation(
                    "PLAN-DENSE",
                    _label(op),
                    f"general star lowered to {op.vector_strategy!r}; only "
                    "ReachStarOp re-checks the dense guard at run time and "
                    "can fall back on MatrixTooLargeError",
                )
        elif isinstance(op, ReachStarOp):
            if op.vector_strategy not in ("dense", "sparse"):
                yield _violation(
                    "PLAN-DENSE",
                    _label(op),
                    f"recursive operator carries strategy "
                    f"{op.vector_strategy!r}; columnar execution requires a "
                    "dense/sparse lowering verdict",
                )
            elif want is not None and op.vector_strategy != want:
                yield _violation(
                    "PLAN-DENSE",
                    _label(op),
                    f"lowered to {op.vector_strategy!r} but the statistics "
                    f"({stats.n_objects} objects, {stats.total_triples} "
                    f"triples) dictate {want!r}",
                )


def _check_cache(plan: PlanOp, expr: Expr) -> Iterator[Violation]:
    allowed = expr.relation_names()
    uses_universe = any(isinstance(n, Universe) for n in expr.walk())
    for op in _unique_ops(plan):
        if isinstance(op, (ScanOp, IndexLookupOp)) and op.name not in allowed:
            yield _violation(
                "PLAN-CACHE",
                _label(op),
                f"plan reads relation {op.name!r} outside the expression's "
                f"dependency set {sorted(allowed)}; the cache's version "
                "tokens would never invalidate on its updates",
            )
        elif isinstance(op, UniverseOp) and not uses_universe:
            yield _violation(
                "PLAN-CACHE",
                _label(op),
                "plan materialises U but the expression never mentions it; "
                "cached results would survive domain growth",
            )


def _check_costs(plan: PlanOp) -> Iterator[Violation]:
    for op in _unique_ops(plan):
        for field in ("est_rows", "est_cost"):
            value = getattr(op, field)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                yield _violation(
                    "PLAN-COST",
                    _label(op),
                    f"{field} is {value!r}; estimates must be finite numbers",
                )
            elif value < 0:
                yield _violation(
                    "PLAN-COST",
                    _label(op),
                    f"{field} is negative ({value!r})",
                )
        for child in op.children():
            if (
                isinstance(op.est_cost, (int, float))
                and isinstance(child.est_cost, (int, float))
                and math.isfinite(op.est_cost)
                and math.isfinite(child.est_cost)
                and op.est_cost < child.est_cost
            ):
                yield _violation(
                    "PLAN-COST",
                    _label(op),
                    f"cumulative cost {op.est_cost!r} is below its child's "
                    f"{child.est_cost!r} ({_label(child)}); costs must be "
                    "monotone so the root prices the whole plan",
                )


def verify_plan(
    plan: PlanOp,
    *,
    backend: str = "set",
    expr: Optional[Expr] = None,
    params=None,
    stats=None,
    max_matrix_objects: Optional[int] = None,
    shard_key_pos: int = 0,
) -> tuple[Violation, ...]:
    """Check every plan invariant; return the violations (empty = clean).

    ``backend`` scopes the lowering checks the way ``compile_plan``'s
    lowering step does: PLAN-DENSE applies to ``"columnar"`` and
    ``"sharded"`` plans, PLAN-SHARD to ``"sharded"`` only.  ``expr`` (the
    source expression) enables PLAN-PARAM and PLAN-CACHE; ``params`` is
    an optional iterable of additionally-declared parameter names (a
    prepared statement's binding set).  ``stats`` and
    ``max_matrix_objects`` anchor the dense-lowering recomputation —
    pass the same values compilation used, or ``stats=None`` to skip
    the strategy-agreement half of PLAN-DENSE.
    """
    violations: list[Violation] = []
    violations.extend(_check_arity(plan))
    violations.extend(_check_keys(plan))
    violations.extend(_check_params(plan, expr, params))
    if backend == "sharded":
        violations.extend(_check_shard(plan, shard_key_pos))
    if backend in ("columnar", "sharded"):
        violations.extend(_check_dense(plan, stats, max_matrix_objects))
    if expr is not None:
        violations.extend(_check_cache(plan, expr))
    violations.extend(_check_costs(plan))
    return tuple(violations)


def assert_plan_valid(
    plan: PlanOp,
    *,
    backend: str = "set",
    expr: Optional[Expr] = None,
    params=None,
    stats=None,
    max_matrix_objects: Optional[int] = None,
    shard_key_pos: int = 0,
) -> None:
    """Raise :class:`PlanVerificationError` unless the plan verifies clean."""
    violations = verify_plan(
        plan,
        backend=backend,
        expr=expr,
        params=params,
        stats=stats,
        max_matrix_objects=max_matrix_objects,
        shard_key_pos=shard_key_pos,
    )
    if violations:
        detail = "; ".join(str(v) for v in violations)
        raise PlanVerificationError(
            f"compiled plan violates {len(violations)} invariant(s): {detail}",
            violations,
        )


def verify_compiled(
    expr: Expr,
    plan: PlanOp,
    *,
    store=None,
    engine=None,
    backend: Optional[str] = None,
    params=None,
) -> tuple[Violation, ...]:
    """Verify a plan the way the engine that compiled it would be checked.

    A :class:`~repro.core.engines.base.PlanEngine` is asked for the
    very lowering keywords its ``compile`` passed on
    (``backend``/``max_matrix_objects``/``shard_key_pos``), and ``stats``
    come from ``store`` as they did there, so the verdict matches what
    ``REPRO_PLAN_VERIFY=1`` would have enforced at compile time.  Any
    other engine (or none) is checked as a ``backend`` plan (default
    ``"set"``) — what the default compiler builds for it.
    """
    if isinstance(engine, PlanEngine):
        lowering = engine.lowering()
    else:
        lowering = {"backend": backend or "set"}
    stats = store.stats() if store is not None else None
    if stats is None and lowering["backend"] in ("columnar", "sharded"):
        from repro.triplestore.stats import DEFAULT_STATS

        stats = DEFAULT_STATS
    return verify_plan(plan, expr=expr, params=params, stats=stats, **lowering)
