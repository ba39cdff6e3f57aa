"""Static verification of compiled physical plans.

:func:`verify_plan` walks a :class:`~repro.core.plan.PlanOp` tree and
checks every invariant in :data:`repro.analysis.invariants.INVARIANTS`
without executing anything.  Each check *recomputes* the property from
the plan structure using the same helpers the compiler used to
establish it (:func:`~repro.core.plan.split_conditions`,
:meth:`~repro.core.plan.JoinSpec.index_key_positions`), so a freshly
compiled plan always verifies clean and any mutation — hand-built
plans, future rewrite passes, bugs in a join enumerator — that breaks
an executor assumption is caught before the executor trusts it.

Two entry points:

* :func:`verify_plan` — the core pass; returns the violations.
* :func:`assert_plan_valid` — raises
  :class:`~repro.errors.PlanVerificationError` on any violation; this
  is what ``compile_plan`` calls on every plan it builds, and what the
  explain report's ``violations`` (``repro explain``) come from.

Every backend runs the same plan, so there is one verification per
plan.  PLAN-SHARD is checked at run time, against real shard contents,
by the sharded executor.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from repro.analysis.invariants import Finding, Violation
from repro.core.expressions import LEFT, RIGHT, Expr, Universe
from repro.core.params import expr_params, plan_params
from repro.core.plan import (
    FilterOp,
    HashJoinOp,
    IndexLookupOp,
    JoinSpec,
    PlanOp,
    ScanOp,
    StarOp,
    UniverseOp,
    split_conditions,
)
from repro.errors import PlanVerificationError

__all__ = ["assert_plan_valid", "verify_plan"]


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
    expr: Optional[Expr] = None,
    params=None,
) -> tuple[Violation, ...]:
    """Check every plan invariant; return the violations (empty = clean).

    ``expr`` (the source expression) enables PLAN-PARAM and PLAN-CACHE;
    ``params`` is an optional iterable of additionally-declared
    parameter names (a prepared statement's binding set).
    """
    violations: list[Violation] = []
    violations.extend(_check_arity(plan))
    violations.extend(_check_keys(plan))
    violations.extend(_check_params(plan, expr, params))
    if expr is not None:
        violations.extend(_check_cache(plan, expr))
    violations.extend(_check_costs(plan))
    return tuple(violations)


def assert_plan_valid(
    plan: PlanOp, *, expr: Optional[Expr] = None, params=None
) -> None:
    """Raise :class:`PlanVerificationError` unless the plan verifies clean."""
    violations = verify_plan(plan, expr=expr, params=params)
    if violations:
        detail = "; ".join(str(v) for v in violations)
        raise PlanVerificationError(
            f"compiled plan violates {len(violations)} invariant(s): {detail}",
            violations,
        )
