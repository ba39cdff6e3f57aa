"""Parameterized expressions: placeholders, canonicalization and binding.

The classic prepared-statement design from relational systems, applied
to the Triple Algebra: a :class:`~repro.core.positions.Param` term
(``$city`` in the text syntax) stands for a constant that is supplied at
*execution* time, so one compiled plan serves every binding.

Three layers cooperate:

* :func:`expr_params` / :func:`substitute_params` — the expression-level
  view.  Substitution produces the ordinary constant expression a
  binding denotes; it is the correctness reference (``bind-then-compile``
  must equal ``compile-then-bind``) and the execution path for engines
  without a planner.
* :func:`canonicalize_constants` — the inverse direction: every
  :class:`~repro.core.positions.Const` term in a condition is replaced
  by a positional parameter (``$p0``, ``$p1``, …) and the extracted
  values returned as a binding.  Queries that differ only in their
  constants then canonicalize to the *same* expression, so the plan
  cache becomes a cross-parameter cache: ``select[2='a'](E)`` and
  ``select[2='b'](E)`` compile once.
* :func:`bind_plan` — the plan-level view.  A compiled physical plan is
  rebound per execution by substituting the bound constants into the
  operators that mention parameters (conditions, index-lookup keys);
  everything else — children, cost annotations, build sides — is
  shared structurally with the cached plan.  The bind
  is a shallow walk, orders of magnitude cheaper than recompiling, and
  backend-agnostic: the bound plan runs unchanged on the set, columnar
  and sharded executors.

The planner compiles a parameterized equality exactly like the constant
equality it replaces (:func:`repro.core.plan._constant_equality` accepts
``Param`` key values), which is what makes the shared plan shape sound:
statistics never looked at the constant's *value* in the first place.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import AlgebraError, UnboundParameterError
from repro.core.conditions import Cond, Conditions
from repro.core.expressions import (
    Diff,
    Expr,
    Intersect,
    Join,
    Rel,
    Select,
    Star,
    Union,
    Universe,
)
from repro.core.plan import (
    FilterOp,
    HashJoinOp,
    IndexLookupOp,
    JoinSpec,
    PlanOp,
    ReachStarOp,
    ScanOp,
    StarOp,
    UniverseOp,
    _SetOp,
)
from repro.core.positions import Const, Param, Term

__all__ = [
    "bind_plan",
    "canonicalize_constants",
    "check_bindings",
    "expr_params",
    "plan_params",
    "substitute_params",
]

Bindings = Mapping[str, Any]


def _cond_params(conditions: Conditions) -> tuple[str, ...]:
    names: list[str] = []
    for cond in conditions:
        for term in (cond.left, cond.right):
            if isinstance(term, Param) and term.name not in names:
                names.append(term.name)
    return tuple(names)


def expr_params(expr: Expr) -> tuple[str, ...]:
    """All parameter names in an expression, in first-occurrence order."""
    names: list[str] = []
    for node in expr.walk():
        for name in _cond_params(getattr(node, "conditions", ())):
            if name not in names:
                names.append(name)
    return tuple(names)


def check_bindings(params: tuple[str, ...], bindings: Bindings) -> None:
    """Verify ``bindings`` covers ``params`` exactly (no missing, no extra)."""
    for name in params:
        if name not in bindings:
            raise UnboundParameterError(name, params)
    for name in bindings:
        if name not in params:
            raise AlgebraError(
                f"unknown parameter ${name}; expression parameters: "
                + (", ".join(f"${p}" for p in params) or "(none)")
            )


def _subst_term(term: Term, bindings: Bindings) -> Term:
    if isinstance(term, Param):
        try:
            return Const(bindings[term.name])
        except KeyError:
            raise UnboundParameterError(term.name) from None
    return term


def _subst_conditions(conditions: Conditions, bindings: Bindings) -> Conditions:
    out = []
    changed = False
    for cond in conditions:
        left = _subst_term(cond.left, bindings)
        right = _subst_term(cond.right, bindings)
        if left is not cond.left or right is not cond.right:
            cond = Cond(left, right, cond.op, cond.on_data)
            changed = True
        out.append(cond)
    return tuple(out) if changed else conditions


def substitute_params(expr: Expr, bindings: Bindings) -> Expr:
    """The constant expression ``expr`` denotes under ``bindings``.

    Unmentioned parameters are left in place (partial binding); unknown
    binding names are ignored here — use :func:`check_bindings` first
    for strict validation.
    """
    if isinstance(expr, (Rel, Universe)):
        return expr
    if isinstance(expr, Select):
        return Select(
            substitute_params(expr.expr, bindings),
            _subst_conditions(expr.conditions, bindings),
        )
    if isinstance(expr, (Union, Diff, Intersect)):
        return type(expr)(
            substitute_params(expr.left, bindings),
            substitute_params(expr.right, bindings),
        )
    if isinstance(expr, Join):
        return Join(
            substitute_params(expr.left, bindings),
            substitute_params(expr.right, bindings),
            expr.out,
            _subst_conditions(expr.conditions, bindings),
        )
    if isinstance(expr, Star):
        return Star(
            substitute_params(expr.expr, bindings),
            expr.out,
            _subst_conditions(expr.conditions, bindings),
            expr.side,
        )
    return expr


#: Prefix of auto-generated canonicalization parameters.  User parameters
#: share the namespace, so the prefix is reserved (checked on canonicalize).
AUTO_PREFIX = "_c"


def canonicalize_constants(expr: Expr) -> tuple[Expr, dict[str, Any]]:
    """Replace every condition constant with a positional parameter.

    Returns ``(canonical expression, extracted bindings)``; substituting
    the bindings back yields an expression equal to the input.  The
    traversal order is deterministic (pre-order, condition order), so
    two expressions that differ only in constant values canonicalize to
    the same expression — the key property that lets the plan cache
    serve all of them from one entry.

    Constant-only conditions are left untouched: they are static
    booleans, not data, and keeping them visible lets ``compile_plan``
    short-circuit provably-empty canonical expressions to a constant
    plan.
    """
    user_params = frozenset(expr_params(expr))
    bindings: dict[str, Any] = {}
    counter = [0]

    def canon_term(term: Term) -> Term:
        if isinstance(term, Const):
            name = f"{AUTO_PREFIX}{counter[0]}"
            while name in user_params:  # never collide with a user's $_cN
                counter[0] += 1
                name = f"{AUTO_PREFIX}{counter[0]}"
            counter[0] += 1
            bindings[name] = term.value
            return Param(name)
        return term

    def canon_conditions(conditions: Conditions) -> Conditions:
        out = []
        changed = False
        for cond in conditions:
            if isinstance(cond.left, Const) and isinstance(cond.right, Const):
                # A constant-only condition is a static boolean (notably
                # the optimizer's canonical ∅ sentinel); parameterising
                # it would hide a compile-time-decidable verdict from
                # the planner's empty-plan short-circuit for no cache
                # benefit.
                out.append(cond)
                continue
            left = canon_term(cond.left)
            right = canon_term(cond.right)
            if left is not cond.left or right is not cond.right:
                cond = Cond(left, right, cond.op, cond.on_data)
                changed = True
            out.append(cond)
        return tuple(out) if changed else conditions

    def canon(e: Expr) -> Expr:
        if isinstance(e, (Rel, Universe)):
            return e
        if isinstance(e, Select):
            return Select(canon(e.expr), canon_conditions(e.conditions))
        if isinstance(e, (Union, Diff, Intersect)):
            return type(e)(canon(e.left), canon(e.right))
        if isinstance(e, Join):
            return Join(canon(e.left), canon(e.right), e.out, canon_conditions(e.conditions))
        if isinstance(e, Star):
            return Star(canon(e.expr), e.out, canon_conditions(e.conditions), e.side)
        return e

    return canon(expr), bindings


# --------------------------------------------------------------------- #
# Plan-level binding
# --------------------------------------------------------------------- #


def plan_params(plan: PlanOp) -> tuple[str, ...]:
    """All parameter names a compiled plan still carries."""
    names: list[str] = []
    for op in plan.walk():
        conds: Conditions = ()
        if isinstance(op, (HashJoinOp, StarOp)):
            conds = op.spec.conditions
        elif isinstance(op, FilterOp):
            conds = op.conditions
        elif isinstance(op, IndexLookupOp):
            conds = op.residual
            for value in op.key:
                if isinstance(value, Param) and value.name not in names:
                    names.append(value.name)
        for name in _cond_params(conds):
            if name not in names:
                names.append(name)
    return tuple(names)


def bind_plan(plan: PlanOp, bindings: Bindings) -> PlanOp:
    """Substitute bound constants into a compiled plan.

    Returns a plan sharing every parameter-free operator with the input
    (the cached plan is never mutated); operators that mention a
    parameter are shallow-copied with the constant substituted into
    their conditions or index key.  Cost annotations and build sides
    carry over unchanged — binding never changes the plan's shape.
    """
    if not bindings:
        return plan
    memo: dict[int, PlanOp] = {}

    def bind(op: PlanOp) -> PlanOp:
        done = memo.get(id(op))
        if done is not None:
            return done
        bound = _bind_op(op)
        memo[id(op)] = bound
        return bound

    def _bind_op(op: PlanOp) -> PlanOp:
        if isinstance(op, (ScanOp, UniverseOp)):
            return op
        if isinstance(op, IndexLookupOp):
            key = tuple(
                bindings.get(v.name, v) if isinstance(v, Param) else v for v in op.key
            )
            residual = _subst_conditions(op.residual, bindings)
            if key == op.key and residual is op.residual:
                return op
            return IndexLookupOp(
                op.name, op.positions, key, residual, op.est_rows, op.est_cost
            )
        if isinstance(op, FilterOp):
            child = bind(op.child)
            conditions = _subst_conditions(op.conditions, bindings)
            if child is op.child and conditions is op.conditions:
                return op
            return FilterOp(child, conditions, op.est_rows, op.est_cost)
        if isinstance(op, _SetOp):
            left, right = bind(op.left), bind(op.right)
            if left is op.left and right is op.right:
                return op
            return type(op)(left, right, op.est_rows, op.est_cost)
        if isinstance(op, HashJoinOp):
            left, right = bind(op.left), bind(op.right)
            spec = _bind_spec(op.spec)
            if left is op.left and right is op.right and spec is op.spec:
                return op
            return HashJoinOp(
                left, right, spec, op.build_side, op.index_positions,
                op.est_rows, op.est_cost,
            )
        if isinstance(op, StarOp):
            child = bind(op.child)
            spec = _bind_spec(op.spec)
            if child is op.child and spec is op.spec:
                return op
            return StarOp(child, spec, op.side, op.est_rows, op.est_cost)
        if isinstance(op, ReachStarOp):
            child = bind(op.child)
            if child is op.child:
                return op
            return ReachStarOp(child, op.same_label, op.est_rows, op.est_cost)
        return op  # pragma: no cover — all operator types handled above

    def _bind_spec(spec: JoinSpec) -> JoinSpec:
        conditions = _subst_conditions(spec.conditions, bindings)
        if conditions is spec.conditions:
            return spec
        return JoinSpec(spec.out, conditions)

    return bind(plan)
