"""Algebraic rewrites for TriAL(*) expressions.

The paper's closing discussion asks how its algebra would fare inside a
real query processor; this module provides the standard logical
optimisations, each a semantics-preserving rewrite (property-tested in
``tests/test_optimizer.py``):

* **select merging** — ``σ_c1(σ_c2(e)) → σ_{c1∧c2}(e)``;
* **select-into-join pushing** — a selection over a join becomes extra
  join conditions (positions retargeted through the join's output map
  when unambiguous);
* **join-local condition pushing** — join conditions touching only one
  operand become selections on that operand (enabling index use and
  shrinking hash inputs);
* **empty/idempotent set-operation pruning** — ``e ∪ e → e``,
  ``e − e → ∅``-shaped simplifications that arise from generated
  queries (∅ is a canonical constant-false *equality* selection, so
  the rewrites stay inside TriAL=);
* **double-star collapse** — ``(star(e))* = star(e)`` for the *same*
  join parameters (stars are closures, hence idempotent);
* **semantic pruning** (gated behind
  :mod:`repro.analysis.semantics`) — a selection/join whose condition
  list the union-find closure proves unsatisfiable becomes ∅
  (``SEM-UNSAT``), a star whose step conditions are unsatisfiable
  collapses to its base (``SEM-TRIVIAL-STAR``), and conditions implied
  by the rest of their conjunction are dropped (``SEM-REDUNDANT``'s
  minimal core).  Each rewrite fires only on the analyzer's verdict,
  and the verdicts are binding-independent, so the rewrites stay sound
  for parameterised (canonicalized) expressions.

``optimize`` applies the rules bottom-up to a fixed point.  Rewrites
never change semantics; they are purely cost-motivated, so engines can
apply them independently of fragment classification (all rules map
TriAL= into TriAL= and reachTA= into reachTA=).
"""

from __future__ import annotations

from repro.core.conditions import Cond
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
from repro.core.positions import Const, Pos

__all__ = ["optimize", "push_conditions", "merge_selects", "is_empty_expr"]


def _empty(like: Expr) -> Select:
    """A canonical always-false selection (the ∅ of the rewrite rules).

    Built over a relation the expression already mentions, so the
    rewritten query never references names (or U) the original did not.
    """
    if isinstance(like, Rel):
        base: Expr = like
    else:
        names = sorted(like.relation_names())
        base = Rel(names[0]) if names else Universe()
    return Select(base, _FALSE_CONDITIONS)


#: A constant-false *equality* — ∅ must stay inside TriAL= (the rules
#: promise to preserve fragment membership, and inequalities would not).
_FALSE_CONDITIONS = (Cond(Const("__empty__"), Const("__never__")),)

#: Bottom-up passes :func:`optimize` runs before it stops short of a
#: fixed point.
_MAX_PASSES = 10


def is_empty_expr(expr: Expr) -> bool:
    """Recognise the canonical empty expression produced by the rules."""
    return isinstance(expr, Select) and expr.conditions == _FALSE_CONDITIONS


def _semantic_conditions(conditions: tuple[Cond, ...]) -> tuple[Cond, ...] | None:
    """The analyzer's verdict on one conjunction: ``None`` when the
    union-find closure proves it unsatisfiable, otherwise its minimal
    core (conditions implied by the rest dropped).

    Imported lazily — :mod:`repro.analysis.semantics` depends on the
    core expression types, mirroring how ``compile_plan`` reaches the
    plan verifier.
    """
    from repro.analysis.semantics import condition_core, conditions_unsat

    if conditions_unsat(conditions):
        return None
    return condition_core(conditions)


def merge_selects(expr: Select) -> Select:
    """σ_c1(σ_c2(e)) → σ_{c1 ∪ c2}(e), applied through a whole chain."""
    conditions: tuple[Cond, ...] = expr.conditions
    inner = expr.expr
    while isinstance(inner, Select):
        conditions = conditions + inner.conditions
        inner = inner.expr
    return Select(inner, tuple(dict.fromkeys(conditions)))


def _retarget_select_over_join(cond: Cond, out: tuple[int, int, int]) -> Cond | None:
    """Rewrite a selection condition (positions 0..2 of the join output)
    into a condition over the join's six input positions, when possible.

    Output position i of the join holds input position ``out[i]``; a
    selection condition ``i ~ j`` therefore equals the join condition
    ``out[i] ~ out[j]``.  Always possible — returns None only for
    malformed conditions.
    """
    def retarget(term):
        if not isinstance(term, Pos):
            return term  # constants and parameters pass through unchanged
        return Pos(out[term.index])

    return Cond(retarget(cond.left), retarget(cond.right), cond.op, cond.on_data)


def _split_join_local(
    conditions: tuple[Cond, ...],
) -> tuple[tuple[Cond, ...], tuple[Cond, ...], tuple[Cond, ...]]:
    """(left-local, right-local, rest) — mirrors the engine's analysis."""
    left, right, rest = [], [], []
    for cond in conditions:
        sides = {p.is_right for p in cond.positions()}
        if sides == {False}:
            left.append(cond)
        elif sides == {True}:
            right.append(cond)
        else:
            rest.append(cond)
    return tuple(left), tuple(right), tuple(rest)


def push_conditions(expr: Join) -> Expr:
    """Push operand-local join conditions down as selections."""
    left_local, right_local, rest = _split_join_local(expr.conditions)
    if not left_local and not right_local:
        return expr
    left = expr.left
    right = expr.right
    if left_local:
        left = Select(left, left_local)
    if right_local:
        right = Select(right, tuple(c.swap_sides() for c in right_local))
    return Join(left, right, expr.out, rest)


def _rewrite(expr: Expr) -> Expr:
    """One bottom-up pass of all rules."""
    # Rewrite children first.
    if isinstance(expr, Select):
        expr = Select(_rewrite(expr.expr), expr.conditions)
    elif isinstance(expr, (Union, Diff, Intersect)):
        expr = type(expr)(_rewrite(expr.left), _rewrite(expr.right))
    elif isinstance(expr, Join):
        expr = Join(
            _rewrite(expr.left), _rewrite(expr.right), expr.out, expr.conditions
        )
    elif isinstance(expr, Star):
        expr = Star(_rewrite(expr.expr), expr.out, expr.conditions, expr.side)

    # Node-local rules.
    if isinstance(expr, Select):
        if isinstance(expr.expr, Select):
            expr = merge_selects(expr)
        if not expr.conditions:
            return expr.expr
        if is_empty_expr(expr.expr):
            return expr.expr
        if not is_empty_expr(expr):
            conds = _semantic_conditions(expr.conditions)
            if conds is None:
                return _empty(expr)  # SEM-UNSAT: prune to ∅
            if not conds:
                return expr.expr  # every condition statically true
            if conds != expr.conditions:
                expr = Select(expr.expr, conds)  # SEM-REDUNDANT: minimal core
        if isinstance(expr.expr, Join):
            join = expr.expr
            pushed = [
                _retarget_select_over_join(c, join.out) for c in expr.conditions
            ]
            if all(p is not None for p in pushed):
                return Join(
                    join.left,
                    join.right,
                    join.out,
                    tuple(dict.fromkeys(join.conditions + tuple(pushed))),
                )
        return expr
    if isinstance(expr, Union):
        if expr.left == expr.right:
            return expr.left
        if is_empty_expr(expr.left):
            return expr.right
        if is_empty_expr(expr.right):
            return expr.left
        return expr
    if isinstance(expr, Intersect):
        if expr.left == expr.right:
            return expr.left
        if is_empty_expr(expr.left):
            return expr.left
        if is_empty_expr(expr.right):
            return expr.right
        return expr
    if isinstance(expr, Diff):
        if expr.left == expr.right:
            return _empty(expr.left)
        if is_empty_expr(expr.left):
            return expr.left
        if is_empty_expr(expr.right):
            return expr.left
        return expr
    if isinstance(expr, Join):
        if is_empty_expr(expr.left):
            return expr.left
        if is_empty_expr(expr.right):
            return expr.right
        # Statically false constant-only conditions empty the join.
        for cond in expr.conditions:
            if isinstance(cond.left, Const) and isinstance(cond.right, Const):
                holds = (
                    (cond.left.value == cond.right.value)
                    if cond.is_equality
                    else (cond.left.value != cond.right.value)
                )
                if not holds:
                    return _empty(expr)
        conds = _semantic_conditions(expr.conditions)
        if conds is None:
            return _empty(expr)  # SEM-UNSAT: prune to ∅
        if conds != expr.conditions:
            expr = Join(expr.left, expr.right, expr.out, conds)
        return push_conditions(expr)
    if isinstance(expr, Star):
        inner = expr.expr
        if (
            isinstance(inner, Star)
            and inner.out == expr.out
            and frozenset(inner.conditions) == frozenset(expr.conditions)
            and inner.side == expr.side
        ):
            return inner  # closures are idempotent
        if is_empty_expr(inner):
            return inner
        conds = _semantic_conditions(expr.conditions)
        if conds is None:
            # SEM-TRIVIAL-STAR: the step join never fires, so the
            # fixpoint accumulator never leaves the base.
            return inner
        if conds != expr.conditions:
            expr = Star(inner, expr.out, conds, expr.side)
        return expr
    return expr


def optimize(expr: Expr) -> Expr:
    """Apply all rewrite rules bottom-up until a fixed point (or
    :data:`_MAX_PASSES` passes).

    >>> from repro.core import R, select
    >>> optimize(select(select(R("E"), "1=2"), "2=3"))
    select[2=3 & 1=2](E)
    >>> optimize(select(R("E"), "1='a' & 1='b'"))
    select['__empty__'='__never__'](E)
    """
    for _ in range(_MAX_PASSES):
        rewritten = _rewrite(expr)
        if rewritten == expr:
            return expr
        expr = rewritten
    return expr
