"""Semantic analysis of TriAL(*) expressions.

Selections and joins carry conjunctions of (in)equalities over triple
positions, constants and parameters; whether such a conjunction is
satisfiable — and which conditions are implied by the others — is
decidable by a union-find closure.  This module runs that closure per
conjunction and propagates the verdicts bottom-up through the algebra:

* ``SEM-UNSAT`` — a selection/join condition list admits no satisfying
  triple pair: the equality closure forces two distinct constants into
  one class or contradicts one of the inequalities.
* ``SEM-EMPTY`` — a subexpression is provably empty on *every* store:
  unsatisfiable conditions, ``Diff(e, e)``, an empty join/intersect
  operand, the star of an empty base.
* ``SEM-TRIVIAL-STAR`` — a star whose fixpoint is its base: the step
  conditions are unsatisfiable (the join never fires, so
  ``star(e) ≡ e``) or the operand is the same star (idempotence).
* ``SEM-REDUNDANT`` — a condition list that is not a minimal core:
  some condition is implied by the closure of the others.
* ``SEM-UNKNOWN-REL`` — with a store supplied, a referenced relation
  the store does not define (informational; evaluates empty).

The closure keeps the paper's θ/η distinction sound: θ-equalities
(objects) also equate the positions' ρ-values (ρ is a function), but
η-equalities (data values) never propagate back to objects.  Parameters
are opaque fixed values — two occurrences of ``$p`` are equal, and no
relation between distinct parameters (or a parameter and a constant) is
ever assumed — so every verdict on a canonicalized expression is sound
for *all* bindings, which is what lets the optimizer and the plan cache
act on them.

:class:`EqualityClosure` is the one equality reasoner: TripleDatalog¬
rule bodies read as the same atoms (``SEM-UNSAT`` of a rule and the
evaluator's equality folding, :mod:`repro.datalog.evaluator`), and the
FO translation merges θ-equated positions by its classes.

The verdict helpers (:func:`conditions_unsat`, :func:`condition_core`,
:func:`expr_is_empty`, :func:`star_is_trivial`) gate the optimizer's
pruning rewrites; :func:`analyze_expr` renders the verdicts as
:class:`~repro.analysis.invariants.Finding` records for
:meth:`repro.db.Database.analyze`, the explain report (``repro
explain``) and the service layer's warnings.  Soundness is
differentially tested: every ``SEM-EMPTY``/``SEM-UNSAT`` verdict is
confirmed actually-empty by ``NaiveEngine`` across a seeded sweep.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from repro.analysis.invariants import Finding
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
)
from repro.core.positions import Const, Param, Pos

__all__ = [
    "EqualityClosure",
    "analyze_expr",
    "condition_core",
    "conditions_unsat",
    "expr_is_empty",
    "star_is_trivial",
]


# --------------------------------------------------------------------- #
# The equality closure
# --------------------------------------------------------------------- #

#: A closure node: ``(on_data, kind, key)`` — the object (θ) or the
#: ρ-value (η) of a position, constant, parameter or other object term.
_Node = tuple[bool, str, Any]


def _node(term: object, on_data: bool) -> _Node:
    if isinstance(term, Pos):
        return (on_data, "pos", term.index)
    if isinstance(term, Const):
        return (on_data, "const", term.value)
    if isinstance(term, Param):
        return (on_data, "param", term.name)
    return (on_data, "term", term)


def _term(node: _Node) -> object:
    _, kind, key = node
    if kind == "pos":
        return Pos(key)
    if kind == "const":
        return Const(key)
    return Param(key) if kind == "param" else key


class EqualityClosure:
    """The equality closure of one conjunction of (in)equalities.

    Each atom is a :class:`Cond`: a θ-atom compares objects, an η-atom
    ρ-values, and a constant of an η-atom is a data value.  Besides
    positions, constants and parameters, a term may be any other
    hashable *object term*, such as a variable of a Datalog rule body.

    Construction unions all equalities (θ among objects, η among data
    values), then closes under ρ-congruence: object terms forced to
    hold the same *object* yield the same *data value*.  The reverse
    never fires — equal data values say nothing about the objects —
    matching the paper's ρ, a function from objects to data values.
    """

    __slots__ = ("_parent", "static_false", "disequalities")

    def __init__(self, conditions: Iterable[Cond]) -> None:
        self._parent: dict[_Node, _Node] = {}
        self.static_false = False
        self.disequalities: list[Cond] = []
        objects: dict[_Node, None] = {}
        for cond in conditions:
            if isinstance(cond.left, Const) and isinstance(cond.right, Const):
                # A constant boolean: no closure contribution either way.
                holds = (cond.left.value == cond.right.value) == cond.is_equality
                self.static_false |= not holds
                continue
            left = _node(cond.left, cond.on_data)
            right = _node(cond.right, cond.on_data)
            for _, kind, key in (left, right):
                if kind in ("pos", "term"):
                    objects[(False, kind, key)] = None
            if cond.is_equality:
                self._union(left, right)
            else:
                self.disequalities.append(cond)
        # ρ-congruence: a ≡θ b  ⇒  ρ(a) ≡η ρ(b).
        first: dict[_Node, _Node] = {}
        for obj in objects:
            rep = first.setdefault(self._find(obj), obj)
            self._union((True,) + rep[1:], (True,) + obj[1:])

    # -- the union-find -------------------------------------------------- #

    def _find(self, node: _Node) -> _Node:
        parent = self._parent.setdefault(node, node)
        if parent == node:
            return node
        root = self._find(parent)
        self._parent[node] = root
        return root

    def _union(self, a: _Node, b: _Node) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb

    # -- class queries --------------------------------------------------- #

    def root(self, term: object, on_data: bool = False) -> _Node:
        """The representative of ``term``'s class (θ, or η with
        ``on_data``); two terms share a class iff their roots are equal."""
        return self._find(_node(term, on_data))

    def _class(self, term: object, on_data: bool) -> list[_Node]:
        root = self.root(term, on_data)
        return [node for node in list(self._parent) if self._find(node) == root]

    def members(self, term: object, on_data: bool = False) -> list[object]:
        """Every term in ``term``'s class, in first-mention order."""
        return [_term(node) for node in self._class(term, on_data)]

    def pinned(self, term: object, on_data: bool = False) -> Optional[tuple]:
        """The constant ``term``'s class holds, boxed, or ``None``."""
        for node in self._class(term, on_data):
            if node[1] == "const":
                return (node[2],)
        return None

    # -- verdicts -------------------------------------------------------- #

    def is_unsat(self) -> bool:
        """No assignment satisfies the conjunction."""
        if self.static_false or self._const_clash():
            return True
        return any(
            self.root(c.left, c.on_data) == self.root(c.right, c.on_data)
            for c in self.disequalities
        )

    def _const_clash(self) -> bool:
        """Some class holds two distinct constants."""
        values: dict[_Node, object] = {}
        for node in list(self._parent):
            if node[1] == "const":
                if values.setdefault(self._find(node), node[2]) != node[2]:
                    return True
        return False

    def entails(self, cond: Cond) -> bool:
        """The conjunction implies ``cond`` (so ``cond`` is redundant).

        Only called on satisfiable conjunctions; an equality is entailed
        when its endpoints already share a class, an inequality when the
        endpoints' classes are pinned to distinct constants or an
        equivalent inequality is already present.
        """
        if isinstance(cond.left, Const) and isinstance(cond.right, Const):
            return (cond.left.value == cond.right.value) == cond.is_equality
        ends = {self.root(cond.left, cond.on_data), self.root(cond.right, cond.on_data)}
        if cond.is_equality:
            return len(ends) == 1
        lv = self.pinned(cond.left, cond.on_data)
        rv = self.pinned(cond.right, cond.on_data)
        if lv is not None and rv is not None and lv[0] != rv[0]:
            return True
        return any(
            other.on_data == cond.on_data
            and {
                self.root(other.left, other.on_data),
                self.root(other.right, other.on_data),
            }
            == ends
            for other in self.disequalities
        )


# --------------------------------------------------------------------- #
# Public verdict helpers (these gate the optimizer's rewrites)
# --------------------------------------------------------------------- #


def conditions_unsat(conditions: Iterable[Cond]) -> bool:
    """True when the conjunction admits no satisfying triple pair.

    Sound for every store and every parameter binding: parameters are
    treated as opaque fixed values, so only contradictions forced by
    the conjunction itself are reported.

    >>> from repro.core.conditions import parse_conditions
    >>> conditions_unsat(parse_conditions("1='a' & 1='b'"))
    True
    >>> conditions_unsat(parse_conditions("1='a' & 2='b'"))
    False
    >>> conditions_unsat(parse_conditions("1=2 & 2=3 & 1!=3"))
    True
    """
    return EqualityClosure(conditions).is_unsat()


def condition_core(conditions: Conditions) -> Conditions:
    """A minimal core: drop every condition the others imply.

    Greedy left-to-right reduction; the result is equivalent to the
    input (on satisfiable inputs) and no member is entailed by the
    rest.

    >>> from repro.core.conditions import parse_conditions
    >>> condition_core(parse_conditions("1=2 & 2=1"))
    (2=1,)
    """
    kept = list(conditions)
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1 :]
        if EqualityClosure(rest).entails(kept[i]):
            kept.pop(i)
        else:
            i += 1
    return tuple(kept)


def star_is_trivial(expr: Star) -> bool:
    """``star(e) ≡ e``: unsatisfiable step conditions or a nested star.

    With unsatisfiable conditions the closure join never produces a
    tuple, so the fixpoint accumulator stays at the base; a star over
    the *same* star is the optimizer's idempotence case.
    """
    if conditions_unsat(expr.conditions):
        return True
    inner = expr.expr
    return (
        isinstance(inner, Star)
        and inner.out == expr.out
        and frozenset(inner.conditions) == frozenset(expr.conditions)
        and inner.side == expr.side
    )


def expr_is_empty(expr: Expr) -> bool:
    """True when ``expr`` provably evaluates to zero triples on every store.

    Store-independent by design (base relations are never assumed
    empty), so the verdict is safe to bake into cached plans.
    """
    return _empty_memo(expr, {})


def _empty_memo(expr: Expr, memo: dict[Expr, bool]) -> bool:
    cached = memo.get(expr)
    if cached is not None:
        return cached
    empty = False
    if isinstance(expr, Select):
        empty = _empty_memo(expr.expr, memo) or conditions_unsat(expr.conditions)
    elif isinstance(expr, Join):
        empty = (
            _empty_memo(expr.left, memo)
            or _empty_memo(expr.right, memo)
            or conditions_unsat(expr.conditions)
        )
    elif isinstance(expr, Union):
        empty = _empty_memo(expr.left, memo) and _empty_memo(expr.right, memo)
    elif isinstance(expr, Intersect):
        empty = _empty_memo(expr.left, memo) or _empty_memo(expr.right, memo)
    elif isinstance(expr, Diff):
        empty = _empty_memo(expr.left, memo) or expr.left == expr.right
    elif isinstance(expr, Star):
        # star(e) ⊇ e (the accumulator starts from the base), so the
        # star is empty exactly when the base is.
        empty = _empty_memo(expr.expr, memo)
    memo[expr] = empty
    return empty


# --------------------------------------------------------------------- #
# Findings
# --------------------------------------------------------------------- #

_LABEL_MAX = 72


def _label(expr: Expr) -> str:
    """The expression's paper-style repr, truncated for one-line output."""
    text = repr(expr)
    if len(text) > _LABEL_MAX:
        text = text[: _LABEL_MAX - 1] + "…"
    return text


def _fmt_conds(conditions: Sequence[Cond]) -> str:
    return " & ".join(map(repr, conditions))


def _dropped(original: Conditions, core: Conditions) -> list[Cond]:
    """Multiset difference original − core, in original order."""
    remaining = list(core)
    out: list[Cond] = []
    for cond in original:
        if cond in remaining:
            remaining.remove(cond)
        else:
            out.append(cond)
    return out


def _condition_findings(node: Expr) -> Iterable[Finding]:
    """SEM-UNSAT / SEM-TRIVIAL-STAR / SEM-REDUNDANT for one operator."""
    if isinstance(node, (Select, Join)):
        if conditions_unsat(node.conditions):
            yield Finding(
                "SEM-UNSAT",
                f"conditions [{_fmt_conds(node.conditions)}] are "
                "unsatisfiable; the operator produces no triples",
                op=_label(node),
            )
            return
    elif isinstance(node, Star):
        if star_is_trivial(node):
            reason = (
                "its step conditions are unsatisfiable"
                if conditions_unsat(node.conditions)
                else "its operand is the same closure (idempotent)"
            )
            yield Finding(
                "SEM-TRIVIAL-STAR",
                f"the star never iterates ({reason}); "
                "star(e) is equivalent to e",
                op=_label(node),
            )
        if conditions_unsat(node.conditions):
            return
    else:
        return
    core = condition_core(node.conditions)
    if len(core) < len(node.conditions):
        dropped = _dropped(node.conditions, core)
        yield Finding(
            "SEM-REDUNDANT",
            f"conditions [{_fmt_conds(dropped)}] are implied by "
            f"[{_fmt_conds(core)}] and can be dropped",
            op=_label(node),
        )


def analyze_expr(expr: Expr, store=None) -> list[Finding]:
    """All semantic findings for ``expr`` (deterministic order).

    ``store`` (optional) enables ``SEM-UNKNOWN-REL``.
    """
    findings: list[Finding] = []
    memo: dict[Expr, bool] = {}

    # Per-operator condition verdicts, one per distinct subexpression.
    for node in dict.fromkeys(expr.walk()):
        findings.extend(_condition_findings(node))

    # Maximal provably-empty regions (children of an empty region are
    # suppressed: the outermost verdict is the actionable one).
    reported: set[Expr] = set()

    def report_empty(node: Expr, under_empty: bool) -> None:
        empty = _empty_memo(node, memo)
        if empty and not under_empty and node not in reported:
            reported.add(node)
            what = "the query" if node is expr else "this subexpression"
            findings.append(
                Finding(
                    "SEM-EMPTY",
                    f"{what} provably evaluates to zero triples on every "
                    "store",
                    op=_label(node),
                )
            )
        for child in node.children():
            report_empty(child, under_empty or empty)

    report_empty(expr, False)

    if store is not None:
        known = set(store.relation_names)
        for name in sorted(expr.relation_names() - known):
            findings.append(
                Finding(
                    "SEM-UNKNOWN-REL",
                    f"relation {name!r} is not defined in the store "
                    f"(known: {', '.join(sorted(known)) or 'none'}); the "
                    "reference evaluates empty",
                    op=_label(Rel(name)),
                )
            )

    return findings
