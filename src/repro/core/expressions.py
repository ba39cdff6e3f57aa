"""The Triple Algebra expression AST (Section 3 of the paper).

Expressions are immutable, hashable dataclasses, so engines can memoise
sub-results and tests can compare expression trees structurally.

The constructors mirror the paper exactly:

* :class:`Rel` — a triplestore relation name;
* :class:`Select` — ``σ_{θ,η}(e)``;
* :class:`Union`, :class:`Diff` — set operations;
* :class:`Join` — ``e1 ✶^{i,j,k}_{θ,η} e2``;
* :class:`Star` — right/left Kleene closure ``(e ✶)*`` / ``(✶ e)*``;
* :class:`Universe` — the derived relation U of all triples over the
  active domain (Section 3, "Definable operations");
* :class:`Intersect` — sugar for the join-definable intersection.

``Intersect`` and ``Universe`` are definable in the core algebra (the
module :mod:`repro.core.builder` provides the paper's definitions and
tests verify the equivalence); they are first-class nodes so that engines
can evaluate them efficiently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import AlgebraError
from repro.core.conditions import Cond, Conditions, as_conditions
from repro.core.positions import Pos, format_out_spec, parse_out_spec

RIGHT = "right"
LEFT = "left"

OutSpec = tuple[int, int, int]


class Expr:
    """Base class for Triple Algebra expressions.

    Equality is structural (the dataclass ``==``), and so is the hash —
    computed once per node: plan-cache keys hash whole trees, and a node's
    hash would otherwise re-walk every subtree on each lookup.  The memo
    is not pickled, since string hashes differ between processes.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        memo = self.__dict__
        h = memo.get("_hash")
        if h is None:
            h = memo["_hash"] = self._structural_hash()
        return h

    def _structural_hash(self) -> int:  # pragma: no cover — set per node class
        raise NotImplementedError

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # -- operator sugar -------------------------------------------------

    def __or__(self, other: "Expr") -> "Union":
        return Union(self, other)

    def __sub__(self, other: "Expr") -> "Diff":
        return Diff(self, other)

    def __and__(self, other: "Expr") -> "Intersect":
        return Intersect(self, other)

    # -- tree utilities --------------------------------------------------

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions."""
        raise NotImplementedError

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def size(self) -> int:
        """Number of AST nodes — the paper's ``|e|``."""
        return sum(1 for _ in self.walk())

    def relation_names(self) -> frozenset[str]:
        """All base relation names mentioned."""
        return frozenset(n.name for n in self.walk() if isinstance(n, Rel))

    def is_recursive(self) -> bool:
        """True when the expression uses a Kleene star (TriAL* proper)."""
        return any(isinstance(n, Star) for n in self.walk())


def _node(cls: type) -> type:
    """A frozen expression dataclass whose hash is memoised: the
    dataclass's structural hash becomes ``_structural_hash``."""
    cls = dataclass(frozen=True, repr=False)(cls)
    cls._structural_hash = cls.__hash__
    cls.__hash__ = Expr.__hash__
    return cls


def _coerce_out(out: OutSpec | str) -> OutSpec:
    if isinstance(out, str):
        return parse_out_spec(out)
    out = tuple(out)  # type: ignore[assignment]
    if len(out) != 3 or not all(isinstance(i, int) and 0 <= i <= 5 for i in out):
        raise AlgebraError(f"out spec must be three indexes in 0..5, got {out!r}")
    return out  # type: ignore[return-value]


def _check_select_conditions(conditions: Conditions) -> None:
    for cond in conditions:
        if cond.max_position() > 2:
            raise AlgebraError(
                f"selection conditions may only use positions 1,2,3; got {cond!r}"
            )


@_node
class Rel(Expr):
    """A base relation of the triplestore."""

    name: str

    def children(self) -> tuple[Expr, ...]:
        return ()

    def __repr__(self) -> str:
        return self.name


@_node
class Universe(Expr):
    """U: every triple over objects occurring in the stored relations."""

    def children(self) -> tuple[Expr, ...]:
        return ()

    def __repr__(self) -> str:
        return "U"


@_node
class Select(Expr):
    """``σ_{θ,η}(e)`` — keep triples satisfying all conditions."""

    expr: Expr
    conditions: Conditions = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "conditions", as_conditions(self.conditions))
        _check_select_conditions(self.conditions)

    def children(self) -> tuple[Expr, ...]:
        return (self.expr,)

    def __repr__(self) -> str:
        conds = " & ".join(map(repr, self.conditions))
        return f"select[{conds}]({self.expr!r})"


@_node
class Union(Expr):
    """``e1 ∪ e2``."""

    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


@_node
class Diff(Expr):
    """``e1 − e2``."""

    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} - {self.right!r})"


@_node
class Intersect(Expr):
    """``e1 ∩ e2`` (definable: ``e1 ✶^{1,2,3}_{1=1',2=2',3=3'} e2``)."""

    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


@_node
class Join(Expr):
    """``e1 ✶^{i,j,k}_{θ,η} e2``.

    ``out`` holds the three kept positions (0..5, or a paper-style string
    such as ``"1,3',3"``); ``conditions`` mixes θ and η conditions.
    """

    left: Expr
    right: Expr
    out: OutSpec = (0, 1, 2)
    conditions: Conditions = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "out", _coerce_out(self.out))
        object.__setattr__(self, "conditions", as_conditions(self.conditions))

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        conds = " & ".join(map(repr, self.conditions))
        sep = "; " if conds else ""
        return (
            f"join[{format_out_spec(self.out)}{sep}{conds}]"
            f"({self.left!r}, {self.right!r})"
        )


@_node
class Star(Expr):
    """Kleene closure of a join over an expression.

    ``side="right"`` is the paper's ``(e ✶^{i,j,k}_{θ,η})*`` — at each
    step the accumulated relation is the *left* operand and ``e`` the
    right one.  ``side="left"`` is ``(✶^{i,j,k}_{θ,η} e)*`` — the
    accumulated relation joins on the *right*.  Example 3 of the paper
    shows the two closures genuinely differ because triple joins are not
    associative.
    """

    expr: Expr
    out: OutSpec = (0, 1, 2)
    conditions: Conditions = ()
    side: str = RIGHT

    def __post_init__(self) -> None:
        object.__setattr__(self, "out", _coerce_out(self.out))
        object.__setattr__(self, "conditions", as_conditions(self.conditions))
        if self.side not in (RIGHT, LEFT):
            raise AlgebraError(f"star side must be 'right' or 'left', got {self.side!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.expr,)

    def __repr__(self) -> str:
        conds = " & ".join(map(repr, self.conditions))
        sep = "; " if conds else ""
        name = "star" if self.side == RIGHT else "lstar"
        return f"{name}[{format_out_spec(self.out)}{sep}{conds}]({self.expr!r})"


# --------------------------------------------------------------------- #
# Fragment classification (Sections 5 and 6)
# --------------------------------------------------------------------- #

#: The two star shapes allowed in reachTA= (Section 5): out = (1,2,3'),
#: conditions 3=1' (arbitrary path) or 3=1' & 2=2' (same-label path).
REACH_OUT: OutSpec = (0, 1, 5)
REACH_COND_ANY = (Cond(Pos(2), Pos(3)),)
REACH_COND_SAME_LABEL = (Cond(Pos(2), Pos(3)), Cond(Pos(1), Pos(4)))


def star_is_reach(star: Star) -> bool:
    """Does this star match one of the two reachTA= patterns?

    Only right stars qualify (the paper defines the fragment with the
    right closure); condition order is immaterial.
    """
    if star.side != RIGHT or star.out != REACH_OUT:
        return False
    conds = frozenset(star.conditions)
    return conds in (frozenset(REACH_COND_ANY), frozenset(REACH_COND_SAME_LABEL))


def is_equality_only(expr: Expr) -> bool:
    """True when no condition anywhere is an inequality (``=``-fragment)."""
    for node in expr.walk():
        conds: Conditions = getattr(node, "conditions", ())
        if not all(c.is_equality for c in conds):
            return False
    return True


def in_trial(expr: Expr) -> bool:
    """Membership in plain (non-recursive) TriAL."""
    return not expr.is_recursive()


def in_trial_eq(expr: Expr) -> bool:
    """Membership in TriAL= — non-recursive, equalities only (Prop 4)."""
    return in_trial(expr) and is_equality_only(expr)


def in_reach_ta_eq(expr: Expr) -> bool:
    """Membership in reachTA= (Prop 5): TriAL= plus the two reach stars."""
    if not is_equality_only(expr):
        return False
    return all(star_is_reach(n) for n in expr.walk() if isinstance(n, Star))
