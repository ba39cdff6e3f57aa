"""θ- and η-conditions for Triple Algebra joins and selections.

A join ``R ✶^{i,j,k}_{θ,η} R'`` carries

* ``θ`` — a set of equalities/inequalities between positions and *objects*;
* ``η`` — a set of equalities/inequalities between the *data values*
  ``ρ(position)`` and data constants.

We represent both with one :class:`Cond` class carrying an ``on_data``
flag; helpers split a condition list back into the paper's (θ, η) pair.
A small string syntax mirrors the paper's notation::

    parse_conditions("2=1'")                    # θ equality
    parse_conditions("1!=3' & rho(2)=rho(2')")  # θ inequality + η equality
    parse_conditions("2='part_of'")             # θ with object constant
    parse_conditions("rho(3)=7")                # η with data constant
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import AlgebraError, UnboundParameterError
from repro.core.positions import PARAM, POSITION, Const, Param, Pos, Term, read_position
from repro.core.scan import Scanner

EQ = "="
NEQ = "!="
_OPS = (EQ, NEQ)


@dataclass(frozen=True)
class Cond:
    """One (in)equality between two condition terms.

    ``on_data=False`` makes this a θ-condition (objects are compared
    directly), ``on_data=True`` an η-condition (each :class:`Pos` term is
    first mapped through ρ; constants are data values).
    """

    left: Term
    right: Term
    op: str = EQ
    on_data: bool = False

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise AlgebraError(f"condition operator must be '=' or '!=', got {self.op!r}")
        if isinstance(self.left, Const) and isinstance(self.right, Const):
            # Legal but pointless — it is a constant boolean.  Allowed so
            # generated conditions compose, evaluated statically by engines.
            pass

    @property
    def is_equality(self) -> bool:
        return self.op == EQ

    def positions(self) -> tuple[Pos, ...]:
        """All :class:`Pos` terms mentioned."""
        return tuple(t for t in (self.left, self.right) if isinstance(t, Pos))

    def max_position(self) -> int:
        """Largest position index used, or -1 if constant-only."""
        ps = self.positions()
        return max((p.index for p in ps), default=-1)

    def shift_right(self) -> "Cond":
        """Reinterpret select-side positions (0..2) as right-operand (3..5)."""
        def shift(t: Term) -> Term:
            return Pos(t.index + 3) if isinstance(t, Pos) else t
        return Cond(shift(self.left), shift(self.right), self.op, self.on_data)

    def swap_sides(self) -> "Cond":
        """Exchange the roles of the two operands (1 <-> 1', etc.)."""
        def flip(t: Term) -> Term:
            if isinstance(t, Pos):
                return Pos(t.index + 3) if t.index < 3 else Pos(t.index - 3)
            return t
        return Cond(flip(self.left), flip(self.right), self.op, self.on_data)

    def evaluate(
        self,
        left_triple: tuple,
        right_triple: tuple | None,
        rho: Callable[[Any], Any],
    ) -> bool:
        """Check the condition against concrete triples.

        ``right_triple`` may be ``None`` for selection conditions (all
        positions then refer to ``left_triple``).
        """
        def resolve(term: Term) -> Any:
            if isinstance(term, Const):
                return term.value
            if isinstance(term, Param):
                raise UnboundParameterError(term.name)
            if term.index < 3:
                obj = left_triple[term.index]
            else:
                if right_triple is None:
                    raise AlgebraError(
                        f"condition uses {term.paper_name} but no right operand given"
                    )
                obj = right_triple[term.index - 3]
            return rho(obj) if self.on_data else obj

        lv, rv = resolve(self.left), resolve(self.right)
        return (lv == rv) if self.op == EQ else (lv != rv)

    def __repr__(self) -> str:
        def fmt(t: Term, other: Term) -> str:
            if isinstance(t, Const):
                beside_rho = self.on_data and isinstance(other, Pos)
                return _format_constant(t.value, beside_rho)
            if isinstance(t, Param):
                return f"${t.name}"
            name = t.paper_name
            return f"rho({name})" if self.on_data else name
        return f"{fmt(self.left, self.right)}{self.op}{fmt(self.right, self.left)}"


def _format_constant(value: Any, beside_rho: bool = False) -> str:
    r"""``value`` as the condition reader reads it back, ``==`` to it.

    The reader has no escapes, so a string is printed as it is between a
    quote mark it does not contain.  A number is printed in decimal; an
    integer 1-3 gets a leading 0, as a bare digit reads as a position,
    except ``beside_rho`` (opposite a ``rho(...)`` term), where the
    reader takes it as a constant.  A constant the syntax cannot hold (a
    bool, ``None``, bytes, a tuple, an infinity, a string with both
    quote marks) prints as Python's ``repr``, which the reader refuses.

    >>> _format_constant("it's"), _format_constant(2), _format_constant(1e20)
    ('"it\'s"', '02', '100000000000000000000.0')
    """
    if isinstance(value, str):
        for quote in "'\"":
            if quote not in value:
                return f"{quote}{value}{quote}"
    elif isinstance(value, bool):
        pass
    elif isinstance(value, numbers.Integral):
        text = str(int(value))
        return f"0{text}" if text in ("1", "2", "3") and not beside_rho else text
    elif isinstance(value, numbers.Real) and math.isfinite(value):
        from decimal import Decimal

        text = format(Decimal(repr(float(value))), "f")
        return text if "." in text else f"{text}.0"
    return repr(value)


Conditions = tuple[Cond, ...]


def theta(conditions: Iterable[Cond]) -> Conditions:
    """The object-comparison (θ) part of a condition list."""
    return tuple(c for c in conditions if not c.on_data)


def eta(conditions: Iterable[Cond]) -> Conditions:
    """The data-comparison (η) part of a condition list."""
    return tuple(c for c in conditions if c.on_data)


def equalities_only(conditions: Iterable[Cond]) -> bool:
    """True when no condition is an inequality (the TriAL= restriction)."""
    return all(c.is_equality for c in conditions)


# --------------------------------------------------------------------- #
# The string mini-language
# --------------------------------------------------------------------- #

def _read_term(sc: Scanner) -> tuple[Term, bool] | None:
    """One term and whether it is a ``rho(...)``; ``None`` if none starts here."""
    if sc.match("rho("):
        pos = Pos(read_position(sc))
        sc.expect(")")
        return pos, True
    name = sc.word(POSITION)
    if name is not None:
        return Pos.from_paper(name), False
    param = sc.word(PARAM)
    if param is not None:
        return Param(param[1:]), False
    value = sc.quoted("'\"")
    if value is None:
        value = sc.number()
    return None if value is None else (Const(value), False)


def _read_cond(sc: Scanner, first: tuple[Term, bool]) -> Cond:
    left, left_rho = first
    if sc.match("!="):
        op = NEQ
    elif sc.match("="):
        op = EQ
    else:
        sc.error("expected '=' or '!='")
    right, right_rho = _read_term(sc) or sc.error("expected a condition term")
    on_data = left_rho or right_rho
    if left_rho != right_rho and isinstance(left, Pos) and isinstance(right, Pos):
        # "rho(1) = 2" compares ρ(1) with the data constant 2, whereas
        # "rho(1) = rho(2)" compares two positions.  A bare *unprimed*
        # digit opposite a rho-term is therefore a numeric constant;
        # primed bare positions ("rho(1) = 2'") stay an error.
        bare = right if left_rho else left
        if bare.is_right:
            sc.error("cannot mix rho(...) and bare primed positions in one condition")
        if left_rho:
            right = Const(bare.index + 1)
        else:
            left = Const(bare.index + 1)
    return Cond(left, right, op, on_data)


def read_conditions(sc: Scanner) -> Conditions:
    """Read a possibly empty ``&``- (or ``,``-) separated condition list."""
    out: list[Cond] = []
    first = _read_term(sc)
    while first is not None:
        out.append(_read_cond(sc, first))
        if not (sc.match("&") or sc.match(",")):
            break
        first = _read_term(sc) or sc.error("expected a condition term")
    return tuple(out)


def parse_conditions(spec: str) -> Conditions:
    """Parse a ``&``-separated condition list.

    >>> parse_conditions("2=1' & rho(3)!=rho(3')")
    (2=1', rho(3)!=rho(3'))
    >>> parse_conditions("")
    ()
    """
    sc = Scanner(spec)
    conds = read_conditions(sc)
    sc.end("expected '&' between conditions")
    return conds


def as_conditions(conds: str | Iterable[Cond] | None) -> Conditions:
    """Coerce user input (string, iterable, or ``None``) to conditions."""
    if not conds:
        return ()
    if isinstance(conds, str):
        return parse_conditions(conds)
    return tuple(conds)
