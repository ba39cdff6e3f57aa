"""Positions and condition terms for Triple Algebra joins.

The paper indexes the six components available to a join condition as
``1, 2, 3`` (the left operand's subject/predicate/object) and
``1', 2', 3'`` (the right operand's).  Internally we use 0-based integers
``0..5``; the pretty-printer restores the paper's notation.

A condition term is either a :class:`Pos` (one of the six positions) or a
:class:`Const` (an object constant for θ-conditions, a data value for
η-conditions).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Union

from repro.core.scan import Scanner
from repro.errors import AlgebraError, ParseError

#: Number of positions available to a join (3 from each operand).
N_JOIN_POSITIONS = 6
#: Positions available to a selection (a single operand).
N_SELECT_POSITIONS = 3

_PAPER_NAMES = ("1", "2", "3", "1'", "2'", "3'")
_NAME_TO_INDEX = {name: i for i, name in enumerate(_PAPER_NAMES)}


@dataclass(frozen=True)
class Pos:
    """A reference to one of the six join positions (0-based index).

    >>> Pos(0), Pos(5)
    (Pos(1), Pos(3'))
    """

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < N_JOIN_POSITIONS:
            raise AlgebraError(f"position index must be in 0..5, got {self.index}")

    @property
    def is_left(self) -> bool:
        """True when the position refers to the left operand (1, 2, 3)."""
        return self.index < 3

    @property
    def is_right(self) -> bool:
        """True when the position refers to the right operand (1', 2', 3')."""
        return self.index >= 3

    @property
    def local_index(self) -> int:
        """Index within the owning operand's triple (0, 1 or 2)."""
        return self.index % 3

    @property
    def paper_name(self) -> str:
        """The paper's name for this position: ``1..3`` or ``1'..3'``."""
        return _PAPER_NAMES[self.index]

    def __repr__(self) -> str:
        return f"Pos({self.paper_name})"

    @classmethod
    def from_paper(cls, name: str) -> "Pos":
        """Build from paper notation, e.g. ``Pos.from_paper("2'")``.

        >>> Pos.from_paper("3'").index
        5
        """
        try:
            return cls(_NAME_TO_INDEX[name.strip()])
        except KeyError:
            raise AlgebraError(
                f"unknown position {name!r}; expected one of {_PAPER_NAMES}"
            ) from None


@dataclass(frozen=True)
class Const:
    """A constant in a condition: an object (θ) or a data value (η)."""

    value: Any

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


#: A parameter as the text syntax writes it: ``$`` and an identifier.
PARAM = re.compile(r"\$[A-Za-z_]\w*")


@dataclass(frozen=True)
class Param:
    """A named placeholder for a constant, bound at execution time.

    A :class:`Param` stands wherever a :class:`Const` may stand in a
    condition (``$city`` in the text syntax): a prepared statement
    compiles the expression once and substitutes the bound constant into
    the cached physical plan per execution (:mod:`repro.core.params`).
    The planner treats a parameterized equality exactly like the
    constant one it replaces, so the plan shape — and therefore the plan
    cache entry — is shared across all bindings.
    """

    name: str

    def __post_init__(self) -> None:
        if not PARAM.fullmatch(f"${self.name}"):
            raise AlgebraError(
                f"parameter name must be an identifier, got {self.name!r}"
            )

    def __repr__(self) -> str:
        return f"${self.name}"


Term = Union[Pos, Const, Param]

#: The paper's position names in index order, exported for pretty-printers.
PAPER_POSITION_NAMES = _PAPER_NAMES


#: A position in the text syntax: a bare ``1``..``3``, primed or not.  An
#: unprimed digit followed by a digit or ``.`` starts a number instead.
POSITION = re.compile(r"[123](?:'|(?![0-9.]))")


def read_position(sc: Scanner) -> int:
    """Read one position (``1``..``3'``); returns its 0-based index."""
    name = sc.word(POSITION)
    if name is None:
        sc.error("expected a position (1, 2, 3, 1', 2' or 3')")
    return _NAME_TO_INDEX[name]


def read_out_spec(sc: Scanner) -> tuple[int, int, int]:
    """Read an output specification: three comma-separated positions."""
    i = read_position(sc)
    sc.expect(",")
    j = read_position(sc)
    sc.expect(",")
    return (i, j, read_position(sc))


def parse_out_spec(spec: str) -> tuple[int, int, int]:
    """Parse an output specification like ``"1,3',3"`` into indexes.

    >>> parse_out_spec("1,3',3")
    (0, 5, 2)
    """
    sc = Scanner(spec)
    try:
        out = read_out_spec(sc)
        sc.end("trailing output spec input")
    except ParseError as exc:
        raise AlgebraError(f"output spec needs exactly 3 positions: {exc}") from None
    return out


def format_out_spec(out: tuple[int, int, int]) -> str:
    """Inverse of :func:`parse_out_spec`."""
    return ",".join(_PAPER_NAMES[i] for i in out)
