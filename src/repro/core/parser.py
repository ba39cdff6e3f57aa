"""A text syntax for Triple Algebra expressions.

The grammar (whitespace-insensitive)::

    expr     := term (("|" | "-" | "&") term)*        # left-associative
    term     := NAME                                  # base relation
              | "U"                                   # universal relation
              | "(" expr ")"
              | "select[" conds "](" expr ")"
              | "join[" out (";" conds)? "](" expr "," expr ")"
              | "star[" out (";" conds)? "](" expr ")"
              | "lstar[" out (";" conds)? "](" expr ")"
              | "compl(" expr ")"                     # U - expr
    out      := pos "," pos "," pos                   # pos: 1 2 3 1' 2' 3'
    conds    := cond ("&" cond)*                      # see conditions module

Examples::

    parse("join[1,3',3; 2=1'](E, E)")                 # Example 2
    parse("star[1,2,3'; 3=1' & 2=2'](star[1,3',3; 2=1'](E))")   # query Q
    parse("(E | F) - select[2='part_of'](E)")

``parse`` and ``Expr.__repr__`` round-trip: parsing the repr of an
expression yields an equal expression (tested property).
"""

from __future__ import annotations

from repro.core.builder import complement
from repro.core.conditions import Conditions, read_conditions
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
from repro.core.positions import read_out_spec
from repro.core.scan import NAME, Scanner


class _Parser(Scanner):
    def parse(self) -> Expr:
        expr = self.expr()
        self.end("trailing input")
        return expr

    def expr(self) -> Expr:
        acc = self.term()
        while True:
            if self.match("|"):
                acc = Union(acc, self.term())
            elif self.match("-"):
                acc = Diff(acc, self.term())
            elif self.match("&"):
                acc = Intersect(acc, self.term())
            else:
                return acc

    def term(self) -> Expr:
        if self.match("("):
            inner = self.expr()
            self.expect(")")
            return inner
        name = self.word(NAME)
        if name is None:
            self.error("expected a name")
        if name == "U":
            return Universe()
        if name == "select":
            self.expect("[")
            conds = read_conditions(self)
            self.expect("]")
            (inner,) = self._operands(1)
            return Select(inner, conds)
        if name == "join":
            out, conds = self._out_and_conditions()
            left, right = self._operands(2)
            return Join(left, right, out, conds)
        if name in ("star", "lstar"):
            out, conds = self._out_and_conditions()
            (inner,) = self._operands(1)
            side = "right" if name == "star" else "left"
            return Star(inner, out, conds, side)
        if name == "compl":
            (inner,) = self._operands(1)
            return complement(inner)
        return Rel(name)

    def _out_and_conditions(self) -> tuple[tuple[int, int, int], Conditions]:
        """``[out]`` or ``[out; conds]``."""
        self.expect("[")
        out = read_out_spec(self)
        conds = read_conditions(self) if self.match(";") else ()
        self.expect("]")
        return out, conds

    def _operands(self, n: int) -> list[Expr]:
        """``(expr, ...)`` with exactly ``n`` expressions."""
        self.expect("(")
        args = [self.expr()]
        while len(args) < n:
            self.expect(",")
            args.append(self.expr())
        self.expect(")")
        return args


def parse(text: str) -> Expr:
    """Parse the TriAL text syntax into an expression AST.

    >>> parse("join[1,3',3; 2=1'](E, E)")
    join[1,3',3; 2=1'](E, E)
    """
    return _Parser(text).parse()
