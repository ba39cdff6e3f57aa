"""Text syntax for TripleDatalog¬ programs.

Example::

    % query Q, Section 4 style
    Sub(x, y, z)  :- E(x, y, z).
    Reach(x, y, z) :- Sub(x, y, z).
    Reach(x, y, w) :- Reach(x, y, z), Sub(z, u, w), y = u.
    Ans(x, y, z)  :- Reach(x, y, z), not Noise(x, y, z), ~(x, z), x != z.

* comments: ``%`` or ``#`` to end of line, outside quoted constants;
* constants: single- or double-quoted strings, or numbers;
* literals: ``P(t, …)``, ``not P(t, …)``, ``~(t, t)``, ``not ~(t, t)``,
  ``t = t``, ``t != t``;
* each rule ends with a period.
"""

from __future__ import annotations

import re

from repro.core.scan import NAME, Scanner
from repro.datalog.ast import Atom, DConst, DVar, EqLit, Program, RelLit, Rule, SimLit

# Whitespace and comments; a quoted constant is read as one token first,
# so a '%' or '#' inside it starts no comment.
_BLANK = re.compile(r"(?:\s+|[%#][^\r\n]*)*")


class _DatalogParser(Scanner):
    def skip(self) -> None:
        self.pos = _BLANK.match(self.text, self.pos).end()

    def parse(self, answer: str = "Ans") -> Program:
        rules = []
        while not self.at_end():
            rules.append(self._rule())
        return Program(tuple(rules), answer=answer)

    def _rule(self) -> Rule:
        head = self._atom()
        self.expect(":-")
        body = [self._literal()]
        while self.match(","):
            body.append(self._literal())
        self.expect(".")
        return Rule(head, tuple(body))

    def _term(self):
        name = self.word(NAME)
        if name is not None:
            return DVar(name)
        value = self.quoted("'\"")
        if value is None:
            value = self.number()
        if value is None:
            self.error("expected a term")
        return DConst(value)

    def _atom(self) -> Atom:
        name = self.word(NAME)
        if name is None:
            self.error("expected a predicate name")
        self.expect("(")
        args = [self._term()]
        while self.match(","):
            args.append(self._term())
        self.expect(")")
        return Atom(name, tuple(args))

    def _sim(self, negated: bool) -> SimLit:
        self.expect("(")
        left = self._term()
        self.expect(",")
        right = self._term()
        self.expect(")")
        return SimLit(left, right, negated)

    def _literal(self):
        if self.match("~"):
            return self._sim(negated=False)
        if self.keyword("not"):
            if self.match("~"):
                return self._sim(negated=True)
            return RelLit(self._atom(), negated=True)
        # An atom P(...) or an (in)equality t op t: a name followed by
        # '(' is a predicate, not a term.
        start = self.pos
        is_atom = self.word(NAME) is not None and self.peek() == "("
        self.pos = start
        if is_atom:
            return RelLit(self._atom(), negated=False)
        left = self._term()
        negated = self.match("!=")
        if not negated:
            self.expect("=")
        return EqLit(left, self._term(), negated=negated)


def parse_program(text: str, answer: str = "Ans") -> Program:
    """Parse a textual TripleDatalog¬ program.

    >>> p = parse_program("Ans(x,y,z) :- E(x,y,z), x != z.")
    >>> len(p)
    1
    """
    return _DatalogParser(text).parse(answer=answer)
