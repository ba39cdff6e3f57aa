"""Text syntax for FO and TrCl formulas over ⟨E₁,…,Eₙ, ∼⟩.

Grammar (precedence: quantifiers/not > and > or)::

    formula  := "exists" vars "(" formula ")"
              | "forall" vars "(" formula ")"
              | "not" formula
              | disj
    disj     := conj ("or" conj)*
    conj     := atomish ("and" atomish)*
    atomish  := NAME "(" term "," term "," term ")"      # relation atom
              | "~" "(" term "," term ")"                # same data value
              | term "=" term
              | "[" "trcl" vars ";" vars formula "]" "(" terms ";" terms ")"
              | "(" formula ")"
              | "not" atomish
    term     := NAME | "'" const "'"
    vars     := NAME ("," NAME)*

Examples::

    parse_formula("exists y (E(x, y, z) and not x = z)")
    parse_formula("[trcl x; y exists w (E(x, w, y))](u; v)")
"""

from __future__ import annotations

from repro.core.scan import NAME, Scanner
from repro.logic.fo import (
    And,
    ConstT,
    Eq,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    RelAtom,
    Sim,
    Var,
)
from repro.logic.trcl import Trcl

_KEYWORDS = {"exists", "forall", "not", "and", "or", "trcl"}


class _FOParser(Scanner):
    def _name(self) -> str:
        start = self.pos
        name = self.word(NAME)
        if name is None or name in _KEYWORDS:
            self.pos = start
            self.error("expected a name")
        return name

    def _term(self):
        value = self.quoted("'")
        return Var(self._name()) if value is None else ConstT(value)

    def _var_list(self) -> tuple[str, ...]:
        names = [self._name()]
        while self.match(","):
            names.append(self._name())
        return tuple(names)

    def _term_list(self):
        terms = [self._term()]
        while self.match(","):
            terms.append(self._term())
        return tuple(terms)

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Formula:
        formula = self.formula()
        self.end("trailing formula input")
        return formula

    def formula(self) -> Formula:
        return self.disj()

    def disj(self) -> Formula:
        left = self.conj()
        while self.keyword("or"):
            left = Or(left, self.conj())
        return left

    def conj(self) -> Formula:
        left = self.atomish()
        while self.keyword("and"):
            left = And(left, self.atomish())
        return left

    def atomish(self) -> Formula:
        if self.keyword("not"):
            return Not(self.atomish())
        if self.keyword("exists"):
            return self._quantified(Exists)
        if self.keyword("forall"):
            return self._quantified(Forall)
        if self.match("~"):
            self.expect("(")
            left = self._term()
            self.expect(",")
            right = self._term()
            self.expect(")")
            return Sim(left, right)
        if self.peek() == "[":
            return self._trcl()
        if self.match("("):
            inner = self.formula()
            self.expect(")")
            return inner
        # Relation atom or equality.
        first = self._term()
        if isinstance(first, Var) and self.match("("):
            terms = self._term_list()
            self.expect(")")
            if len(terms) != 3:
                self.error(f"relation atoms are ternary; {first.name} got {len(terms)} terms")
            return RelAtom(first.name, terms)
        self.expect("=")
        right = self._term()
        return Eq(first, right)

    def _quantified(self, cls) -> Formula:
        names = self._var_list()
        self.expect("(")
        body = self.formula()
        self.expect(")")
        for name in reversed(names):
            body = cls(name, body)
        return body

    def _trcl(self) -> Formula:
        self.expect("[")
        if not self.keyword("trcl"):
            self.error("expected 'trcl'")
        xs = self._var_list()
        self.expect(";")
        ys = self._var_list()
        inner = self.formula()
        self.expect("]")
        self.expect("(")
        t1s = self._term_list()
        self.expect(";")
        t2s = self._term_list()
        self.expect(")")
        return Trcl(xs, ys, inner, t1s, t2s)


def parse_formula(text: str) -> Formula:
    """Parse an FO/TrCl formula from text.

    >>> parse_formula("exists y (E(x, y, z) and not x = z)")
    ∃y((E(x, y, z) ∧ ¬(x = z)))
    """
    return _FOParser(text).parse()
