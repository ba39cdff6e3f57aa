"""Regular expressions over edge alphabets — the RPQ substrate.

AST nodes cover the paper's RPQ needs (Section 2.1) plus inverse labels
(for 2RPQs, used when comparing with C2RPQs in Section 6.2).  The parser
accepts the usual textual syntax::

    parse_regex("a.(b+c)*.a-")     # concatenation ., union +, star *, inverse -

Labels are bare identifiers; quoted labels ('with spaces') are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.scan import NAME, Scanner


class Regex:
    """Base class of regular-expression ASTs."""

    __slots__ = ()

    def walk(self) -> Iterator["Regex"]:
        yield self
        for child in getattr(self, "children", lambda: ())():
            yield from child.walk()

    def labels(self) -> frozenset[str]:
        """All edge labels mentioned."""
        return frozenset(
            n.label for n in self.walk() if isinstance(n, (Label, Inverse))
        )


@dataclass(frozen=True, repr=False)
class Epsilon(Regex):
    """The empty word."""

    def __repr__(self) -> str:
        return "()"


@dataclass(frozen=True, repr=False)
class Label(Regex):
    """A single forward edge label."""

    label: str

    def __repr__(self) -> str:
        return self.label


@dataclass(frozen=True, repr=False)
class Inverse(Regex):
    """A backward edge label ``a-``."""

    label: str

    def __repr__(self) -> str:
        return f"{self.label}-"


@dataclass(frozen=True, repr=False)
class Concat(Regex):
    left: Regex
    right: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r}.{self.right!r})"


@dataclass(frozen=True, repr=False)
class Alt(Regex):
    left: Regex
    right: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r}+{self.right!r})"


@dataclass(frozen=True, repr=False)
class Star(Regex):
    inner: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.inner,)

    def __repr__(self) -> str:
        return f"{self.inner!r}*"


class _RegexParser(Scanner):
    """Recursive-descent parser: alt > concat > postfix > atom."""

    def parse(self) -> Regex:
        node = self.alt()
        self.end("trailing regex input")
        return node

    def alt(self) -> Regex:
        node = self.concat()
        while self.match("+"):
            node = Alt(node, self.concat())
        return node

    def concat(self) -> Regex:
        node = self.postfix()
        # Juxtaposition concatenates only before a '(' group: "ab" is one
        # label, so '.' is required between bare labels.
        while self.match(".") or self.peek() == "(":
            node = Concat(node, self.postfix())
        return node

    def postfix(self) -> Regex:
        node = self.atom()
        while True:
            if self.match("*"):
                node = Star(node)
            elif self.peek() == "-":
                if not isinstance(node, Label):
                    self.error("'-' applies to labels only")
                self.expect("-")
                node = Inverse(node.label)
            else:
                return node

    def atom(self) -> Regex:
        if self.match("("):
            if self.match(")"):
                return Epsilon()
            node = self.alt()
            self.expect(")")
            return node
        label = self.quoted("'")
        if label is None:
            label = self.word(NAME)
        if label is None:
            self.error("expected a label")
        return Label(label)


def parse_regex(text: str) -> Regex:
    """Parse textual regex syntax into a :class:`Regex` AST.

    >>> parse_regex("a.(b+c)*")
    (a.(b+c)*)
    """
    return _RegexParser(text).parse()
