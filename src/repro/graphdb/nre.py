"""Nested regular expressions (NREs), Section 2.1.

Grammar::

    e := ε | a | a⁻ | e·e | e* | e+e | [e]

The nesting operator ``[e]`` is the XPath-style node test: pairs (u, u)
such that (u, v) is in the semantics of e for some v.  NREs embed into
GXPath's positive fragment; we provide both a native evaluator (used by
nSPARQL over RDF encodings) and the embedding (used by the translation
to TriAL*).

A compact text syntax is provided::

    parse_nre("next.[edge.part_of].next*")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.scan import NAME, Scanner
from repro.graphdb import gxpath
from repro.graphdb.model import GraphDB, Node


class Nre:
    """Base class of nested regular expressions."""

    __slots__ = ()

    def walk(self) -> Iterator["Nre"]:
        yield self
        for child in getattr(self, "children", lambda: ())():
            yield from child.walk()


@dataclass(frozen=True, repr=False)
class NEps(Nre):
    def __repr__(self) -> str:
        return "ε"


@dataclass(frozen=True, repr=False)
class NLabel(Nre):
    label: str
    forward: bool = True

    def __repr__(self) -> str:
        return self.label if self.forward else f"{self.label}⁻"


@dataclass(frozen=True, repr=False)
class NConcat(Nre):
    left: Nre
    right: Nre

    def children(self) -> tuple:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r}.{self.right!r})"


@dataclass(frozen=True, repr=False)
class NAlt(Nre):
    left: Nre
    right: Nre

    def children(self) -> tuple:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r}+{self.right!r})"


@dataclass(frozen=True, repr=False)
class NStar(Nre):
    inner: Nre

    def children(self) -> tuple:
        return (self.inner,)

    def __repr__(self) -> str:
        return f"{self.inner!r}*"


@dataclass(frozen=True, repr=False)
class NTest(Nre):
    """``[e]`` — nodes with an outgoing e-path, as a diagonal relation."""

    inner: Nre

    def children(self) -> tuple:
        return (self.inner,)

    def __repr__(self) -> str:
        return f"[{self.inner!r}]"


def nre_to_gxpath(expr: Nre) -> gxpath.PathExpr:
    """Embed an NRE into GXPath's positive fragment.

    ``[e]`` becomes ``[⟨e⟩]`` (a node-test of a has-path formula); the
    star becomes GXPath's reflexive-transitive star, matching the NRE
    convention that ``e*`` includes the empty path.
    """
    if isinstance(expr, NEps):
        return gxpath.Eps()
    if isinstance(expr, NLabel):
        return gxpath.Axis(expr.label, expr.forward)
    if isinstance(expr, NConcat):
        return gxpath.Concat(nre_to_gxpath(expr.left), nre_to_gxpath(expr.right))
    if isinstance(expr, NAlt):
        return gxpath.PathUnion(nre_to_gxpath(expr.left), nre_to_gxpath(expr.right))
    if isinstance(expr, NStar):
        return gxpath.StarPath(nre_to_gxpath(expr.inner))
    if isinstance(expr, NTest):
        return gxpath.Test(gxpath.HasPath(nre_to_gxpath(expr.inner)))
    raise TypeError(f"unknown NRE node {type(expr).__name__}")


def evaluate_nre(graph: GraphDB, expr: Nre) -> frozenset[tuple[Node, Node]]:
    """Evaluate an NRE over a graph database (binary relation on V)."""
    return gxpath.evaluate_gxpath(graph, nre_to_gxpath(expr))


# --------------------------------------------------------------------- #
# Text syntax
# --------------------------------------------------------------------- #

class _NreParser(Scanner):
    def parse(self) -> Nre:
        node = self.alt()
        self.end("trailing NRE input")
        return node

    def alt(self) -> Nre:
        node = self.concat()
        while self.match("+"):
            node = NAlt(node, self.concat())
        return node

    def concat(self) -> Nre:
        node = self.postfix()
        while self.match("."):
            node = NConcat(node, self.postfix())
        return node

    def postfix(self) -> Nre:
        node = self.atom()
        while True:
            if self.match("*"):
                node = NStar(node)
            elif isinstance(node, NLabel) and node.forward and self.match("-"):
                node = NLabel(node.label, forward=False)
            else:
                return node

    def atom(self) -> Nre:
        if self.match("("):
            if self.match(")"):
                return NEps()
            node = self.alt()
            self.expect(")")
            return node
        if self.match("["):
            node = self.alt()
            self.expect("]")
            return NTest(node)
        label = self.quoted("'")
        if label is None:
            label = self.word(NAME)
        if label is None:
            self.error("expected a label")
        return NLabel(label)


def parse_nre(text: str) -> Nre:
    """Parse the NRE text syntax.

    >>> parse_nre("next.[edge.a].next*")
    ((next.[(edge.a)]).next*)
    """
    return _NreParser(text).parse()
