"""Graph query languages → TriAL* (Theorem 7, Corollaries 2 and 4).

A graph database G is encoded as the triplestore T_G with O = V ∪ Σ and
one triple per edge (``GraphDB.to_triplestore``).  A binary graph query
α is equivalent to a ternary TriAL* expression e when
``π₁,₃(e(T_G)) = α(G)`` — the paper's Section 6.2 convention.

Key derived expressions (all inside the algebra):

* ``N``  — the diagonal (v,v,v) over *graph nodes* (objects occurring as
  a subject or object of an edge triple; labels are excluded as long as
  V ∩ Σ = ∅, which ``to_triplestore`` enforces);
* ``NP`` — all triples (u,v,v) for nodes u,v: the V×V universe used by
  path complement;
* ``norm(e)`` — e with the middle component normalised to the object
  (so complements compare like with like).

Caveat: N is derived from edges, so *isolated nodes* are invisible to
the translation — ε and complements are then taken over the non-isolated
nodes.  The paper's encoding has the same property (its U only contains
objects occurring in triples).  Property tests generate graphs without
isolated nodes.
"""

from __future__ import annotations

from functools import cached_property

from repro.errors import TranslationError
from repro.core.builder import join, select, star
from repro.core.conditions import Cond
from repro.core.expressions import Diff, Expr, Intersect, Rel, Union
from repro.core.positions import Const, Pos
from repro.automata import regex as rx
from repro.graphdb import gxpath as gx
from repro.graphdb.nre import Nre, nre_to_gxpath


def nodes_diagonal(relation: str = "E") -> Expr:
    """N: triples (v,v,v) for every edge endpoint v."""
    e = Rel(relation)
    return Union(join(e, e, "1,1,1"), join(e, e, "3,3,3"))


def node_pairs(relation: str = "E") -> Expr:
    """NP: triples (u,v,v) for all node pairs (u,v) — the V×V universe."""
    n = nodes_diagonal(relation)
    return join(n, n, "1,3',3'")


def normalise(expr: Expr, relation: str = "E") -> Expr:
    """norm(e): rewrite each (u,p,v) as (u,v,v) (canonical middle)."""
    return join(expr, nodes_diagonal(relation), "1,3',3", "3=1'")


class _Translator:
    def __init__(self, relation: str) -> None:
        self.relation = relation
        self.rel = Rel(relation)

    @cached_property
    def n(self) -> Expr:
        """N, built when a formula first needs it (ε, ⊤, ¬, stars)."""
        return nodes_diagonal(self.relation)

    @cached_property
    def np(self) -> Expr:
        """NP, built when a path complement first needs it."""
        return node_pairs(self.relation)

    # -- path formulas ---------------------------------------------------

    def path(self, expr: gx.PathExpr) -> Expr:
        if isinstance(expr, gx.Eps):
            return self.n
        if isinstance(expr, gx.Axis):
            base = select(self.rel, (Cond(Pos(1), Const(expr.label)),))
            if expr.forward:
                return base
            return join(base, base, "3,2,1", "1=1' & 2=2' & 3=3'")
        if isinstance(expr, gx.Test):
            return self.node(expr.node)
        if isinstance(expr, gx.Concat):
            return join(self.path(expr.left), self.path(expr.right), "1,2,3'", "3=1'")
        if isinstance(expr, gx.PathUnion):
            return Union(self.path(expr.left), self.path(expr.right))
        if isinstance(expr, gx.PathComplement):
            return Diff(self.np, normalise(self.path(expr.inner), self.relation))
        if isinstance(expr, gx.StarPath):
            closure = star(self.path(expr.inner), "1,2,3'", "3=1'")
            return Union(self.n, closure)
        if isinstance(expr, gx.DataPathTest):
            op = "=" if expr.equal else "!="
            return select(
                self.path(expr.inner), (Cond(Pos(0), Pos(2), op, on_data=True),)
            )
        raise TranslationError(f"unknown path formula {type(expr).__name__}")

    # -- node formulas ----------------------------------------------------

    def node(self, expr: gx.NodeExpr) -> Expr:
        if isinstance(expr, gx.Top):
            return self.n
        if isinstance(expr, gx.NodeNot):
            return Diff(self.n, self.node(expr.inner))
        if isinstance(expr, gx.NodeAnd):
            return Intersect(self.node(expr.left), self.node(expr.right))
        if isinstance(expr, gx.NodeOr):
            return Union(self.node(expr.left), self.node(expr.right))
        if isinstance(expr, gx.HasPath):
            e = self.path(expr.path)
            return join(e, e, "1,1,1")
        if isinstance(expr, gx.DataNodeTest):
            op = "=" if expr.equal else "!="
            return join(
                self.path(expr.left),
                self.path(expr.right),
                "1,1,1",
                (Cond(Pos(0), Pos(3)), Cond(Pos(2), Pos(5), op, on_data=True)),
            )
        raise TranslationError(f"unknown node formula {type(expr).__name__}")


def gxpath_to_trial(expr: gx.PathExpr, relation: str = "E") -> Expr:
    """Theorem 7 / Corollary 4: GXPath(∼) path formula → TriAL*.

    Binary semantics via π₁,₃ over T_G.
    """
    return _Translator(relation).path(expr)


def gxpath_node_to_trial(expr: gx.NodeExpr, relation: str = "E") -> Expr:
    """Node formula → TriAL* (diagonal triples (v,v,v))."""
    return _Translator(relation).node(expr)


def nre_to_trial(expr: Nre, relation: str = "E") -> Expr:
    """Corollary 2: nested regular expressions → TriAL*."""
    return gxpath_to_trial(nre_to_gxpath(expr), relation)


def _regex_to_gxpath(expr: rx.Regex) -> gx.PathExpr:
    if isinstance(expr, rx.Epsilon):
        return gx.Eps()
    if isinstance(expr, rx.Label):
        return gx.Axis(expr.label, True)
    if isinstance(expr, rx.Inverse):
        return gx.Axis(expr.label, False)
    if isinstance(expr, rx.Concat):
        return gx.Concat(_regex_to_gxpath(expr.left), _regex_to_gxpath(expr.right))
    if isinstance(expr, rx.Alt):
        return gx.PathUnion(_regex_to_gxpath(expr.left), _regex_to_gxpath(expr.right))
    if isinstance(expr, rx.Star):
        return gx.StarPath(_regex_to_gxpath(expr.inner))
    raise TranslationError(f"unknown regex node {type(expr).__name__}")


def rpq_to_trial(expr: rx.Regex | str, relation: str = "E") -> Expr:
    """Corollary 2: (2)RPQs → TriAL*."""
    if isinstance(expr, str):
        expr = rx.parse_regex(expr)
    return gxpath_to_trial(_regex_to_gxpath(expr), relation)


def regex_to_gxpath(expr: rx.Regex | str) -> gx.PathExpr:
    """Expose the regex → GXPath embedding (RPQs are a GXPath fragment)."""
    if isinstance(expr, str):
        expr = rx.parse_regex(expr)
    return _regex_to_gxpath(expr)
