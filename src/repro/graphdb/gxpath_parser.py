"""Text syntax for GXPath(∼) path and node formulas.

Grammar (whitespace-insensitive)::

    path     := concat ("|" concat)*                 # union
    concat   := postfix ("/" postfix)*               # composition
    postfix  := atom ("*" | "{=}" | "{!=}")*         # star, data tests α₌ / α₍≠₎
    atom     := LABEL | LABEL "-"                    # forward / backward axis
              | "_"                                  # ε
              | "!" atom                             # path complement ᾱ
              | "[" node "]"                         # node test
              | "(" path ")"
    node     := nodeand ("or" nodeand)*
    nodeand  := nodeatom ("and" nodeatom)*
    nodeatom := "top" | "not" nodeatom
              | "<" path ">"                         # ⟨α⟩
              | "<" path "=" path ">"                # ⟨α = β⟩
              | "<" path "!=" path ">"               # ⟨α ≠ β⟩
              | "(" node ")"

Examples::

    parse_gxpath("a/[<b>]/a*")          # a·[⟨b⟩]·a*
    parse_gxpath("!(a/b) | c-")         # complement and inverse
    parse_gxpath("(a/b){=}")            # data-equality test on endpoints
    parse_gxpath_node("<a> and not <b{!=}>")
"""

from __future__ import annotations

from repro.core.scan import NAME, Scanner
from repro.graphdb.gxpath import (
    Axis,
    Concat,
    DataNodeTest,
    DataPathTest,
    Eps,
    HasPath,
    NodeAnd,
    NodeExpr,
    NodeNot,
    NodeOr,
    PathComplement,
    PathExpr,
    PathUnion,
    StarPath,
    Test,
    Top,
)

_KEYWORDS = {"or", "and", "not", "top"}


class _GXParser(Scanner):
    def _label(self) -> str:
        label = self.quoted("'")
        if label is not None:
            return label
        start = self.pos
        label = self.word(NAME)
        if label is None or label in _KEYWORDS:
            self.pos = start
            self.error("expected a path atom")
        return label

    # -- paths ------------------------------------------------------------

    def parse_path(self) -> PathExpr:
        node = self.path()
        self.end("trailing GXPath input")
        return node

    def path(self) -> PathExpr:
        node = self.concat()
        while self.match("|"):
            node = PathUnion(node, self.concat())
        return node

    def concat(self) -> PathExpr:
        node = self.postfix()
        while self.match("/"):
            node = Concat(node, self.postfix())
        return node

    def postfix(self) -> PathExpr:
        node = self.atom()
        while True:
            if self.match("*"):
                node = StarPath(node)
            elif self.match("{=}"):
                node = DataPathTest(node, True)
            elif self.match("{!=}"):
                node = DataPathTest(node, False)
            else:
                return node

    def atom(self) -> PathExpr:
        if self.match("!"):
            return PathComplement(self.atom())
        if self.match("("):
            inner = self.path()
            self.expect(")")
            return inner
        if self.match("["):
            inner = self.node()
            self.expect("]")
            return Test(inner)
        if self.match("_"):
            return Eps()
        label = self._label()
        return Axis(label, forward=not self.match("-"))

    # -- node formulas ------------------------------------------------------

    def parse_node(self) -> NodeExpr:
        node = self.node()
        self.end("trailing GXPath node input")
        return node

    def node(self) -> NodeExpr:
        left = self.node_and()
        while self.keyword("or"):
            left = NodeOr(left, self.node_and())
        return left

    def node_and(self) -> NodeExpr:
        left = self.node_atom()
        while self.keyword("and"):
            left = NodeAnd(left, self.node_atom())
        return left

    def node_atom(self) -> NodeExpr:
        if self.keyword("not"):
            return NodeNot(self.node_atom())
        if self.keyword("top"):
            return Top()
        if self.match("("):
            inner = self.node()
            self.expect(")")
            return inner
        if self.match("<"):
            alpha = self.path()
            if self.match("!="):
                beta = self.path()
                self.expect(">")
                return DataNodeTest(alpha, beta, False)
            if self.match("="):
                beta = self.path()
                self.expect(">")
                return DataNodeTest(alpha, beta, True)
            self.expect(">")
            return HasPath(alpha)
        self.error("expected a node formula")


def parse_gxpath(text: str) -> PathExpr:
    """Parse a GXPath(∼) path formula.

    >>> parse_gxpath("a/[<b>]/a*")
    ((a·[⟨b⟩])·a*)
    """
    return _GXParser(text).parse_path()


def parse_gxpath_node(text: str) -> NodeExpr:
    """Parse a GXPath(∼) node formula.

    >>> parse_gxpath_node("<a> and not top")
    (⟨a⟩∧¬⊤)
    """
    return _GXParser(text).parse_node()
