"""E13: GXPath(∼)/NRE/RPQ → TriAL* equivalence (Thm 7, Cor 2, Cor 4)."""

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from repro.core import evaluate, project13
from repro.graphdb import (
    Axis,
    Concat,
    DataNodeTest,
    DataPathTest,
    Eps,
    HasPath,
    NodeAnd,
    NodeNot,
    NodeOr,
    PathComplement,
    PathUnion,
    StarPath,
    Test,
    Top,
    evaluate_gxpath,
    evaluate_gxpath_nodes,
    evaluate_nre,
    evaluate_rpq,
    parse_nre,
)
from repro.translations import (
    gxpath_node_to_trial,
    gxpath_to_trial,
    nre_to_trial,
    rpq_to_trial,
)
from repro.workloads.generators import random_graph

LABELS = ("a", "b")


@st.composite
def path_exprs(draw, depth: int = 3):
    if depth <= 0:
        kind = draw(st.sampled_from(("axis", "axis", "eps")))
    else:
        kind = draw(
            st.sampled_from(
                ("axis", "eps", "concat", "union", "star", "compl", "test", "data")
            )
        )
    if kind == "axis":
        return Axis(draw(st.sampled_from(LABELS)), draw(st.booleans()))
    if kind == "eps":
        return Eps()
    if kind == "concat":
        return Concat(draw(path_exprs(depth=depth - 1)), draw(path_exprs(depth=depth - 1)))
    if kind == "union":
        return PathUnion(draw(path_exprs(depth=depth - 1)), draw(path_exprs(depth=depth - 1)))
    if kind == "star":
        return StarPath(draw(path_exprs(depth=depth - 1)))
    if kind == "compl":
        return PathComplement(draw(path_exprs(depth=depth - 1)))
    if kind == "test":
        return Test(draw(node_exprs(depth=depth - 1)))
    return DataPathTest(draw(path_exprs(depth=depth - 1)), draw(st.booleans()))


@st.composite
def node_exprs(draw, depth: int = 2):
    if depth <= 0:
        return Top()
    kind = draw(st.sampled_from(("top", "not", "and", "or", "haspath", "datatest")))
    if kind == "top":
        return Top()
    if kind == "not":
        return NodeNot(draw(node_exprs(depth=depth - 1)))
    if kind == "and":
        return NodeAnd(draw(node_exprs(depth=depth - 1)), draw(node_exprs(depth=depth - 1)))
    if kind == "or":
        return NodeOr(draw(node_exprs(depth=depth - 1)), draw(node_exprs(depth=depth - 1)))
    if kind == "haspath":
        return HasPath(draw(path_exprs(depth=depth - 1)))
    return DataNodeTest(
        draw(path_exprs(depth=depth - 1)),
        draw(path_exprs(depth=depth - 1)),
        draw(st.booleans()),
    )


@given(path_exprs(), st.integers(0, 2 ** 31 - 1))
@example(Concat(StarPath(Axis("a")), PathComplement(Axis("b"))), 20)
@settings(max_examples=80, deadline=None)
def test_gxpath_path_translation(expr, seed):
    """Theorem 7 + Corollary 4: π₁,₃(e_α(T_G)) = α(G)."""
    g = random_graph(5, 8, labels=LABELS, seed=seed)
    want = evaluate_gxpath(g, expr)
    got = project13(evaluate(gxpath_to_trial(expr), g.to_triplestore()))
    assert want == got


@given(node_exprs(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_gxpath_node_translation(expr, seed):
    g = random_graph(5, 8, labels=LABELS, seed=seed)
    want = evaluate_gxpath_nodes(g, expr)
    got = {s for s, _, _ in evaluate(gxpath_node_to_trial(expr), g.to_triplestore())}
    assert want == got


@pytest.mark.parametrize(
    "text",
    ["a", "a.b", "a.[b].a", "(a+b)*", "a-.b*", "a.[b-.a]*", "a.[b].(a+b)*"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nre_translation(text, seed):
    """Corollary 2 for NREs."""
    g = random_graph(6, 10, labels=LABELS, seed=seed)
    nre = parse_nre(text)
    want = evaluate_nre(g, nre)
    got = project13(evaluate(nre_to_trial(nre), g.to_triplestore()))
    assert want == got


@pytest.mark.parametrize("regex", ["a", "a.b*", "(a+b)*", "a-.(b+a)", "(a+b)*.a"])
@pytest.mark.parametrize("seed", [0, 3])
def test_rpq_translation(regex, seed):
    """Corollary 2 for (2)RPQs."""
    g = random_graph(6, 10, labels=LABELS, seed=seed)
    want = evaluate_rpq(g, regex)
    got = project13(evaluate(rpq_to_trial(regex), g.to_triplestore()))
    assert want == got
