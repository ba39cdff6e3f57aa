"""E2/E3: Proposition 1 and Theorem 1, run constructively.

The paper's argument: D₁ ≠ D₂ (D₂ lacks one triple), yet σ(D₁) = σ(D₂).
Every query over the σ-encoding — every NRE, and nSPARQL's axis-based
navigation — therefore answers identically on D₁ and D₂; but query Q
(in TriAL*) distinguishes them, since (St Andrews, London) ∈ Q(D₁) and
∉ Q(D₂).
"""

from repro.core import evaluate, project13, query_q
from repro.graphdb import evaluate_nre, parse_nre
from repro.rdf import (
    RDFGraph,
    Self,
    evaluate_nsparql_nre,
    proposition1_d1,
    proposition1_d2,
    sigma,
    sigma_is_lossless_for,
)

D1_STORE = proposition1_d1()
D2_STORE = proposition1_d2()
D1 = RDFGraph(D1_STORE.relation("E"))
D2 = RDFGraph(D2_STORE.relation("E"))

SAMPLE_NRES = [
    "next",
    "edge",
    "node",
    "next*",
    "next.[edge.node].next",
    "edge.node",
    "(next+edge)*",
    "next.[node-].edge*",
    "next-.next",
    "next.[edge.next].next*",
]


class TestProposition1:
    def test_documents_differ(self):
        assert D1 != D2
        assert ("Edinburgh", "Train Op 1", "London") in D1
        assert ("Edinburgh", "Train Op 1", "London") not in D2

    def test_sigma_collision(self):
        """The heart of Prop 1: σ(D₁) = σ(D₂)."""
        assert sigma(D1) == sigma(D2)

    def test_sigma_is_lossy_on_d2(self):
        """D₂'s σ-image decodes back to D₁ (the maximal preimage)."""
        assert not sigma_is_lossless_for(D2)
        assert sigma_is_lossless_for(D1)

    def test_every_nre_agrees_on_the_encodings(self):
        g1, g2 = sigma(D1), sigma(D2)
        for text in SAMPLE_NRES:
            nre = parse_nre(text)
            assert evaluate_nre(g1, nre) == evaluate_nre(g2, nre), text

    def test_query_q_distinguishes(self):
        """Q (TriAL*) tells D₁ from D₂ where σ-based languages cannot."""
        q1 = project13(evaluate(query_q(), D1_STORE))
        q2 = project13(evaluate(query_q(), D2_STORE))
        assert ("St. Andrews", "London") in q1
        assert ("St. Andrews", "London") not in q2


class TestTheorem1:
    def test_axis_semantics_agree_with_sigma_evaluation(self):
        """The footnote semantics: axis-NREs over D = NREs over σ(D)."""
        for text in SAMPLE_NRES:
            nre = parse_nre(text)
            native = evaluate_nsparql_nre(D1, nre)
            over_sigma = evaluate_nre(sigma(D1), nre)
            assert native == over_sigma, text

    def test_nsparql_cannot_distinguish_d1_d2(self):
        for text in SAMPLE_NRES:
            nre = parse_nre(text)
            assert evaluate_nsparql_nre(D1, nre) == evaluate_nsparql_nre(D2, nre)

    def test_self_axis(self):
        nre = Self("Edinburgh")
        assert evaluate_nsparql_nre(D1, nre) == {("Edinburgh", "Edinburgh")}
        assert evaluate_nsparql_nre(D1, Self("nowhere")) == frozenset()

    def test_axis_definition(self):
        doc = RDFGraph([("s", "p", "o")])
        assert evaluate_nsparql_nre(doc, parse_nre("next")) == {("s", "o")}
        assert evaluate_nsparql_nre(doc, parse_nre("edge")) == {("s", "p")}
        assert evaluate_nsparql_nre(doc, parse_nre("node")) == {("p", "o")}

    def test_unknown_axis_rejected(self):
        import pytest

        from repro.errors import GraphError

        with pytest.raises(GraphError):
            evaluate_nsparql_nre(D1, parse_nre("sideways"))
