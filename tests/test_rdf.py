"""Tests for RDF documents, the mini N-Triples dialect and σ details."""

import pytest

from repro.errors import ParseError
from repro.graphdb import evaluate_nre, parse_nre
from repro.rdf import (
    RDFGraph,
    figure1,
    parse_ntriples,
    serialize_ntriples,
    sigma,
    sigma_preimage_candidates,
)


class TestRDFGraph:
    DOC = RDFGraph([("s", "p", "o"), ("p", "q", "o")])

    def test_resources(self):
        assert self.DOC.resources() == {"s", "p", "o", "q"}

    def test_role_accessors(self):
        assert self.DOC.subjects() == {"s", "p"}
        assert self.DOC.predicates() == {"p", "q"}
        assert self.DOC.objects() == {"o"}

    def test_set_ops(self):
        extended = self.DOC.union(RDFGraph([("a", "b", "c")]))
        assert len(extended) == 3
        assert extended.without(("a", "b", "c")) == self.DOC

    def test_to_from_triplestore(self):
        store = self.DOC.to_triplestore()
        assert RDFGraph.from_triplestore(store) == self.DOC

    def test_middle_as_subject_allowed(self):
        """The RDF hallmark: predicates may be subjects elsewhere."""
        assert ("p", "q", "o") in self.DOC


class TestNTriples:
    def test_parse_angle_brackets(self):
        doc = parse_ntriples("<a> <b> <c> .\n<d> <e> <f> .")
        assert ("a", "b", "c") in doc and len(doc) == 2

    def test_parse_bare_tokens(self):
        doc = parse_ntriples("TrainOp1 part_of EastCoast .")
        assert ("TrainOp1", "part_of", "EastCoast") in doc

    def test_comments_and_blanks(self):
        doc = parse_ntriples("# nothing\n\n<a> <b> <c> .")
        assert len(doc) == 1

    def test_roundtrip(self):
        doc = RDFGraph(figure1().relation("E"))
        assert parse_ntriples(serialize_ntriples(doc)) == doc

    def test_wrong_term_count(self):
        with pytest.raises(ParseError):
            parse_ntriples("<a> <b> .")

    @pytest.mark.parametrize(
        "line, offset", [("<a> <b> .", 8), ("<a> <b> <c> <d> .", 12), ("a.b c d", 1)]
    )
    def test_a_parse_error_names_its_line_and_offset(self, line, offset):
        with pytest.raises(ParseError, match="line 2: expected 3 terms") as err:
            parse_ntriples(f"<x> <y> <z> .\n{line}\n")
        assert err.value.text == line
        assert err.value.pos == offset


class TestSigmaDetails:
    def test_edge_set_shape(self):
        doc = RDFGraph([("s", "p", "o")])
        g = sigma(doc)
        assert g.edges == {
            ("s", "edge", "p"), ("p", "node", "o"), ("s", "next", "o")
        }
        assert g.nodes == {"s", "p", "o"}

    def test_preimage_of_injective_doc(self):
        doc = RDFGraph([("s", "p", "o")])
        assert sigma_preimage_candidates(sigma(doc)) == doc

    def test_preimage_overapproximates_on_collision(self):
        # Two triples sharing s and p create a spurious candidate when
        # another (s, p', o') exists with crossing next/node edges.
        doc = RDFGraph([("s", "p", "o1"), ("s", "q", "o2"), ("t", "p", "o2"), ("t", "q", "o1")])
        candidates = sigma_preimage_candidates(sigma(doc))
        assert doc.triples <= candidates.triples
        assert len(candidates) > len(doc)

    def test_figure2_fragment(self):
        """Figure 2's fragment: London/TrainOp2/Brussels + part_of/Eurostar."""
        doc = RDFGraph(
            [
                ("London", "Train Op 2", "Brussels"),
                ("Train Op 2", "part_of", "Eurostar"),
            ]
        )
        g = sigma(doc)
        assert ("London", "edge", "Train Op 2") in g.edges
        assert ("Train Op 2", "node", "Brussels") in g.edges
        assert ("London", "next", "Brussels") in g.edges
        assert ("Train Op 2", "next", "Eurostar") in g.edges

    def test_nre_on_sigma_finds_operators(self):
        """Navigation over σ(D): city --edge--> operator --next--> company."""
        doc = RDFGraph(figure1().relation("E"))
        g = sigma(doc)
        assert len(g.edges) <= 3 * len(doc)  # three edges per triple at most
        got = evaluate_nre(g, parse_nre("edge.next"))
        assert ("Edinburgh", "EastCoast") in got
