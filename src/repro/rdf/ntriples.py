"""A miniature N-Triples-style reader/writer for ground RDF.

Real N-Triples requires ``<uri>`` angle brackets and literals; the paper
only needs ground documents over plain resource names, so the dialect
here accepts both angle-bracketed URIs and bare tokens::

    <StAndrews> <BusOp1> <Edinburgh> .
    TrainOp1 part_of EastCoast .

This substitutes for rdflib's parser: the paper's
formal development never touches literals or blank nodes, so the
behaviour-relevant surface — a set of ground triples — is preserved.
"""

from __future__ import annotations

import re

from repro.core.scan import LineScanner
from repro.rdf.model import RDFGraph

#: A term: an angle-bracketed URI, or a bare name without ``<>.``.
_TERM = re.compile(r"<[^>]*>|[^\s<>.]+")


def parse_ntriples(text: str) -> RDFGraph:
    """Parse the mini N-Triples dialect into an :class:`RDFGraph`.

    A statement is one line of three terms and an optional final ``.``;
    a line that starts with ``#`` is a comment.
    """
    triples = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        sc = LineScanner(line, lineno)
        if sc.at_end() or sc.peek() == "#":
            continue
        terms = []
        for _ in range(3):
            term = sc.word(_TERM)
            if term is None:
                sc.error("expected 3 terms per statement")
            terms.append(term[1:-1] if term.startswith("<") else term)
        sc.match(".")
        sc.end("expected 3 terms per statement")
        triples.append(tuple(terms))
    return RDFGraph(triples)


def serialize_ntriples(graph: RDFGraph) -> str:
    """Deterministic serialisation (sorted, angle-bracketed)."""
    lines = [
        f"<{s}> <{p}> <{o}> ." for s, p, o in sorted(graph.triples, key=repr)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
