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

from repro.errors import ParseError
from repro.rdf.model import RDFGraph

_TOKEN_RE = re.compile(r"<([^>]*)>|([^\s<>.]+)")


def _tokens(line: str) -> list[str]:
    out = []
    pos = 0
    line = line.strip()
    if line.endswith("."):
        line = line[:-1]
    while pos < len(line):
        if line[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(line, pos)
        if not m:
            raise ParseError("bad N-Triples token", line, pos)
        out.append(m.group(1) if m.group(1) is not None else m.group(2))
        pos = m.end()
    return out


def parse_ntriples(text: str) -> RDFGraph:
    """Parse the mini N-Triples dialect into an :class:`RDFGraph`."""
    triples = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = _tokens(stripped)
        if len(tokens) != 3:
            raise ParseError(
                f"line {lineno}: expected 3 terms per statement, got {len(tokens)}"
            )
        triples.append(tuple(tokens))
    return RDFGraph(triples)


def serialize_ntriples(graph: RDFGraph) -> str:
    """Deterministic serialisation (sorted, angle-bracketed)."""
    lines = [
        f"<{s}> <{p}> <{o}> ." for s, p, o in sorted(graph.triples, key=repr)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
