"""Synthetic triplestore and graph workloads for tests and benchmarks.

The generators are deterministic under a seed and sized by simple knobs,
so |T| and |O| can be swept independently — the Theorem 3 /
Proposition 4–5 work counts in ``tests/test_scaling.py`` do.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.graphdb.model import GraphDB
from repro.triplestore.model import Triple, Triplestore


def random_store(
    n_objects: int,
    n_triples: int,
    n_relations: int = 1,
    data_values: Sequence = (0, 1),
    seed: int = 0,
) -> Triplestore:
    """Uniformly random triples over ``n_objects`` objects.

    ``n_triples`` is a target; duplicates collapse, so the store may be
    slightly smaller.
    """
    rng = random.Random(seed)
    objs = [f"o{i}" for i in range(n_objects)]
    relations: dict[str, set[Triple]] = {}
    names = ["E"] if n_relations == 1 else [f"E{i}" for i in range(n_relations)]
    for name in names:
        triples = {
            (rng.choice(objs), rng.choice(objs), rng.choice(objs))
            for _ in range(n_triples // len(names))
        }
        relations[name] = triples
    rho = {o: rng.choice(list(data_values)) for o in objs}
    return Triplestore(relations, rho)


def chain_store(n: int, label_cycle: int = 1) -> Triplestore:
    """A chain o0 → o1 → … with middles cycling over ``label_cycle`` labels.

    Worst-ish case for reachability stars: the closure is quadratic in n.
    """
    triples = [
        (f"o{i}", f"l{i % label_cycle}", f"o{i + 1}") for i in range(n)
    ]
    return Triplestore(triples)


def cycle_store(n: int, label: str = "l") -> Triplestore:
    """A directed cycle of n objects with one shared middle label."""
    triples = [(f"o{i}", label, f"o{(i + 1) % n}") for i in range(n)]
    return Triplestore(triples)


def clique_graph(n: int, label: str = "a", distinct_data: bool = True) -> GraphDB:
    """A complete ``label``-graph; node data values distinct or shared."""
    nodes = [f"v{i}" for i in range(n)]
    edges = [(u, label, v) for u in nodes for v in nodes if u != v]
    rho = {v: (i if distinct_data else 0) for i, v in enumerate(nodes)}
    return GraphDB(nodes, edges, rho)


def random_graph(
    n_nodes: int,
    n_edges: int,
    labels: Sequence[str] = ("a", "b"),
    data_values: Sequence = (0, 1, 2),
    seed: int = 0,
) -> GraphDB:
    """A random edge-labelled graph with data values, no isolated nodes.

    Nodes that would be isolated are dropped (the GXPath → TriAL*
    translation sees only edge endpoints; see translations docs).
    """
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(n_nodes)]
    edges = {
        (rng.choice(nodes), rng.choice(list(labels)), rng.choice(nodes))
        for _ in range(n_edges)
    }
    used = {u for u, _, _ in edges} | {v for _, _, v in edges}
    rho = {v: rng.choice(list(data_values)) for v in used}
    return GraphDB(used, edges, rho)
