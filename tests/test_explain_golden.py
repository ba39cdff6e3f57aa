"""Golden-file tests for ``explain --physical`` on both backends.

Plan *shape* regressions — a lost index lookup, a flipped build side, a
reach star degrading to a generic fixpoint, a dense/sparse lowering
change — should be caught in review as a readable golden-file diff, not
weeks later by a benchmark.  The goldens pin the full explain output
(header + operator tree with cost estimates) for a fixed store whose
statistics are deterministic.

To regenerate after an intentional planner change::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_explain_golden.py
"""

from __future__ import annotations

import os

import pytest

from repro.core.engines.hashjoin import FastEngine
from repro.core.engines.sharded import ShardedEngine
from repro.core.engines.vectorized import VectorEngine
from repro.core.explain import explain_physical
from repro.core.parser import parse
from repro.triplestore.model import Triplestore

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: Fixed store: two relations, repeated labels, a ρ with collisions.
GOLDEN_STORE = Triplestore(
    {
        "E": [
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("c", "q", "a"),
            ("a", "q", "c"),
            ("d", "p", "a"),
        ],
        "F": [("b", "r", "d"), ("c", "r", "d")],
    },
    rho={"a": 0, "b": 1, "c": 0, "d": 1, "p": 0, "q": 1, "r": 0},
)

#: (name, query) pairs covering the plan shapes worth pinning.
CASES = [
    ("indexed_select", "select[2='p' & rho(1)=rho(3)](E)"),
    ("join_chain", "join[1,2,3'; 3=1'](join[1,2,3'; 3=1'](E, E), E)"),
    ("eta_join", "join[1,3',3; 2=1' & rho(2)=rho(2')](E, F)"),
    ("reach_star", "star[1,2,3'; 3=1'](E)"),
    ("general_star", "star[1,2,2'; 3=1' & 1!=3'](E)"),
    ("set_ops", "((E | F) - select[1=3](E))"),
]

BACKENDS = {
    "set": lambda: FastEngine(),
    "columnar": lambda: VectorEngine(),
    # Shard count pinned: the goldens must not depend on REPRO_SHARDS.
    "sharded": lambda: ShardedEngine(shards=4),
}


def _render(query: str, backend: str) -> str:
    expr = parse(query)
    engine = BACKENDS[backend]()
    return explain_physical(expr, GOLDEN_STORE, engine=engine) + "\n"


def _render_json(query: str, backend: str) -> str:
    from repro.api import explain_report

    expr = parse(query)
    engine = BACKENDS[backend]()
    return explain_report(expr, GOLDEN_STORE, engine=engine).to_json() + "\n"


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("name,query", CASES, ids=[c[0] for c in CASES])
def test_explain_json_matches_golden(name, query, backend):
    """The structured report (``explain --json``) is pinned like the text.

    Every golden must parse as JSON regardless of drift, so a rendering
    bug can never hide behind an UPDATE_GOLDEN refresh.
    """
    import json

    rendered = _render_json(query, backend)
    json.loads(rendered)
    path = os.path.join(GOLDEN_DIR, f"{name}_{backend}.json")
    if os.environ.get("UPDATE_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(rendered)
        pytest.skip(f"regenerated {path}")
    with open(path, encoding="utf-8") as fp:
        expected = fp.read()
    assert rendered == expected, (
        f"explain --json output drifted from {path}; if the plan "
        "change is intentional, regenerate with UPDATE_GOLDEN=1"
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("name,query", CASES, ids=[c[0] for c in CASES])
def test_explain_physical_matches_golden(name, query, backend):
    rendered = _render(query, backend)
    path = os.path.join(GOLDEN_DIR, f"{name}_{backend}.txt")
    if os.environ.get("UPDATE_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(rendered)
        pytest.skip(f"regenerated {path}")
    with open(path, encoding="utf-8") as fp:
        expected = fp.read()
    assert rendered == expected, (
        f"explain --physical output drifted from {path}; if the plan "
        "change is intentional, regenerate with UPDATE_GOLDEN=1"
    )


def test_goldens_differ_between_backends():
    """The columnar goldens must actually show the lowering (not be copies)."""
    rendered_set = _render("star[1,2,3'; 3=1'](E)", "set")
    rendered_col = _render("star[1,2,3'; 3=1'](E)", "columnar")
    assert rendered_set != rendered_col
    assert "[dense]" in rendered_col or "[sparse]" in rendered_col
    assert "backend    : columnar" in rendered_col


def test_sharded_goldens_show_join_strategies():
    """The sharded goldens must show the shard lowering annotations."""
    rendered = _render("join[1,2,3'; 3=1'](join[1,2,3'; 3=1'](E, E), E)", "sharded")
    assert "backend    : sharded (4-way hash-partitioned" in rendered
    assert "shard=" in rendered
    # A subject-partitioned scan joined on 3=1' has its right operand
    # co-partitioned and its left exchanged.
    assert "shard=repartition(left)" in rendered
