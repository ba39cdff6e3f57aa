"""Golden-file tests for the explain report: ``repro explain``'s text
and its ``--json`` data.

Plan *shape* regressions — a lost index lookup, a flipped build side, a
reach star degrading to a generic fixpoint — should be caught in review
as a readable golden-file diff, not weeks later by a benchmark.  The
goldens pin the full explain output (header + operator tree with cost
estimates, then any violation or finding) for a fixed store whose
statistics are deterministic.  Every
backend compiles the same plan, so only the set backend has golden
files; the columnar and sharded renders must match them below the
header lines that name the backend.

To regenerate after an intentional planner change::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_explain_golden.py
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import explain_report
from repro.core.engines.hashjoin import FastEngine
from repro.core.engines.sharded import ShardedEngine
from repro.core.engines.vectorized import VectorEngine
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
    # Shard count pinned: the goldens must not depend on DEFAULT_SHARDS.
    "sharded": lambda: ShardedEngine(shards=4),
}


def _render(query: str, backend: str) -> str:
    report = explain_report(parse(query), GOLDEN_STORE, BACKENDS[backend]())
    return report.text() + "\n"


def _render_json(query: str, backend: str) -> str:
    report = explain_report(parse(query), GOLDEN_STORE, BACKENDS[backend]())
    return report.to_json() + "\n"


#: The lines above the plan that name who compiled it and what runs it.
_HEADER_PREFIXES = ("compiled by:", "backend    :")


def _below_header(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith(_HEADER_PREFIXES)
    )


def _json_below_header(text: str) -> dict:
    data = json.loads(text)
    del data["compiled_by"], data["backend"]
    return data


def _golden(name: str, suffix: str, rendered: str) -> str:
    path = os.path.join(GOLDEN_DIR, f"{name}_set.{suffix}")
    if os.environ.get("UPDATE_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(rendered)
        pytest.skip(f"regenerated {path}")
    with open(path, encoding="utf-8") as fp:
        return fp.read()


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("name,query", CASES, ids=[c[0] for c in CASES])
def test_explain_json_matches_golden(name, query, backend):
    """The report's data form (``explain --json``) is pinned like the text.

    Only the set backend has golden files: every backend compiles the
    same plan, so the columnar and sharded reports must equal the set
    golden in everything but the header fields naming the backend.
    Every golden must parse as JSON regardless of drift, so a rendering
    bug can never hide behind an UPDATE_GOLDEN refresh.
    """
    rendered = _render_json(query, backend)
    json.loads(rendered)
    if backend != "set":
        expected = _json_below_header(_golden(name, "json", _render_json(query, "set")))
        assert _json_below_header(rendered) == expected, (
            f"the {backend} explain report differs from the set backend's "
            "below its header; every backend must explain the same plan"
        )
        return
    expected = _golden(name, "json", rendered)
    assert rendered == expected, (
        f"explain --json output drifted from {name}_set.json; if the plan "
        "change is intentional, regenerate with UPDATE_GOLDEN=1"
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("name,query", CASES, ids=[c[0] for c in CASES])
def test_explain_text_matches_golden(name, query, backend):
    rendered = _render(query, backend)
    if backend != "set":
        expected = _below_header(_golden(name, "txt", _render(query, "set")))
        assert _below_header(rendered) == expected, (
            f"the {backend} explain text differs from the set backend's "
            "below its header; every backend must explain the same plan"
        )
        return
    expected = _golden(name, "txt", rendered)
    assert rendered == expected, (
        f"explain output drifted from {name}_set.txt; if the plan "
        "change is intentional, regenerate with UPDATE_GOLDEN=1"
    )


def test_goldens_differ_between_backends():
    """Backends differ in their explain headers, and only there."""
    query = "star[1,2,3'; 3=1'](E)"
    headers = {
        backend: [
            line
            for line in _render(query, backend).splitlines()
            if line.startswith(_HEADER_PREFIXES)
        ]
        for backend in BACKENDS
    }
    assert headers == {
        "set": ["compiled by: FastEngine"],
        "columnar": ["compiled by: VectorEngine", "backend    : columnar"],
        "sharded": [
            "compiled by: ShardedEngine",
            "backend    : sharded(4-way, key position 1)",
        ],
    }
    reports = {backend: json.loads(_render_json(query, backend)) for backend in BACKENDS}
    assert {b: (r["compiled_by"], r["backend"]) for b, r in reports.items()} == {
        "set": ("FastEngine", "set"),
        "columnar": ("VectorEngine", "columnar"),
        "sharded": ("ShardedEngine", "sharded(4-way, key position 1)"),
    }
