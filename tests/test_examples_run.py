"""Smoke tests: every shipped example runs to completion."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    p for p in (Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys, monkeypatch):
    sys.argv = [str(path)]
    # As `python examples/<name>.py` does: the examples import each other.
    monkeypatch.syspath_prepend(str(path.parent))
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} produced no output"


def test_examples_exist():
    """The deliverable requires at least three runnable examples."""
    assert len(EXAMPLES) >= 3
