"""Every module the package imports from outside the standard library is
declared in ``pyproject.toml``, so ``pip install`` brings it along.

The imports are read with :mod:`ast` from every file under
``src/repro``: each top-level name of an absolute ``import`` or
``from … import`` that is neither in ``sys.stdlib_module_names`` nor
``repro`` itself must be a runtime dependency of the project.
"""

from __future__ import annotations

import ast
import os
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def imported_roots() -> dict[str, str]:
    """Each non-stdlib top-level module imported under ``src/repro``,
    with one file that imports it."""
    found: dict[str, str] = {}
    for base, _dirs, names in os.walk(os.path.join(ROOT, "src", "repro")):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(base, name)
            with open(path, encoding="utf-8") as fp:
                tree = ast.parse(fp.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.partition(".")[0]
                    if top not in sys.stdlib_module_names and top != "repro":
                        found.setdefault(top, os.path.relpath(path, ROOT))
    return found


def declared() -> set[str]:
    """The distribution names of ``[project] dependencies``, normalised."""
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fp:
        project = tomllib.load(fp)["project"]
    names = (re.match(r"[A-Za-z0-9._-]+", spec).group(0) for spec in project.get("dependencies", []))
    return {re.sub(r"[-_.]+", "_", name).lower() for name in names}


def test_every_third_party_import_is_a_declared_dependency():
    imported = imported_roots()
    assert "numpy" in imported  # the walk sees what the package is built on
    missing = {top: where for top, where in imported.items() if top.lower() not in declared()}
    assert missing == {}, f"imported but not declared in pyproject.toml: {missing}"
