"""Each process loads only the code it runs.

Packages resolve their public names on first use (PEP 562), and
``cli.py`` imports what a subcommand runs inside that subcommand, so:

* the client (``import repro.service.client``) loads five ``repro``
  modules and no numpy;
* ``repro lint`` and ``repro connect`` load no numpy;
* a served columnar tenant loads no Datalog, graph-language,
  translation, set/naive/sharded engine, text-format, matrix or fsck
  module;
* every module still imports cleanly as an interpreter's first import
  (no import cycle was hidden by an eager init);
* every exported name is its home module's own object.

Every case runs in a fresh interpreter and reads ``sys.modules`` at its
end; nothing here is timed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.db import Database

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(code: str, *args: str) -> list[str]:
    """The sorted ``sys.modules`` of a fresh interpreter that ran ``code``."""
    script = textwrap.dedent(code) + (
        "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def repro_modules(modules: list[str]) -> list[str]:
    return [m for m in modules if m == "repro" or m.startswith("repro.")]


def test_the_client_loads_five_modules_and_no_numpy():
    modules = loaded_after("import repro.service.client")
    assert "numpy" not in modules
    assert repro_modules(modules) == [
        "repro",
        "repro.errors",
        "repro.service",
        "repro.service.client",
        "repro.service.ws",
    ]


@pytest.mark.parametrize(
    "argv", [["lint", "--list-rules"], ["connect", "--help"]], ids=" ".join
)
def test_lint_and_connect_load_no_numpy(argv):
    modules = loaded_after(
        """
        import contextlib, io, sys
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main(sys.argv[1:])
            except SystemExit:
                pass
        """,
        *argv,
    )
    assert "numpy" not in modules


#: What a served columnar tenant never runs.
NOT_SERVED = (
    "repro.datalog",
    "repro.graphdb",
    "repro.translations",
    "repro.core.engines.naive",
    "repro.core.engines.hashjoin",
    "repro.core.engines.sharded",
    "repro.triplestore.io",
    "repro.triplestore.matrix",
    "repro.triplestore.sharded",
    "repro.storage.fsck",
)


def test_a_served_tenant_loads_only_what_it_runs(tmp_path):
    path = str(tmp_path / "store")
    db = Database(path=path)
    db.install("E", [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a")])
    db.close()
    modules = loaded_after(
        """
        import sys
        from repro.db import Database
        from repro.service import QueryServer, ServiceClient, ServiceConfig

        server = QueryServer({"default": Database.open(sys.argv[1])}, ServiceConfig(port=0))
        server.start()
        try:
            with ServiceClient(server.url) as client:
                statement = client.prepare("select[2=$label](E)")["statement"]
                rows = client.execute(statement, params={"label": "p"})["rows"]
            assert sorted(rows) == [["a", "p", "b"], ["b", "p", "c"]], rows
        finally:
            server.stop()
        """,
        path,
    )
    assert "repro.core.engines.vectorized" in modules  # it did run a query
    served = repro_modules(modules)
    assert [m for m in served if m.startswith(NOT_SERVED)] == []


@pytest.mark.parametrize(
    "module",
    ["repro", "repro.db", "repro.cli", "repro.service.server", "repro.storage", "repro.analysis.lint"],
)
def test_each_module_imports_first(module):
    assert module in loaded_after(f"import {module}")


#: The names ``from repro import *`` binds (unchanged by lazy exports).
STAR_NAMES = sorted(
    """Cond Const Database Diff Engine ExplainReport Expr FastEngine
    HashJoinEngine Intersect Join NaiveEngine Param Pos PreparedStatement R
    Rel ResultSet ReproError Select Star Triplestore Union Universe
    __version__ complement evaluate example2_expr example2_extended join
    lstar parse project13 query_q reach_down reach_forward select
    star""".split()
)

#: The home of each exported name that is data, not a class or function.
DATA_HOMES = {
    "DEFAULT_RELATION": "repro.triplestore.model",
    "DEFAULT_STATS": "repro.triplestore.stats",
    "ENGINE_REGISTRY": "repro.core.engines.registry",
    "LINT_RULES": "repro.analysis.invariants",
    "__version__": "repro",
}

#: Every package that resolves its names on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.core.engines",
    "repro.service",
    "repro.storage",
    "repro.triplestore",
)

CHECK_EXPORTS = """
import importlib, pkgutil, sys

import repro

if sys.argv[1] == "after-every-module":
    # A submodule bound as a package attribute must not shadow a name.
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
namespace = {}
exec("from repro import *", namespace)
star = sorted(k for k in namespace if k != "__builtins__")
assert star == sorted(STAR_NAMES), sorted(set(star) ^ set(STAR_NAMES))
for package in LAZY_PACKAGES:
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module)), package
    for name in module.__all__:
        value = getattr(module, name)
        home = DATA_HOMES.get(name) or value.__module__
        if name not in DATA_HOMES:
            assert value.__name__ == name, (package, name, value)
        assert getattr(importlib.import_module(home), name) is value, (package, name)
"""


@pytest.mark.parametrize("order", ["first-use", "after-every-module"])
def test_every_export_is_its_home_modules_object(order):
    loaded_after(
        f"STAR_NAMES = {STAR_NAMES!r}\nDATA_HOMES = {DATA_HOMES!r}\n"
        f"LAZY_PACKAGES = {LAZY_PACKAGES!r}\n{CHECK_EXPORTS}",
        order,
    )


def test_an_unknown_name_is_an_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="'repro.core' has no attribute 'nope'"):
        repro.core.nope  # noqa: B018
