"""repro — a full reproduction of *TriAL for RDF* (Libkin, Reutter,
Vrgoč; PODS 2013).

The package implements the paper's Triple Algebra (TriAL) and its
recursive extension TriAL* over triplestores, the Datalog fragments
capturing them, three evaluation engines matching the paper's complexity
analysis, and every comparison language of Sections 2 and 6 (RPQs, NREs,
GXPath(∼), CNREs, FOᵏ, TrCl, nSPARQL-style navigation, register
automata), plus the σ graph encoding of RDF and all of the paper's
worked examples as datasets.

Quickstart::

    from repro import Triplestore, evaluate, query_q, project13
    from repro.rdf import figure1

    pairs = project13(evaluate(query_q(), figure1()))
    ("Edinburgh", "London") in pairs   # True
    ("St. Andrews", "Brussels") in pairs   # False — needs two companies

See ARCHITECTURE.md for the system inventory;
``tests/test_paper_examples.py`` reproduces the worked examples and
``tests/test_scaling.py`` counts the work Theorem 3 and Propositions
4–5 bound.
"""

import importlib
import sys

#: The one version declaration (pyproject.toml reads it from here).
__version__ = "7.0.0"


def _lazy_exports(package: str, homes: dict[str, str]):
    """``(__all__, __getattr__, __dir__)`` for a package whose public
    names are imported from their home modules on first use (PEP 562).

    ``homes`` maps each home module to the names, space-separated, that
    the package exports from it.  A name is looked up in its module the
    first time it is asked for and then kept in the package's namespace,
    so every later access is a plain attribute read and ``from package
    import name`` returns the home module's own object.  Importing the
    package itself imports none of its modules: a process loads only the
    code it uses.
    """
    where = {name: module for module, names in homes.items() for name in names.split()}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *where})

    return sorted(where), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.api": "ExplainReport PreparedStatement ResultSet",
        "repro.core": "evaluate project13",
        "repro.core.builder": "R complement example2_expr example2_extended join lstar "
        "query_q reach_down reach_forward select star",
        "repro.core.conditions": "Cond",
        "repro.core.engines.base": "Engine",
        "repro.core.engines.hashjoin": "FastEngine HashJoinEngine",
        "repro.core.engines.naive": "NaiveEngine",
        "repro.core.expressions": "Diff Expr Intersect Join Rel Select Star Union Universe",
        "repro.core.parser": "parse",
        "repro.core.positions": "Const Param Pos",
        "repro.db": "Database",
        "repro.errors": "ReproError",
        "repro.triplestore.model": "Triplestore",
    },
)
__all__.append("__version__")
