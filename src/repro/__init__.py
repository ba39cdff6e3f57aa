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

from repro.core import (
    Cond,
    Const,
    Diff,
    Engine,
    Expr,
    FastEngine,
    HashJoinEngine,
    Intersect,
    Join,
    NaiveEngine,
    Pos,
    R,
    Rel,
    Select,
    Star,
    Union,
    Universe,
    complement,
    evaluate,
    example2_expr,
    example2_extended,
    join,
    lstar,
    parse,
    project13,
    query_q,
    reach_down,
    reach_forward,
    select,
    star,
)
from repro.api import ExplainReport, PreparedStatement, ResultSet
from repro.core.positions import Param
from repro.db import Database
from repro.errors import ReproError
from repro.triplestore import Triplestore

#: The one version declaration (pyproject.toml reads it from here).
__version__ = "7.0.0"

__all__ = [
    "Cond",
    "Const",
    "Database",
    "Diff",
    "Engine",
    "ExplainReport",
    "Expr",
    "FastEngine",
    "HashJoinEngine",
    "Intersect",
    "Join",
    "NaiveEngine",
    "Param",
    "Pos",
    "PreparedStatement",
    "R",
    "Rel",
    "ResultSet",
    "ReproError",
    "Select",
    "Star",
    "Triplestore",
    "Union",
    "Universe",
    "__version__",
    "complement",
    "evaluate",
    "example2_expr",
    "example2_extended",
    "join",
    "lstar",
    "parse",
    "project13",
    "query_q",
    "reach_down",
    "reach_forward",
    "select",
    "star",
]
