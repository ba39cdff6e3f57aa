"""TriAL / TriAL* — the paper's core contribution.

Quick use::

    from repro.core import R, join, star, evaluate
    from repro.triplestore import Triplestore

    t = Triplestore([("a", "p", "b"), ("b", "q", "c")])
    e = star(R("E"), "1,2,3'", "3=1'")        # Reach→
    evaluate(e, t)
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.core.engines.base import Engine, TripleSet
    from repro.core.expressions import Expr
    from repro.triplestore.model import Triplestore


@functools.cache
def _default_engine() -> Engine:
    from repro.core.engines.hashjoin import HashJoinEngine

    return HashJoinEngine()


def evaluate(expr: Expr, store: Triplestore, engine: Engine | None = None) -> TripleSet:
    """Evaluate ``expr`` over ``store`` (default: the hash-join engine)."""
    return (engine or _default_engine()).evaluate(expr, store)


def project13(triples) -> frozenset:
    """π₁,₃ — the pairs (s, o) of a triple set (Section 6.2's convention
    for using TriAL* as a binary graph query language)."""
    return frozenset((s, o) for s, _, o in triples)


__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.builder": "R complement diagonal distinct_objects_at_least "
        "example2_expr example2_extended example3_left example3_right "
        "intersect_as_join join lstar permute query_q reach_down reach_forward "
        "select star universe universe_as_joins",
        "repro.core.conditions": "Cond",
        "repro.core.engines.registry": "ENGINE_REGISTRY",
        "repro.core.engines.base": "Engine",
        "repro.core.engines.hashjoin": "FastEngine HashJoinEngine",
        "repro.core.engines.naive": "NaiveEngine",
        "repro.core.engines.sharded": "ShardedEngine",
        "repro.core.engines.vectorized": "VectorEngine",
        "repro.core.expressions": "Diff Expr Intersect Join Rel Select Star Union "
        "Universe in_reach_ta_eq in_trial in_trial_eq is_equality_only star_is_reach",
        "repro.core.optimizer": "optimize",
        "repro.core.parser": "parse",
        "repro.core.positions": "Const Pos",
    },
)
__all__ += ["evaluate", "project13"]
