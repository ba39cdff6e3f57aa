"""The set-backed plan engines — the library's default executors.

Expressions are compiled to a physical plan (:mod:`repro.core.plan`) and
executed tuple-at-a-time over Python sets: the planner picks hash-join
build sides from store statistics, serves base-relation build sides from
the store's cached indexes, and hoists the constant operand of a Kleene
star out of the fixpoint loop.  Kleene stars use semi-naive fixpoint
iteration — only the triples produced in the previous round are
re-joined with the base relation — which is semantically identical to
the paper's levels ``∅ ∪ e ∪ e✶e ∪ (e✶e)✶e ∪ …`` because the triple
join distributes over union in either argument.  Identical
sub-expressions compile to one shared plan node and run once per
evaluation (the AST is hashable precisely for this purpose).

The two engines here differ in one compile-time decision — the paper's
generic-fixpoint vs Proposition 5 comparison:

* :class:`HashJoinEngine` keeps the generic fixpoint for every star, so
  it stays the pure hash-join baseline;
* :class:`FastEngine` routes any star matching one of the two reachTA=
  patterns to the specialised reachability algorithms of
  :mod:`repro.core.engines.reach` (a
  :class:`~repro.core.plan.ReachStarOp` in the plan).  In ``strict``
  mode it refuses to compile expressions outside reachTA= (inequalities
  or general stars) with a :class:`~repro.errors.FragmentError` — useful
  when a caller wants the ``O(|e|·|O|·|T|)`` guarantee rather than best
  effort.  In non-strict mode (default) the unsupported parts silently
  run the generic algorithms, so it is a drop-in accelerated
  replacement for :class:`HashJoinEngine`.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import FragmentError
from repro.core.expressions import Expr, in_reach_ta_eq
from repro.core.engines.base import PlanEngine
from repro.core.plan import PlanOp
from repro.triplestore.model import Triplestore

__all__ = ["FastEngine", "HashJoinEngine"]


class HashJoinEngine(PlanEngine):
    """Cost-based plans + hash joins + generic semi-naive fixpoints."""

    use_reach = False


class FastEngine(PlanEngine):
    """Hash joins + Proposition 5 reachability stars.

    Parameters
    ----------
    strict:
        When True, compiling anything outside reachTA= raises
        :class:`FragmentError` instead of falling back — on every route
        to a plan (``evaluate``, ``Database.query``/``prepare``/
        ``explain``), since they all compile here.
    """

    def __init__(self, max_universe_objects: int = 400, strict: bool = False) -> None:
        super().__init__(max_universe_objects)
        self.strict = strict

    def compile(self, expr: Expr, store: Optional[Triplestore] = None) -> PlanOp:
        # Membership looks only at condition operators and star shapes,
        # so the constant-canonicalized expression Database compiles
        # gets the verdict of the expression the user wrote.
        if self.strict and not in_reach_ta_eq(expr):
            raise FragmentError(
                "expression is outside reachTA= (inequality conditions or a "
                "general Kleene star); use HashJoinEngine or strict=False"
            )
        return super().compile(expr, store)
