"""Engine interface, the one plan engine, and shared semantics helpers.

All engines implement one method, :meth:`Engine.evaluate`, mapping an
expression and a triplestore to a frozen set of triples.  The semantics
is fixed by the paper; engines differ only in algorithmics:

* :class:`~repro.core.engines.naive.NaiveEngine` — the paper's Theorem 3
  algorithm (nested-loop joins, non-semi-naive fixpoints), interpreting
  the expression directly; the oracle every other engine is held to;
* :class:`PlanEngine` — compiles the expression to a physical plan
  (:mod:`repro.core.plan`) and executes it.  Every child compiles the
  same plan; the four public children only declare which execution
  context runs it —
  :class:`~repro.core.engines.hashjoin.HashJoinEngine` (set-backed hash
  joins, generic semi-naive fixpoints),
  :class:`~repro.core.engines.hashjoin.FastEngine` (the same, with the
  Proposition 4/5 ``O(|e|·|O|·|T|)`` reachability operators),
  :class:`~repro.core.engines.vectorized.VectorEngine` (packed columnar
  arrays) and :class:`~repro.core.engines.sharded.ShardedEngine` (their
  k-way hash partition).

Cross-engine agreement is enforced by the property tests in
``tests/test_engines_agree.py`` and the differential harness
(``tests/diffcheck.py``).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Optional

from repro.errors import EvaluationBudgetError
from repro.core.expressions import Expr
from repro.core.plan import ExecContext, PlanOp, compile_plan
from repro.triplestore.model import Triple, Triplestore

TripleSet = frozenset[Triple]


class Engine(ABC):
    """Evaluates Triple Algebra expressions over triplestores.

    Parameters
    ----------
    max_universe_objects:
        Evaluating the universal relation U materialises ``|O_active|^3``
        triples.  Engines refuse when the active domain exceeds this
        limit (default 400) instead of silently exhausting memory.
    """

    #: Which storage representation the engine executes over: ``"set"``
    #: (Python sets of tuples), ``"columnar"`` (packed numpy arrays) or
    #: ``"sharded"`` (their k-way hash partition).
    #: The :class:`~repro.db.Database` facade keys its plan cache on it.
    backend = "set"

    def __init__(self, max_universe_objects: int = 400) -> None:
        self.max_universe_objects = max_universe_objects

    @abstractmethod
    def evaluate(self, expr: Expr, store: Triplestore) -> TripleSet:
        """The relation ``expr(store)``."""

    # ------------------------------------------------------------------ #
    # Shared semantics helpers
    # ------------------------------------------------------------------ #

    def active_domain(self, store: Triplestore) -> frozenset:
        """Objects occurring in some stored triple (the domain of U)."""
        objects: set = set()
        for triple in store.all_triples():
            objects.update(triple)
        return frozenset(objects)

    def universal_relation(self, store: Triplestore) -> TripleSet:
        """U — all triples over the active domain (Section 3)."""
        domain = self.active_domain(store)
        if len(domain) > self.max_universe_objects:
            raise EvaluationBudgetError(
                f"universal relation over {len(domain)} objects would hold "
                f"{len(domain) ** 3} triples (limit {self.max_universe_objects} objects); "
                "raise max_universe_objects to proceed"
            )
        return frozenset(itertools.product(domain, repeat=3))


class PlanEngine(Engine):
    """An engine that runs compiled plans — the one implementation behind
    :class:`HashJoinEngine`, :class:`FastEngine`, :class:`VectorEngine`
    and :class:`ShardedEngine`.

    A subclass declares its configuration: ``use_reach`` and its
    :meth:`context` (which of the three execution contexts runs the
    plan).  Everything else — ``compile``, ``execute_plan`` and
    ``evaluate`` (the two composed) — is owned here once.  Plans are
    cached by :class:`~repro.db.Database`, not by the engine.
    Array backends additionally expose ``execute_plan_keys(plan, store)
    -> (columnar view, packed keys)``, the undecoded twin of
    :meth:`execute_plan`; callers pick it *by presence*, so set-backed
    engines must not grow it.
    """

    #: Route reach-shaped stars to the Prop 4/5 operators when planning?
    use_reach = True

    def context(self, store: Triplestore) -> ExecContext:
        """A fresh execution context over ``store``."""
        return ExecContext(store, self.max_universe_objects)

    def compile(self, expr: Expr, store: Optional[Triplestore] = None) -> PlanOp:
        """The physical plan this engine would execute for ``expr``."""
        return compile_plan(expr, store, use_reach=self.use_reach)

    def execute_plan(self, plan: PlanOp, store: Triplestore) -> TripleSet:
        """Run a compiled plan against a store."""
        return self.context(store).execute(plan)

    def evaluate(self, expr: Expr, store: Triplestore) -> TripleSet:
        return self.execute_plan(self.compile(expr, store), store)


def project_out(left: Triple, right: Triple, out: tuple[int, int, int]) -> Triple:
    """Build the output triple of a join from its two input triples."""
    i, j, k = out
    return (
        left[i] if i < 3 else right[i - 3],
        left[j] if j < 3 else right[j - 3],
        left[k] if k < 3 else right[k - 3],
    )
