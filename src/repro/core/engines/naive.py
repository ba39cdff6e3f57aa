"""The paper-faithful evaluation algorithm of Theorem 3.

Joins are computed by the doubly nested loop of Procedure 1 — every pair
of triples from the two operands is inspected and the condition checked —
so one join costs ``O(|T|^2)`` exactly as the theorem states.  Kleene
stars follow Procedure 2 literally: repeat ``Re := Re ∪ (Re ✶ R1)`` with
a *full* re-join each round (no semi-naive optimisation) until the result
saturates, giving the theorem's ``O(|T|^3)`` bound.

This engine exists for two purposes: to serve as the executable ground
truth closest to the paper's pseudo-code, and to provide the baseline
whose work — pairs examined, counted in ``tests/test_scaling.py`` — the
fragment algorithms of Propositions 4 and 5 are held against.
"""

from __future__ import annotations

from repro.errors import AlgebraError
from repro.core.conditions import Cond
from repro.core.expressions import (
    RIGHT,
    Diff,
    Expr,
    Intersect,
    Join,
    Rel,
    Select,
    Star,
    Union,
    Universe,
)
from repro.core.engines.base import Engine, TripleSet, project_out
from repro.triplestore.model import Triple, Triplestore


class NaiveEngine(Engine):
    """Nested-loop joins and naive fixpoints, per Theorem 3's procedures."""

    def evaluate(self, expr: Expr, store: Triplestore) -> TripleSet:
        return self._eval(expr, store)

    def _eval(self, expr: Expr, store: Triplestore) -> TripleSet:
        if isinstance(expr, Rel):
            return store.relation(expr.name)
        if isinstance(expr, Universe):
            return self.universal_relation(store)
        if isinstance(expr, Select):
            rho = store.rho
            return frozenset(
                t
                for t in self._eval(expr.expr, store)
                if all(c.evaluate(t, None, rho) for c in expr.conditions)
            )
        if isinstance(expr, Union):
            return self._eval(expr.left, store) | self._eval(expr.right, store)
        if isinstance(expr, Diff):
            return self._eval(expr.left, store) - self._eval(expr.right, store)
        if isinstance(expr, Intersect):
            return self._eval(expr.left, store) & self._eval(expr.right, store)
        if isinstance(expr, Join):
            return frozenset(
                self.nested_loop_join(
                    self._eval(expr.left, store),
                    self._eval(expr.right, store),
                    expr.out,
                    expr.conditions,
                    store,
                )
            )
        if isinstance(expr, Star):
            return self._star(expr, store)
        raise AlgebraError(f"unknown expression node {type(expr).__name__}")

    # ------------------------------------------------------------------ #

    def nested_loop_join(
        self,
        left: TripleSet | set[Triple],
        right: TripleSet | set[Triple],
        out: tuple[int, int, int],
        conditions: tuple[Cond, ...],
        store: Triplestore,
    ) -> set[Triple]:
        """Procedure 1: inspect every pair of triples."""
        rho = store.rho
        result: set[Triple] = set()
        for lt in left:
            for rt in right:
                if all(c.evaluate(lt, rt, rho) for c in conditions):
                    result.add(project_out(lt, rt, out))
        return result

    def _star(self, expr: Star, store: Triplestore) -> TripleSet:
        """Procedure 2: saturate ``Re := Re ∪ Re ✶ R1`` (full re-join)."""
        base = self._eval(expr.expr, store)
        acc: set[Triple] = set(base)
        while True:
            if expr.side == RIGHT:
                produced = self.nested_loop_join(
                    acc, base, expr.out, expr.conditions, store
                )
            else:
                produced = self.nested_loop_join(
                    base, acc, expr.out, expr.conditions, store
                )
            if produced <= acc:
                return frozenset(acc)
            acc |= produced
