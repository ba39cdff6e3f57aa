"""Query inspection: fragments, cost features and engine advice.

``explain(expr)`` produces a structured report a client (or the CLI)
can use to pick an engine and predict cost, mirroring how the paper's
Section 5 carves evaluation guarantees by fragment:

* fragment membership (TriAL / TriAL= / TriAL* / reachTA= / semijoin);
* which complexity guarantee from the paper applies;
* structural features that drive cost (star count, U/complement use,
  inequality conditions, expression size);
* a recommended engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.expressions import (
    Diff,
    Expr,
    Join,
    Star,
    Universe,
    in_reach_ta_eq,
    in_trial,
    in_trial_eq,
    is_equality_only,
    star_is_reach,
)
from repro.core.semijoin import in_semijoin_algebra

__all__ = ["Explanation", "compile_for_explain", "explain", "explain_physical"]


@dataclass(frozen=True)
class Explanation:
    """A static analysis of one TriAL(*) expression."""

    expression: str
    size: int
    relations: tuple[str, ...]
    recursive: bool
    n_stars: int
    n_reach_stars: int
    uses_universe: bool
    uses_complement: bool
    equality_only: bool
    fragment: str
    guarantee: str
    recommended_engine: str

    def summary(self) -> str:
        """A human-readable multi-line report."""
        lines = [
            f"expression : {self.expression}",
            f"size |e|   : {self.size}",
            f"relations  : {', '.join(self.relations) or '(none)'}",
            f"fragment   : {self.fragment}",
            f"guarantee  : {self.guarantee}",
            f"engine     : {self.recommended_engine}",
        ]
        flags = []
        if self.recursive:
            flags.append(f"{self.n_stars} star(s), {self.n_reach_stars} reach-shaped")
        if self.uses_universe:
            flags.append("materialises U (cubic in |O|)")
        if self.uses_complement:
            flags.append("uses complement")
        if not self.equality_only:
            flags.append("inequality conditions")
        if flags:
            lines.append(f"notes      : {'; '.join(flags)}")
        return "\n".join(lines)


def _fragment_of(expr: Expr) -> tuple[str, str, str]:
    """(fragment name, paper guarantee, recommended engine)."""
    if in_reach_ta_eq(expr):
        if in_trial_eq(expr):
            if in_semijoin_algebra(expr):
                return (
                    "semijoin algebra (⊆ TriAL=)",
                    "O(|e|·|O|·|T|) — Proposition 4",
                    "FastEngine",
                )
            return ("TriAL=", "O(|e|·|O|·|T|) — Proposition 4", "FastEngine")
        return ("reachTA=", "O(|e|·|O|·|T|) — Proposition 5", "FastEngine")
    if in_trial(expr):
        return ("TriAL", "O(|e|·|T|²) — Theorem 3", "HashJoinEngine")
    if is_equality_only(expr):
        return (
            "TriAL*= (equality-only, general stars)",
            "O(|e|·|O|·|T|²) — Section 5 remark",
            "FastEngine",
        )
    return ("TriAL*", "O(|e|·|T|³) — Theorem 3", "HashJoinEngine")


def explain(expr: Expr) -> Explanation:
    """Analyse an expression statically.

    >>> from repro.core import query_q
    >>> explain(query_q()).fragment
    'TriAL*= (equality-only, general stars)'
    """
    stars = [n for n in expr.walk() if isinstance(n, Star)]
    uses_universe = any(isinstance(n, Universe) for n in expr.walk())
    uses_complement = any(
        isinstance(n, Diff) and isinstance(n.left, Universe) for n in expr.walk()
    )
    fragment, guarantee, engine = _fragment_of(expr)
    if uses_universe and engine == "FastEngine":
        # U dominates; the fragment guarantee still holds but warn via
        # the flags in the summary.
        pass
    return Explanation(
        expression=repr(expr),
        size=expr.size(),
        relations=tuple(sorted(expr.relation_names())),
        recursive=bool(stars),
        n_stars=len(stars),
        n_reach_stars=sum(1 for s in stars if star_is_reach(s)),
        uses_universe=uses_universe,
        uses_complement=uses_complement,
        equality_only=is_equality_only(expr),
        fragment=fragment,
        guarantee=guarantee,
        recommended_engine=engine,
    )


def compile_for_explain(expr: Expr, store=None, engine=None):
    """Compile ``expr`` the way explain output describes it.

    Shared by the text renderer (:func:`explain_physical`) and the
    structured :class:`repro.api.ExplainReport`.  Returns
    ``(report, plan, compiled_by)`` where ``report`` is the static
    :class:`Explanation`, ``plan`` the compiled physical plan and
    ``compiled_by`` the header annotation naming the compiler (with
    caveats when the given engine would not actually run the plan).
    """
    from repro.core.engines.base import PlanEngine
    from repro.core.plan import compile_plan

    report = explain(expr)
    if isinstance(engine, PlanEngine):
        plan = engine.compile(expr, store)
        compiled_by = type(engine).__name__
    else:
        use_reach = report.recommended_engine == "FastEngine"
        plan = compile_plan(expr, store, use_reach=use_reach)
        compiled_by = f"{report.recommended_engine} (recommended)"
        if engine is not None:
            compiled_by += (
                f" — note: {type(engine).__name__} interprets directly "
                "and will not run this plan"
            )
    return report, plan, compiled_by


def explain_physical(expr: Expr, store=None, engine=None) -> str:
    """The physical plan (with cost estimates) for one expression.

    ``store`` anchors cardinality estimates in real statistics; without
    one, the planner's textbook defaults are used and the header says so.
    ``engine`` may be an :class:`~repro.core.engines.base.Engine`
    instance or ``None`` (the recommended engine's compilation is used:
    reach-star routing exactly when the static analysis recommends
    FastEngine).  The plan is the same on every backend; an engine on
    the columnar or sharded backend adds a header line naming it.
    """
    report, plan, compiled_by = compile_for_explain(expr, store, engine)
    lines = [
        f"expression : {report.expression}",
        f"fragment   : {report.fragment}",
        f"compiled by: {compiled_by}",
    ]
    backend = getattr(engine, "backend", None)
    if backend == "columnar":
        lines.append("backend    : columnar (vectorised packed-array execution)")
    elif backend == "sharded":
        lines.append(
            f"backend    : sharded ({engine.shards}-way hash-partitioned "
            f"columnar execution, key position {engine.key_pos + 1})"
        )
    lines += [
        "statistics : "
        + (
            f"store with |T|={len(store)}, |O|={store.n_objects}"
            if store is not None
            else "none (textbook defaults)"
        ),
        "physical plan (rows = output estimate, cost = cumulative):",
        plan.pretty(),
    ]
    return "\n".join(lines)
