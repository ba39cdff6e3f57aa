"""Static analysis: plan verifier, repo linter and semantic analyzer.

Three independent prongs share this package (and one ``Finding``
record plus one rule-ID namespace, :data:`repro.analysis.invariants.RULES`):

* :mod:`repro.analysis.verify` — a pass over compiled physical plans
  (:mod:`repro.core.plan`) that proves, without executing, that a plan
  respects the operator typing, key, parameter, cache and cost
  invariants catalogued in :mod:`repro.analysis.invariants`.
  ``compile_plan`` runs it on every plan it builds; a rejection
  surfaces as the ``violations`` of the explain report
  (``repro explain``).
* :mod:`repro.analysis.lint` — an ``ast``-based linter encoding the
  repository's own coding invariants (lock discipline, error-boundary
  typing, durable-write atomicity, env-var documentation).  Runnable
  as ``repro lint`` or
  ``scripts/lint.py``.
* :mod:`repro.analysis.semantics` — satisfiability / emptiness /
  redundancy verdicts over TriAL(*) expressions (union-find closure of
  condition conjunctions, bottom-up emptiness).  The verdicts gate the
  optimizer's pruning rewrites and the planner's constant-empty
  short-circuit, and surface as ``Database.analyze``, the ``analysis``
  of the explain report and service-envelope warnings.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.invariants": "LINT_RULES",
        "repro.analysis.verify": "verify_plan",
    },
)
