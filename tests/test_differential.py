"""The randomized differential harness, run as part of the suite.

All engines — the NaiveEngine oracle, HashJoinEngine, FastEngine, the
columnar VectorEngine and the hash-partitioned ShardedEngine — must agree on every seeded random
(store, query) case.  The default budget is 200
TriAL cases plus 60 graph-language (GXPath/NRE translation) cases;
``DIFFCHECK_CASES`` scales it up (the CI nightly runs 10×).  On failure
the assertion message carries a shrunk, executable repro snippet.
"""

from __future__ import annotations

import os

import pytest

from repro.core import NaiveEngine
from repro.core.expressions import Rel, Star
from repro.triplestore.model import Triplestore
from tests.diffcheck import (
    default_engines,
    random_expression,
    random_triplestore,
    repro_snippet,
    run_differential,
    shrink_failure,
)

#: Total TriAL-case budget, split across the seed shards below.
TRIAL_CASES = int(os.environ.get("DIFFCHECK_CASES", "200"))
GRAPH_CASES = max(20, TRIAL_CASES // 10) * 2
SHARDS = 4


def _assert_no_failures(failures):
    if failures:
        raise AssertionError(
            f"{len(failures)} cross-engine disagreement(s); first repro:\n\n"
            + failures[0].snippet()
        )


@pytest.mark.parametrize("shard", range(SHARDS))
def test_trial_cases_agree_across_engines(shard):
    """NaiveEngine ≡ HashJoin ≡ Fast ≡ Vector ≡ Sharded on TriAL(*)."""
    _assert_no_failures(
        run_differential(
            TRIAL_CASES // SHARDS, seed=shard, case_kinds=("trial",)
        )
    )


def test_semantic_cases_agree_across_engines():
    """Analyzer-triggering cases: contradictory/redundant conditions,
    Diff(e, e) shells and trivial stars, checked raw and optimized
    (the ``+opt`` axis) against the raw naive witness."""
    _assert_no_failures(
        run_differential(
            max(60, TRIAL_CASES // 2), seed=17, case_kinds=("semantic",)
        )
    )


def test_graph_language_cases_agree_across_engines():
    """The same matrix over GXPath/NRE → TriAL* translations."""
    _assert_no_failures(
        run_differential(GRAPH_CASES, seed=99, case_kinds=("gxpath", "nre"))
    )


def test_harness_detects_a_broken_engine():
    """Sanity: a deliberately wrong engine is caught and shrunk."""

    class BrokenEngine(NaiveEngine):
        def evaluate(self, expr, store):
            result = super().evaluate(expr, store)
            if isinstance(expr, Star) and result:
                return frozenset(list(result)[1:])  # drop one triple
            return result

    engines = {**default_engines(), "broken": BrokenEngine()}
    failures = run_differential(
        80, seed=5, engines=engines, case_kinds=("trial",), max_failures=1
    )
    assert failures, "the broken engine was never caught"
    snippet = failures[0].snippet()
    assert "Triplestore(" in snippet and "parse(" in snippet
    assert "broken" in "".join(map(str, failures[0].outcomes))


def test_shrinker_minimises_stores():
    """Shrinking drops triples irrelevant to a disagreement."""

    class WrongOnLoops(NaiveEngine):
        def evaluate(self, expr, store):
            result = super().evaluate(expr, store)
            return frozenset(t for t in result if t[0] != t[2])

    engines = {"naive": NaiveEngine(), "wrong": WrongOnLoops()}
    store = Triplestore(
        [("a", "p", "a"), ("b", "p", "c"), ("c", "q", "d"), ("d", "q", "e")]
    )
    expr, small = shrink_failure(engines, Rel("E"), store)
    assert expr == Rel("E")
    assert small.relation("E") == {("a", "p", "a")}


def test_repro_snippet_is_executable():
    """The snippet a failure prints must itself run (and pass, here)."""
    store = random_triplestore(__import__("random").Random(1))
    expr = random_expression(__import__("random").Random(2), relations=store.relation_names)
    snippet = repro_snippet(expr, store)
    exec(compile(snippet, "<repro>", "exec"), {})
