"""Plan-verifier tests (:mod:`repro.analysis.verify`).

Two halves, mirroring the subsystem's promise:

* **zero false positives** — every plan the compiler produces (one
  plan, whichever backend runs it) for the diffcheck expression
  generators verifies clean;
* **mutation corpus** — a seeded corpus of hand-broken plans (swapped
  key positions, phantom parameters, bogus build sides, …) is
  rejected, each with the *expected* invariant ID, so a regression in
  one check cannot hide behind another.

PLAN-SHARD is the one invariant checked at run time, on real shard
contents; its tests are in the wiring section below.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import verify_plan
from repro.analysis.verify import assert_plan_valid
from repro.core.conditions import Cond
from repro.core.expressions import Join, Rel, Select, Star
from repro.core.optimizer import optimize
from repro.core.params import canonicalize_constants, expr_params
from repro.analysis.invariants import RULES
from repro.core.plan import (
    FilterOp,
    ScanOp,
    StarOp,
    compile_plan,
)
from repro.core.positions import Const, Param, Pos
from repro.errors import PlanVerificationError
from repro.service.protocol import status_for
from repro.triplestore.model import Triplestore

from tests.conftest import expressions
from tests.diffcheck import random_expression, random_triplestore

@pytest.fixture()
def store() -> Triplestore:
    return Triplestore({"R": {(1, 2, 3), (3, 4, 5), (5, 6, 7)}, "S": {(1, 1, 1)}})


def ids(violations) -> list:
    return sorted({v.invariant for v in violations})


# --------------------------------------------------------------------- #
# Zero false positives
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(25))
def test_generated_plans_verify_clean(seed):
    """Diffcheck-generator plans verify clean, with and without reach
    routing, anchored in the store's statistics or in none."""
    rng = random.Random(seed)
    gen_store = random_triplestore(rng)
    expr = random_expression(rng, max_depth=3)
    for source in (expr, optimize(expr)):
        for use_reach in (True, False):
            for store in (gen_store, None):
                plan = compile_plan(source, store, use_reach=use_reach)
                violations = verify_plan(plan, expr=source)
                assert violations == (), "\n".join(map(str, violations))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(expr=expressions())
def test_hypothesis_plans_verify_clean(store, expr):
    for use_reach in (True, False):
        plan = compile_plan(optimize(expr), store, use_reach=use_reach)
        assert verify_plan(plan, expr=optimize(expr)) == ()


def test_parameterized_plans_verify_clean(store):
    """Canonicalised (prepared-statement) plans verify with ``params=``."""
    expr = Select(
        Rel("R"), (Cond(Pos(0), Const(1), "=", False),)
    )
    canon, bindings = canonicalize_constants(expr)
    plan = compile_plan(canon, store)
    names = expr_params(canon)
    assert set(names) == set(bindings)
    assert verify_plan(plan, expr=canon, params=names) == ()


# --------------------------------------------------------------------- #
# The mutation corpus
# --------------------------------------------------------------------- #

JOIN = Join(Rel("R"), Rel("S"), (0, 1, 5), (Cond(Pos(2), Pos(3), "=", False),))
SELECT2 = Select(
    Rel("R"),
    (Cond(Pos(0), Const(1), "=", False), Cond(Pos(1), Const(2), "=", False)),
)
STAR = Star(Rel("R"), (0, 1, 5), (Cond(Pos(2), Pos(3), "=", False),), "right")
REACH = Star(Rel("R"), "1,2,3'", "3=1'")
NEQ = Select(Rel("R"), (Cond(Pos(0), Pos(1), "!=", False),))


def _first(plan, op_type):
    return next(op for op in plan.walk() if isinstance(op, op_type))


def _mutate_out_spec(plan):
    plan.spec.out = (0, 1, 7)


def _mutate_swap_cross_eq(plan):
    c = plan.spec.cross_eq[0]
    plan.spec.cross_eq = (Cond(c.right, c.left, c.op, c.on_data),)


def _mutate_reverse_positions(plan):
    plan.positions = tuple(reversed(plan.positions))


def _mutate_index_positions(plan):
    plan.index_positions = (1,)


def _mutate_ghost_key_param(plan):
    plan.key = (Param("ghost"), plan.key[1])


def _mutate_phantom_filter_param(plan):
    f = _first(plan, FilterOp)
    f.conditions = f.conditions + (Cond(Pos(0), Param("phantom"), "=", False),)


def _mutate_build_side(plan):
    plan.build_side = "middle"


def _mutate_star_side(plan):
    _first(plan, StarOp).side = "up"


def _mutate_short_lookup_key(plan):
    plan.key = plan.key[:1]


def _mutate_nan_rows(plan):
    plan.est_rows = float("nan")


def _mutate_zombie_scan(plan):
    _first(plan, ScanOp).name = "Zombie"


def _mutate_negative_cost(plan):
    plan.est_cost = -1.0


# (name, source expression, use_reach, mutate, expected ID).
# Each entry models a distinct compiler/rewriter bug class; the corpus
# intentionally exceeds the ten-mutation acceptance floor.
MUTATIONS = (
    ("out-spec-range", JOIN, True, _mutate_out_spec, "PLAN-ARITY"),
    ("cross-eq-swapped", JOIN, True, _mutate_swap_cross_eq, "PLAN-ARITY"),
    ("build-side-bogus", JOIN, True, _mutate_build_side, "PLAN-ARITY"),
    ("star-side-bogus", STAR, False, _mutate_star_side, "PLAN-ARITY"),
    ("index-positions-reversed", SELECT2, True,
     _mutate_reverse_positions, "PLAN-KEY"),
    ("join-index-tampered", JOIN, True, _mutate_index_positions, "PLAN-KEY"),
    ("lookup-key-short", SELECT2, True, _mutate_short_lookup_key, "PLAN-KEY"),
    ("ghost-key-param", SELECT2, True, _mutate_ghost_key_param, "PLAN-PARAM"),
    ("phantom-filter-param", NEQ, True,
     _mutate_phantom_filter_param, "PLAN-PARAM"),
    ("zombie-scan", JOIN, True, _mutate_zombie_scan, "PLAN-CACHE"),
    ("negative-cost", JOIN, True, _mutate_negative_cost, "PLAN-COST"),
    ("nan-rows", REACH, True, _mutate_nan_rows, "PLAN-COST"),
)


@pytest.mark.parametrize(
    "name, expr, use_reach, mutate, expected",
    MUTATIONS,
    ids=[m[0] for m in MUTATIONS],
)
def test_mutated_plan_rejected(store, name, expr, use_reach, mutate, expected):
    plan = compile_plan(expr, store, use_reach=use_reach)
    assert verify_plan(plan, expr=expr) == ()
    mutate(plan)
    violations = verify_plan(plan, expr=expr)
    assert expected in ids(violations), (
        f"{name}: expected {expected}, got {ids(violations)}"
    )


def test_assert_plan_valid_raises_with_violations(store):
    plan = compile_plan(JOIN, store)
    plan.est_cost = -1.0
    with pytest.raises(PlanVerificationError) as err:
        assert_plan_valid(plan, expr=JOIN)
    assert "PLAN-COST" in str(err.value)
    assert any(v.invariant == "PLAN-COST" for v in err.value.violations)


def test_distinct_invariants_covered():
    """The corpus exercises every static plan invariant at least once;
    PLAN-SHARD is checked at run time (see the wiring tests below)."""
    static = {"PLAN-ARITY", "PLAN-KEY", "PLAN-PARAM", "PLAN-CACHE", "PLAN-COST"}
    assert {rule for rule in RULES if rule.startswith("PLAN-")} == static | {"PLAN-SHARD"}
    assert {m[4] for m in MUTATIONS} == static
    assert len(MUTATIONS) >= 10


# --------------------------------------------------------------------- #
# Wiring: the compile-time check, the wire status, the runtime check
# --------------------------------------------------------------------- #


def test_compile_plan_always_verifies(store, monkeypatch):
    """``compile_plan`` refuses a plan that breaks an invariant, with no
    switch to turn the check off."""
    import repro.core.plan as plan_mod

    real = plan_mod._compile

    def negative_cost(*args):
        op = real(*args)
        op.est_cost = -1.0
        return op

    monkeypatch.setattr(plan_mod, "_compile", negative_cost)
    with pytest.raises(PlanVerificationError, match="PLAN-COST"):
        compile_plan(JOIN, store)


def test_plan_verification_error_status():
    assert status_for(PlanVerificationError("broken", ())) == 400


def test_runtime_partition_check(store):
    """A stale partition claim is caught at execution time."""
    from repro.core.engines.sharded import ShardedExecContext, ShardedKeys

    ctx = ShardedExecContext(store, shards=3)
    good = ShardedKeys(list(ctx.ss.relation_shards("R")), 0)
    assert ctx._check_partition(good, "set-op") is good
    # The same shards claiming a partition on position 2: rows in shard
    # s are hashed on position 0, so the claim is a lie.
    bad = ShardedKeys(list(ctx.ss.relation_shards("R")), 1)
    with pytest.raises(PlanVerificationError, match="PLAN-SHARD"):
        ctx._check_partition(bad, "set-op")


# --------------------------------------------------------------------- #
# verify_plan: one verdict whichever engine compiled the plan
# --------------------------------------------------------------------- #


def test_verify_plan_one_verdict_for_every_engine(store):
    from repro.core.engines.hashjoin import FastEngine
    from repro.core.engines.sharded import ShardedEngine
    from repro.core.engines.vectorized import VectorEngine

    engines = (FastEngine(), VectorEngine(), ShardedEngine(shards=3))
    for engine in engines:
        plan = engine.compile(JOIN, store)
        assert verify_plan(plan, expr=JOIN) == ()
        plan.est_cost = -1.0
        assert ids(verify_plan(plan, expr=JOIN)) == ["PLAN-COST"]


def test_explain_report_carries_verified_flag(store):
    from repro.api import explain_report

    report = explain_report(Rel("R"), store=store)
    assert report.verified is True
    assert report.to_dict()["verified"] is True
