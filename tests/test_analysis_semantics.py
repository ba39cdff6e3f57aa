"""Semantic analyzer tests (:mod:`repro.analysis.semantics`).

Three layers: unit tests for the union-find condition solver, a
mutation corpus asserting each ``SEM-*`` rule fires on its exact
trigger and stays silent on near-miss mutants, and a ≥200-case seeded
sweep machine-checking every emptiness/unsatisfiability verdict
against the paper-faithful NaiveEngine — a verdict the oracle refutes
is an unsound analyzer, full stop.  The optimizer/planner tests then
pin the verdict-gated rewrites: prune-to-∅, minimal-core reduction,
trivial-star collapse and the ``EmptyOp`` plan short-circuit.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.invariants import Finding, SEM_RULES
from repro.analysis.semantics import (
    analyze_expr,
    condition_core,
    conditions_unsat,
    expr_is_empty,
    star_is_trivial,
)
from repro.core import NaiveEngine, R, select
from repro.core.conditions import parse_conditions
from repro.core.expressions import Diff, Intersect, Join, Select, Star, Union
from repro.core.optimizer import is_empty_expr, optimize
from repro.core.parser import parse
from repro.triplestore.model import Triplestore

STORE = Triplestore(
    [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a"), ("a", "r", "a")],
    {"a": 0, "b": 0, "c": 1},
)


def rules_of(findings) -> list[str]:
    return sorted({f.rule for f in findings})


# --------------------------------------------------------------------- #
# The condition solver
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "spec",
    [
        "1='a' & 1='b'",                      # two constants, one class
        "1=2 & 2=3 & 1!=3",                   # transitive equality vs !=
        "1=2 & 1!=2",                         # direct contradiction
        "1!=1",                               # irreflexive
        "'a'='b'",                            # statically false
        "rho(1)!=rho(1)",                     # η irreflexive
        "1=2 & rho(1)!=rho(2)",               # θ-equality forces ρ-equality
        "1='a' & 2='a' & rho(1)!=rho(2)",     # same via shared constant
        "1=$p & 1!=$p",                       # parameters are fixed values
    ],
)
def test_unsat_conjunctions(spec):
    assert conditions_unsat(parse_conditions(spec))


@pytest.mark.parametrize(
    "spec",
    [
        "1='a' & 2='b'",
        "1=2 & 2=3",
        "rho(1)=rho(2) & 1!=2",               # η never forces θ
        "rho(1)='x' & rho(2)='y'",            # ρ may distinguish objects
        "1=$p & 1!=$q",                       # distinct params may differ
        "1!=2 & 2!=3 & 1!=3",
        "'a'='a'",
        "",
    ],
)
def test_sat_conjunctions(spec):
    assert not conditions_unsat(parse_conditions(spec))


def test_condition_core_drops_entailed():
    assert condition_core(parse_conditions("1=2 & 2=1")) == parse_conditions("2=1")
    assert condition_core(parse_conditions("1=1")) == ()
    assert condition_core(parse_conditions("'a'='a' & 1=2")) == parse_conditions(
        "1=2"
    )
    # θ-equality entails the matching η-equality (ρ is a function).
    core = condition_core(parse_conditions("1=2 & rho(1)=rho(2)"))
    assert core == parse_conditions("1=2")
    # Transitive closure: 1=3 follows from 1=2 & 2=3.
    core = condition_core(parse_conditions("1=2 & 2=3 & 1=3"))
    assert len(core) == 2


def test_condition_core_keeps_independent_conditions():
    spec = "1=2 & rho(1)='x' & 3!='a'"
    conds = parse_conditions(spec)
    assert condition_core(conds) == conds


def test_core_of_duplicate_disequalities():
    assert len(condition_core(parse_conditions("1!=2 & 1!=2"))) == 1
    # A disequality is NOT entailed by unrelated conditions.
    conds = parse_conditions("1!=2 & 2!=3")
    assert condition_core(conds) == conds


# --------------------------------------------------------------------- #
# Mutation corpus: one trigger + near-miss mutants per SEM-* rule
# --------------------------------------------------------------------- #


def test_sem_unsat_fires_exactly():
    bad = select(R("E"), "1='a' & 1='b'")
    assert "SEM-UNSAT" in rules_of(analyze_expr(bad))
    # Mutant: distinct positions — satisfiable, no SEM-UNSAT anywhere.
    good = select(R("E"), "1='a' & 2='b'")
    assert "SEM-UNSAT" not in rules_of(analyze_expr(good))


def test_sem_empty_fires_on_diff_self_and_propagates():
    dead = Diff(R("E"), R("E"))
    findings = analyze_expr(dead)
    assert rules_of(findings) == ["SEM-EMPTY"]
    # Only the maximal empty region is reported.
    shell = Intersect(dead, R("E"))
    empties = [f for f in analyze_expr(shell) if f.rule == "SEM-EMPTY"]
    assert len(empties) == 1
    assert "the query" in empties[0].message
    # Mutant: Diff of different relations is not provably empty.
    assert analyze_expr(Diff(R("E"), R("F"))) == []
    # Union needs BOTH sides empty: the root survives, only the dead
    # branch is flagged (as a subexpression, not "the query").
    branch = [f for f in analyze_expr(Union(dead, R("E"))) if f.rule == "SEM-EMPTY"]
    assert len(branch) == 1
    assert "this subexpression" in branch[0].message


def test_sem_empty_suppressed_under_empty_parent():
    dead = Diff(R("E"), R("E"))
    expr = Join(dead, select(R("E"), "1='a' & 1='b'"), (0, 1, 2), ())
    empties = [f for f in analyze_expr(expr) if f.rule == "SEM-EMPTY"]
    assert len(empties) == 1  # the root, not its two dead children


def test_sem_trivial_star_fires_exactly():
    trivial = Star(R("E"), (0, 1, 5), parse_conditions("3=1' & 3!=1'"))
    assert "SEM-TRIVIAL-STAR" in rules_of(analyze_expr(trivial))
    live = Star(R("E"), (0, 1, 5), parse_conditions("3=1'"))
    assert analyze_expr(live) == []
    # Idempotent nesting is the other trigger.
    nested = Star(live, live.out, live.conditions, live.side)
    assert "SEM-TRIVIAL-STAR" in rules_of(analyze_expr(nested))


def test_sem_redundant_fires_exactly():
    redundant = select(R("E"), "1=2 & 2=1")
    findings = analyze_expr(redundant)
    assert rules_of(findings) == ["SEM-REDUNDANT"]
    assert "1=2" in findings[0].message or "2=1" in findings[0].message
    assert analyze_expr(select(R("E"), "1=2 & 2=3")) == []


def test_sem_unsat_suppresses_redundancy_noise():
    # An unsatisfiable list is reported as UNSAT only — reducing it
    # further would be meaningless.
    findings = analyze_expr(select(R("E"), "1=2 & 2=1 & 1!=2"))
    assert rules_of(findings) == ["SEM-EMPTY", "SEM-UNSAT"]


def test_sem_unknown_rel_needs_a_store():
    expr = Join(R("E"), R("Zzz"), (0, 1, 2), ())
    assert analyze_expr(expr) == []  # no store, no verdict
    findings = analyze_expr(expr, STORE)
    assert rules_of(findings) == ["SEM-UNKNOWN-REL"]
    assert "'Zzz'" in findings[0].message
    assert analyze_expr(R("E"), STORE) == []


def test_every_sem_rule_has_a_trigger_in_this_corpus():
    """The corpus above covers the whole SEM-* catalog (SEM-DEAD-RULE
    lives in the Datalog tests below)."""
    covered = {
        "SEM-UNSAT",
        "SEM-EMPTY",
        "SEM-TRIVIAL-STAR",
        "SEM-REDUNDANT",
        "SEM-UNKNOWN-REL",
        "SEM-DEAD-RULE",
    }
    assert covered == set(SEM_RULES)


# --------------------------------------------------------------------- #
# The seeded sweep: every verdict confirmed by the oracle
# --------------------------------------------------------------------- #


def test_verdicts_hold_under_naive_engine():
    """≥200 seeded cases: wherever the analyzer says a (sub)expression
    is empty or a condition list unsatisfiable, the NaiveEngine must
    return zero triples for it — on a store it has never seen."""
    from tests.diffcheck import (
        random_semantic_expression,
        random_triplestore,
    )

    engine = NaiveEngine()
    n_cases = 220
    confirmed_empty = 0
    confirmed_unsat = 0
    for index in range(n_cases):
        rng = random.Random(f"semantic-sweep:{index}")
        store = random_triplestore(rng)
        expr = random_semantic_expression(rng, store.relation_names)
        for node in dict.fromkeys(expr.walk()):
            if isinstance(node, (Select, Join)) and conditions_unsat(
                node.conditions
            ):
                assert engine.evaluate(node, store) == frozenset(), (
                    f"case {index}: SEM-UNSAT verdict refuted on {node!r}"
                )
                confirmed_unsat += 1
            if expr_is_empty(node):
                assert engine.evaluate(node, store) == frozenset(), (
                    f"case {index}: SEM-EMPTY verdict refuted on {node!r}"
                )
                confirmed_empty += 1
    # The sweep must actually exercise the verdicts, not vacuously pass.
    assert confirmed_unsat >= 50, confirmed_unsat
    assert confirmed_empty >= 50, confirmed_empty


def test_satisfiable_verdicts_are_not_overclaimed():
    """Dual direction on targeted near-misses: satisfiable condition
    lists whose shapes resemble contradictions must keep their rows."""
    engine = NaiveEngine()
    expr = parse("select[rho(1)=rho(3) & 1!=3](E)")
    result = engine.evaluate(expr, STORE)
    assert ("a", "p", "b") in result  # rho(a)=rho(b)=0, a != b
    assert not expr_is_empty(expr)
    # Params are binding-dependent, never unsat on their own.
    assert not expr_is_empty(parse("select[1=$p](E)"))


# --------------------------------------------------------------------- #
# Verdict-gated rewrites (the optimizer)
# --------------------------------------------------------------------- #


def test_optimize_prunes_unsat_select_to_empty():
    out = optimize(select(R("E"), "1='a' & 1='b'"))
    assert is_empty_expr(out)
    assert out.relation_names() == frozenset({"E"})


def test_optimize_prunes_unsat_join_to_empty():
    expr = Join(R("E"), R("E"), (0, 1, 2), parse_conditions("1=1' & 1!=1'"))
    assert is_empty_expr(optimize(expr))


def test_optimize_drops_redundant_conditions():
    out = optimize(select(R("E"), "1!=2 & 1!=2"))
    assert isinstance(out, Select)
    assert out.conditions == parse_conditions("1!=2")


def test_optimize_collapses_trivial_star():
    star = Star(R("E"), (0, 1, 5), parse_conditions("3=1' & 3!=1'"))
    assert optimize(star) == R("E")


def test_optimize_preserves_statically_true_selects():
    # All conditions entailed → the select disappears entirely.
    assert optimize(select(R("E"), "1=1")) == R("E")


def test_rewrites_are_sound_on_a_store():
    engine = NaiveEngine()
    exprs = [
        select(R("E"), "1='a' & 1='b'"),
        Join(R("E"), R("E"), (0, 1, 5), parse_conditions("3=1' & 3!=1'")),
        Star(R("E"), (0, 1, 5), parse_conditions("3=1' & 2!=2")),
        Union(Diff(R("E"), R("E")), select(R("E"), "1=2 & 2=1")),
    ]
    for expr in exprs:
        raw = engine.evaluate(expr, STORE)
        rewritten = optimize(expr)
        assert engine.evaluate(rewritten, STORE) == raw, repr(expr)


# --------------------------------------------------------------------- #
# The planner short-circuit (EmptyOp) and the session path
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["set", "columnar", "sharded"])
def test_provably_empty_queries_compile_to_empty_plans(backend):
    from repro.db import Database

    with Database(STORE, backend=backend) as db:
        report = db.explain("select[1='a' & 1='b'](E)")
        assert report.plan["op"] == "Empty"
        assert report.plan["est_rows"] == 0.0
        assert list(db.query("select[1='a' & 1='b'](E)")) == []
        assert list(db.query("(E - E)")) == []
        # A live query on the same session still works (cache seams).
        assert len(list(db.query("E"))) == 4


def test_empty_plan_executes_on_all_backends():
    from repro.core.plan import EmptyOp, compile_plan

    plan = compile_plan(parse("select[1='a' & 1='b'](E)"), STORE)
    assert isinstance(plan, EmptyOp)
    assert plan.label() == "Empty(∅)"


def test_universe_queries_keep_their_plans():
    """U-mentioning expressions are exempt from the short-circuit so
    budget errors surface identically on every backend."""
    from repro.core.plan import EmptyOp, compile_plan

    plan = compile_plan(parse("select[1='a' & 1='b'](U)"), STORE)
    assert not isinstance(plan, EmptyOp)


def test_explain_report_carries_analysis_findings():
    from repro.db import Database

    with Database(STORE) as db:
        report = db.explain("select[1='a' & 1='b'](E)")
        rules = {f["rule"] for f in report.analysis}
        assert "SEM-UNSAT" in rules and "SEM-EMPTY" in rules
        assert "analysis" in report.to_dict()
        clean = db.explain("E")
        assert clean.analysis == ()


def test_database_analyze_reports_pre_optimization():
    from repro.db import Database

    with Database(STORE) as db:  # optimizer ON: rewrites would consume it
        findings = db.analyze("select[1='a' & 1='b'](E)")
        assert "SEM-UNSAT" in {f.rule for f in findings}
        assert db.analyze("E") == ()


def test_finding_to_dict_is_minimal():
    assert Finding("SEM-EMPTY", "m", op="E").to_dict() == {
        "rule": "SEM-EMPTY",
        "message": "m",
        "op": "E",
    }
    assert Finding("ENV-DOC", "m", "a.py", 3).to_dict() == {
        "rule": "ENV-DOC",
        "message": "m",
        "path": "a.py",
        "line": 3,
    }


# --------------------------------------------------------------------- #
# Service surface
# --------------------------------------------------------------------- #


def test_service_envelopes_carry_analysis_warnings():
    from repro.db import Database
    from repro.service import QueryServer, ServiceClient
    from repro.service.config import ServiceConfig

    with Database(STORE) as db:
        server = QueryServer(
            {"default": db}, ServiceConfig(host="127.0.0.1", port=0)
        )
        server.start()
        try:
            host, port = server.address
            client = ServiceClient(f"http://{host}:{port}")
            page = client.query("select[1='a' & 1='b'](E)")
            assert page["rows"] == []
            rules = {w["rule"] for w in page["analysis"]}
            assert "SEM-UNSAT" in rules
            clean = client.query("E")
            assert "analysis" not in clean  # omitted when nothing fired
            report = client.explain("(E - E)")
            assert {f["rule"] for f in report["analysis"]} >= {"SEM-EMPTY"}
        finally:
            server.stop()


# --------------------------------------------------------------------- #
# Datalog program analysis
# --------------------------------------------------------------------- #


def test_datalog_unsat_rule_bodies():
    from repro.datalog.parser import parse_program
    from repro.datalog.validate import analyze_program

    program = parse_program(
        """
        Ans(x,y,z) :- E(x,y,z), x = y, x != y.
        Ans(x,y,z) :- E(x,y,z), x = y, not ~(x,y).
        Ans(x,y,z) :- E(x,y,z).
        """
    )
    findings = analyze_program(program)
    assert [f.rule for f in findings] == ["SEM-UNSAT", "SEM-UNSAT"]


def test_datalog_dead_rules():
    from repro.datalog.parser import parse_program
    from repro.datalog.validate import analyze_program

    program = parse_program(
        """
        Ans(x,y,z) :- Mid(x,y,z).
        Mid(x,y,z) :- E(x,y,z).
        Orphan(x,y,z) :- E(x,y,z).
        """
    )
    findings = analyze_program(program)
    assert [f.rule for f in findings] == ["SEM-DEAD-RULE"]
    assert "Orphan" in findings[0].message


def test_datalog_clean_program_is_silent():
    from repro.datalog.parser import parse_program
    from repro.datalog.validate import analyze_program

    program = parse_program(
        """
        Ans(x,y,z) :- E(x,y,z), ~(x,y).
        Ans(x,y,z) :- E(x,y,z), x != y.
        """
    )
    assert analyze_program(program) == []


def test_datalog_sat_congruence_near_miss():
    from repro.datalog.parser import parse_program
    from repro.datalog.validate import analyze_program

    # η-equality does not force θ-equality: satisfiable.
    program = parse_program("Ans(x,y,z) :- E(x,y,z), ~(x,y), x != y.")
    assert analyze_program(program) == []


def test_datalog_object_constant_is_not_a_data_value():
    """``x = 'a'`` pins an object, ``~(x, 'a')`` compares ρ(x) with the
    data value 'a': the body is satisfiable, and the rule fires."""
    from repro.datalog.evaluator import run_program
    from repro.datalog.parser import parse_program
    from repro.datalog.validate import analyze_program

    program = parse_program("Ans(x,y,z) :- E(x,y,z), x = 'a', not ~(x, 'a').")
    assert analyze_program(program) == []
    store = Triplestore([("a", "p", "q")], {"a": 7})
    assert run_program(program, store) == {("a", "p", "q")}


@pytest.mark.parametrize(
    "comparisons",
    ["~(x,'a'), ~(x,'b')", "~('a','b')", "x = y, ~(x,'a'), ~(y,'b')"],
)
def test_datalog_data_constant_clashes_are_unsat(comparisons):
    from repro.datalog.parser import parse_program
    from repro.datalog.validate import analyze_program

    program = parse_program(f"Ans(x,y,z) :- E(x,y,z), {comparisons}.")
    assert [f.rule for f in analyze_program(program)] == ["SEM-UNSAT"]


def test_datalog_verdicts_are_exact_on_two_variables():
    """Every body of at most three distinct comparison literals over
    ``x, y, 'a', 'b'``: ``SEM-UNSAT`` holds exactly when no choice of x,
    y among four objects and of their ρ-values among four data values
    satisfies it, and agrees with ``conditions_unsat`` on the same
    literals written as TriAL conditions (x as position 1, y as 2)."""
    from itertools import combinations, combinations_with_replacement

    from repro.core.conditions import Cond
    from repro.core.positions import Const, Pos
    from repro.datalog.ast import (
        Atom,
        DConst,
        DVar,
        EqLit,
        Program,
        RelLit,
        Rule,
        SimLit,
    )
    from repro.datalog.validate import analyze_program

    names = ("x", "y", "a", "b")
    objects = values = ("a", "b", "c", "d")
    # A world: objects for x and y, then ρ(x) and ρ(y) (equal when x = y).
    worlds = [
        (ox, oy, rx, ry)
        for ox in objects
        for oy in objects
        for rx in values
        for ry in values
        if ox != oy or rx == ry
    ]

    def holds(kind, negated, left, right, world):
        def value(name):
            if name in ("a", "b"):
                return name
            index = "xy".index(name)
            return world[index + 2] if kind is SimLit else world[index]

        return (value(left) == value(right)) != negated

    dterm = {"x": DVar("x"), "y": DVar("y")}
    term = {"x": Pos(0), "y": Pos(1)}
    literals = []
    for kind in (EqLit, SimLit):
        for negated in (False, True):
            for left, right in combinations_with_replacement(names, 2):
                mask = sum(
                    1 << i
                    for i, world in enumerate(worlds)
                    if holds(kind, negated, left, right, world)
                )
                literals.append(
                    (
                        kind(
                            dterm.get(left, DConst(left)),
                            dterm.get(right, DConst(right)),
                            negated,
                        ),
                        Cond(
                            term.get(left, Const(left)),
                            term.get(right, Const(right)),
                            "!=" if negated else "=",
                            kind is SimLit,
                        ),
                        mask,
                    )
                )
    assert len(literals) == 40

    bodies = [
        body for size in (1, 2, 3) for body in combinations(literals, size)
    ]
    everything = (1 << len(worlds)) - 1
    scan = RelLit(Atom("E", ("x", "y", "z")))
    rules = [
        Rule(Atom("Ans", ("x", "y", "z")), (scan,) + tuple(l[0] for l in body))
        for body in bodies
    ]
    flagged = {
        f.op for f in analyze_program(Program(rules)) if f.rule == "SEM-UNSAT"
    }
    wrong = []
    for rule, body in zip(rules, bodies):
        mask = everything
        for _, _, literal_mask in body:
            mask &= literal_mask
        unsat = mask == 0
        if (repr(rule) in flagged) != unsat:
            wrong.append(repr(rule))
        assert conditions_unsat([l[1] for l in body]) == unsat, repr(rule)
    assert len(bodies) == 10_700
    assert wrong == []
