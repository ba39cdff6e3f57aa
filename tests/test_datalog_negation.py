"""Negated Datalog literals translate to anti-joins, and the route is the
program's shape, never the store's size.

``datalog_to_trial`` turns ``H :- P, not N`` into the one-literal rule
over ``P − π₁,₂,₃(P ⋈_θ N)``.  Everything here is clock-free:

(a) *equivalence* — random safe rules with one positive and one negated
    literal (N's positions permuted, N with constants, a repeated
    variable in N, the negated literal first, P and N naming the same
    predicate) answer like ``run_program`` on every engine and through
    ``Database``;
(b) *no U* — no translated expression contains ``Universe``;
(c) *one answer* — a rule whose negated literal reads a variable bound
    only by ``z = 'c'`` runs natively on small and large stores alike;
(d) *traced bytes* — the anti-join's peak stays a small multiple of |T|
    where ``U − N`` would materialise |O|³ triples.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import NativeQuery, get_language
from repro.core import FastEngine, HashJoinEngine, NaiveEngine
from repro.core.expressions import Universe
from repro.datalog import datalog_to_trial, parse_program, run_program, trial_to_datalog
from repro.datalog.ast import Atom, DConst, DVar, EqLit, Program, RelLit, Rule, SimLit
from repro.db import Database
from repro.triplestore.model import Triplestore
from repro.workloads import random_store
from tests.conftest import OBJECTS, expressions, triples_st

VARS = tuple(DVar(name) for name in "xyzw")
ENGINES = (NaiveEngine(), HashJoinEngine(), FastEngine())


def assert_translation_agrees(program: Program, store: Triplestore) -> None:
    expected = run_program(program, store)
    expr = datalog_to_trial(program)
    assert not any(isinstance(node, Universe) for node in expr.walk())
    for engine in ENGINES:
        assert engine.evaluate(expr, store) == expected, type(engine).__name__
    db = Database(store, backend="columnar")
    assert db.query(program, lang="datalog") == expected


@st.composite
def two_relation_stores(draw) -> Triplestore:
    rho = {o: draw(st.sampled_from((0, 1))) for o in OBJECTS}
    return Triplestore(
        {
            "E": draw(st.sets(triples_st, min_size=1, max_size=10)),
            "F": draw(st.sets(triples_st, min_size=0, max_size=10)),
        },
        rho,
    )


@st.composite
def anti_join_rules(draw) -> Program:
    """``Ans(h̄) :- P(ū), not N(v̄), V?`` with every variable of v̄ in ū."""
    consts = st.sampled_from(OBJECTS).map(DConst)
    p_args = draw(st.lists(st.sampled_from(VARS) | consts, min_size=3, max_size=3))
    if not any(isinstance(t, DVar) for t in p_args):
        p_args[draw(st.integers(0, 2))] = VARS[0]
    bound = sorted({t for t in p_args if isinstance(t, DVar)}, key=lambda v: v.name)
    n_args = draw(st.lists(st.sampled_from(bound) | consts, min_size=3, max_size=3))
    pos = RelLit(Atom(draw(st.sampled_from("EF")), tuple(p_args)))
    neg = RelLit(Atom(draw(st.sampled_from("EF")), tuple(n_args)), negated=True)
    body = [neg, pos] if draw(st.booleans()) else [pos, neg]
    if draw(st.booleans()):
        left, right = draw(st.sampled_from(bound)), draw(st.sampled_from(bound))
        lit_cls = draw(st.sampled_from((EqLit, SimLit)))
        body.append(lit_cls(left, right, negated=draw(st.booleans())))
    head = tuple(draw(st.lists(st.sampled_from(bound), min_size=3, max_size=3)))
    return Program((Rule(Atom("Ans", head), tuple(body)),))


@settings(max_examples=150, deadline=None)
@given(anti_join_rules(), two_relation_stores())
def test_anti_join_rule_matches_native(program, store):
    assert_translation_agrees(program, store)


SHAPES = [
    # N's positions permuted
    "Ans(x,y,z) :- E(x,y,z), not F(z,x,y).",
    # N with a constant
    "Ans(x,y,z) :- E(x,y,z), not F(x,'a',z).",
    # a repeated variable in N
    "Ans(x,y,z) :- E(x,y,z), not F(x,x,y).",
    # the negated literal first
    "Ans(x,y,z) :- not F(y,z,x), E(x,y,z).",
    # P and N name the same predicate
    "Ans(x,y,z) :- E(x,y,z), not E(z,y,x).",
    # P with constants and repeats; N reads a subset of P's variables
    "Ans(x,x,y) :- E(x,'b',y), not E(y,y,y), x != y.",
    # ROADMAP item N's program: a negated IDB predicate
    "R(x,y,z) :- E(x,y,z), E(z,w,v).\nAns(x,y,z) :- E(x,y,z), not R(x,y,z).",
]


def dense_store() -> Triplestore:
    """E and F with 30 triples each over six objects: most θ keys match."""
    store = random_store(6, 60, n_relations=2, seed=3)
    return Triplestore({"E": store.relation("E0"), "F": store.relation("E1")}, store.rho_map())


@pytest.mark.parametrize("text", SHAPES)
def test_anti_join_shapes(text, two_relation_store):
    assert_translation_agrees(parse_program(text), two_relation_store)
    assert_translation_agrees(parse_program(text), dense_store())


@settings(max_examples=60, deadline=None)
@given(expressions(max_depth=3))
def test_no_translated_plan_contains_universe(expr):
    # trial_to_datalog emits one `P :- L, not R` rule per difference.
    translated = datalog_to_trial(trial_to_datalog(expr))
    assert not any(isinstance(node, Universe) for node in translated.walk())


# --------------------------------------------------------------------- #
# (c) one answer, whatever the store's size
# --------------------------------------------------------------------- #

E3 = {("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a")}


@pytest.mark.parametrize("filler", [0, 448], ids=["5-objects", "453-objects"])
def test_constant_bound_negation_answers_natively(filler):
    # z occurs in the negated literal but is bound only by `z = 'zz'`:
    # the complement route once answered [] below U's object budget and
    # the native rows above it.
    store = Triplestore(
        {"E": E3, "G": {(f"o{i}", f"o{i}", f"o{i}") for i in range(filler)}}
    )
    assert len(store.objects) == 5 + filler
    program = parse_program("Ans(x,y,z) :- E(x,y,w), z = 'zz', not E(x,y,z).")
    db = Database(store)
    assert isinstance(get_language("datalog").compile(db, program), NativeQuery)
    expected = {("a", "p", "zz"), ("b", "p", "zz"), ("c", "q", "zz")}
    assert run_program(program, store) == expected
    assert db.query(program, lang="datalog") == expected


# --------------------------------------------------------------------- #
# (d) traced bytes
# --------------------------------------------------------------------- #


def traced_peak(run):
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


@pytest.mark.parametrize("backend", ["set", "columnar"])
def test_negation_allocates_a_small_multiple_of_the_store(backend):
    """ROADMAP item N's program at |O| = 120.  ``U − R`` held |O|³ =
    1.7·10⁶ triples (4 800 per stored triple); the anti-join measures
    under 700 bytes per stored triple on either backend."""
    store = random_store(120, 360, seed=7)
    n_triples = len(store.relation("E"))
    program = parse_program(
        "R(x,y,z) :- E(x,y,z), E(z,w,v).\nAns(x,y,z) :- E(x,y,z), not R(x,y,z)."
    )
    db = Database(store, backend=backend)
    db.query("E")  # warm the store's access paths
    rows, peak = traced_peak(lambda: set(db.query(program, lang="datalog")))
    assert rows == run_program(program, store)
    assert peak / n_triples <= 2048, f"{peak / n_triples:.0f} B per triple"
