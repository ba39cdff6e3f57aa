"""Randomized cross-engine differential-testing harness.

The library's central invariant is *one semantics*: every engine — the
paper-faithful :class:`NaiveEngine` oracle, the set-based plan engines
(:class:`HashJoinEngine`, :class:`FastEngine`), the
vectorised columnar :class:`VectorEngine` and the hash-partitioned
:class:`ShardedEngine` — must agree on arbitrary (expression, store)
pairs.  The hypothesis property tests in
``test_engines_agree.py`` cover one corner of that space; this harness
covers it *systematically*: seeded generators for triplestores (sweeping
density, ρ-collision rate, self-loops, multi-relation stores) and for
TriAL(*), GXPath and NRE expressions, a fixed engine matrix, greedy
shrinking of failures, and repro snippets you can paste into a test.

Used three ways:

* ``tests/test_differential.py`` runs it as part of the suite;
* ``python tests/diffcheck.py --cases 2000 --out failures/`` is the CI
  nightly entry point (failing repro snippets become artifacts);
* ``from tests.diffcheck import run_differential`` for ad-hoc hunts.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable, Iterable
from unittest import mock

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import (  # noqa: E402
    FastEngine,
    HashJoinEngine,
    NaiveEngine,
    ShardedEngine,
    VectorEngine,
)
from repro.core.conditions import Cond  # noqa: E402
from repro.core.engines import vectorized  # noqa: E402
from repro.core.expressions import (  # noqa: E402
    Diff,
    Expr,
    Intersect,
    Join,
    Rel,
    Select,
    Star,
    Union,
)
from repro.core.optimizer import optimize  # noqa: E402
from repro.core.positions import Const, Pos  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.graphdb import gxpath as gx  # noqa: E402
from repro.graphdb import nre as nre_mod  # noqa: E402
from repro.graphdb.model import GraphDB  # noqa: E402
from repro.translations.graph_to_trial import (  # noqa: E402
    gxpath_to_trial,
    nre_to_trial,
)
from repro.triplestore.model import Triplestore  # noqa: E402

__all__ = [
    "Failure",
    "default_engines",
    "random_expression",
    "random_gxpath",
    "random_nre",
    "random_pool",
    "random_semantic_conditions",
    "random_semantic_expression",
    "random_triplestore",
    "repro_snippet",
    "run_differential",
    "shrink_failure",
]

#: Object pool for random stores (small on purpose: collisions are where
#: join/condition bugs hide, and the naive oracle is cubic).
OBJECTS = ("a", "b", "c", "d", "e", "f")

#: The pool of a share (:data:`MIXED_SHARE`) of the stores and their
#: constants: ``==`` classes spelled several ways (``1``/``True``/``1.0``,
#: ``0.0``/``-0.0``, ``(1,)``/``(True,)``) beside strings.  A store keeps
#: one object per class, and every engine must answer it as the oracle
#: spells it.  Ordered so that every prefix a store draws mixes them.
MIXED_OBJECTS = (1, True, "a", 1.0, (1,), -0.0, "b", (True,), 0.0, "c")
MIXED_SHARE = 0.25

#: ρ-value pools, from maximal collision (one class) to near-injective.
DATA_VALUE_POOLS = ((0,), (0, 1), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5))

#: Edge labels for generated graphs (GXPath / NRE cases).
GRAPH_LABELS = ("a", "b")

#: The columnar kernel's block constants on the ``vector-blocks`` axis.
#: The stores here hold at most a few dozen rows, far less than one real
#: block (2¹⁵ rows), so without the patch no case would cross a block
#: boundary; 3 rows / 4 pairs splits operands, match ranges and single
#: rows' groups mid-way.
TINY_BLOCKS = {"_ROW_BLOCK": 3, "_PAIR_BLOCK": 4}

#: The dense-reachability guard on the ``vector-sparse`` axis.  The stores
#: here hold about six objects, far below the real guard (512), so every
#: reach star on an array backend would take the dense kernel and the
#: sparse fixpoint would never meet the oracle; 0 objects forces it.
SPARSE_REACH = {"DENSE_MATRIX_MAX_OBJECTS": 0}


class Patched:
    """A columnar engine run with some of :mod:`vectorized`'s constants
    patched (:data:`TINY_BLOCKS`, :data:`SPARSE_REACH`).

    The constants are patched around each evaluation and restored after
    it, so the rest of the matrix runs the real ones.
    """

    def __init__(self, engine, constants: dict) -> None:
        self.engine = engine
        self.constants = constants

    def evaluate(self, expr: Expr, store: Triplestore):
        with mock.patch.multiple(vectorized, **self.constants):
            return self.engine.evaluate(expr, store)


def default_engines() -> dict[str, object]:
    """The engine matrix under test: oracle + set/columnar/sharded plan engines.

    The sharded engine runs with three shards (uneven splits over the
    six-object pool exercise empty and skewed shards); its
    subject-partitioned scans meet both co-partitioned and repartition
    joins in the random expressions.  The ``vector-blocks`` axis runs the
    vectorised and the sharded engine once more with the kernel's block
    sizes patched tiny (:data:`TINY_BLOCKS`), and the ``vector-sparse``
    axis once more with the dense reachability guard patched to 0
    objects (:data:`SPARSE_REACH`), so reach stars run the sparse
    fixpoint.
    """
    return {
        "naive": NaiveEngine(),
        "hash": HashJoinEngine(),
        "fast": FastEngine(),
        "vector": VectorEngine(),
        "sharded": ShardedEngine(shards=3),
        "vector-blocks": Patched(VectorEngine(), TINY_BLOCKS),
        "sharded-blocks": Patched(ShardedEngine(shards=3), TINY_BLOCKS),
        "vector-sparse": Patched(VectorEngine(), SPARSE_REACH),
        "sharded-sparse": Patched(ShardedEngine(shards=3), SPARSE_REACH),
    }


# --------------------------------------------------------------------- #
# Store generators
# --------------------------------------------------------------------- #


def random_pool(rng: random.Random) -> tuple:
    """The object pool of one case: :data:`MIXED_OBJECTS` for a
    :data:`MIXED_SHARE` of them, :data:`OBJECTS` otherwise."""
    return MIXED_OBJECTS if rng.random() < MIXED_SHARE else OBJECTS


def random_triplestore(rng: random.Random, pool: tuple = OBJECTS) -> Triplestore:
    """A random store with varied density, ρ-collisions and self-loops.

    Sweeps the profile knobs per draw: triple count 0..14 over 2 or more
    objects of ``pool`` (densities from empty to near-complete on the
    small end), ρ drawn from pools of 1..6 distinct values
    (collision-heavy to near-injective), forced self-loop triples half
    the time, and a second relation ``F`` a third of the time.
    """
    objects = pool[: rng.randint(2, len(pool))]
    n_triples = rng.randint(0, 14)
    triples = {
        (rng.choice(objects), rng.choice(objects), rng.choice(objects))
        for _ in range(n_triples)
    }
    if rng.random() < 0.5 and objects:
        # Self-loops exercise the o == s corner of reachability and the
        # diagonal corners of θ-conditions.
        loop_obj = rng.choice(objects)
        triples.add((loop_obj, rng.choice(objects), loop_obj))
        if rng.random() < 0.3:
            triples.add((loop_obj, loop_obj, loop_obj))
    relations = {"E": triples}
    if rng.random() < 0.33:
        relations["F"] = {
            (rng.choice(objects), rng.choice(objects), rng.choice(objects))
            for _ in range(rng.randint(0, 6))
        }
    pool = rng.choice(DATA_VALUE_POOLS)
    rho = {o: rng.choice(pool) for o in objects}
    return Triplestore(relations, rho)


def random_graph(rng: random.Random) -> GraphDB:
    """A small labelled graph with data values (for GXPath/NRE cases)."""
    nodes = [f"v{i}" for i in range(rng.randint(2, 6))]
    edges = {
        (rng.choice(nodes), rng.choice(GRAPH_LABELS), rng.choice(nodes))
        for _ in range(rng.randint(1, 10))
    }
    used = sorted({u for u, _, _ in edges} | {v for _, _, v in edges})
    pool = rng.choice(DATA_VALUE_POOLS)
    rho = {v: rng.choice(pool) for v in used}
    return GraphDB(used, edges, rho)


# --------------------------------------------------------------------- #
# Expression generators
# --------------------------------------------------------------------- #


def _random_term(rng: random.Random, max_pos: int, on_data: bool, objects):
    if rng.random() < 0.35:
        pool = (0, 1) if on_data else objects
        return Const(rng.choice(pool))
    return Pos(rng.randint(0, max_pos))


def random_condition(
    rng: random.Random, max_pos: int, objects=OBJECTS
) -> Cond:
    on_data = rng.random() < 0.5
    left = Pos(rng.randint(0, max_pos))
    right = _random_term(rng, max_pos, on_data, objects)
    return Cond(left, right, rng.choice(("=", "!=")), on_data)


def random_conditions(
    rng: random.Random, max_pos: int, max_conds: int = 2, objects=OBJECTS
) -> tuple[Cond, ...]:
    return tuple(
        random_condition(rng, max_pos, objects)
        for _ in range(rng.randint(0, max_conds))
    )


def _random_out(rng: random.Random) -> tuple[int, int, int]:
    return (rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5))


def random_expression(
    rng: random.Random,
    max_depth: int = 3,
    allow_star: bool = True,
    relations: tuple[str, ...] = ("E",),
    objects: tuple = OBJECTS,
) -> Expr:
    """A random TriAL(*) expression (U excluded, as in the property tests)
    whose constants are drawn from ``objects``.

    Star operands stay shallow so the naive oracle's full-re-join
    fixpoints do not dominate the run; every reach-shaped star the
    generator happens to produce exercises the Prop 4/5 operators.
    """

    def sub(depth: int = max_depth - 1) -> Expr:
        return random_expression(rng, depth, allow_star, relations, objects)

    def conditions(max_pos: int, max_conds: int = 2) -> tuple[Cond, ...]:
        return random_conditions(rng, max_pos, max_conds, objects)

    if max_depth <= 0:
        return Rel(rng.choice(relations))
    kind = rng.choice(
        ("rel", "select", "union", "diff", "intersect", "join", "join")
        + (("star", "lstar", "reach", "onesided") if allow_star else ("onesided",))
    )
    if kind == "rel":
        return Rel(rng.choice(relations))
    if kind == "select":
        inner = sub()
        return Select(inner, conditions(2))
    if kind in ("union", "diff", "intersect"):
        cls = {"union": Union, "diff": Diff, "intersect": Intersect}[kind]
        return cls(sub(), sub())
    if kind == "join":
        return Join(sub(), sub(), _random_out(rng), conditions(5))
    if kind == "onesided":
        # No cross condition and an output read from one operand (the
        # shape NRE ``a.[b]`` / GXPath ``a/[<b>]`` compile to), hit on
        # purpose: local and constant-only conditions still gate it.
        base = rng.choice((0, 3))
        out = tuple(base + rng.randint(0, 2) for _ in range(3))
        conds = conditions(2, 1) + tuple(c.swap_sides() for c in conditions(2, 1))
        inner = sub()
        if allow_star and rng.random() < 0.3:
            return Star(inner, out, conds, rng.choice(("right", "left")))
        return Join(inner, sub(), out, conds)
    if kind == "reach":
        # The two Proposition 5 shapes, hit on purpose (random out specs
        # almost never produce them).
        conds = "3=1'" if rng.random() < 0.5 else "3=1' & 2=2'"
        return Star(Rel(rng.choice(relations)), "1,2,3'", conds)
    inner = (
        Rel(rng.choice(relations))
        if rng.random() < 0.5
        else Select(Rel(rng.choice(relations)), conditions(2, 1))
    )
    side = "right" if kind == "star" else "left"
    return Star(inner, _random_out(rng), conditions(5), side)


def random_semantic_conditions(
    rng: random.Random, max_pos: int, objects=OBJECTS
) -> tuple[Cond, ...]:
    """Condition lists biased toward the semantic analyzer's verdicts.

    Random conditions almost never produce a contradiction or an
    entailment, so the ``SEM-UNSAT``/``SEM-REDUNDANT``-gated rewrites
    would go untested; these templates plant contradictory pairs,
    duplicates, θ-entailed η-conditions and statically-decided
    constant comparisons (plus one *satisfiable* near-miss — η-equality
    with θ-inequality — that an unsound analyzer would wrongly prune).
    """
    i, j = rng.randint(0, max_pos), rng.randint(0, max_pos)
    a, b = rng.sample(objects[:4], 2)
    templates: tuple[tuple[Cond, ...], ...] = (
        (Cond(Pos(i), Const(a)), Cond(Pos(i), Const(b))),
        (Cond(Pos(i), Pos(j)), Cond(Pos(i), Pos(j), "!=")),
        (Cond(Pos(i), Pos(j)), Cond(Pos(i), Pos(j))),
        (Cond(Pos(i), Pos(j)), Cond(Pos(i), Pos(j), "=", True)),
        (Cond(Pos(i), Pos(i)),),
        (Cond(Pos(i), Pos(i), "!="),),
        (Cond(Pos(i), Pos(j), "=", True), Cond(Pos(i), Pos(j), "!=")),
        (Cond(Const(a), Const(b)),),
        (Cond(Const(a), Const(a)),),
        (Cond(Pos(i), Const(a)), Cond(Pos(j), Const(a)), Cond(Pos(i), Pos(j))),
    )
    conds = rng.choice(templates)
    if rng.random() < 0.5:
        conds = conds + random_conditions(rng, max_pos, 1, objects)
    return tuple(dict.fromkeys(conds))


def random_semantic_expression(
    rng: random.Random, relations: tuple[str, ...] = ("E",), objects: tuple = OBJECTS
) -> Expr:
    """A TriAL(*) expression seeded with analyzer-triggering shapes, its
    constants drawn from ``objects``."""

    def expression(depth: int) -> Expr:
        return random_expression(rng, depth, relations=relations, objects=objects)

    def conditions(max_pos: int) -> tuple[Cond, ...]:
        return random_semantic_conditions(rng, max_pos, objects)

    base = expression(2)
    shape = rng.choice(("select", "join", "star", "diff-self", "nested"))
    if shape == "select":
        return Select(base, conditions(2))
    if shape == "join":
        return Join(base, expression(1), _random_out(rng), conditions(5))
    if shape == "star":
        inner = Rel(rng.choice(relations))
        return Star(inner, _random_out(rng), conditions(5))
    if shape == "diff-self":
        # Diff(e, e) is provably empty; wrapping it exercises the
        # bottom-up emptiness propagation through an enclosing operator.
        dead = Diff(base, base)
        if rng.random() < 0.5:
            return Union(dead, expression(1))
        return Join(
            dead, expression(1), _random_out(rng), random_conditions(rng, 5, 2, objects)
        )
    return Select(Select(base, conditions(2)), conditions(2))


def random_gxpath(rng: random.Random, max_depth: int = 3) -> gx.PathExpr:
    """A random GXPath path expression over :data:`GRAPH_LABELS`."""
    if max_depth <= 0:
        return gx.Axis(rng.choice(GRAPH_LABELS), forward=rng.random() < 0.7)
    kind = rng.choice(("axis", "concat", "union", "star", "test", "data"))
    if kind == "axis":
        return gx.Axis(rng.choice(GRAPH_LABELS), forward=rng.random() < 0.7)
    if kind == "concat":
        return gx.Concat(
            random_gxpath(rng, max_depth - 1), random_gxpath(rng, max_depth - 1)
        )
    if kind == "union":
        return gx.PathUnion(
            random_gxpath(rng, max_depth - 1), random_gxpath(rng, max_depth - 1)
        )
    if kind == "star":
        return gx.StarPath(random_gxpath(rng, max_depth - 1))
    if kind == "test":
        return gx.Test(gx.HasPath(random_gxpath(rng, max_depth - 1)))
    return gx.DataPathTest(
        random_gxpath(rng, max_depth - 1), equal=rng.random() < 0.5
    )


def random_nre(rng: random.Random, max_depth: int = 3) -> nre_mod.Nre:
    """A random nested regular expression over :data:`GRAPH_LABELS`."""
    if max_depth <= 0:
        return nre_mod.NLabel(rng.choice(GRAPH_LABELS), forward=rng.random() < 0.7)
    kind = rng.choice(("label", "eps", "concat", "alt", "star", "test"))
    if kind == "label":
        return nre_mod.NLabel(rng.choice(GRAPH_LABELS), forward=rng.random() < 0.7)
    if kind == "eps":
        return nre_mod.NEps()
    if kind == "concat":
        return nre_mod.NConcat(
            random_nre(rng, max_depth - 1), random_nre(rng, max_depth - 1)
        )
    if kind == "alt":
        return nre_mod.NAlt(
            random_nre(rng, max_depth - 1), random_nre(rng, max_depth - 1)
        )
    if kind == "star":
        return nre_mod.NStar(random_nre(rng, max_depth - 1))
    return nre_mod.NTest(random_nre(rng, max_depth - 1))


# --------------------------------------------------------------------- #
# Case execution, shrinking and reporting
# --------------------------------------------------------------------- #


@dataclass
class Failure:
    """One disagreement, after shrinking."""

    case_id: str
    expr: Expr
    store: Triplestore
    outcomes: dict[str, object]  # engine name -> result set or error repr

    def snippet(self) -> str:
        return repro_snippet(self.expr, self.store, self.case_id, self.outcomes)


def _evaluate(engine, expr: Expr, store: Triplestore):
    """An engine's verdict: a result set, or the error class it raised."""
    try:
        return engine.evaluate(expr, store)
    except ReproError as exc:
        return f"raised {type(exc).__name__}"


def spelled(outcome):
    """An outcome as it prints: its rows' ``repr`` s, sorted (an error
    verdict as it is).  ``==`` would take ``True`` for ``1``."""
    return outcome if isinstance(outcome, str) else sorted(map(repr, outcome))


def _check(engines: dict[str, object], expr: Expr, store: Triplestore):
    """Outcomes keyed by engine, or None when everyone agrees.

    Every engine is run twice: on the raw expression and (under the
    ``+opt`` keys) on its optimized rewrite with the semantic pruning
    passes on — both must match the *raw* naive witness, so an unsound
    rewrite (e.g. a wrong unsatisfiability verdict emptying a live
    query) shows up as a disagreement even when every engine agrees on
    the rewritten expression.  Answers agree when they print alike
    (:func:`spelled`), objects' spellings included.
    """
    outcomes = {name: _evaluate(eng, expr, store) for name, eng in engines.items()}
    rewritten = optimize(expr)
    if rewritten != expr:
        for name, eng in engines.items():
            outcomes[f"{name}+opt"] = _evaluate(eng, rewritten, store)
    witness = spelled(outcomes["naive"])
    if all(spelled(v) == witness for v in outcomes.values()):
        return None
    return outcomes


def shrink_failure(
    engines: dict[str, object], expr: Expr, store: Triplestore, budget: int = 300
) -> tuple[Expr, Triplestore]:
    """Greedy shrink: drop triples and descend into sub-expressions.

    Keeps shrinking while the disagreement persists, bounded by
    ``budget`` re-evaluations — minimality of the *snippet* matters more
    than true minimality of the case.
    """
    spent = 0

    def still_fails(e: Expr, s: Triplestore) -> bool:
        nonlocal spent
        if spent >= budget:
            return False
        spent += 1
        return _check(engines, e, s) is not None

    changed = True
    while changed and spent < budget:
        changed = False
        # Try replacing the expression by one of its children.
        for child in expr.children():
            if isinstance(child, Expr) and still_fails(child, store):
                expr, changed = child, True
                break
        if changed:
            continue
        # Try dropping one triple from one relation.
        for name in store.relation_names:
            for triple in sorted(store.relation(name), key=repr):
                smaller = store.with_relation(
                    name, store.relation(name) - {triple}
                )
                if still_fails(expr, smaller):
                    store, changed = smaller, True
                    break
            if changed:
                break
    return expr, store


def repro_snippet(
    expr: Expr, store: Triplestore, case_id: str = "case", outcomes=None
) -> str:
    """An executable snippet reproducing one disagreement."""
    relations = {
        name: sorted(store.relation(name), key=repr) for name in store.relation_names
    }
    rho = {k: store.rho(k) for k in sorted(store.objects, key=repr)}
    lines = [
        f"# differential-testing failure: {case_id}",
        "from unittest import mock",
        "",
        "from repro.core import (FastEngine, HashJoinEngine, NaiveEngine,",
        "                        ShardedEngine, VectorEngine)",
        "from repro.core.engines import vectorized",
        "from repro.core.optimizer import optimize",
        "from repro.core.parser import parse",
        "from repro.triplestore.model import Triplestore",
        "",
        f"store = Triplestore({relations!r}, rho={rho!r})",
        f"expr = parse({repr(expr)!r})",
        "spelled = lambda rows: sorted(map(repr, rows))  # 1 and True differ",
        "expected = spelled(NaiveEngine().evaluate(expr, store))",
        "for engine in (NaiveEngine(), HashJoinEngine(), FastEngine(), VectorEngine(),",
        "               ShardedEngine(shards=3)):",
        "    assert spelled(engine.evaluate(expr, store)) == expected, type(engine).__name__",
        "    assert spelled(engine.evaluate(optimize(expr), store)) == expected, \\",
        "        f'{type(engine).__name__}+opt'",
        "",
        "# the vector-blocks axis: the columnar kernel with tiny blocks",
        f"with mock.patch.multiple(vectorized, **{TINY_BLOCKS!r}):",
        "    for engine in (VectorEngine(), ShardedEngine(shards=3)):",
        "        assert spelled(engine.evaluate(expr, store)) == expected, \\",
        "            f'{type(engine).__name__}-blocks'",
        "        assert spelled(engine.evaluate(optimize(expr), store)) == expected, \\",
        "            f'{type(engine).__name__}-blocks+opt'",
        "",
        "# the vector-sparse axis: reach stars on the sparse fixpoint",
        f"with mock.patch.multiple(vectorized, **{SPARSE_REACH!r}):",
        "    for engine in (VectorEngine(), ShardedEngine(shards=3)):",
        "        assert spelled(engine.evaluate(expr, store)) == expected, \\",
        "            f'{type(engine).__name__}-sparse'",
        "        assert spelled(engine.evaluate(optimize(expr), store)) == expected, \\",
        "            f'{type(engine).__name__}-sparse+opt'",
    ]
    if outcomes is not None:
        lines.insert(1, "# outcomes: " + "; ".join(
            f"{name}={_summarise(v)}" for name, v in sorted(outcomes.items())
        ))
    return "\n".join(lines) + "\n"


def _summarise(outcome) -> str:
    if isinstance(outcome, str):
        return outcome
    if len(outcome) <= 3:  # small enough to show how it is spelled
        return ", ".join(spelled(outcome)) or "0 triples"
    return f"{len(outcome)} triples"


def run_differential(
    n_cases: int = 200,
    seed: int = 0,
    engines: dict[str, object] | None = None,
    case_kinds: Iterable[str] = ("trial",),
    on_failure: Callable[[Failure], None] | None = None,
    max_failures: int = 5,
) -> list[Failure]:
    """Run ``n_cases`` seeded random cases; return (shrunk) failures.

    ``case_kinds`` picks the generators: ``"trial"`` draws raw TriAL(*)
    expressions over random triplestores; ``"gxpath"`` and ``"nre"`` draw
    graph-language expressions, translate them to TriAL* (Theorem 7 /
    Section 6.2) and run the translations over graph-encoded stores.
    Each case is independently seeded from (seed, index) so any single
    case replays without re-running the sweep.
    """
    if engines is None:
        engines = default_engines()
    kinds = tuple(case_kinds)
    failures: list[Failure] = []
    for index in range(n_cases):
        rng = random.Random(f"{seed}:{index}")
        kind = kinds[index % len(kinds)]
        if kind == "trial":
            pool = random_pool(rng)
            store = random_triplestore(rng, pool)
            names = store.relation_names
            expr = random_expression(rng, max_depth=3, relations=names, objects=pool)
        elif kind == "semantic":
            pool = random_pool(rng)
            store = random_triplestore(rng, pool)
            expr = random_semantic_expression(rng, store.relation_names, pool)
        elif kind == "gxpath":
            graph = random_graph(rng)
            store = graph.to_triplestore()
            expr = gxpath_to_trial(random_gxpath(rng))
        elif kind == "nre":
            graph = random_graph(rng)
            store = graph.to_triplestore()
            expr = nre_to_trial(random_nre(rng))
        else:
            raise ValueError(f"unknown case kind {kind!r}")
        outcomes = _check(engines, expr, store)
        if outcomes is None:
            continue
        expr, store = shrink_failure(engines, expr, store)
        failure = Failure(
            f"kind={kind} seed={seed} index={index}",
            expr,
            store,
            _check(engines, expr, store) or outcomes,
        )
        failures.append(failure)
        if on_failure is not None:
            on_failure(failure)
        if len(failures) >= max_failures:
            break
    return failures


# --------------------------------------------------------------------- #
# CLI (the CI nightly entry point)
# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="randomized cross-engine differential testing"
    )
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kinds",
        default="trial,semantic,gxpath,nre",
        help="comma-separated case kinds",
    )
    parser.add_argument(
        "--out", default=None, help="directory for failing repro snippets"
    )
    args = parser.parse_args(argv)
    failures = run_differential(
        args.cases, seed=args.seed, case_kinds=args.kinds.split(",")
    )
    if not failures:
        print(f"OK: {args.cases} cases, all engines agree")
        return 0
    for i, failure in enumerate(failures):
        print(f"--- failure {i}: {failure.case_id}")
        print(failure.snippet())
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"failure_{i}.py")
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(failure.snippet())
            print(f"wrote {path}")
    print(f"FAIL: {len(failures)} disagreement(s) in {args.cases} cases")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
