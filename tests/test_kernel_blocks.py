"""The columnar join kernel works in blocks: scratch O(block), result O(output).

``_merge_join`` consumes its probe operand ``_ROW_BLOCK`` rows at a time
and each block's matches ``_PAIR_BLOCK`` pairs at a time, reads an
intermediate operand as packed keys (per block, per column), and the
fixpoint merges its frontier into the accumulator instead of re-sorting
it.  Everything here is clock-free — what is pinned is agreement with the
oracle across block boundaries, counted work and traced bytes:

(a) *tiny blocks* — with the constants patched to 3 rows / 4 pairs (and
    1 / 1) every join shape and every fixpoint agrees with
    ``NaiveEngine`` on ``VectorEngine`` and ``ShardedEngine(shards=3)``,
    and the kernel agrees with the set backend's join on sorted and on
    shuffled operands (what a sharded exchange makes), on both build
    sides;
(b) *property* — the disjoint merge is the sorted union;
(c) *spies* — after round 1 a star sorts nothing as long as its
    accumulator, the sharded round never calls ``_union_sorted``;
(d) *traced bytes* — the paper's Example 3 on a network whose outer
    star spans four row blocks, and a cross product of 4·10⁷ pairs whose
    projection collapses;
(e) *spies* — a join, star or filter over an intermediate operand never
    unpacks more than one block of it at a time.
"""

from __future__ import annotations

import gc
import itertools
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import FastEngine, NaiveEngine, ShardedEngine, VectorEngine
from repro.core.engines import sharded, vectorized
from repro.core.engines.vectorized import (
    MappedArrays,
    _Accumulator,
    _absorb,
    _merge_join,
)
from repro.core.expressions import LEFT, RIGHT
from repro.core.parser import parse as parse_expr
from repro.core.plan import HashJoinOp, JoinSpec
from repro.triplestore import columnar
from repro.triplestore.columnar import ColumnarStore, sorted_unique
from repro.triplestore.model import Triplestore
from repro.workloads import transport_network
from tests.test_access_paths import Spy, find

#: Block sizes that split operands, match ranges and single rows' groups.
TINY = [(3, 4), (1, 1)]


def patch_blocks(monkeypatch, rows: int, pairs: int) -> None:
    monkeypatch.setattr(vectorized, "_ROW_BLOCK", rows)
    monkeypatch.setattr(vectorized, "_PAIR_BLOCK", pairs)


def small_store() -> Triplestore:
    """Two relations over nine objects: dense enough that every key has
    several matches, with ρ collisions for the η keys."""
    objs = "abcdefg"
    edges = {
        (objs[i % 7], "pq"[(i * i) % 2], objs[(3 * i + i // 7) % 7]) for i in range(40)
    }
    other = {(objs[(2 * i) % 7], "p", objs[(5 * i + 1) % 7]) for i in range(9)}
    rho = {o: i % 3 for i, o in enumerate(objs)}
    return Triplestore({"E": edges, "F": other}, rho)


# --------------------------------------------------------------------- #
# (a) tiny blocks: every shape agrees with the oracle
# --------------------------------------------------------------------- #

QUERIES = [
    # offsets path (one θ key), probe a base relation / an intermediate
    "join[1,2,3'; 3=1'](E, E)",
    "join[1,2,3'; 3=1'](join[1,2,3'; 3=1'](E, F), E)",
    # sorted-key path: composite θ, η, mixed
    "join[1,2,3'; 3=1' & 2=2'](E, E)",
    "join[1,2',3'; rho(3)=rho(1')](E, F)",
    "join[1,2,3'; rho(3)=rho(1') & 2=2'](E, E)",
    # the planner builds on the smaller side: left here, right there
    "join[1,2,3'; 3=1'](select[2='p' & 1!='a'](F), E)",
    "join[1,2,3'; 3=1'](E, select[2='p' & 1!='a'](F))",
    "join[1',2',3; 1=3'](select[1='c'](E), E)",
    "join[1,2,3'; 3=1'](E, select[3='d'](E))",
    # an intermediate on the build side, key off the packed-key prefix
    "join[1,2,3'; 3=3'](E, join[1,2,3'; 3=1'](F, E))",
    # pair conditions (cross inequalities, θ and η)
    "join[1,2,3'; 3=1' & 1!=3'](E, E)",
    "join[1,2,3'; 3=1' & rho(2)!=rho(2') & 1!=1'](E, F)",
    # one-sided: a projection of one operand
    "join[1,1,3](E, F)",
    "join[3',1',1'](E, select[1!=3](F))",
    # cartesian: no cross equality, both operands read
    "join[1,2',3](E, F)",
    "join[1,2,3'; 1!=1'](F, E)",
    "join[1,1,1; 1!=1' & rho(3)!=rho(3')](E, E)",
    # local conditions left on the join, a filter over an intermediate
    "join[1,2,3'; 3=1' & 1!=2 & 1'!=3'](E, E)",
    "select[1!=3 & rho(1)=rho(2)](join[1,3',3; 2=2'](E, E))",
    # fixpoints: right and left stars, intermediates as the base
    "star[1,2,3'; 3=1' & 1!=3'](E)",
    "star[1,3',3; 2=1'](F)",
    "lstar[1',2,3; 1=3'](E)",
    "lstar[1,2,3'; 3=1' & rho(1)!=rho(3')](select[2='p'](E))",
    "star[1,2,3'; 3=1' & 2=2'](join[1,2,3'; 3=1'](F, F))",
    "star[1,1,3'](F)",
    # reach stars (any / same label) on the join fixpoint, and Example 3
    "star[1,2,3'; 3=1'](F)",
    "star[1,2,3'; 3=1' & 2=2'](E)",
    "star[1,2,3'; 3=1' & 2=2'](star[1,3',3; 2=1'](F))",
]


def columnar_engines(monkeypatch):
    # No dense matrix at all: reach stars take the join fixpoint.
    monkeypatch.setattr(vectorized, "DENSE_MATRIX_MAX_OBJECTS", 0)
    return {"vector": VectorEngine(), "sharded": ShardedEngine(shards=3)}


@pytest.mark.parametrize("blocks", TINY, ids=lambda b: f"{b[0]}rows-{b[1]}pairs")
@pytest.mark.parametrize(
    "patch",
    [
        None,
        # every single-θ path keeps sorted keys instead of offsets
        (columnar, "_OFFSETS_MAX_FANOUT", 0),
        # one key part fits; every further equality becomes a pair condition
        (vectorized, "_MAX_COMPOSITE_KEY", 9),
    ],
    ids=["default", "sorted-keys-only", "key-overflow"],
)
def test_every_join_shape_and_fixpoint_agrees_across_block_boundaries(
    monkeypatch, blocks, patch
):
    patch_blocks(monkeypatch, *blocks)
    if patch is not None:
        monkeypatch.setattr(*patch)
    store = small_store()
    oracle = NaiveEngine()
    seen = set()
    pair_blocks = vectorized._pair_blocks

    def spied_pair_blocks(cs, path, key, probe, n_build):
        shape = "cartesian" if path is None else "offsets" if path.offsets is not None else "keys"
        seen.add((shape, "sorted" if np.all(probe[1:] > probe[:-1]) else "shuffled"))
        for li, ri in pair_blocks(cs, path, key, probe, n_build):
            assert len(li) == len(ri) <= blocks[1]
            yield li, ri

    monkeypatch.setattr(vectorized, "_pair_blocks", spied_pair_blocks)
    for text in QUERIES:
        expr = parse_expr(text)
        expected = oracle.evaluate(expr, store)
        for name, engine in columnar_engines(monkeypatch).items():
            plan = engine.compile(expr, store)
            seen.update(op.build_side for op in find(plan, HashJoinOp))
            assert engine.execute_plan(plan, store) == expected, (name, text)
    # The list reaches what it says it reaches.
    assert {LEFT, RIGHT, ("cartesian", "sorted")} <= seen
    if patch is None:
        assert {
            (shape, layout) for shape in ("offsets", "keys") for layout in ("sorted", "shuffled")
        } <= seen


def spec_of(text: str) -> JoinSpec:
    expr = parse_expr(text)
    return JoinSpec(expr.out, expr.conditions)


KERNEL_SPECS = [
    "join[1,2,3'; 3=1'](E, F)",
    "join[3',2,1; 1=3' & 2=2'](E, F)",
    "join[1,2',3; rho(2)=rho(3') & 1!=1'](E, F)",
    "join[2,2',2; 1!=3'](E, F)",
    "join[1,3',3](E, F)",
    "join[2',3',3'](E, F)",
]


@pytest.mark.parametrize("blocks", TINY + [None], ids=str)
@pytest.mark.parametrize("build_side", [LEFT, RIGHT])
@pytest.mark.parametrize("orders", list(itertools.product(("shuffled", "sorted"), repeat=2)), ids="-".join)
def test_kernel_agrees_with_the_set_join_in_any_row_order(monkeypatch, blocks, build_side, orders):
    """An operand is packed keys, sorted or in any row order (as after a
    sharded exchange); either side builds."""
    if blocks is not None:
        patch_blocks(monkeypatch, *blocks)
    store = small_store()
    cs = store.columnar()

    def operand(name, order):
        keys = cs.relation_keys(name)
        return keys if order == "sorted" else keys[::-1]

    for text in KERNEL_SPECS:
        spec = spec_of(text)
        keys = _merge_join(
            cs, spec, operand("E", orders[0]), operand("F", orders[1]), build_side
        )
        assert np.array_equal(keys, sorted_unique(keys)) and keys.dtype == np.int64
        expected = spec.execute(store.relation("E"), store.relation("F"), store.rho)
        assert cs.decode_triples(keys) == expected, text


def test_held_output_is_folded_when_a_projection_collapses(monkeypatch):
    """Between blocks the kernel holds the sorted unique keys of its last
    fold and the raw keys of the blocks since, and folds them once the
    raw keys pass twice the distinct keys seen (or twice a pair block): a
    projection onto the build side repeats the same few keys block after
    block, and no fold is fed more than that bound plus one pair block."""
    patch_blocks(monkeypatch, 4, 8)
    store = small_store()
    cs = store.columnar()
    spec = spec_of("join[1',1',1'; 1!=1'](E, F)")
    fed = []  # (keys a fold is given, the distinct keys it returns)
    fold = vectorized._fold

    def spied(parts, mem):
        out = fold(parts, mem)
        fed.append((sum(map(len, parts)), len(out)))
        return out

    with mock.patch.object(vectorized, "_fold", spied):
        keys = _merge_join(cs, spec, cs.relation_keys("E"), cs.relation_keys("F"))
    expected = spec.execute(store.relation("E"), store.relation("F"), store.rho)
    assert cs.decode_triples(keys) == expected
    n_pairs = len(store.relation("E")) * len(store.relation("F"))
    assert n_pairs >= 30 * 8, "dozens of pair blocks"
    assert len(fed) >= 4 and fed[-1][1] == len(expected)
    distinct = 0
    for given, out in fed:
        assert given <= distinct + 2 * max(distinct, 8) + 8
        distinct = out


# --------------------------------------------------------------------- #
# (b) property: the disjoint merge is the sorted union
# --------------------------------------------------------------------- #

key_sets = st.frozensets(st.integers(min_value=0, max_value=2**62), max_size=40)


def as_keys(values) -> np.ndarray:
    return np.array(sorted(values), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(key_sets, key_sets, st.sampled_from([1, 2, 3, 1 << 14]))
@example(frozenset(), frozenset(), 3)
@example(frozenset({5}), frozenset(), 3)
@example(frozenset(), frozenset({5}), 3)
@example(frozenset({10, 11, 12}), frozenset({1, 2}), 1)  # frontier entirely below
@example(frozenset({1, 2}), frozenset({10, 11, 12}), 1)  # frontier entirely above
@example(frozenset({1, 3, 5}), frozenset({0, 2, 4, 6}), 2)  # interleaved, both ends
def test_disjoint_merge_is_the_sorted_union(left, right, block):
    acc = as_keys(left)
    # A disjoint frontier merged into the accumulator where it lies.
    merged = _Accumulator(acc, MappedArrays())
    merged.merge(as_keys(right - left))
    assert np.array_equal(merged.keys, as_keys(left | right)) and merged.keys.dtype == np.int64
    # One round's bookkeeping, at any block size: what was produced may
    # overlap the accumulator.
    produced = as_keys(right)
    with mock.patch.object(vectorized, "_ROW_BLOCK", block):
        grown = _Accumulator(acc, MappedArrays())
        fresh = _absorb(grown, produced)
    assert np.array_equal(grown.keys, as_keys(left | right))
    assert np.array_equal(fresh, as_keys(right - left))
    # Inputs are shared with cached results and other versions: never written.
    assert np.array_equal(acc, as_keys(left)) and np.array_equal(produced, as_keys(right))


# --------------------------------------------------------------------- #
# (c) spies: the accumulator is merged into, not re-sorted
# --------------------------------------------------------------------- #


def chain(n: int) -> Triplestore:
    node = [f"n{i:03d}" for i in range(n + 1)]
    return Triplestore([(node[i], "p", node[i + 1]) for i in range(n)])


@pytest.mark.parametrize(
    "text", ["star[1,2,3'; 3=1'](E)", "lstar[1,2,3'; 3=1' & 1!=3'](E)"]
)
def test_after_round_one_a_star_sorts_nothing_as_long_as_its_accumulator(
    monkeypatch, text
):
    """A round merges its frontier into the accumulator where it lies: the
    accumulator's one sort a round is a stable sort (timsort) of two
    sorted runs, its keys then the fresh ones — a merge — and nothing
    else sorted after round one is as long as the accumulator."""
    store = chain(24)
    monkeypatch.setattr(vectorized, "DENSE_MATRIX_MAX_OBJECTS", 0)
    engine = VectorEngine()
    plan = engine.compile(parse_expr(text), store)
    log = []  # ("round", |acc|) markers between the ("sort", length) events
    absorb, merge = vectorized._absorb, vectorized._Accumulator.merge

    def spied_absorb(acc, produced):
        log.append(("round", acc.size))
        return absorb(acc, produced)

    def spied_merge(acc, fresh):
        held = acc.keys
        assert np.all(held[1:] > held[:-1]) and np.all(fresh[1:] > fresh[:-1])
        assert not np.isin(fresh, held).any(), "two disjoint runs"
        return merge(acc, fresh)

    # A fold sorts its concatenation in place, out of np.sort's sight.
    with mock.patch.object(vectorized, "_absorb", spied_absorb), mock.patch.object(
        vectorized._Accumulator, "merge", spied_merge
    ), Spy(np, "sort", lambda a, *r, **k: log.append(("sort", len(a)))), Spy(
        vectorized, "_fold", lambda parts, mem: log.append(("sort", sum(map(len, parts))))
    ):
        result = engine.execute_plan(plan, store)
    assert result == NaiveEngine().evaluate(parse_expr(text), store)
    rounds = [i for i, (what, _) in enumerate(log) if what == "round"]
    assert len(rounds) >= 6
    # Everything sorted from round 2 on (after the first absorb) against
    # the accumulator as it stood when that round began.
    acc_len = 0
    later_sorts = []
    for what, length in log[rounds[0] :]:
        if what == "round":
            acc_len = length
        else:
            later_sorts.append((length, acc_len))
    assert later_sorts and all(length < acc for length, acc in later_sorts)


def test_a_star_round_holds_one_accumulator(monkeypatch):
    """The accumulator grows inside one array reserved with headroom; when
    a round outgrows it the keys move to a larger one and the old one is
    let go — no round begins with two accumulators alive."""
    store = chain(60)
    monkeypatch.setattr(vectorized, "DENSE_MATRIX_MAX_OBJECTS", 0)
    engine = VectorEngine()
    expr = parse_expr("star[1,2,3'; 3=1' & 1!=3'](E)")
    seen = []  # a weak reference to every accumulator array a round began with
    absorb = vectorized._absorb

    def spied(acc, produced):
        if not seen or seen[-1]() is not acc.buf:
            seen.append(weakref.ref(acc.buf))
        assert sum(ref() is not None for ref in seen) == 1
        return absorb(acc, produced)

    with mock.patch.object(vectorized, "_absorb", spied):
        result = engine.evaluate(expr, store)
    assert result == FastEngine().evaluate(expr, store)
    assert len(seen) >= 3, "the chain outgrows the reservation more than once"


def test_sharded_round_merges_without_union_sorted(monkeypatch):
    store = chain(24)
    monkeypatch.setattr(vectorized, "DENSE_MATRIX_MAX_OBJECTS", 0)
    engine = ShardedEngine(shards=3)
    expr = parse_expr("star[1,2,3'; 3=1'](E)")
    with Spy(sharded, "_union_sorted") as unions, Spy(sharded, "_absorb") as absorbs:
        assert engine.evaluate(expr, store) == NaiveEngine().evaluate(expr, store)
    assert not unions.lengths and len(absorbs.lengths) >= 6 * 3


# --------------------------------------------------------------------- #
# (d) traced bytes
# --------------------------------------------------------------------- #


def held_at_once(run):
    """``(result, the most bytes run() held at once)``: traced heap plus
    the bytes live in :class:`MappedArrays` mappings, which tracemalloc
    does not see.  The mapped bytes change only when a mapping is made,
    grown, trimmed or let go, so the traced peak between two such
    changes plus the mapped bytes over that stretch is the stretch's
    most — read at every change."""
    count, live, most = MappedArrays._count, {}, 0

    def spied(self, key, nbytes):
        nonlocal most
        most = max(most, tracemalloc.get_traced_memory()[1] - before + sum(live.values()))
        count(self, key, nbytes)
        live[id(self)] = self.live
        tracemalloc.reset_peak()

    with mock.patch.object(MappedArrays, "_count", spied):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return result, max(most, peak - before + sum(live.values()))


def example_3() -> tuple[Triplestore, str]:
    """The paper's Example 3 on a Figure 1-shaped network whose outer
    star's base (117 334 rows) spans eight row blocks."""
    store = transport_network(20_000, 900, 25, hierarchy_depth=2, extra_routes=18_000, seed=7)
    return store, "star[1,2,3'; 3=1' & 2=2'](star[1,3',3; 2=1'](E))"


def test_example_3_allocates_a_small_multiple_of_its_result():
    """``Q = star[1,2,3'; 3=1' & 2=2'](star[1,3',3; 2=1'](E))``.

    One execution used to hold 11.61× its result in numpy scratch on this
    network (whole-operand probe arrays, an (N, 3) unpack, a re-sort of
    the accumulator per round); the block kernel took that to 5.4×.  With
    every large array mapped once and each accumulator grown in place it
    held 3.17× (2.95 MiB at once; 1.88 MiB traced heap alone) — the inner
    star's result, which the outer star reads to its end, beside the
    outer accumulator, and one join's block scratch.  Since the join's
    pair blocks keep two or three row-block arrays where they kept five,
    it holds 3.03× (2.82 MiB; 1.63 MiB traced heap alone).
    """
    store, text = example_3()
    engine = VectorEngine()
    plan = engine.compile(parse_expr(text), store)
    inner = engine.compile(parse_expr("star[1,3',3; 2=1'](E)"), store)
    _, base = engine.execute_plan_keys(inner, store)  # also warms the store's paths
    assert len(base) > 7 * vectorized._ROW_BLOCK
    (cs, keys), held = held_at_once(lambda: engine.execute_plan_keys(plan, store))
    assert held / keys.nbytes <= 3.1, f"{held / keys.nbytes:.2f}x"
    assert cs.decode_triples(keys) == FastEngine().evaluate(parse_expr(text), store)


def test_example_3_maps_its_large_arrays_and_gives_them_back():
    """Both stars' accumulators pass 1 MiB with their headroom, so each
    is a mapping of the query context's :class:`MappedArrays`: at the
    outer star's end the context holds the inner answer and the outer
    one at once, and once the answers are let go it holds nothing."""
    store, text = example_3()
    engine = VectorEngine()
    plan = engine.compile(parse_expr(text), store)
    inner = engine.execute_plan_keys(engine.compile(parse_expr("star[1,3',3; 2=1'](E)"), store), store)[1]
    ctx = vectorized.VectorExecContext(store)
    keys, mem = ctx.run(plan), ctx.mem
    assert np.array_equal(keys, engine.execute_plan_keys(plan, store)[1])
    assert mem.high_water >= inner.nbytes + keys.nbytes
    assert mem.live >= inner.nbytes + keys.nbytes  # the memo holds both
    del keys, ctx
    gc.collect()
    assert mem.live == 0


def test_cross_product_scratch_does_not_grow_with_the_pairs():
    """A join with no cross equality asked numpy for ``n_left·n_right``
    index pairs before it looked at a condition (a 1.6 GiB request for
    16 105 × 13 706 rows).  4·10⁷ pairs here, and a projection that
    collapses them to at most one operand's rows."""
    n_a, n_b = 8_000, 5_000
    store = Triplestore(
        {
            "A": [(f"a{i:04d}", "l00", f"x{i % 97:02d}") for i in range(n_a)],
            "B": [(f"b{i:04d}", "l01", f"x{i % 89:02d}") for i in range(n_b)],
        }
    )
    engine = VectorEngine()
    for text, rows in (
        ("join[1,1,1; 1!=1'](A, B)", n_a),
        # read from the build side: every pair block repeats the same keys
        ("join[1',1',1'; 1!=1'](A, B)", n_b),
    ):
        plan = engine.compile(parse_expr(text), store)
        (cs, keys), peak = held_at_once(lambda: engine.execute_plan_keys(plan, store))
        assert len(keys) == rows
        column = cs.column(keys, 0)
        assert np.array_equal(column, cs.column(keys, 1)) and np.array_equal(column, cs.column(keys, 2))
        # A few dozen block-sized temporaries; the pairs alone are 320 MB a column.
        assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB"


# --------------------------------------------------------------------- #
# (e) spies: an intermediate operand is unpacked a block at a time
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "text",
    [
        # intermediates on the probe and on the build side, keys off the prefix
        "join[1,2,3'; 3=1'](join[1,2,3'; 3=1'](E, E), join[1,3,3'; 3=1'](E, E))",
        "join[1,2,3'; 3=3' & 1!=1'](join[1,2,3'; 3=1'](E, E), join[1,2,3'; 3=1'](E, E))",
        # local conditions and a filter over an intermediate
        "select[1!=3](join[1,2,3'; 3=1' & 1!=2](join[1,2,3'; 3=1'](E, E), E))",
        # fixpoints over an intermediate base: right, left, Example 3's shape
        "star[1,2,3'; 3=1' & 1!=3'](join[1,2,3'; 3=1'](E, E))",
        "lstar[1',2,3; 1=3' & 2!=2'](join[1,2,3'; 3=1'](E, E))",
        "star[1,2,3'; 3=1' & 2=2'](star[1,3',3; 2=1'](E))",
    ],
)
def test_an_intermediate_operand_is_never_unpacked_more_than_a_block_at_a_time(
    monkeypatch, text
):
    rows, pairs = 8, 16
    patch_blocks(monkeypatch, rows, pairs)
    edges = [(f"v{i:02d}", f"l{i % 3}", f"v{(i * 7 + 3) % 60:02d}") for i in range(60)]
    edges += [(f"l{i}", "sub", f"l{(i + 1) % 3}") for i in range(2)]
    store = Triplestore(edges)
    monkeypatch.setattr(vectorized, "DENSE_MATRIX_MAX_OBJECTS", 0)
    engine = VectorEngine()
    expr = parse_expr(text)
    plan = engine.compile(expr, store)
    expected = NaiveEngine().evaluate(expr, store)
    engine.execute_plan_keys(plan, store)  # the base relation's cached columns


    def packed(*operands):
        return max(map(len, operands), default=0)

    with Spy(ColumnarStore, "unpack") as unpack, Spy(
        ColumnarStore, "column", lambda self, keys, pos: len(keys)
    ) as column, Spy(
        ColumnarStore, "key_column", lambda self, rows, key: packed(rows)
    ) as key_column, Spy(
        vectorized, "_merge_join", lambda cs, spec, left, right, *rest: packed(left, right)
    ) as joins, Spy(
        vectorized, "_local_mask", lambda cs, conds, rows: packed(rows)
    ) as masks:
        cs, keys = engine.execute_plan_keys(plan, store)
    assert cs.decode_triples(keys) == expected
    assert max(joins.lengths + masks.lengths) > 3 * pairs, "a packed operand of many blocks"
    assert unpack.lengths == []
    assert column.lengths and max(column.lengths) <= pairs
    assert max(key_column.lengths, default=0) <= rows


# --------------------------------------------------------------------- #
# (f) spies on Example 3 at the real constants: no key column beside a
# prefix path, no block array past a pair block
# --------------------------------------------------------------------- #


def test_a_prefix_path_keeps_the_operand_itself():
    """The outer star's constant operand is indexed on positions 1–2,
    a prefix of its packed keys: the path searches the operand at
    ``needle·n``, and holds no key column of its own."""
    store, text = example_3()
    engine = VectorEngine()
    plan = engine.compile(parse_expr(text), store)
    built = []
    build_path = ColumnarStore.build_path

    def spied(self, rows, key, presorted=False, column=None):
        path = build_path(self, rows, key, presorted, column)
        built.append((rows, key, presorted, path))
        return path

    with mock.patch.object(ColumnarStore, "build_path", spied):
        cs, keys = engine.execute_plan_keys(plan, store)
    prefix = [(rows, path) for rows, key, presorted, path in built if key == ((0, False), (1, False))]
    assert prefix and all(presorted for _, key, presorted, _ in built if key == ((0, False), (1, False)))
    for rows, path in prefix:
        assert path.keys is rows and path.perm is None and path.scale == cs.radix
    assert cs.decode_triples(keys) == FastEngine().evaluate(parse_expr(text), store)


def test_no_block_array_exceeds_a_pair_block():
    """At ``_ROW_BLOCK = 2¹⁴`` and ``_PAIR_BLOCK = 2¹⁵``, every array the
    kernel handles a block at a time — pairs, the columns gathered for
    them, key columns, masks, the keys a fixpoint tests for freshness —
    is at most 2¹⁵ rows, while the operands run to 117 334."""
    assert (vectorized._ROW_BLOCK, vectorized._PAIR_BLOCK) == (2**14, 2**15)
    store, text = example_3()
    engine = VectorEngine()
    plan = engine.compile(parse_expr(text), store)
    engine.execute_plan_keys(plan, store)  # the base relation's paths
    pairs = []
    pair_blocks = vectorized._pair_blocks

    def spied_pair_blocks(*args):
        for li, ri in pair_blocks(*args):
            pairs.append(len(li))
            yield li, ri

    with mock.patch.object(vectorized, "_pair_blocks", spied_pair_blocks), Spy(
        ColumnarStore, "column", lambda self, keys, pos: len(keys)
    ) as column, Spy(
        ColumnarStore, "key_column", lambda self, rows, key: len(rows)
    ) as key_column, Spy(vectorized, "_member_mask", lambda keys, within: len(keys)) as fresh, Spy(
        vectorized, "_merge_join", lambda cs, spec, left, right, *rest, **k: max(len(left), len(right))
    ) as joins:
        cs, keys = engine.execute_plan_keys(plan, store)
    assert cs.decode_triples(keys) == FastEngine().evaluate(parse_expr(text), store)
    assert max(joins.lengths) > 7 * 2**14
    for lengths in (pairs, column.lengths, key_column.lengths, fresh.lengths):
        assert lengths and max(lengths) <= 2**15
