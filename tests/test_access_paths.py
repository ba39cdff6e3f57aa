"""The columnar backend uses the access paths the planner chose.

A :class:`~repro.triplestore.columnar.AccessPath` groups the rows of a
relation (or a join operand) by a key; the store caches one per base
relation and key, versions share them like the key arrays, and the
vectorised engine joins by *build a path, probe it*.  Everything here is
clock-free — what is pinned is structure and counted work:

(a) *property* — a path sorts its key column stably and its offsets /
    sorted keys delimit the equal-key groups, for every position and for
    composite θ/η keys, with and without code-addressed offsets;
(b) *sharing* — ``derive`` hands the paths of untouched relations on by
    reference (both ways: the table itself is shared), replaced
    relations and grown dictionaries get fresh ones, every array is
    read-only;
(c) *spies* — a join on the store's index neither unpacks nor argsorts
    the base relation, a star indexes its constant operand once however
    many rounds it runs, an index lookup evaluates its residual on the
    looked-up rows only;
(d) *one-sided joins* touch each operand row once, not each pair;
(e) *differential* — the engine matrix agrees with ``NaiveEngine``, every
    plan verified, also with the offsets switched off and with the
    composite key forced to overflow into pair conditions.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NaiveEngine, VectorEngine
from repro.core.engines import vectorized
from repro.core.parser import parse as parse_expr
from repro.core.plan import HashJoinOp, IndexLookupOp, JoinSpec, ReachStarOp, StarOp
from repro.db import Database
from repro.triplestore import columnar
from repro.triplestore.columnar import AccessPath, ColumnarStore
from repro.triplestore.model import Triplestore
from tests.diffcheck import run_differential

# --------------------------------------------------------------------- #
# (a) property: a path is a stable grouping of its key column
# --------------------------------------------------------------------- #

OBJECTS = ("a", "b", "c", "d", "e", "f", 3)
objects = st.sampled_from(OBJECTS)
triple_sets = st.frozensets(st.tuples(objects, objects, objects), max_size=14)
rhos = st.dictionaries(objects, st.sampled_from((None, 0, 1, "x")), max_size=6)

#: Every key shape the engine asks for: one position, ordered pairs and
#: triples of positions (duplicates included), each part θ or η.
PARTS = [(pos, on_data) for pos in range(3) for on_data in (False, True)]
KEYS = (
    [(p,) for p in PARTS]
    + list(itertools.product(PARTS, repeat=2))
    + [((0, False), (1, False), (2, False)), ((2, True), (0, False), (1, True))]
)


def path_arrays(path: AccessPath) -> list[np.ndarray]:
    return [a for a in (path.perm, path.offsets, path.keys) if a is not None]


def check_path(cs: ColumnarStore, cols: np.ndarray, key, path: AccessPath) -> None:
    column = cs.key_column(cols, key)
    n_rows = len(cols)
    order = np.arange(n_rows) if path.perm is None else path.perm
    ordered = column[order]
    # Sorted by key, and stably: equal keys keep ascending row order.
    assert np.all(ordered[1:] >= ordered[:-1])
    ties = ordered[1:] == ordered[:-1]
    assert np.all(order[1:][ties] > order[:-1][ties])
    assert sorted(order.tolist()) == list(range(n_rows))
    assert (path.offsets is None) != (path.keys is None)
    if path.offsets is not None:
        offsets = path.offsets
        assert len(offsets) == cs.n + 1 and offsets[0] == 0 and offsets[-1] == n_rows
        assert np.all(offsets[1:] >= offsets[:-1])
        for code in range(cs.n):
            assert np.all(ordered[offsets[code] : offsets[code + 1]] == code)
    else:
        assert np.array_equal(path.keys // path.scale, ordered)
    # rows(needle) is the ascending row set of the needle, for hits and misses.
    for needle in {-1, *column.tolist(), int(column.max(initial=0)) + 1}:
        if path.offsets is not None and needle >= cs.n:
            continue  # code-addressed: only codes of the dictionary are asked
        rows = np.arange(n_rows)[path.rows(needle)]
        assert rows.tolist() == np.flatnonzero(column == needle).tolist()
    for arr in path_arrays(path):
        assert not arr.flags.writeable
        if arr is not path.keys:
            assert arr.dtype == np.min_scalar_type(-(n_rows + 1))


@settings(max_examples=60, deadline=None)
@given(triple_sets, rhos, st.booleans())
def test_path_groups_its_key_column_stably(triples, rho, with_offsets):
    store = Triplestore({"E": triples}, rho, extra_objects=("zz",))
    cs = store.columnar()
    fanout = columnar._OFFSETS_MAX_FANOUT if with_offsets else 0
    with mock.patch.object(columnar, "_OFFSETS_MAX_FANOUT", fanout):
        for key in KEYS:
            # A base relation is its packed keys, in key order.
            cols = cs.relation_keys("E")
            path = cs.build_path(cols, key, presorted=True)
            check_path(cs, cols, key, path)
            theta_prefix = key == tuple((p, False) for p in range(len(key)))
            assert (path.perm is None) == theta_prefix
            single_theta = len(key) == 1 and not key[0][1]
            assert (path.offsets is not None) == (
                single_theta and with_offsets and cs.n <= fanout * len(cols)
            )
            # Searched by key: a prefix path's keys are the relation's own.
            if theta_prefix and path.offsets is None:
                assert path.keys is cols and path.scale == cs.radix ** (3 - len(key))
            # Rows in arbitrary order, as a sharded exchange leaves them:
            # never skipped.
            check_path(cs, cols[::-1], key, cs.build_path(cols[::-1], key))


def test_permutation_dtype_follows_the_row_count():
    cs = Triplestore([("a", "b", "c")]).columnar()
    for n_rows, dtype in (
        (100, np.int8),
        (127, np.int8),  # offsets reach 127
        (128, np.int16),
        (30_000, np.int16),
        (40_000, np.int32),
    ):
        keys = np.arange(n_rows, dtype=np.int64) % cs.n  # (a, a, code): the key is the code
        path = cs.build_path(keys, ((2, False),))
        assert path.perm.dtype == dtype
        assert path.offsets.dtype == dtype and path.offsets[-1] == n_rows


def test_offsets_give_way_to_sorted_keys_for_a_small_operand_in_a_large_universe():
    # 40 objects, 2 rows: 41 offsets would outweigh the rows they index.
    extra = tuple(f"x{i:02d}" for i in range(40))
    store = Triplestore([("x00", "x01", "x02"), ("x03", "x01", "x00")], extra_objects=extra)
    cs = store.columnar()
    path = cs.access_path("E", (2,))
    assert path.offsets is None and path.keys is not None
    check_path(cs, cs.relation_keys("E"), ((2, False),), path)
    assert VectorEngine().evaluate(
        parse_expr("join[1,2,3'; 3=1'](E, E)"), store
    ) == NaiveEngine().evaluate(parse_expr("join[1,2,3'; 3=1'](E, E)"), store)


# --------------------------------------------------------------------- #
# (b) sharing through derive
# --------------------------------------------------------------------- #

KEY_O = (2,)
KEY_PO = (1, 2)


def theta(positions):
    return tuple((pos, False) for pos in positions)


def two_relations() -> Triplestore:
    return Triplestore(
        {
            "E": [("a", "b", "c"), ("c", "b", "a"), ("a", "a", "b"), ("b", "c", "c")],
            "F": [("b", "b", "b"), ("c", "a", "c")],
        }
    )


def test_untouched_relations_share_their_paths_both_ways():
    store = two_relations()
    cs = store.columnar()
    path = cs.access_path("E", KEY_O)
    child = store.with_relation("F", [("a", "b", "a")])
    ccs = child.columnar()
    assert ccs.access_path("E", KEY_O) is path
    assert np.shares_memory(ccs.access_path("E", KEY_O).perm, path.perm)
    # The table is shared, not copied: a path either version builds
    # later serves the other, whichever asked first.
    late = ccs.access_path("E", KEY_PO)
    assert cs.access_path("E", KEY_PO) is late
    grandchild = child.with_relation("G", [("c", "c", "c")]).columnar()
    assert grandchild.access_path("E", KEY_PO) is late
    # restrict keeps E's arrays, and its paths with them.
    assert store.restrict(["E"]).columnar().access_path("E", KEY_O) is path


def test_replaced_relations_and_grown_dictionaries_get_fresh_paths():
    store = two_relations()
    cs = store.columnar()
    old_e = cs.access_path("E", KEY_O)
    old_f = cs.access_path("F", KEY_O)
    # F replaced inside the universe: F's path is rebuilt, E's is kept.
    child = store.with_relation("F", [("a", "b", "a"), ("c", "c", "b")])
    ccs = child.columnar()
    new_f = ccs.access_path("F", KEY_O)
    assert new_f is not old_f and ccs.access_path("E", KEY_O) is old_e
    check_path(ccs, ccs.relation_keys("F"), theta(KEY_O), new_f)
    assert cs.access_path("F", KEY_O) is old_f  # the parent keeps its own
    # A new object re-codes every relation: offsets are addressed by code,
    # so no path survives — each is rebuilt against the grown dictionary.
    grown = store.with_relation("F", [("a", "bb", "a")]).columnar()
    assert grown.n == cs.n + 1
    for name in ("E", "F"):
        fresh = grown.access_path(name, KEY_O)
        assert fresh is not old_e and fresh is not old_f
        assert len(fresh.offsets) == grown.n + 1
        check_path(grown, grown.relation_keys(name), theta(KEY_O), fresh)
        for arr in path_arrays(fresh):
            assert not arr.flags.writeable
    fresh_build = ColumnarStore(store.with_relation("F", [("a", "bb", "a")]))
    for key in (KEY_O, KEY_PO):
        a, b = grown.access_path("E", key), fresh_build.access_path("E", key)
        for slot in AccessPath.__slots__:
            x, y = getattr(a, slot), getattr(b, slot)
            assert (x is None and y is None) or np.array_equal(x, y)


def test_replacing_rho_keeps_the_paths_because_store_paths_are_theta_only():
    store = Triplestore(two_relations().relation("E"), rho={"a": 0, "b": 0, "c": 1})
    cs = store.columnar()
    path = cs.access_path("E", KEY_O)
    child = store.with_rho({"a": 1, "b": 0, "c": 1})
    assert child.columnar().access_path("E", KEY_O) is path
    # η keys never reach the store's table: they are built per join,
    # against the version's own ρ-codes.
    expr = parse_expr("join[1,2,3'; rho(3)=rho(1')](E, E)")
    for version in (store, child):
        assert VectorEngine().evaluate(expr, version) == NaiveEngine().evaluate(expr, version)
    assert set(cs._paths["E"]) == {KEY_O}


def test_paths_of_a_reopened_store_sit_beside_the_mapped_arrays(tmp_path):
    with Database(path=tmp_path / "s", backend="columnar") as db:
        db.install("E", [("a", "b", "c"), ("c", "b", "a"), ("a", "a", "b")])
    with Database.open(tmp_path / "s", backend="columnar") as db:
        cs = db.store.columnar()
        before = db.query("join[1,2,3'; 3=1'](E, E)").to_set()
        path = cs.access_path("E", (0,))
        db.install("D", [("a", "b", "a")])
        assert db.store.columnar().access_path("E", (0,)) is path
        assert db.query("join[1,2,3'; 3=1'](E, E)").to_set() == before
    # Nothing about a path is persisted.
    assert not [p for p in (tmp_path / "s").rglob("*") if "path" in p.name]


def test_concurrent_first_use_builds_equal_paths_and_equal_results():
    """The path table is filled check-then-set without a lock, like the
    store's other caches: racing builders must only ever duplicate work."""
    import sys
    import threading

    store = chain_store()
    expr = parse_expr("join[1,2,3'; 3=1'](select[3='n200'](E), E)")
    expected = NaiveEngine().evaluate(expr, store)
    results, paths = [], []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait(timeout=10)
        results.append(VectorEngine().evaluate(expr, store))
        paths.append(store.columnar().access_path("E", (2,)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8
    settled = store.columnar().access_path("E", (2,))
    for path in paths:
        assert np.array_equal(path.perm, settled.perm)
        assert np.array_equal(path.offsets, settled.offsets)


# --------------------------------------------------------------------- #
# (c) spies: what the engine does not do any more
# --------------------------------------------------------------------- #

N_CHAIN = 400


def chain_store() -> Triplestore:
    """``n000 -p-> n001 -p-> ...``: one relation of N_CHAIN rows."""
    node = [f"n{i:03d}" for i in range(N_CHAIN + 1)]
    return Triplestore([(node[i], "p", node[i + 1]) for i in range(N_CHAIN)])


class Spy:
    """Record the operand lengths a patched callable was called with."""

    def __init__(self, target, attr, length_of=lambda *a, **k: len(a[-1])):
        self.lengths: list[int] = []
        original = getattr(target, attr)

        def wrapper(*args, **kwargs):
            self.lengths.append(length_of(*args, **kwargs))
            return original(*args, **kwargs)

        self.patch = mock.patch.object(target, attr, wrapper)

    def __enter__(self):
        self.patch.start()
        return self

    def __exit__(self, *exc):
        self.patch.stop()


def find(plan, cls):
    return [op for op in plan.walk() if isinstance(op, cls)]


@pytest.mark.parametrize(
    "text, build",
    [
        # probe: a 1-row lookup; build: E by store index on position 1 / 3
        ("join[1,2,3'; 3=1'](select[1='n007'](E), E)", "right"),
        ("join[1',2',3; 1=3'](select[1='n007'](E), E)", "right"),
        ("join[1,2,3'; 3=1' & 2=2'](select[1='n007'](E), E)", "right"),
        ("join[1,2,3'; 3=1'](E, select[3='n009'](E))", "left"),
    ],
)
def test_join_on_the_store_index_neither_unpacks_nor_sorts_the_relation(text, build):
    store = chain_store()
    engine = VectorEngine()
    plan = engine.compile(parse_expr(text), store)
    (join,) = find(plan, HashJoinOp)
    assert join.index_positions is not None and join.build_side == build
    assert "via store-index" in join.label()
    expected = NaiveEngine().evaluate(parse_expr(text), store)

    def run_spied(target_store):
        with Spy(ColumnarStore, "unpack") as unpack, Spy(np, "argsort", lambda a, **k: len(a)) as argsort:
            assert engine.execute_plan(plan, target_store) == expected
        return unpack.lengths, argsort.lengths

    # Cold: the store never unpacks the relation (the path reads its key
    # column off the packed keys) and sorts it at most once (the path;
    # none for position 1 and prefixes).
    unpacked, sorted_ = run_spied(store)
    assert N_CHAIN not in unpacked and sorted_.count(N_CHAIN) <= 1
    # Warm, and in a version that did not touch E: never again.
    for target in (store, store.with_relation("D", [("n001", "p", "n002")])):
        unpacked, sorted_ = run_spied(target)
        assert N_CHAIN not in unpacked and N_CHAIN not in sorted_


@pytest.mark.parametrize("dense", [False, True])
def test_no_read_of_a_base_relation_unpacks_it_whole(monkeypatch, dense):
    """A relation is held only as packed keys: lookups, joins on it, star
    fixpoints (and the dense reach kernel), stats and access-path builds
    read the columns they need, never an ``(N, 3)`` copy of it."""
    n = 24
    node = [f"n{i:02d}" for i in range(n + 1)]
    store = Triplestore(
        {
            "E": [(node[i], "p", node[i + 1]) for i in range(n)],
            "F": [(node[i], "pq"[i % 2], node[(3 * i) % n]) for i in range(n)],
        }
    )
    if not dense:
        monkeypatch.setattr(vectorized, "DENSE_MATRIX_MAX_OBJECTS", 0)
    engine = VectorEngine()
    texts = (
        "select[1='n07' & 3!='n01'](E)",
        "select[2='q'](F)",
        "join[1,2,3'; 3=1'](E, F)",
        "join[1,2,3'; 3=1' & 2!=2'](select[1!=3](F), E)",
        "join[1,3',3; 2=1'](E, F)",
        "star[1,2,3'; 3=1'](E)",
        "star[1,2,3'; 3=1' & 2=2'](F)",
        "star[1,2,3'; 3=1' & 1!=3'](F)",
        "lstar[1,2,3'; 3=1'](E)",
        "(E - F)",
    )
    plans = [engine.compile(parse_expr(text), store) for text in texts]
    with Spy(ColumnarStore, "unpack") as unpack:
        cs = store.columnar()
        for name in ("E", "F"):
            store.stats().relation(name)
            for positions in ((0,), (1,), (2,), (0, 1), (1, 2), (2, 0)):
                cs.access_path(name, positions)
        results = [engine.execute_plan_keys(plan, store)[1] for plan in plans]
    assert unpack.lengths == []
    for text, keys in zip(texts, results):
        assert cs.decode_triples(keys) == NaiveEngine().evaluate(parse_expr(text), store), text


@pytest.mark.parametrize(
    "text, op_type",
    [
        ("star[1,2,3'; 3=1' & 1!=3'](select[1!=3](E))", StarOp),
        ("lstar[1,2,3'; 3=1' & 1!=3'](E)", StarOp),
        ("star[1,2,3'; 3=1'](E)", ReachStarOp),
        ("star[1,2,3'; 3=1' & 2=2'](E)", ReachStarOp),
    ],
)
def test_star_indexes_its_constant_operand_once(monkeypatch, text, op_type):
    node = [f"n{i:02d}" for i in range(9)]
    store = Triplestore([(node[i], "p", node[i + 1]) for i in range(8)])
    # No dense matrix at all: reach stars take the join fixpoint.
    monkeypatch.setattr(vectorized, "DENSE_MATRIX_MAX_OBJECTS", 0)
    engine = VectorEngine()
    plan = engine.compile(parse_expr(text), store)
    assert find(plan, op_type)
    built = []
    build_path = ColumnarStore.build_path

    def spied(self, rows, key, *rest):
        built.append(build_path(self, rows, key, *rest))
        return built[-1]

    # Every round's join is handed the one path (argument 6), over the
    # constant operand — a prefix path is that operand itself.
    with mock.patch.object(ColumnarStore, "build_path", spied), Spy(
        vectorized, "_merge_join", lambda *a, **k: id(a[5])
    ) as rounds:
        result = engine.execute_plan(plan, store)
    assert result == NaiveEngine().evaluate(parse_expr(text), store)
    assert len(rounds.lengths) >= 4, "the chain needs several rounds"
    assert len(built) == 1, "the constant operand is indexed once, outside the loop"
    assert set(rounds.lengths) == {id(built[0])}


def test_index_lookup_evaluates_its_residual_on_the_slice():
    rows = [(f"s{i % 7}", f"p{i % 5}", f"o{i:03d}") for i in range(210)]
    store = Triplestore(rows)
    engine = VectorEngine()
    for text, matched in (
        ("select[1='s3' & 2!='p1'](E)", 30),
        ("select[1='s3' & 2='p2' & 3!='o000'](E)", 6),
        ("select[3='o017' & 1!=2](E)", 1),
        ("select[1='nowhere' & 2!='p1'](E)", 0),
    ):
        plan = engine.compile(parse_expr(text), store)
        assert isinstance(plan, IndexLookupOp) and plan.residual
        with Spy(vectorized, "_local_mask") as masks:
            result = engine.execute_plan(plan, store)
        assert result == NaiveEngine().evaluate(parse_expr(text), store)
        # Only the slice's rows are masked — none when the slice is empty.
        assert masks.lengths == ([matched] if matched else [])


# --------------------------------------------------------------------- #
# (d) one-sided joins: a projection, not a product
# --------------------------------------------------------------------- #


class CountingTriple(tuple):
    """A triple that counts component reads (three per projected row)."""

    reads = 0

    def __getitem__(self, index):
        CountingTriple.reads += 1
        return tuple.__getitem__(self, index)


def test_one_sided_join_reads_each_row_once_on_the_set_backend():
    left = {CountingTriple((f"l{i}", "p", f"m{i % 9}")) for i in range(200)}
    right = {CountingTriple((f"r{i}", "q", "x")) for i in range(150)}
    for out, source in (((0, 0, 2), left), ((5, 3, 3), right)):
        spec = JoinSpec(out, ())
        assert spec.one_sided() is not None
        CountingTriple.reads = 0
        result = spec.execute(left, right, rho=lambda o: None)
        assert result == {tuple(t[i % 3] for i in out) for t in source}
        CountingTriple.reads = 0
        spec.execute(left, right, rho=lambda o: None)
        assert CountingTriple.reads <= 3 * max(len(left), len(right))
    # A join that reads both operands, or links them, is not one-sided.
    assert JoinSpec((0, 1, 5), ()).one_sided() is None
    assert JoinSpec((0, 0, 0), parse_expr("join[1,1,1; 2!=2'](E, E)").conditions).one_sided() is None
    assert JoinSpec((0, 0, 0), parse_expr("join[1,1,1; 3=1'](E, E)").conditions).one_sided() is None


def test_one_sided_join_packs_one_operand_on_the_columnar_backend():
    store = Triplestore(
        {
            "L": [(f"l{i:03d}", "p", f"m{i % 9}") for i in range(200)],
            "R": [(f"r{i:03d}", "q", "x") for i in range(150)],
        }
    )
    engine = VectorEngine()
    for text, rows in (
        ("join[1,1,3](L, R)", 200),
        ("join[3',1',1'](L, R)", 150),
        ("join[1,1,1; 2='p' & 2'='q'](L, R)", 200),
    ):
        expr = parse_expr(text)
        with Spy(vectorized, "sorted_unique") as packed, Spy(np, "repeat", lambda a, *r, **k: 0) as repeats:
            result = engine.evaluate(expr, store)
        assert result == NaiveEngine().evaluate(expr, store)
        assert packed.lengths == [rows] and not repeats.lengths


@pytest.mark.parametrize("backend", ["set", "columnar", "sharded"])
def test_one_sided_join_is_gated_on_the_other_operand(backend):
    store = Triplestore(
        {"E": [("a", "p", "b"), ("b", "q", "c")], "Z": []}, rho={"a": 1, "b": 1, "c": 2}
    )
    with Database(store, backend=backend) as db:
        assert db.query("join[1,1,1](E, E)").to_set() == {("a", "a", "a"), ("b", "b", "b")}
        assert db.query("join[3',3',3'](E, E)").to_set() == {("b", "b", "b"), ("c", "c", "c")}
        # The unread operand is empty, or empty after its local filter.
        assert db.query("join[1,1,1](E, Z)").to_set() == set()
        assert db.query("join[1,1,1; 2'='nope'](E, E)").to_set() == set()
        assert db.query("join[1,1,1; 2'='q'](E, E)").to_set() == {("a", "a", "a"), ("b", "b", "b")}
        # The read operand's own filter, and a closed constant gate.
        assert db.query("join[1,1,1; rho(1)=rho(3)](E, E)").to_set() == {("a", "a", "a")}
        assert db.query("join[1,1,1; 'x'='y'](E, E)").to_set() == set()
        # Stars of the shape: nothing new after the base.
        assert db.query("star[1,1,1](E)").to_set() == {
            ("a", "p", "b"), ("b", "q", "c"), ("a", "a", "a"), ("b", "b", "b")
        }


def test_node_tests_of_the_graph_languages_stay_linear():
    # NRE ``a.[b]`` and GXPath ``a/[<b>]`` compile to join[1,1,1](X, X):
    # 600 edges would have been 360 000 enumerated pairs.
    edges = [(f"v{i:03d}", "a", f"v{(i * 7 + 1) % 600:03d}") for i in range(600)]
    edges += [(f"v{i:03d}", "b", f"v{(i + 1) % 600:03d}") for i in range(0, 600, 3)]
    with Database(Triplestore(edges), backend="columnar") as db:
        with Spy(np, "repeat", lambda a, repeats, **k: int(np.sum(repeats))) as repeats:
            for lang, text in (("nre", "a.[b]"), ("gxpath", "a/[<b>]")):
                pairs = db.query(text, lang=lang).pairs()
                assert pairs == {
                    (s, o) for s, p, o in edges if p == "a" and int(o[1:]) % 3 == 0
                }
        assert max(repeats.lengths, default=0) <= len(edges)


# --------------------------------------------------------------------- #
# (e) differential: the engine matrix under plan verification
# --------------------------------------------------------------------- #


def _assert_agree(failures):
    assert not failures, failures[0].snippet()


def test_engine_matrix_agrees_with_plan_verification_on():
    """Naive ≡ Hash ≡ Fast ≡ Vector ≡ Sharded (thread + process)."""
    _assert_agree(run_differential(60, seed=1501, case_kinds=("trial", "semantic")))
    _assert_agree(run_differential(20, seed=1502, case_kinds=("gxpath", "nre")))


@pytest.mark.parametrize(
    "patch",
    [
        # every single-θ path keeps sorted keys instead of offsets
        (columnar, "_OFFSETS_MAX_FANOUT", 0),
        # one key part fits; every further equality becomes a pair condition
        (vectorized, "_MAX_COMPOSITE_KEY", 6),
    ],
    ids=["sorted-keys-only", "key-overflow"],
)
def test_columnar_engines_agree_on_the_less_travelled_paths(monkeypatch, patch):
    monkeypatch.setattr(*patch)
    from repro.core import ShardedEngine

    engines = {
        "naive": NaiveEngine(),
        "vector": VectorEngine(),
        "sharded": ShardedEngine(shards=3),
    }
    _assert_agree(run_differential(120, seed=1503, engines=engines, case_kinds=("trial",)))
    # Composite keys on purpose: random conditions rarely stack equalities.
    rng_store = Triplestore(
        [(a, b, c) for a in "abc" for b in "ab" for c in "abc" if (a, b) != ("c", "b")],
        rho={"a": 0, "b": 0, "c": 1},
    )
    for text in (
        "join[1,2,3'; 3=1' & 2=2'](E, E)",
        "join[1,2',3'; 1=1' & 2=2' & 3=3'](E, select[1!='a'](E))",
        "join[1,2,3'; rho(3)=rho(1') & 2=2' & 1!=3'](E, E)",
        "star[1,2,3'; 3=1' & rho(2)=rho(2')](select[1!='c'](E))",
    ):
        expr = parse_expr(text)
        expected = NaiveEngine().evaluate(expr, rng_store)
        for name in ("vector", "sharded"):
            assert engines[name].evaluate(expr, rng_store) == expected, (name, text)
