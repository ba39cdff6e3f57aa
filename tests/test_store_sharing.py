"""Derived stores are structural-sharing versions of their parent.

``with_relation[s]`` / ``add_triple`` / ``with_rho`` / ``restrict`` reuse
everything the derivation did not touch — frozensets, object set, ρ,
hash indexes, statistics and, where the parent has one, the columnar
view's dictionary and key arrays (ones read from segments included).
What is tested here:

(a) *differential* — after a random sequence of derivations, on a plain
    store, on a store reopened from segments, and committed to a durable
    store and then replayed from its WAL (the commit's encode and apply,
    the replay's decode and the same apply), the derived columnar
    view equals a from-scratch build of the same content field by field,
    the statistics equal the set-computed ones, and queries agree with
    ``NaiveEngine`` on every backend;
(b) *sharing* — the untouched arrays and dictionaries really are the
    parent's objects, they are read-only, and a store that never asked
    for ``columnar()`` never gets one by deriving;
(c) *retention* — a durable columnar session that keeps one result per
    commit keeps one dictionary alive, not one per commit;
(d) *durability* — WAL replay and compaction of shared-structure stores
    reopen ``fsck``-clean and equal to the in-memory model.
"""

from __future__ import annotations

import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FastEngine, NaiveEngine, ShardedEngine, VectorEngine
from repro.db import Database
from repro.storage import DurableStore, SegmentStore, fsck_store
from repro.storage.segments import open_store_segments, write_store_segments
from repro.triplestore.columnar import ColumnarStore
from repro.triplestore.model import Triplestore
from repro.triplestore.stats import RelationStats
from tests.diffcheck import _evaluate, random_expression

# --------------------------------------------------------------------- #
# (a) differential: derived ≡ built fresh
# --------------------------------------------------------------------- #

#: Objects of the starting stores, and objects only derivations bring in
#: (mixed types: codes follow ``repr`` order, not the natural one).
OLD = ("a", "b", "c", "d", 3)
NEW = ("A", "ab", "e", "zz", 0, 10, ("t", 1))
NAMES = ("E", "F", "G", "new")
VALUES = (None, 0, 1, "x")

objects = st.sampled_from(OLD + NEW)
triples = st.frozensets(st.tuples(objects, objects, objects), max_size=6)
names = st.sampled_from(NAMES)
rhos = st.dictionaries(objects, st.sampled_from(VALUES), max_size=5)
ops = st.one_of(
    st.tuples(st.just("with_relation"), names, triples),
    st.tuples(st.just("with_relations"), st.dictionaries(names, triples, max_size=3)),
    st.tuples(st.just("add_triple"), st.tuples(objects, objects, objects), names),
    st.tuples(st.just("with_rho"), rhos),
    st.tuples(st.just("restrict"), st.lists(names, unique=True, max_size=3)),
    # Fill the caches a later derivation inherits.
    st.tuples(st.just("touch")),
)


def start_store() -> Triplestore:
    return Triplestore(
        {
            "E": [("a", "b", "c"), ("c", "b", "a"), ("a", "a", 3), (3, "d", "d")],
            "F": [("b", "b", "b"), ("d", "a", "c")],
        },
        rho={"a": 0, "b": 1, "c": 0, "zz": "x"},
        extra_objects=("d",),
    )


class Model:
    """The same content held as plain dictionaries, to build fresh from."""

    def __init__(self, store: Triplestore) -> None:
        self.relations = {n: store.relation(n) for n in store.relation_names}
        self.rho = store.rho_map()
        self.objects = set(store.objects)

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "with_relation":
            self.bind({op[1]: op[2]})
        elif kind == "with_relations":
            self.bind(op[1])
        elif kind == "add_triple":
            self.bind({op[2]: self.relations.get(op[2], frozenset()) | {op[1]}})
        elif kind == "with_rho":
            self.rho = dict(op[1])
        elif kind == "restrict":
            kept = [n for n in op[1] if n in self.relations]
            self.relations = {n: self.relations[n] for n in kept} or {"E": frozenset()}

    def bind(self, mapping) -> None:
        for name, rel in mapping.items():
            self.relations[name] = frozenset(rel)
            self.objects.update(c for t in rel for c in t)

    def fresh(self) -> Triplestore:
        return Triplestore(self.relations, self.rho, self.objects)


def derive(store: Triplestore, op: tuple) -> Triplestore:
    kind = op[0]
    if kind == "with_relation":
        return store.with_relation(op[1], op[2])
    if kind == "with_relations":
        return store.with_relations(op[1])
    if kind == "add_triple":
        return store.add_triple(op[1], op[2])
    if kind == "with_rho":
        return store.with_rho(op[1])
    if kind == "restrict":
        return store.restrict([n for n in op[1] if n in store.relation_names])
    for name in store.relation_names:
        store.stats().relation(name)
        store.index(name, (0,))
    store.columnar().active_codes()
    store.columnar().access_path(store.relation_names[0], (2,))
    return store


def assert_same_view(derived: ColumnarStore, fresh: ColumnarStore) -> None:
    assert derived.objects.tolist() == fresh.objects.tolist()
    assert derived.object_index.objects is derived.objects
    assert (derived.n, derived.radix) == (fresh.n, fresh.radix)
    for field in ("hashes", "order"):
        mine, theirs = (getattr(v.object_index, field) for v in (derived, fresh))
        assert mine.dtype == theirs.dtype and mine.tolist() == theirs.tolist(), field
    assert derived.dv_values == fresh.dv_values
    assert derived._dv_code_of == fresh._dv_code_of
    assert derived.dv_codes.tolist() == fresh.dv_codes.tolist()
    assert derived.relation_names == fresh.relation_names
    for name in fresh.relation_names:
        assert derived.relation_keys(name).tolist() == fresh.relation_keys(name).tolist()
    assert derived.active_codes().tolist() == fresh.active_codes().tolist()


def assert_equivalent(derived: Triplestore, model: Model, seed: str) -> None:
    fresh = model.fresh()
    assert derived == fresh
    assert derived.relation_names == fresh.relation_names
    assert derived.objects == fresh.objects
    assert derived.rho_map() == fresh.rho_map()
    assert_same_view(derived.columnar(), ColumnarStore(fresh))
    for name in fresh.relation_names:
        rel = fresh.relation(name)
        distinct = tuple(len({t[i] for t in rel}) for i in range(3))
        assert derived.stats().relation(name) == RelationStats(name, len(rel), distinct)
    naive = NaiveEngine()
    engines = (VectorEngine(), ShardedEngine(shards=3), FastEngine())
    for i in range(4):
        rng = random.Random(f"{seed}:{i}")
        expr = random_expression(rng, max_depth=2, relations=fresh.relation_names)
        expected = _evaluate(naive, expr, fresh)
        for engine in engines:
            assert _evaluate(engine, expr, derived) == expected, (expr, engine)


@settings(max_examples=200, deadline=None)
@given(st.lists(ops, min_size=1, max_size=6), st.booleans())
def test_derivations_of_a_plain_store_equal_a_fresh_build(sequence, columnar_first):
    store = start_store()
    model = Model(store)
    if columnar_first:
        store.columnar()
    for op in sequence:
        store = derive(store, op)
        model.apply(op)
    assert type(store) is Triplestore
    assert_equivalent(store, model, repr(sequence))


@settings(max_examples=100, deadline=None)
@given(st.lists(ops, min_size=1, max_size=6))
def test_derivations_of_a_reopened_store_equal_a_fresh_build(sequence):
    with tempfile.TemporaryDirectory() as tmp:
        base = start_store()
        model = Model(base)
        gen = os.path.join(tmp, "gen")
        store = open_store_segments(gen, write_store_segments(base, gen))
        for op in sequence:
            store = derive(store, op)
            model.apply(op)
        assert type(store) is SegmentStore
        assert_equivalent(store, model, repr(sequence))
        del store


def committed(store: Triplestore, op: tuple) -> dict | None:
    """The mutation batch a durable commit makes of ``op``, if any."""
    kind = op[0]
    if kind == "with_relation":
        return {op[1]: op[2]}
    if kind == "with_relations":
        return dict(op[1])
    if kind == "add_triple":
        name = op[2]
        existing = store.relation(name) if name in store.relation_names else frozenset()
        return {name: existing | {op[1]}}
    return None


@settings(max_examples=60, deadline=None)
@given(st.lists(ops, min_size=1, max_size=6))
def test_committed_and_replayed_derivations_equal_a_fresh_build(sequence):
    """A commit encodes and applies a batch; a reopen decodes its record
    and runs the same apply — both views equal a fresh build."""
    with tempfile.TemporaryDirectory() as tmp:
        base = start_store()
        model = Model(base)
        ds = DurableStore(os.path.join(tmp, "s"))
        ds.open()
        ds.snapshot(base, {}, 0)
        for op in sequence:
            batch = committed(ds.store, op)
            if batch is not None:
                ds.commit(batch)
                model.apply(op)
        assert_equivalent(ds.store, model, repr(sequence))
        ds.close()
        replayed = DurableStore(ds.root)
        store = replayed.open()
        try:
            assert type(store) is SegmentStore
            assert_equivalent(store, model, repr(sequence))
        finally:
            replayed.close()
        del store


# --------------------------------------------------------------------- #
# (b) sharing
# --------------------------------------------------------------------- #


def test_untouched_relations_share_the_parents_arrays_and_dictionary():
    parent = start_store()
    pcs = parent.columnar()
    pcs.access_path("E", (2,))
    pcs.active_codes()
    child = parent.with_relation("F", [("a", "b", "a")])  # no new object
    ccs = child.columnar()
    assert ccs is not pcs
    assert ccs.relation_keys("E") is pcs.relation_keys("E")
    assert ccs.access_path("E", (2,)) is pcs.access_path("E", (2,))
    assert not np.shares_memory(ccs.relation_keys("F"), pcs.relation_keys("F"))
    assert ccs.object_index is pcs.object_index
    assert ccs.objects is pcs.objects
    assert ccs.dv_codes is pcs.dv_codes
    assert ccs.dv_values is pcs.dv_values
    # with_rho keeps every relation: the active set carries over too.
    assert parent.with_rho({"a": 5}).columnar().active_codes() is pcs.active_codes()


def test_the_set_level_caches_are_shared_for_kept_relations():
    parent = start_store()
    index = parent.index("E", (0,))
    stats = parent.stats().relation("E")
    parent.index("F", (1,))
    child = parent.with_relations({"F": [("a", "b", "a")], "G": []})
    assert child.relation("E") is parent.relation("E")
    assert child.objects is parent.objects
    assert child._rho is parent._rho
    assert child.index("E", (0,)) is index
    assert child.stats().relation("E") is stats
    assert ("F", (1,)) not in child._indexes  # replaced: nothing stale
    assert child.stats().computed().keys() == {"E"}
    assert child.index("F", (1,)) == {("b",): [("a", "b", "a")]}


def test_a_new_object_grows_the_dictionary_once_and_recodes_monotonically():
    parent = start_store()
    pcs = parent.columnar()
    child = parent.with_relations({"F": [("A", "b", "zz")], "G": [("ab", "ab", 0)]})
    ccs = child.columnar()
    assert ccs.object_index is not pcs.object_index
    assert ccs.n == pcs.n + 4
    remap = [ccs.code_of(o) for o in pcs.objects]
    assert remap == sorted(remap)  # old codes keep their order
    assert_same_view(ccs, ColumnarStore(Triplestore(
        {n: child.relation(n) for n in child.relation_names},
        child.rho_map(),
        child.objects,
    )))


def test_a_set_backend_store_never_grows_a_columnar_view_by_deriving():
    store = start_store()
    derived = (
        store.with_relation("G", [("a", "b", "new")])
        .with_relations({"E": [], "H": [("x", "y", "z")]})
        .add_triple(("a", "b", "c"))
        .with_rho({"a": 1})
        .restrict(["E", "G"])
    )
    assert store._columnar is None
    assert derived._columnar is None
    assert derived.stats().relation("G").cardinality == 1


def test_a_batch_is_one_store_version(monkeypatch):
    derivations = []
    derive = Triplestore._derive

    def counting(self, relations, replaced=(), rho=None):
        derivations.append(tuple(replaced))
        return derive(self, relations, replaced, rho)

    monkeypatch.setattr(Triplestore, "_derive", counting)
    db = Database(Triplestore([("a", "p", "b"), ("b", "p", "c")]))
    with db.batch():
        db.install("A", [("a", "p", "c")])
        db.install("B", [("c", "p", "a")])
        db.install("C", "join[1,2,3'; 3=1'](E, E)")
    assert derivations == [("A", "B", "C")]
    assert db.store.relation_names == ("E", "A", "B", "C")
    assert db.query("C").to_set() == {("a", "p", "c")}


@pytest.mark.parametrize("reopened", [False, True])
def test_every_array_a_view_holds_is_read_only(tmp_path, reopened):
    store = start_store()
    if reopened:
        block = write_store_segments(store, tmp_path / "gen")
        store = open_store_segments(tmp_path / "gen", block)
    child = store.with_relation("G", [("a", "b", "fresh")])  # grows: re-coded
    for view in (store.columnar(), child.columnar()):
        index = view.object_index
        arrays = [view.dv_codes, view.active_codes(), view.objects, index.hashes, index.order]
        for name in view.relation_names:
            arrays.append(view.relation_keys(name))
        for arr in arrays:
            assert not arr.flags.writeable
            if len(arr):
                with pytest.raises(ValueError):
                    arr[0] = arr[0]
    for shard in child.sharded(2).relation_shards("E"):
        assert not shard.flags.writeable


def test_a_derived_segment_store_stays_lazy_over_the_same_arrays(tmp_path):
    base = start_store()
    block = write_store_segments(base, tmp_path / "gen")
    parent = open_store_segments(tmp_path / "gen", block)
    child = parent.with_relation("F", [("a", "b", "a")])
    grand = child.with_rho({"a": 7}).restrict(["E"])
    for store in (child, grand):
        assert type(store) is SegmentStore
        assert store._relations["E"] is None  # still undecoded
        assert store.columnar().relation_keys("E") is parent.columnar().relation_keys("E")
    # Statistics come from the code columns: nothing gets decoded either.
    assert child.stats().relation("E") == base.stats().relation("E")
    assert child._relations["E"] is None
    assert grand.relation("E") == base.relation("E")
    assert ("a", "b", "a") in child and len(child) == 5


def test_a_reopened_store_holds_its_universe_once(tmp_path):
    """The dictionary's object→code map *is* the membership set: a second
    copy as a frozenset exists only once ``objects`` / ``==`` / ``hash``
    asked for it, and versions derived before that stay without."""
    import gc

    nodes = [f"n{i:02d}" for i in range(41)]
    edges = [(nodes[i], "p", nodes[(i * 5 + 1) % 41]) for i in range(30)]
    twin = Triplestore({"E": edges})
    n = twin.n_objects
    with Database(path=tmp_path / "s", backend="columnar") as db:
        db.install("E", edges)
    del db  # and with it the writing session's in-memory store

    def universe_copies():
        gc.collect()
        return sum(type(o) is frozenset and o == twin.objects for o in gc.get_objects())

    before = universe_copies()  # the twin's own
    with Database.open(tmp_path / "s", backend="columnar") as db:
        opened = db.store
        assert db.query("join[1,2,3'; 3=1'](E, E)").to_set()
        with db.batch():
            db.install("F", edges[:3])
        assert db.store is not opened and type(db.store) is SegmentStore
        for store in (opened, db.store):
            assert store._objects is None
            assert store.n_objects == n and f"|O|={n}" in repr(store)
        assert universe_copies() == before
        # A commit that brings an object grows the dictionary, nothing else.
        db.install("G", [("n00", "p", "fresh")])
        grown = db.store
        assert grown._objects is None and grown.n_objects == n + 1
        assert universe_copies() == before
        # Asked for, it is the in-memory twin's — built once, per version.
        assert opened.objects == twin.objects and opened.objects is opened.objects
        assert grown.objects == twin.objects | {"fresh"}
        assert opened.restrict(["E"]) == twin
        assert db.store.with_relation("H", [("a", "b", "c")]).objects == grown.objects | {"a", "b", "c"}


# --------------------------------------------------------------------- #
# (c) retention
# --------------------------------------------------------------------- #


def test_cached_results_of_32_commits_keep_one_dictionary_alive(tmp_path):
    rng = random.Random(13)
    nodes = [f"n{i:03d}" for i in range(200)]

    def edges(count):
        return {(rng.choice(nodes), "p", rng.choice(nodes)) for _ in range(count)}

    with Database(path=tmp_path / "s", backend="columnar") as db:
        db.install("E", edges(2000) | {(n, "p", n) for n in nodes})
        db.install("D", edges(50))
    db = Database(path=tmp_path / "s", backend="columnar")  # E is read from its segment now
    try:
        kept = []
        for _ in range(32):
            with db.batch():
                db.install("D", edges(50))
            kept.append(db.query("join[1,2,3'; 3=1'](D, E)"))
            assert kept[-1].total > 0
        views = [rs._rows.cs for rs in kept]
        assert len({id(cs) for cs in views}) == 32  # one version per commit
        for attr in ("object_index", "objects", "dv_codes", "_dv_code_of"):
            assert len({id(getattr(cs, attr)) for cs in views}) == 1, attr
        assert len({id(cs.relation_keys("E")) for cs in views}) == 1
        assert len({id(cs.relation_keys("D")) for cs in views}) == 32
    finally:
        db.close()


# --------------------------------------------------------------------- #
# (d) WAL replay and compaction over shared structure
# --------------------------------------------------------------------- #


def test_wal_replay_and_compaction_after_sharing_reopen_clean(tmp_path):
    root = str(tmp_path / "s")
    rng = random.Random(5)

    def edges(count, pool):
        return frozenset(
            (rng.choice(pool), rng.choice(pool), rng.choice(pool)) for _ in range(count)
        )

    model: dict[str, frozenset] = {"E": frozenset()}
    seen: set = set()  # a replaced relation's objects stay in the universe
    versions: dict[str, int] = {}
    ds = DurableStore(root)
    ds.open()
    for i in range(20):
        pool = [f"o{j}" for j in range(4 + i)]  # every record brings a new object
        record = {f"R{i % 3}": edges(5, pool)}
        if i % 4 == 0:
            record["E"] = edges(8, pool)
        if i == 17:
            record["R0"] = frozenset()  # emptied
        ds.commit(record)
        model.update(record)
        for name, rel in record.items():
            versions[name] = versions.get(name, 0) + 1
            seen.update(c for t in rel for c in t)
    ds.close()  # the 20 records stay in the log

    replayed = DurableStore(root)
    store = replayed.open()
    try:
        assert type(store) is SegmentStore
        assert replayed.rel_versions == versions
        assert replayed.store_version == 20
        expected = Triplestore(model, extra_objects=seen)
        assert store == expected
        assert store.relation_names == tuple(model)
        assert_same_view(store.columnar(), ColumnarStore(expected))
        replayed.snapshot(store, replayed.rel_versions, replayed.store_version)
        assert replayed.wal.size == 0
    finally:
        replayed.close()
    assert fsck_store(root) == []

    compacted = DurableStore(root)
    try:
        reopened = compacted.open()
        assert reopened == expected
        assert compacted.rel_versions == versions
        assert_same_view(reopened.columnar(), ColumnarStore(expected))
    finally:
        compacted.close()
