"""The object dictionary answers exactly like a ``dict``.

A columnar view holds its universe once: the ``objects`` array (code →
object) and an :class:`~repro.triplestore.dictionary.ObjectIndex` over
it (sorted hashes plus a permutation) for object → code.  What is
pinned here, without a clock:

(a) *dict semantics* — on universes of mixed types, for ``1``/``True``/
    ``1.0``, a NaN, colliding hashes and unhashable objects, the scalar
    :meth:`~ObjectIndex.code_of` and the vectorised
    :meth:`~ObjectIndex.encode` give what a ``{object: code}`` dict
    gives, and :meth:`ColumnarStore.universe` is a set-like view;
(b) *growth* — a derive that brings new objects merges them into the
    index, and the result equals a fresh build field by field;
(c) *counted work* — a 1 000-triple derive hashes its objects in one
    pass and looks each up once, and an opened durable store spends at
    most 16 bytes an object on the dictionary beyond the objects
    themselves.
"""

from __future__ import annotations

import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TriplestoreError
from repro.storage import DurableStore
from repro.db import Database
from repro.triplestore import columnar
from repro.triplestore.columnar import ColumnarStore
from repro.triplestore.dictionary import ObjectIndex
from repro.triplestore.model import Triplestore

# --------------------------------------------------------------------- #
# (a) dict semantics
# --------------------------------------------------------------------- #

scalars = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.floats(allow_nan=False, min_value=-2, max_value=2),
    st.text("ab", max_size=2),
    st.none(),
)
objects = st.one_of(scalars, st.tuples(scalars, scalars))


def reference(universe: list) -> dict:
    return {obj: code for code, obj in enumerate(universe)}


def index_of(universe: list) -> ObjectIndex:
    return ObjectIndex.build(universe)


def check_against_dict(universe: list, probes: list) -> None:
    index, ref = index_of(universe), reference(universe)
    expected = [ref.get(p, -1) for p in probes]
    assert [index.code_of(p) for p in probes] == expected
    codes = index.encode(probes)
    assert codes.dtype == np.int64 and codes.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(objects, max_size=25), st.lists(objects, max_size=25))
def test_mixed_universes_answer_like_a_dict(members, others):
    # A universe is a set: dict.fromkeys keeps the first of equal objects.
    universe = sorted(dict.fromkeys(members), key=repr)
    check_against_dict(universe, universe + others)
    index = index_of(universe)
    assert [index.objects[c] for c in index.encode(universe).tolist()] == universe


@pytest.mark.parametrize("stored", [1, True, 1.0])
def test_one_true_and_one_point_oh_resolve_as_dict_keys(stored):
    universe = ["a", stored, "z"]
    check_against_dict(universe, [1, True, 1.0, 0, False, 2])
    assert index_of(universe).code_of(True) == 1


def test_a_nan_object_finds_itself_by_identity():
    nan = float("nan")
    universe = ["a", nan, 0.5]
    index = index_of(universe)
    assert index.code_of(nan) == 1 and nan in index
    other = float("nan")
    assert index.code_of(other) == -1 and other not in index
    assert index.encode([other, nan, "a", 0.5]).tolist() == [-1, 1, 0, 2]
    check_against_dict(universe, [nan, other, "a", 0.5])


def test_colliding_hashes_get_two_codes():
    assert hash(-1) == hash(-2)
    for universe in ([-1, -2], [-2, -1], [-2, "x", -1]):
        index = index_of(universe)
        assert len(np.unique(index.hashes)) < len(universe)
        check_against_dict(universe, [-1, -2, "x", -3])
        assert index.code_of(-1) != index.code_of(-2)


def test_an_unhashable_constant_raises_the_type_error_of_a_dict():
    index = index_of(["a", ("b", 1)])
    with pytest.raises(TypeError, match="unhashable") as from_dict:
        {"a": 0}.get(["a"])
    for lookup in (index.code_of, index.__contains__, lambda o: index.encode(["a", o])):
        with pytest.raises(TypeError) as raised:
            lookup(["a"])
        assert str(raised.value) == str(from_dict.value)
    cs = Triplestore([("a", "p", "b")]).columnar()
    with pytest.raises(TypeError, match="unhashable"):
        cs.code_of({"a": 1})


def test_encode_batches_mixing_present_and_absent_objects():
    universe = [f"o{i}" for i in range(50)] + [("t", 1), 7, None]
    index = index_of(universe)
    batch = ["o3", "nope", ("t", 1), ("t", 2), 7, 8, None, "o3", "o49"]
    assert index.encode(batch).tolist() == [3, -1, 50, -1, 51, -1, 52, 3, 49]
    assert index.encode([]).tolist() == []
    assert index.encode(["nope", "nada"]).tolist() == [-1, -1]
    empty = index_of([])
    assert empty.encode(["a", 1]).tolist() == [-1, -1] and empty.code_of("a") == -1


def test_the_universe_is_a_set_like_view_of_the_index():
    store = Triplestore([("a", "p", ("t", 1)), ("b", "p", 2)], extra_objects=["iso"])
    cs = store.columnar()
    universe = cs.universe()
    assert universe is cs.object_index
    assert len(universe) == 6 == store.n_objects
    assert set(iter(universe)) == set(store.objects)
    assert list(universe) == cs.objects.tolist()
    assert "iso" in universe and ("t", 1) in universe and 2 in universe
    assert "zz" not in universe and ("t", 2) not in universe
    assert universe == store.objects  # a Set compares as a set


def test_every_array_of_the_dictionary_is_read_only():
    index = Triplestore([("a", "b", "c")]).columnar().object_index
    assert index.hashes.dtype == np.int64 and index.order.dtype == np.int32
    for arr in (index.objects, index.hashes, index.order):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_encode_triples_names_the_first_object_outside_the_universe():
    cs = Triplestore([("a", "p", "b")]).columnar()
    with pytest.raises(TriplestoreError, match="'zebra'"):
        cs.encode_triples([("a", "p", "b"), ("a", "p", "zebra")])


# --------------------------------------------------------------------- #
# (b) growth merges into the index and equals a fresh build
# --------------------------------------------------------------------- #


def assert_same_dictionary(derived: ColumnarStore, fresh: ColumnarStore) -> None:
    assert derived.objects.tolist() == fresh.objects.tolist()
    for field in ("hashes", "order"):
        mine = getattr(derived.object_index, field)
        theirs = getattr(fresh.object_index, field)
        assert mine.dtype == theirs.dtype and mine.tolist() == theirs.tolist(), field
    assert derived.dv_codes.tolist() == fresh.dv_codes.tolist()
    for name in fresh.relation_names:
        assert derived.relation_keys(name).tolist() == fresh.relation_keys(name).tolist()


def rebuilt(store: Triplestore) -> ColumnarStore:
    return ColumnarStore(
        Triplestore(
            {n: store.relation(n) for n in store.relation_names},
            store.rho_map(),
            store.objects,
        )
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(objects, objects, objects), min_size=1, max_size=12),
    st.lists(st.tuples(objects, objects, objects), max_size=12),
    st.dictionaries(scalars, st.sampled_from((0, 1, "x")), max_size=4),
)
def test_a_derive_that_grows_the_dictionary_equals_a_fresh_build(old, new, rho):
    parent = Triplestore({"E": old, "F": old[:1]}, rho)
    parent.columnar()
    child = parent.with_relations({"F": new, "G": old + new})
    assert_same_dictionary(child.columnar(), rebuilt(child))


def test_growth_with_colliding_hashes_equals_a_fresh_build():
    parent = Triplestore([(-1, "p", 3)])
    pcs = parent.columnar()
    child = parent.with_relation("F", [(-2, "p", -1), ("q", 1.5, -3)])
    ccs = child.columnar()
    assert ccs.object_index is not pcs.object_index and ccs.n == pcs.n + 4
    assert ccs.code_of(-1) != ccs.code_of(-2)
    assert_same_dictionary(ccs, rebuilt(child))


NAN = float("nan")


@pytest.mark.parametrize(
    "fresh",
    [[-1, -2], [NAN, NAN, "nan"], [1, 1.0, True, "1"]],
    ids=["colliding-hashes", "a-nan-twice", "equal-values"],
)
def test_fresh_objects_that_share_a_hash_equal_a_fresh_build(fresh):
    parent = Triplestore([("a", "p", "b")])
    parent.columnar()
    batch = [(obj, "p", "a") for obj in fresh] + [("b", "q", obj) for obj in fresh]
    child = parent.with_relation("F", batch)
    assert child.columnar().n == len(child.objects)
    assert_same_dictionary(child.columnar(), rebuilt(child))
    assert child.columnar().decode_triples(child.columnar().relation_keys("F")) == set(batch)


def test_a_growing_commit_merges_hashes_instead_of_sorting_again():
    nodes = [f"n{i:04d}" for i in range(2000)]
    parent = Triplestore([(nodes[i], "p", nodes[i + 1]) for i in range(1999)])
    parent.columnar()
    argsort = np.argsort
    sorted_lengths = []

    def spied(a, *args, **kwargs):
        sorted_lengths.append(len(a))
        return argsort(a, *args, **kwargs)

    with mock.patch.object(np, "argsort", spied):
        child = parent.with_relation("F", [("n0001", "q", "fresh"), ("new", "p", "n0002")])
    assert child.columnar().n == 2004  # + "q", "fresh", "new"
    assert max(sorted_lengths) < 10, "only the fresh objects' hashes are sorted"
    assert_same_dictionary(child.columnar(), rebuilt(child))


# --------------------------------------------------------------------- #
# (c) counted work
# --------------------------------------------------------------------- #


def count_lookups(monkeypatch) -> tuple[list[int], list[int]]:
    """Lengths of the batches hashed by the columnar encoder and of every
    index lookup."""
    hashed: list[int] = []
    looked_up: list[int] = []
    hashes_of, lookup = columnar.hashes_of, ObjectIndex.lookup

    def hashing(objs, count=-1):
        hashed.append(len(objs))
        return hashes_of(objs, count)

    def counting(self, objs, hashes):
        looked_up.append(len(objs))
        return lookup(self, objs, hashes)

    monkeypatch.setattr(columnar, "hashes_of", hashing)
    monkeypatch.setattr(ObjectIndex, "lookup", counting)
    return hashed, looked_up


@pytest.mark.parametrize("grows", [False, True])
def test_a_thousand_triple_derive_hashes_and_looks_up_once(monkeypatch, grows):
    nodes = [f"n{i:03d}" for i in range(400)]
    labels = ("p", "q", "r")
    store = Triplestore(
        [(nodes[i], "p", nodes[(i + 1) % 400]) for i in range(400)], extra_objects=labels
    )
    store.columnar()
    batch = [(nodes[i % 400], labels[i // 400], nodes[(7 * i) % 400]) for i in range(1000)]
    if grows:
        batch[500] = ("fresh", "p", "n001")
    hashed, looked_up = count_lookups(monkeypatch)
    child = store.with_relations({"D": batch[:600], "F": batch[600:]})
    assert hashed == [3000]
    # ... and looked up once: the fresh ones are grouped by those hashes.
    assert looked_up == [3000]
    assert child.columnar().n == 403 + grows
    assert child.columnar().decode_triples(child.columnar().relation_keys("D")) == set(
        batch[:600]
    )


def test_an_opened_store_spends_at_most_16_bytes_an_object_on_its_dictionary(tmp_path):
    n = 30_000
    names = [f"obj{i:06d}" for i in range(n - 1)]
    with Database(path=tmp_path / "s", backend="columnar") as db:
        db.install("E", [(names[i], "p", names[i + 1]) for i in range(n - 2)])
    storage = DurableStore(tmp_path / "s")
    tracemalloc.start()
    try:
        store = storage.open()
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        storage.close()
    cs = store.columnar()
    assert cs.n == n
    held_objects = sum(map(sys.getsizeof, cs.objects)) + cs.objects.nbytes
    # (ρ's code array is no part of the object dictionary.)
    beyond = traced - held_objects - cs.dv_codes.nbytes
    assert beyond <= 16 * n, f"{beyond / n:.1f} B an object"
    assert cs.object_index.hashes.nbytes + cs.object_index.order.nbytes == 12 * n
