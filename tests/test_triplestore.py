"""Unit tests for the triplestore model (Definition 1)."""

import pytest

from repro.errors import TriplestoreError, UnknownRelationError
from repro.triplestore import DEFAULT_RELATION, Triplestore


class TestConstruction:
    def test_iterable_goes_to_default_relation(self):
        t = Triplestore([("a", "p", "b")])
        assert t.relation(DEFAULT_RELATION) == {("a", "p", "b")}

    def test_mapping_constructor(self):
        t = Triplestore({"E": [("a", "p", "b")], "F": []})
        assert t.relation_names == ("E", "F")
        assert t.relation("F") == frozenset()

    def test_objects_collect_all_positions(self):
        t = Triplestore([("a", "p", "b")])
        assert t.objects == {"a", "p", "b"}

    def test_extra_objects_are_kept(self):
        t = Triplestore([("a", "p", "b")], extra_objects=["z"])
        assert "z" in t.objects

    def test_empty_store(self):
        t = Triplestore.empty()
        assert len(t) == 0
        assert t.objects == frozenset()

    def test_non_triples_rejected(self):
        with pytest.raises(TriplestoreError):
            Triplestore([("a", "b")])

    def test_kwargs_constructor(self):
        t = Triplestore.from_pairs_of_relations(E=[("a", "a", "a")], G=[])
        assert t.relation_names == ("E", "G")


class TestAccess:
    def test_unknown_relation_raises_with_hint(self):
        t = Triplestore({"E": []})
        with pytest.raises(UnknownRelationError) as exc:
            t.relation("Nope")
        assert "E" in str(exc.value)

    def test_rho_defaults_to_none(self):
        t = Triplestore([("a", "p", "b")], rho={"a": 7})
        assert t.rho("a") == 7
        assert t.rho("b") is None

    def test_rho_accepts_tuples(self):
        t = Triplestore([("a", "p", "b")], rho={"a": ("x", 1, None)})
        assert t.rho("a") == ("x", 1, None)

    def test_len_counts_all_relations(self):
        t = Triplestore({"E": [("a", "a", "a")], "F": [("b", "b", "b")]})
        assert len(t) == 2
        assert t.size == 2

    def test_contains_and_iter(self):
        t = Triplestore([("a", "p", "b")])
        assert ("a", "p", "b") in t
        assert ("b", "p", "a") not in t
        assert list(t) == [("a", "p", "b")]

    def test_all_triples_unions_relations(self):
        t = Triplestore({"E": [("a", "a", "a")], "F": [("b", "b", "b")]})
        assert t.all_triples() == {("a", "a", "a"), ("b", "b", "b")}

    def test_n_objects(self):
        t = Triplestore([("a", "p", "b")])
        assert t.n_objects == 3


class TestDerivedStores:
    def test_with_relation_installs_result(self):
        t = Triplestore([("a", "p", "b")])
        t2 = t.with_relation("Out", [("b", "p", "a")])
        assert t2.relation("Out") == {("b", "p", "a")}
        assert t.relation_names == ("E",)  # original untouched

    def test_with_relation_keeps_old_objects(self):
        t = Triplestore([("a", "p", "b")])
        t2 = t.with_relation("E", [])
        assert "a" in t2.objects

    def test_with_rho(self):
        t = Triplestore([("a", "p", "b")])
        assert t.with_rho({"a": 1}).rho("a") == 1

    def test_restrict(self):
        t = Triplestore({"E": [("a", "a", "a")], "F": [("b", "b", "b")]})
        r = t.restrict(["E"])
        assert r.relation_names == ("E",)
        assert "b" in r.objects  # objects retained

    def test_equality_and_hash(self):
        t1 = Triplestore([("a", "p", "b")], rho={"a": 1})
        t2 = Triplestore([("a", "p", "b")], rho={"a": 1})
        assert t1 == t2
        assert hash(t1) == hash(t2)
        assert t1 != t1.with_rho({"a": 2})


class TestIndexes:
    def test_index_by_subject(self):
        t = Triplestore([("a", "p", "b"), ("a", "q", "c"), ("b", "p", "a")])
        idx = t.index("E", (0,))
        assert sorted(idx[("a",)]) == [("a", "p", "b"), ("a", "q", "c")]

    def test_index_by_pair(self):
        t = Triplestore([("a", "p", "b"), ("a", "p", "c")])
        idx = t.index("E", (0, 1))
        assert len(idx[("a", "p")]) == 2

    def test_index_cached(self):
        t = Triplestore([("a", "p", "b")])
        assert t.index("E", (0,)) is t.index("E", (0,))


def test_a_new_store_weighs_its_spellings_once(monkeypatch):
    """One ``respellings`` call per ``Triplestore(...)``, also for a float
    batch whose set drops equal triples; the least repr still wins."""
    from repro.triplestore import model

    calls = []
    real = model.respellings

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "respellings", counting)
    batch = [(1.0, "p", "a"), (1, "p", "a"), (0.5, "q", 2.0), (0.5, "q", 2)]
    for relations in (batch, {"E": batch[:2], "F": batch[2:]}):
        calls.clear()
        store = Triplestore(relations, extra_objects=[True])
        assert len(calls) == 1
        triples = sorted(map(repr, set().union(*map(store.relation, store.relation_names))))
        assert triples == ["(0.5, 'q', 2)", "(1, 'p', 'a')"]
        assert sorted(map(repr, store.objects)) == ["'a'", "'p'", "'q'", "0.5", "1", "2"]
