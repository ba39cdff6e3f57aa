"""One object per ``==`` class, spelled by one rule on every backend.

A store keeps one object for ``1``, ``True`` and ``1.0`` (and for
``0.0``/``-0.0``, ``(1,)``/``(True,)``): the object the store already
holds, else the spelling with the least ``repr`` among the ingest's —
never one the hash seed or the input order picked
(:mod:`repro.triplestore.identity`).  Pinned here:

(a) the rule — on the set path, the columnar path and a durable
    commit, before and after a reopen, under several hash seeds;
(b) the fast path — a batch of plain types is never spelled out;
(c) the damage check — a dictionary segment holding two equal objects
    is refused by open and reported by fsck.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import Database
from repro.errors import StoreCorruptionError
from repro.storage import DurableStore
from repro.storage.fsck import fsck_store
from repro.triplestore import identity
from repro.triplestore.identity import one_spelling
from repro.triplestore.model import Triplestore

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
BACKENDS = ("set", "columnar", "sharded")

#: The two cases of the rule: a class met three ways in one ingest, and
#: a join whose condition meets a class in two triples.
SUBJECTS = [(1, "p", "a"), (True, "p", "b"), (1.0, "p", "c")]
JOIN = [(1, "p", "x"), ("y", "q", True)]
JOIN_QUERY = "join[1,2,3'; 1=3'](E, E)"
EXPECTED = {
    "E": ["(1, 'p', 'a')", "(1, 'p', 'b')", "(1, 'p', 'c')"],
    "join": ["(1, 'p', 1)"],
}


def spelled(rows) -> list[str]:
    return sorted(map(repr, rows))


# --------------------------------------------------------------------- #
# (a) the rule
# --------------------------------------------------------------------- #

#: Run in a child per hash seed: every backend, in memory and durable
#: (answers before the close and after the reopen), printed as JSON.
_CHILD = r"""
import json, os, sys
from repro import Database
cases = {"E": (%r, "E"), "join": (%r, %r)}
root, out = sys.argv[1], {}
for backend in ("set", "columnar", "sharded"):
    for name, (triples, query) in cases.items():
        db = Database.from_triples(triples, backend=backend)
        out[f"{backend}/{name}/memory"] = sorted(map(repr, db.query(query).to_set()))
        path = os.path.join(root, f"{backend}-{name}")
        db = Database(path=path, backend=backend)
        db.install("E", triples)
        out[f"{backend}/{name}/committed"] = sorted(map(repr, db.query(query).to_set()))
        db.close()
        db = Database(path=path, backend=backend)
        out[f"{backend}/{name}/reopened"] = sorted(map(repr, db.query(query).to_set()))
        db.close()
print(json.dumps(out))
""" % (SUBJECTS, JOIN, JOIN_QUERY)


@pytest.mark.parametrize("seed", ["0", "1", "2", "3", "42"])
def test_every_backend_answers_one_spelling_under_any_hash_seed(tmp_path, seed):
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    answers = json.loads(done.stdout)
    assert len(answers) == 18
    for key, rows in answers.items():
        assert rows == EXPECTED[key.split("/")[1]], key


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_stores_object_wins_over_a_later_spelling(tmp_path, backend):
    # In memory: the install brings 1 and 1.0 where the store holds True.
    db = Database.from_triples([(True, "p", "a")], backend=backend)
    db.install("F", [(1, "q", 1.0)])
    assert spelled(db.query("F").to_set()) == ["(True, 'q', True)"]
    # Durable: a commit, a snapshot, a WAL record replayed on a reopen.
    path = str(tmp_path / "s")
    db = Database(path=path, backend=backend)
    db.install("E", [(True, "p", "a")])
    db.install("F", [(1, "q", 1.0)])
    assert spelled(db.query("F").to_set()) == ["(True, 'q', True)"]
    db.close()  # folded into a snapshot
    ds = DurableStore(path)
    ds.open()
    ds.commit({"G": [(1.0, "r", 1)]})
    ds.close()  # left in the WAL
    for _ in range(2):  # the snapshot and a replay, then one snapshot
        db = Database(path=path, backend=backend)
        assert spelled(db.query("F").to_set()) == ["(True, 'q', True)"]
        assert spelled(db.query("G").to_set()) == ["(True, 'r', True)"]
        db.close()


@pytest.mark.parametrize("columnar", [False, True], ids=["set-path", "columnar-path"])
def test_neither_input_order_nor_relation_picks_the_spelling(columnar):
    orders = (
        [(True, "p", "a"), (1, "p", "a"), (1.0, "q", "b")],
        [(1.0, "q", "b"), (1, "p", "a"), (True, "p", "a")],
    )
    for triples in orders:
        store = Triplestore(triples)
        assert spelled(store.relation("E")) == ["(1, 'p', 'a')", "(1, 'q', 'b')"]
        assert spelled(store.objects) == ["'a'", "'b'", "'p'", "'q'", "1"]
        base = Triplestore([("x", "p", "y")])
        if columnar:
            base.columnar()
        # One ingest over two relations: the least repr over both wins.
        child = base.with_relations({"F": triples[1:], "G": triples[:1]})
        for name in ("F", "G"):
            assert all(type(t[0]) is int for t in child.relation(name))
        if columnar:
            cs = child.columnar()
            assert spelled(cs.decode_triples(cs.relation_keys("F"))) == spelled(
                child.relation("F")
            )
            assert {type(obj) for obj in cs.objects.tolist()} == {str, int}


def test_other_classes_and_extra_objects():
    store = Triplestore(
        {"E": [(0.0, "p", (True,)), (-0.0, "p", (1,))], "F": [(True, "r", 1)]},
        extra_objects=[1.0],
    )
    assert spelled(store.relation("E")) == ["(-0.0, 'p', (1,))"]
    assert spelled(store.relation("F")) == ["(1, 'r', 1)"]
    assert spelled(store.objects) == ["'p'", "'r'", "(1,)", "-0.0", "1"]
    assert spelled(Database(store).query("E").to_set()) == ["(-0.0, 'p', (1,))"]


def test_every_backend_agrees_on_a_mixed_store():
    triples = [(1, "p", 1.0), (True, "q", -0.0), (0.0, "p", (True,)), ((1,), "q", 1)]
    queries = ["E", "star[1,2,3'; 3=1'](E)", "join[1,2,3'; 3=1'](E, E)", "select[1=3](E)"]
    for query in queries:
        answers = {
            backend: spelled(Database.from_triples(triples, backend=backend).query(query).to_set())
            for backend in BACKENDS
        }
        assert answers["set"] == answers["columnar"] == answers["sharded"], query


def test_encode_spells_a_batch_against_the_dictionary():
    view = Triplestore([(1.0, "p", "a")]).columnar()
    for batch in ([(True, "q", "b"), (1, "r", 0.0)], [(1, "r", 0.0), (True, "q", "b")]):
        encoded = view.encode({"F": frozenset(batch)})
        assert spelled(encoded.relations["F"]) == ["(1.0, 'q', 'b')", "(1.0, 'r', 0.0)"]
        assert list(map(repr, encoded.fresh.objects.tolist())) == ["'b'", "'q'", "'r'", "0.0"]


# --------------------------------------------------------------------- #
# (b) the fast path
# --------------------------------------------------------------------- #


def test_plain_types_have_one_spelling():
    assert one_spelling({str, bytes, type(None), int})
    assert one_spelling({str, bool})
    assert not one_spelling({int, bool})
    for kind in (float, tuple, complex):
        assert not one_spelling({str, kind})


def test_a_plain_batch_is_never_spelled_out(monkeypatch):
    calls = []
    monkeypatch.setattr(identity, "repr", lambda obj: calls.append(obj) or "x", raising=False)
    store = Triplestore([("a", "p", "b"), ("b", "p", 1)])
    store.with_relation("F", [("c", "p", 2)])
    store.columnar()
    store.with_relation("F", [("c", "p", 2), (None, "q", b"x")])
    assert calls == []
    # A float anywhere is the slow path — its objects only, not the strings.
    Triplestore([("a", "p", 1.5)])
    assert calls == [1.5]


# --------------------------------------------------------------------- #
# (c) a dictionary holding two equal objects is damage
# --------------------------------------------------------------------- #


def test_a_dictionary_with_two_equal_objects_is_refused(tmp_path):
    from repro.storage import segments
    from repro.storage.dictionary import decode_dictionary, encode_dictionary

    root = str(tmp_path / "s")
    db = Database(path=root)
    db.install("E", [(1, "p", "x"), (2, "q", "y")])
    db.close()
    with open(os.path.join(root, "MANIFEST"), "rb") as fp:
        manifest = json.loads(fp.read())
    gen = os.path.join(root, *manifest["gen_dir"].split("/"))
    meta = os.path.join(gen, manifest["segments"]["meta"]["file"])
    objects, dv_values, rho = decode_dictionary(
        segments.read_segment(meta, expect_kind=segments.KIND_DICT), meta
    )
    assert objects[-2:] == [1, 2]
    objects[-1] = True  # True beside 1, in repr order, the CRCs restamped
    crc = segments.write_segment(meta, segments.KIND_DICT, encode_dictionary(objects, dv_values, rho))
    manifest["segments"]["meta"]["crc"] = crc
    with open(os.path.join(root, "MANIFEST"), "w") as fp:
        json.dump(manifest, fp)
    assert segments.verify_segment(meta) == []
    with pytest.raises(StoreCorruptionError, match="compare equal"):
        DurableStore(root).open()
    findings = fsck_store(root)
    assert [f.rule for f in findings] == ["STOR-SEGMENT"]
    assert "compare equal" in findings[0].message
