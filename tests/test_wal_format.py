"""The WAL record is data: codes plus a dictionary tail, never a pickle.

* Round trip: a commit logs its batch exactly as the encoder made it —
  the dictionary size it extends, the fresh objects in code order (the
  tail: the dictionary codec's preamble plus its text, uncompressed),
  each relation's packed keys — and replay installs it through the same
  apply, relations left lazy.
* No pickle: commit, replay and ``fsck`` never call ``pickle.dumps`` or
  ``pickle.loads``; a pickled record is corruption.
* Hardening: truncations, bit flips under re-stamped CRCs and crafted
  records (keys unsorted, repeated, negative or past n³; a tail out of
  ``repr`` order, repeating an object or overlapping the dictionary; a
  wrong base; oversized declared lengths; a version-1 record or a tail
  still zlib-compressed, as format 5 logged them) make an open raise
  :class:`StoreCorruptionError` and nothing else, and ``fsck`` report
  exactly ``STOR-WAL``.
* The commit order: a batch the store refuses is never logged.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import shutil
import struct
import zlib

import numpy as np
import pytest

from repro.db import Database
from repro.errors import StoreCorruptionError, TriplestoreError
from repro.storage import DurableStore, fsck_store
from repro.storage.dictionary import encode_values
from repro.storage.segments import SegmentStore
from repro.storage.wal import (
    MAGIC,
    RECORD_HEADER_SIZE,
    RECORD_VERSION,
    read_record,
    scan_records,
)
from repro.triplestore import columnar
from repro.triplestore.columnar import ColumnarStore
from repro.triplestore.model import Triplestore

E = [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a")]
RHO = {"a": 1, "b": 1, "c": ("x", 2.5)}
F = [(1, "r", 2.5), ("t", ("x", 1), b"\x00"), ("a", "r", None)]
G = [("e", "s", True)]

_PREAMBLE = struct.Struct("<4sIQQQ")
_RELATION = struct.Struct("<QQ")


def crafted(base: int, tail: list, relations: list, *, version: int = RECORD_VERSION,
            tail_bytes: bytes | None = None, count: int | None = None) -> bytes:
    """A record payload laid out by hand; ``relations`` holds
    ``(name, keys)`` or ``(name_bytes, keys, declared_count)``."""
    tail_bytes = encode_values(tail) if tail_bytes is None else tail_bytes
    parts = [
        _PREAMBLE.pack(MAGIC, version, base, len(tail_bytes),
                       len(relations) if count is None else count),
        tail_bytes,
        bytes(-len(tail_bytes) % 8),
    ]
    for entry in relations:
        name, keys = entry[0], entry[1]
        raw = name.encode() if isinstance(name, str) else name
        declared = entry[2] if len(entry) > 2 else len(keys)
        parts += [_RELATION.pack(len(raw), declared), raw, bytes(-len(raw) % 8),
                  np.asarray(keys, dtype="<i8").tobytes()]
    return b"".join(parts)


def frame(seq: int, payload: bytes) -> bytes:
    header = struct.pack("<QQI", len(payload), seq, zlib.crc32(payload))
    return header + struct.pack("<I", zlib.crc32(header)) + payload


def log_records(root: str) -> list[tuple[int, bytes]]:
    with open(os.path.join(root, "wal", "wal.log"), "rb") as fp:
        records, _end = scan_records(fp.read())
    return records


def rewrite_log(root: str, records: list[tuple[int, bytes]]) -> None:
    """Replace the log by ``records``, CRCs re-stamped, all committed."""
    raw = b"".join(frame(seq, payload) for seq, payload in records)
    with open(os.path.join(root, "wal", "wal.log"), "wb") as fp:
        fp.write(raw)
    with open(os.path.join(root, "wal", "COMMIT"), "w") as fp:
        json.dump({"offset": len(raw), "seq": records[-1][0] if records else 0}, fp)


def abandon(db: Database) -> None:
    """Drop a durable session as a crash would: its log handle closes,
    nothing is folded — not now, not when it is collected."""
    db._storage.close()
    db._storage = None


def relations_of(store) -> dict:
    return {name: store.relation(name) for name in store.relation_names}


def base_store(tmp_path) -> str:
    """A closed store of ``E`` (ρ set) and one logged commit."""
    root = str(tmp_path / "s")
    ds = DurableStore(root)
    ds.open()
    ds.snapshot(Triplestore({"E": E}, rho=RHO), {"E": 1}, 1)
    ds.commit({"F": frozenset(F)})
    ds.close()
    return root


def refused(root: str) -> str:
    """An open's refusal message; fsck must say exactly STOR-WAL."""
    with pytest.raises(StoreCorruptionError) as info:
        DurableStore(root).open()
    assert [f.rule for f in fsck_store(root)] == ["STOR-WAL"]
    return str(info.value)


@pytest.fixture
def no_pickle(monkeypatch):
    """Fail on any pickling or unpickling; records the calls."""
    calls: list[str] = []

    def forbid(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"pickle.{name} was called")
        return call

    for name in ("loads", "load", "dumps", "dump"):
        monkeypatch.setattr(pickle, name, forbid(name))
    return calls


# --------------------------------------------------------------------- #
# Round trip
# --------------------------------------------------------------------- #


class TestRoundTrip:
    def test_a_record_holds_what_the_encoder_made(self, tmp_path):
        root = base_store(tmp_path)
        (seq, payload), = log_records(root)
        assert payload.startswith(MAGIC)
        record = read_record(payload, where="t")
        assert record.base == 5  # a, b, c, p and q: the snapshot's universe
        assert record.fresh == sorted({1, "r", 2.5, "t", ("x", 1), b"\x00", None}, key=repr)
        view = ColumnarStore(Triplestore({"E": E}, rho=RHO))
        expected = view.encode({"F": frozenset(F)})
        assert list(record.keys) == ["F"]
        assert record.keys["F"].tolist() == expected.keys["F"].tolist()
        assert list(expected.fresh.objects) == record.fresh

    def test_a_tail_is_its_preamble_plus_its_text(self, tmp_path):
        (seq, payload), = log_records(base_store(tmp_path))
        tail_len = _PREAMBLE.unpack_from(payload)[3]
        tail = payload[_PREAMBLE.size : _PREAMBLE.size + tail_len]
        tagged = [  # the fresh objects in repr order, tagged
            "r", "t", {"tuple": ["x", {"int": "0x1"}]}, {"int": "0x1"},
            {"float": (2.5).hex()}, {"none": None}, {"bytes": "AA=="},
        ]
        text = json.dumps(tagged, separators=(",", ":")).encode("ascii")
        assert tail == struct.pack("<QQI", len(text), len(tagged), zlib.crc32(text)) + text
        assert tail == encode_values(read_record(payload, where="t").fresh)

    def test_replay_applies_lazily_and_equals_a_fresh_build(self, tmp_path):
        root = base_store(tmp_path)
        ds = DurableStore(root)
        store = ds.open()
        try:
            assert type(store) is SegmentStore
            assert store._relations["F"] is None  # replayed, not decoded
            expected = Triplestore({"E": E, "F": F}, rho=RHO)
            assert store == expected
            view, fresh = store.columnar(), ColumnarStore(expected)
            assert view.objects.tolist() == fresh.objects.tolist()
            assert view.dv_codes.tolist() == fresh.dv_codes.tolist()
            for name in ("E", "F"):
                assert view.relation_keys(name).tolist() == fresh.relation_keys(name).tolist()
        finally:
            ds.close()

    def test_a_mixed_type_batch_survives_replay_and_compaction(self, tmp_path):
        root = str(tmp_path / "s")
        triples = [(1, "t", 1.5), (None, b"\x00", ("t", (2, None))), ("\ud800", -0.0, 2**90)]
        db = Database(path=root)
        db.install("E", triples)
        db.install("E", triples[:1])  # nothing fresh: a base-only record
        db.install("X", [])
        abandon(db)
        assert fsck_store(root) == []
        for _ in range(2):  # replayed, then from the snapshot the close wrote
            with Database(path=root) as replayed:
                assert relations_of(replayed.store) == {
                    "E": frozenset(triples[:1]),
                    "X": frozenset(),
                }
                assert replayed.store.objects == {c for t in triples for c in t}
        assert fsck_store(root) == []


# --------------------------------------------------------------------- #
# No pickle
# --------------------------------------------------------------------- #


class TestNoPickle:
    def test_commit_replay_and_fsck_never_reach_pickle(self, tmp_path, no_pickle):
        root = str(tmp_path / "s")
        db = Database(path=root, backend="columnar")
        db.install("E", E)
        with db.batch():
            db.install("F", F)
            db.install("E", E + G)
        twin = DurableStore(root)
        assert relations_of(twin.open()) == relations_of(db.store)  # both replayed
        twin.close()
        assert fsck_store(root) == []
        db.close()
        assert no_pickle == []

    def test_a_pickled_record_is_corruption(self, tmp_path, no_pickle):
        root = base_store(tmp_path)
        payload = b"\x80\x05" + b"\x00" * 30  # what a pickle starts with
        rewrite_log(root, log_records(root) + [(2, payload)])
        message = refused(root)
        assert "seq=2" in message and "not a data record" in message
        assert no_pickle == []


# --------------------------------------------------------------------- #
# Hardening
# --------------------------------------------------------------------- #


def good_record(tmp_path) -> tuple[str, list[tuple[int, bytes]]]:
    root = base_store(tmp_path)
    return root, log_records(root)


class TestHardening:
    @pytest.mark.parametrize("seed", range(3))
    def test_truncations(self, tmp_path, seed):
        root, records = good_record(tmp_path)
        (seq, payload), = records
        for cut in random.Random(seed).sample(range(len(payload)), 40):
            with pytest.raises(StoreCorruptionError):
                read_record(payload[:cut], where="cut")
        cut = random.Random(seed).randrange(len(payload))
        rewrite_log(root, [(seq, payload[:cut])])
        refused(root)

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_flips_under_restamped_crcs(self, tmp_path, seed):
        root, records = good_record(tmp_path)
        (seq, payload), = records
        rng = random.Random(300 + seed)
        pristine = os.path.join(str(tmp_path), "pristine")
        shutil.copytree(root, pristine)
        for bit in rng.sample(range(8 * len(payload)), 12):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            shutil.rmtree(root)
            shutil.copytree(pristine, root)
            rewrite_log(root, [(seq, bytes(flipped))])
            try:
                ds = DurableStore(root)
                ds.open()
                ds.close()
            except StoreCorruptionError:
                assert [f.rule for f in fsck_store(root)] == ["STOR-WAL"], bit
            else:
                # A flip can land on another valid record (a key moved
                # to another in range): then fsck has nothing to say.
                assert fsck_store(root) == [], bit

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda n, k: crafted(n, [], [("F", k[::-1])]), "out of order"),
            (lambda n, k: crafted(n, [], [("F", [k[0], k[0]])]), "out of order"),
            (lambda n, k: crafted(n, [], [("F", [-1, k[0]])]), "outside"),
            (lambda n, k: crafted(n, [], [("F", [k[0], n ** 3])]), "outside"),
            (lambda n, k: crafted(n, ["zz", "zy"], [("F", k)]), "repr order"),
            (lambda n, k: crafted(n, ["zy", "zy"], [("F", k)]), "twice"),
            (lambda n, k: crafted(n, ["a"], [("F", k)]), "already in the dictionary"),
            (lambda n, k: crafted(n, [1, True], [("F", k)]), "twice"),
            (lambda n, k: crafted(n + 1, [], [("F", k)]), "dictionary of"),
            (lambda n, k: crafted(n - 1, ["zz"], [("F", k)]), "dictionary of"),
            (lambda n, k: crafted(n, [], [("F", k)], version=1), "version 1"),
            (lambda n, k: crafted(n, [], [("F", k)], version=3), "version 3"),
            (lambda n, k: crafted(n, [], [("F", k), ("F", k)]), "twice"),
            (lambda n, k: crafted(n, [], [("F", k)], count=2), "declares"),
            (lambda n, k: crafted(n, [], [("F", k)], count=2**64 - 1), "declares"),
            (lambda n, k: crafted(n, [], [("F", k, 2**61)]), "declares"),
            (lambda n, k: crafted(n, [], [("F", k, len(k) + 1)]), "declares"),
            (lambda n, k: crafted(n, [], [(b"\xff\xfe", k)]), "utf-8"),
            (lambda n, k: crafted(n, [], [(b"F" * 3, k)]) + bytes(8), "follow"),
            (lambda n, k: _PREAMBLE.pack(MAGIC, RECORD_VERSION, n, 2**62, 0), "declares"),
            (lambda n, k: crafted(n, [], [], tail_bytes=_zlib_tail(b'["a"]', 1)), "declares"),
            (lambda n, k: crafted(n, [], [], tail_bytes=_values_of(b'["a"]', 1, 2**40)),
             "declares"),
            (lambda n, k: crafted(n, [], [], tail_bytes=_values_of(b'["a"]', 1, 4)), "declares"),
            (lambda n, k: crafted(n, [], [], tail_bytes=_values_of(b'["a"]', 2)), "preamble counts"),
            (lambda n, k: crafted(n, [], [], tail_bytes=b"\x00" * 7), "preamble"),
            (lambda n, k: crafted(n, [], [], tail_bytes=_values_of(b'["a",["b"]]', 2)),
             "unhashable"),
            (lambda n, k: MAGIC[:3], "does not decode"),
        ],
        ids=[
            "keys-unsorted", "keys-repeated", "key-negative", "key-past-n3",
            "tail-unsorted", "tail-repeated", "tail-overlaps", "tail-equal-values",
            "base-too-large", "base-too-small", "version-1", "version-3", "relation-twice",
            "relation-count-over", "relation-count-huge", "key-count-huge",
            "key-count-over", "name-not-utf8", "trailing-bytes", "tail-length-huge",
            "tail-zlib", "tail-declared-huge", "tail-declared-short", "tail-count-mismatch",
            "tail-short", "tail-unhashable",
            "short-magic",
        ],
    )
    def test_crafted_records(self, tmp_path, make, match):
        root, records = good_record(tmp_path)
        (seq, payload), = records
        base = read_record(payload, where="ok").base
        rewrite_log(root, [(seq, make(base, [1, 5]))])  # keys over the base alone
        message = refused(root)
        assert match.lower() in message.lower(), message

    def test_a_later_record_is_reported_once(self, tmp_path):
        root, records = good_record(tmp_path)
        (seq, payload), = records
        broken = crafted(0, [], [("F", [1, 0])])
        rewrite_log(root, [(seq, payload), (seq + 1, broken), (seq + 2, payload)])
        findings = fsck_store(root)
        assert [f.rule for f in findings] == ["STOR-WAL"]
        assert f"seq={seq + 1}" in findings[0].message

    def test_records_over_a_generation_that_does_not_open_are_still_decoded(self, tmp_path):
        root, records = good_record(tmp_path)
        with open(os.path.join(root, "MANIFEST")) as fp:
            manifest = json.load(fp)
        meta = os.path.join(root, manifest["gen_dir"], manifest["segments"]["meta"]["file"])
        os.remove(meta)
        assert [f.rule for f in fsck_store(root)] == ["STOR-SEGMENT"]
        (seq, payload), = records
        rewrite_log(root, [(seq, payload[:-8])])
        assert [f.rule for f in fsck_store(root)] == ["STOR-SEGMENT", "STOR-WAL"]

    def test_a_torn_tail_is_still_healthy(self, tmp_path):
        root, records = good_record(tmp_path)
        with open(os.path.join(root, "wal", "wal.log"), "ab") as fp:
            fp.write(frame(9, records[0][1])[: RECORD_HEADER_SIZE + 5])
        assert fsck_store(root) == []
        ds = DurableStore(root)
        assert relations_of(ds.open())["F"] == frozenset(F)
        ds.close()


#: Commit-pointer values that are not a non-negative ``int``.
BAD_POINTER_VALUES = ["Infinity", "-5", '"0"', "true", "1.5", "[0, 1]"]


class TestCommitPointer:
    """The ``COMMIT`` pointer is checked like the manifest: a JSON
    object whose ``offset`` and ``seq`` are non-negative ints."""

    @staticmethod
    def _restamp(root: str, text: str) -> None:
        with open(os.path.join(root, "wal", "COMMIT"), "w") as fp:
            fp.write(text)

    @pytest.mark.parametrize("value", BAD_POINTER_VALUES)
    @pytest.mark.parametrize("field", ["offset", "seq"])
    def test_a_bad_field_is_corruption(self, tmp_path, field, value):
        root = base_store(tmp_path)
        with open(os.path.join(root, "wal", "COMMIT")) as fp:
            pointer = json.load(fp)
        pointer[field] = "BAD"
        self._restamp(root, json.dumps(pointer).replace('"BAD"', value))
        message = refused(root)
        assert "commit pointer" in message and field in message, message

    @pytest.mark.parametrize("value", BAD_POINTER_VALUES + ["{}", '{"offset": 0}'])
    def test_a_bad_document_is_corruption(self, tmp_path, value):
        root = base_store(tmp_path)
        self._restamp(root, value)
        assert "commit pointer" in refused(root)

    def test_a_good_pointer_still_opens(self, tmp_path):
        root = base_store(tmp_path)
        assert fsck_store(root) == []
        ds = DurableStore(root)
        assert relations_of(ds.open())["F"] == frozenset(F)
        ds.close()


def _values_of(text: bytes, count: int, declared: int | None = None) -> bytes:
    """A tail around arbitrary ``text``, its length as ``declared``."""
    declared = len(text) if declared is None else declared
    return struct.pack("<QQI", declared, count, zlib.crc32(text)) + text


def _zlib_tail(text: bytes, count: int) -> bytes:
    """A tail as format 5 wrote it: the text zlib-compressed."""
    return struct.pack("<QQI", len(text), count, zlib.crc32(text)) + zlib.compress(text)


# --------------------------------------------------------------------- #
# The commit order: encode, check and apply before the record is logged
# --------------------------------------------------------------------- #


class TestRefusedBatchesAreNotLogged:
    @pytest.mark.parametrize("reopen_limit", ["kept", "lifted"])
    def test_a_batch_past_the_packing_limit_is_not_logged(
        self, tmp_path, monkeypatch, reopen_limit
    ):
        root = str(tmp_path / "s")
        monkeypatch.setattr(columnar, "_MAX_ENCODABLE_OBJECTS", 10)
        first = Database(path=root)
        first.install("E", [("a", "p", "b")])
        size = first._storage.wal.size
        with pytest.raises(TriplestoreError, match="cannot pack"):
            first.install("E", [(f"s{i}", "p", f"o{i}") for i in range(6)])
        assert first._storage.wal.size == size
        assert first.store.relation("E") == {("a", "p", "b")}
        if reopen_limit == "lifted":
            monkeypatch.setattr(columnar, "_MAX_ENCODABLE_OBJECTS", 2_097_151)
        # The first session stays open and unclosed: the log is all there is.
        second = Database.open(root)
        try:
            assert second.store.relation("E") == {("a", "p", "b")}
            assert second.store.n_objects == 3
        finally:
            abandon(second)
            abandon(first)
        assert fsck_store(root) == []
