"""The dictionary segment (``meta.seg`` of every generation) is data.

* Round trip: every value a durable store holds comes back ``==`` and of
  the very same type — ``1`` / ``True`` / ``1.0``, ``-0.0``, NaN, ±inf,
  big ints, ``bytes``, nested tuples, NUL and lone-surrogate strings —
  for universes and ρ maps alike, the empty ones included.
* No pickle: opening, querying and reopening a store never calls
  ``pickle.loads``.
* The stream: one raw LZMA2 stream, decoding back to the text, and
  under a tenth of zlib's size for a 20 000-object universe.
* Hardening: truncations, bit flips under a re-stamped CRC, unknown
  tags, count mismatches, a decompression bomb and a zlib stream (the
  format-5 codec) all raise :class:`StoreCorruptionError` and nothing
  else; ``repro fsck`` reports a segment that does not decode as
  ``STOR-SEGMENT``.
* The type rule: a durable commit refuses, before the WAL append, any
  object the segment could not write; an in-memory session does not.
"""

from __future__ import annotations

import enum
import json
import lzma
import math
import os
import pickle
import random
import struct
import zlib
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Database
from repro.errors import StorageError, StoreCorruptionError
from repro.storage import DurableStore, dictionary, fsck_store, segments
from repro.storage.dictionary import decode_dictionary, encode_dictionary
from repro.triplestore.model import Triplestore

SPECIALS = [
    1, True, 1.0, 0, False, -0.0, 0.0, math.nan, math.inf, -math.inf,
    2**200, -(2**70) - 1, b"", b"\x00\xff", (), ((),), ("t", (1, None, b"x")),
    None, "", "\x00", "a\x00b", "\ud800", "x\udfffy", "ü€𝄞", '"{"int": "0x1"}"',
]

scalars = (
    st.text(st.characters(codec=None, categories=None, exclude_categories=()))
    | st.integers()
    | st.integers(min_value=-(2**300), max_value=2**300)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.booleans()
    | st.none()
    | st.binary()
    | st.sampled_from(SPECIALS)
)
values = st.recursive(
    scalars,
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


def same(a, b) -> bool:
    """``a == b`` of the same type, all the way down; NaN is itself and
    ``-0.0`` is not ``0.0``."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is float:
        if math.isnan(a):
            return math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def round_trip(objects, dv_values, rho):
    return decode_dictionary(encode_dictionary(objects, dv_values, rho), "test")


def lzma2(text: bytes) -> bytes:
    return lzma.compress(text, format=lzma.FORMAT_RAW, filters=dictionary._FILTERS)


def payload_of(text: bytes, count: int, declared: int | None = None) -> bytes:
    """A ``KIND_DICT`` payload around arbitrary ``text``."""
    declared = len(text) if declared is None else declared
    return struct.pack("<QQI", declared, count, zlib.crc32(text)) + lzma2(text)


def rich_store() -> Triplestore:
    triples = [
        ("a", "p", 1), (True, "p", 1.0), (-0.0, "q", math.inf), (2**80, "q", b"\x00"),
        (("t", (None, 2)), "r", "\ud800"), ("a\x00b", "r", None), ("n", "p", "m"),
    ]
    rho = {"a": 1, 1: ("pair", 2.5), "n": b"raw", "m": None, 2**80: -1, "p": "label"}
    return Triplestore({"E": triples, "F": triples[:3]}, rho=rho)


def durable(root, store: Triplestore) -> str:
    ds = DurableStore(str(root))
    ds.open()
    ds.snapshot(store, {name: 1 for name in store.relation_names}, 1)
    ds.close()
    return str(root)


def meta_path(root) -> str:
    with open(os.path.join(root, "MANIFEST"), "rb") as fp:
        manifest = json.loads(fp.read())
    return os.path.join(root, *manifest["gen_dir"].split("/"), manifest["segments"]["meta"]["file"])


def restamp(root, payload: bytes) -> None:
    """Replace ``meta.seg``'s payload, header CRCs and manifest CRC included."""
    crc = segments.write_segment(meta_path(root), segments.KIND_DICT, payload)
    path = os.path.join(root, "MANIFEST")
    with open(path, "rb") as fp:
        manifest = json.loads(fp.read())
    manifest["segments"]["meta"]["crc"] = crc
    with open(path, "w") as fp:
        json.dump(manifest, fp)


# --------------------------------------------------------------------- #
# Round trip
# --------------------------------------------------------------------- #


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(values, max_size=30),
        st.lists(values, max_size=5),
        st.dictionaries(values, values, max_size=10),
    )
    def test_every_value_comes_back_equal_and_of_its_type(self, objects, dv_values, rho):
        got_objects, got_values, got_rho = round_trip(objects, dv_values, rho)
        assert len(got_objects) == len(objects)
        assert all(map(same, got_objects, objects))
        assert len(got_values) == len(dv_values)
        assert all(map(same, got_values, dv_values))
        assert len(got_rho) == len(rho)
        for (key, value), (got_key, got_value) in zip(rho.items(), got_rho.items()):
            assert same(got_key, key) and same(got_value, value)

    def test_the_specials(self):
        rho = {v: v for v in SPECIALS if not (type(v) is float and math.isnan(v))}
        got_objects, got_values, got_rho = round_trip(SPECIALS, SPECIALS, rho)
        assert all(map(same, got_objects, SPECIALS))
        assert all(map(same, got_values, SPECIALS))
        assert all(same(k, got) for k, got in zip(rho, got_rho))
        assert [type(v) for v in got_rho.values()] == [type(v) for v in rho.values()]

    def test_one_true_and_one_point_zero_stay_distinct(self):
        got, _, _ = round_trip([1, True, 1.0], [], {})
        assert [type(v) for v in got] == [int, bool, float]

    def test_the_empty_universe(self):
        assert round_trip([], [], {}) == ([], [], {})
        payload = encode_dictionary([], [], {})
        assert struct.unpack_from("<QQI", payload)[1] == 0

    def test_an_all_str_universe_never_calls_the_tag_hook(self, monkeypatch):
        calls = []
        real = dictionary._untag
        monkeypatch.setattr(dictionary, "_untag", lambda obj: calls.append(obj) or real(obj))
        objects = [f"n{i}" for i in range(1000)]
        assert round_trip(objects, [None], {}) == (objects, [None], {})
        assert calls == [{"none": None}]

    def test_the_text_is_data(self):
        payload = encode_dictionary([1, "a", (b"x",)], [], {})
        text = lzma.decompress(payload[20:], format=lzma.FORMAT_RAW, filters=dictionary._FILTERS)
        assert json.loads(text) == [
            [{"int": "0x1"}, "a", {"tuple": [{"bytes": "eA=="}]}], [], [], [],
        ]

    def test_a_sorted_universe_is_one_small_lzma2_stream(self):
        objects = [f"n{i:05d}" for i in range(20_000)]
        payload = encode_dictionary(objects, [], {})
        length, count, crc = struct.unpack_from("<QQI", payload)
        text = json.dumps([objects, [], [], []], separators=(",", ":")).encode("ascii")
        assert (length, count, crc) == (len(text), 20_000, zlib.crc32(text))
        stream = lzma.LZMADecompressor(lzma.FORMAT_RAW, filters=dictionary._FILTERS)
        assert stream.decompress(payload[20:]) == text and stream.eof
        assert decode_dictionary(payload, "sized") == (objects, [], {})
        # The encoder's exact bytes depend on the xz library's version;
        # the size does not move much: 3 894 B with xz 5.4.1, 45 275 B with zlib
        # level 1.
        assert len(payload) - 20 < min(4_500, len(zlib.compress(text, 1)) // 10)

    def test_unstorable_values_are_refused_by_the_writer(self):
        with pytest.raises(StorageError, match="Decimal"):
            encode_dictionary(["a", ("b", Decimal(1))], [], {})

    def test_a_durable_store_round_trips(self, tmp_path):
        store = rich_store()
        root = durable(tmp_path / "s", store)
        ds = DurableStore(root)
        reopened = ds.open()
        ds.close()
        assert reopened == store
        got, want = sorted(reopened.objects, key=repr), sorted(store.objects, key=repr)
        assert all(map(same, got, want))
        assert all(same(reopened.rho(k), v) for k, v in store.rho_map().items())
        assert fsck_store(root) == []


# --------------------------------------------------------------------- #
# No pickle on an open
# --------------------------------------------------------------------- #


@pytest.fixture()
def no_unpickling(monkeypatch) -> list:
    calls: list = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("pickle.loads called")

    monkeypatch.setattr(pickle, "loads", refuse)
    return calls


class TestNoPickle:
    def test_open_query_reopen_never_unpickles(self, tmp_path, no_unpickling):
        store = rich_store()
        root = durable(tmp_path / "s", store)
        for _ in range(2):  # open, then reopen
            ds = DurableStore(root)
            opened = ds.open()
            assert opened == store
            db = Database(opened, backend="columnar")
            assert db.query("join[1,2,3'; 3=1'](E, E)").to_set() == Database(
                store, backend="set"
            ).query("join[1,2,3'; 3=1'](E, E)").to_set()
            assert db.query("F").to_set() == store.relation("F")
            ds.close()
        assert no_unpickling == []


# --------------------------------------------------------------------- #
# Hardening: every defect is StoreCorruptionError
# --------------------------------------------------------------------- #


def good_payload() -> bytes:
    objects = sorted(rich_store().objects, key=repr) + [f"s{i}" for i in range(300)]
    return encode_dictionary(objects, [None, 1, ("x", 2.5)], {"a": 1, 2: b"\x00"})


class TestHardening:
    @pytest.mark.parametrize("seed", range(4))
    def test_truncations(self, seed):
        payload = good_payload()
        cuts = random.Random(seed).sample(range(len(payload)), 60)
        for cut in cuts:
            with pytest.raises(StoreCorruptionError):
                decode_dictionary(payload[:cut], "cut")

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_flips(self, seed):
        payload = good_payload()
        written = repr(decode_dictionary(payload, "ok"))
        rng = random.Random(100 + seed)
        for bit in rng.sample(range(8 * len(payload)), 150):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                got = decode_dictionary(bytes(flipped), "flip")
            except StoreCorruptionError:
                continue
            # LZMA2 ignores a few bits (the range coder's last bits, a
            # match copying equal bytes from elsewhere): the very same text.
            assert repr(got) == written, bit

    def test_a_text_that_fails_its_crc(self):
        # A raw LZMA2 stream carries no check of its own.
        text = b'[["ab","ba"],[],[],[]]'
        payload = payload_of(text, 2)
        crafted = payload[:16] + struct.pack("<I", zlib.crc32(text.replace(b"ab", b"ba"))) + payload[20:]
        with pytest.raises(StoreCorruptionError, match="CRC-32"):
            decode_dictionary(crafted, "crc")

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_flips_under_a_restamped_crc_fail_open_and_fsck(self, tmp_path, seed):
        root = durable(tmp_path / "s", rich_store())
        with open(meta_path(root), "rb") as fp:
            payload = fp.read()[segments.HEADER_SIZE :]
        bit = random.Random(200 + seed).randrange(8 * len(payload))
        flipped = bytearray(payload)
        flipped[bit // 8] ^= 1 << (bit % 8)
        restamp(root, bytes(flipped))
        assert segments.verify_segment(meta_path(root)) == []  # the CRC is no help
        with pytest.raises(StoreCorruptionError, match="does not decode"):
            DurableStore(root).open()
        findings = fsck_store(root)
        assert [f.rule for f in findings] == ["STOR-SEGMENT"]
        assert "does not decode" in findings[0].message

    @pytest.mark.parametrize(
        "text, count",
        [
            (b'[[{"zzz":"0x1"}],[],[],[]]', 1),  # unknown tag
            (b'[["a","b"],[],[],[]]', 3),  # preamble count disagrees with n
            (b'[["a",7],[],[],[]]', 2),  # a bare JSON number
            (b'[["a",1.5],[],[],[]]', 2),
            (b'[["a",NaN],[],[],[]]', 2),
            (b'[[],[["b"]],[],[]]', 0),  # a bare (unhashable) array
            (b'[[],[],[],[{"tuple":[["b"]]}]]', 0),
            (b'[[{"int":"0x1","bool":true}],[],[],[]]', 1),  # two keys
            (b'[[{"int":1}],[],[],[]]', 1),  # wrong payload types
            (b'[[{"float":1}],[],[],[]]', 1),
            (b'[[{"bool":"yes"}],[],[],[]]', 1),
            (b'[[{"none":0}],[],[],[]]', 1),
            (b'[[{"bytes":"@@@"}],[],[],[]]', 1),
            (b'[[{"tuple":"ab"}],[],[],[]]', 1),
            (b'[[{"int":"0xg"}],[],[],[]]', 1),
            (b'[[],[],["a"],[]]', 0),  # ρ keys without values
            (b'[[],[],[]]', 0),  # not four lists
            (b'{"objects":[]}', 0),
            (b'[[],[],[],{}]', 0),
            (b'[["\xc3\xbc"],[],[],[]]', 1),  # not ASCII
            (b'[["a"],[],[],[]', 1),  # not JSON
            (b"[" * 100_000 + b"]" * 100_000, 0),  # nested past the parser's depth
        ],
        ids=[
            "unknown-tag", "count-mismatch", "bare-int", "bare-float", "bare-nan",
            "bare-array-value", "bare-array-in-tuple-value", "two-keys", "int-not-str",
            "float-not-str", "bool-not-bool", "none-not-null", "bad-base64",
            "tuple-not-list", "bad-hex", "rho-unpaired", "three-lists", "object-doc",
            "object-part", "not-ascii", "not-json", "too-deep",
        ],
    )
    def test_malformed_documents(self, text, count):
        with pytest.raises(StoreCorruptionError, match="does not decode"):
            decode_dictionary(payload_of(text, count), "crafted")

    @pytest.mark.parametrize(
        "text, count",
        [
            (b'[["a",["b"]],[],[],[]]', 2),  # a bare (unhashable) array
            (b'[[{"tuple":[["b"]]}],[],[],[]]', 1),
        ],
        ids=["bare-array", "bare-array-in-tuple"],
    )
    def test_an_unhashable_object_is_refused_by_open_and_fsck(self, tmp_path, text, count):
        # The decoder leaves hashing the universe to the object index.
        root = durable(tmp_path / "s", rich_store())
        restamp(root, payload_of(text, count))
        with pytest.raises(StoreCorruptionError, match="does not decode: unhashable"):
            DurableStore(root).open()
        findings = fsck_store(root)
        assert [f.rule for f in findings] == ["STOR-SEGMENT"]
        assert "does not decode: unhashable" in findings[0].message

    def test_declared_length_mismatches(self):
        text = b'[["a"],[],[],[]]'
        for declared in (0, len(text) - 1, len(text) + 1, 2**63, 2**64 - 1):
            with pytest.raises(StoreCorruptionError):
                decode_dictionary(payload_of(text, 1, declared), "length")

    def test_trailing_bytes_and_a_short_preamble(self):
        payload = payload_of(b'[["a"],[],[],[]]', 1)
        assert decode_dictionary(payload, "ok")[0] == ["a"]
        for bad in (payload + b"\x00", payload + payload[20:], payload[:19], b""):
            with pytest.raises(StoreCorruptionError):
                decode_dictionary(bad, "bad")

    def test_a_decompression_bomb_inflates_no_further_than_declared(self, monkeypatch):
        declared = 1000
        text = b'[["' + b"a" * (8 * 1024 * 1024) + b'"],[],[],[]]'
        bomb = payload_of(text, 1, declared)
        assert len(bomb) * 5000 < len(text)  # 8 MiB of text, under 2 KB compressed
        produced: list[int] = []
        real = lzma.LZMADecompressor

        class Spy:
            def __init__(self, *args, **kwargs):
                self.inner = real(*args, **kwargs)

            def decompress(self, data, max_length=-1):
                out = self.inner.decompress(data, max_length)
                produced.append(len(out))
                return out

            def __getattr__(self, name):
                return getattr(self.inner, name)

        monkeypatch.setattr(dictionary.lzma, "LZMADecompressor", Spy)
        with pytest.raises(StoreCorruptionError, match="past its declared"):
            decode_dictionary(bomb, "bomb")
        assert produced == [declared + 1]
        # LZMA2's own bound: a declared length past it is refused with not
        # one byte inflated; one at it reaches the decompressor.
        small = payload_of(b'[["a"],[],[],[]]', 1)
        bound = dictionary._MAX_RATIO * (len(small) - 20)
        del produced[:]
        with pytest.raises(StoreCorruptionError, match="cannot inflate"):
            decode_dictionary(payload_of(b'[["a"],[],[],[]]', 1, bound + 1), "past")
        assert produced == []
        with pytest.raises(StoreCorruptionError, match="truncated or padded"):
            decode_dictionary(payload_of(b'[["a"],[],[],[]]', 1, bound), "at")
        assert produced == [16]

    def test_a_zlib_stream_is_refused_by_open_and_fsck(self, tmp_path):
        # What a format-5 ``meta.seg`` held, under a format-6 manifest.
        root = durable(tmp_path / "s", rich_store())
        text = lzma.decompress(
            segments.read_segment(meta_path(root))[20:],
            format=lzma.FORMAT_RAW,
            filters=dictionary._FILTERS,
        )
        objects = len(rich_store().columnar().objects)
        restamp(root, struct.pack("<QQI", len(text), objects, zlib.crc32(text)) + zlib.compress(text, 1))
        with pytest.raises(StoreCorruptionError, match="does not decode"):
            DurableStore(root).open()
        findings = fsck_store(root)
        assert [f.rule for f in findings] == ["STOR-SEGMENT"]
        assert "does not decode" in findings[0].message

    def test_open_refuses_a_meta_segment_of_another_kind(self, tmp_path):
        root = durable(tmp_path / "s", rich_store())
        payload = segments.read_segment(meta_path(root))
        segments.write_segment(meta_path(root), segments.KIND_KEYS, payload)
        with pytest.raises(StoreCorruptionError, match="kind 4, expected 3"):
            DurableStore(root).open()

    def test_fsck_reports_an_unknown_tag(self, tmp_path):
        root = durable(tmp_path / "s", rich_store())
        restamp(root, payload_of(b'[[{"zzz":"0x1"}],[],[],[]]', 1))
        findings = fsck_store(root)
        assert [f.rule for f in findings] == ["STOR-SEGMENT"]
        assert "unknown tag 'zzz'" in findings[0].message
        assert findings[0].path == meta_path(root)


# --------------------------------------------------------------------- #
# The type rule at the commit point
# --------------------------------------------------------------------- #


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


UNSTORABLE = [
    (Decimal("1.5"), "Decimal"),
    (frozenset({"a"}), "frozenset"),
    (Colour.RED, "Colour"),
    (Name("a"), "Name"),
    (("ok", (1, Decimal(2))), "Decimal"),  # nested inside a tuple
]


class TestCommitTypeRule:
    @pytest.mark.parametrize("bad, type_name", UNSTORABLE)
    def test_install_is_refused_before_the_wal(self, tmp_path, bad, type_name):
        with Database(path=str(tmp_path / "s")) as db:
            db.install("E", [("a", "p", "b")])
            size, store, version = db._storage.wal.size, db.store, db._store_version
            with pytest.raises(StorageError, match=f"relation 'F'.*'{type_name}'"):
                db.install("F", [("a", "p", "b"), ("a", "p", bad)])
            with pytest.raises(StorageError, match=f"relation 'G'.*'{type_name}'"):
                with db.batch():
                    db.install("H", [("h", "h", "h")])
                    db.install("G", [(bad, "p", "b")])
            assert db._storage.wal.size == size
            assert db.store is store and db._store_version == version
        with Database(path=str(tmp_path / "s")) as db:
            assert db.store.relation_names == ("E",)
        assert fsck_store(str(tmp_path / "s")) == []

    def test_durable_store_commit_names_the_relation(self, tmp_path):
        ds = DurableStore(str(tmp_path / "s"))
        ds.open()
        size = ds.wal.size
        batch = {"E": frozenset({("a", "b", "c")}), "X": frozenset({("a", "b", frozenset())})}
        with pytest.raises(StorageError, match="relation 'X' holds an object of type 'frozenset'"):
            ds.commit(batch)
        assert ds.wal.size == size
        ds.close()

    @pytest.mark.parametrize("bad, _type_name", UNSTORABLE)
    def test_in_memory_sessions_accept_any_hashable(self, bad, _type_name):
        db = Database(Triplestore([("a", "p", "b")]))
        db.install("F", [("a", "p", bad)])
        assert db.query("F").to_set() == {("a", "p", bad)}

    def test_every_codec_type_is_accepted_and_survives_replay(self, tmp_path):
        triples = [(1, "t", 1.5), (None, b"\x00", ("t", (2, None))), ("\ud800", -0.0, 2**90)]
        root = str(tmp_path / "s")
        ds = DurableStore(root)
        ds.open()
        ds.commit({"E": frozenset(triples)})
        ds.close()  # no snapshot: the WAL is replayed on reopen
        with Database(path=root) as db2:
            got = sorted(db2.store.relation("E"), key=repr)
            assert all(map(same, got, sorted(triples, key=repr)))
        assert fsck_store(root) == []
        with Database(path=root) as db3:  # reopened from the snapshot close wrote
            got = sorted(db3.store.relation("E"), key=repr)
            assert all(map(same, got, sorted(triples, key=repr)))


def test_crc_of_the_segment_is_the_manifests(tmp_path):
    root = durable(tmp_path / "s", rich_store())
    with open(meta_path(root), "rb") as fp:
        payload = fp.read()[segments.HEADER_SIZE :]
    with open(os.path.join(root, "MANIFEST"), "rb") as fp:
        entry = json.loads(fp.read())["segments"]["meta"]
    assert entry["kind"] == segments.KIND_DICT
    assert entry["crc"] == zlib.crc32(payload)
    assert entry["bytes"] == len(payload)
