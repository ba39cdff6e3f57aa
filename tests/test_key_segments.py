"""Key segments: every array of a generation as blocked, byte-planed,
zlib'd deltas (``KIND_KEYS``, manifest formats 5 and 6).  Seeded throughout.

* Round trip: sorted unique keys of any count — none, one, and either
  side of the 2¹⁵-key block — and up to n³ − 1 come back exactly, from
  the codec and through a written and reopened generation; ρ codes,
  whose deltas may be negative, too.  A generation holds no array of
  another kind.
* Hardening: truncations, a flipped bit, bit flips under re-stamped
  CRCs, a raw ``int64`` array (kind 1, written before format 5), a count
  that disagrees with the stream, trailing bytes, a zlib bomb under a
  small and under a huge declared count and at deflate's ratio bound
  (``segments._MAX_RATIO``, the key codec's own), and arrays the dictionary
  refutes — keys repeated, swapped, negative or ≥ n³; ρ codes out of
  range or one short — make an open raise
  :class:`StoreCorruptionError` and nothing else, and ``fsck`` report
  exactly ``STOR-SEGMENT``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.errors import StoreCorruptionError
from repro.storage import DurableStore, fsck_store, segments
from repro.storage.segments import (
    KIND_KEYS,
    decode_keys,
    encode_keys,
    open_store_segments,
    read_segment,
    write_store_segments,
)
from repro.triplestore.columnar import _MAX_ENCODABLE_OBJECTS
from repro.triplestore.model import Triplestore
from tests.test_storage_generations import DK, E, RHO, manifest_of

#: Key counts on either side of a block boundary.
SIZES = (0, 1, 2**15 - 1, 2**15, 2**15 + 1)


def sorted_keys(size: int, n: int, seed: int, spread: int, top: bool) -> np.ndarray:
    """``size`` strictly increasing keys in ``[0, n³)``, gaps below
    ``2**spread``; the last one ``n³ − 1`` when ``top``."""
    rng = np.random.default_rng(seed)
    widest = max(1, min(2**spread, (n**3 - 1) // max(size, 1)))
    keys = np.cumsum(rng.integers(1, widest, size, endpoint=True)) - 1
    if top and size:
        keys[-1] = n**3 - 1
    return keys


# --------------------------------------------------------------------- #
# Round trip
# --------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    size=st.sampled_from(SIZES),
    n=st.integers(41, _MAX_ENCODABLE_OBJECTS),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(1, 63),
    top=st.booleans(),
)
def test_sorted_unique_keys_round_trip(size, n, seed, spread, top):
    keys = sorted_keys(size, n, seed, spread, top)
    segments.check_keys(keys, n, "keys")
    back = decode_keys(encode_keys(keys), size)
    assert back.dtype == np.int64 and back.tolist() == keys.tolist()
    segments.check_keys(back, n, "keys")


@pytest.mark.parametrize("size", SIZES)
def test_codes_with_negative_deltas_round_trip(size):
    codes = np.random.default_rng(size).integers(0, 7, size)
    assert decode_keys(encode_keys(codes), size).tolist() == codes.tolist()


def test_sorted_keys_take_under_four_bytes_each():
    keys = sorted_keys(10**5, 20_000, 1, 40, False)
    assert len(encode_keys(keys)) < 4 * len(keys)


def big_store() -> Triplestore:
    """One relation of 2¹⁵ + 2 triples whose last key is n³ − 1, and ρ."""
    triples = [(f"s{i % 200:03d}", "p", f"o{i:05d}") for i in range(2**15 + 1)]
    triples.append(("zz", "zz", "zz"))  # the largest object: key n³ − 1
    return Triplestore({"E": triples, "F": triples[:5]}, rho={"zz": 1, "p": 2})


def test_a_reopened_generation_holds_the_same_arrays(tmp_path):
    store = big_store()
    block = write_store_segments(store, tmp_path / "gen")
    kinds = {block["dv_codes"]["kind"]} | {e["kind"] for e in block["relations"]}
    assert kinds == {KIND_KEYS}
    view, fresh = open_store_segments(tmp_path / "gen", block).columnar(), store.columnar()
    assert int(fresh.relation_keys("E")[-1]) == fresh.n**3 - 1
    for name in ("E", "F"):
        assert view.relation_keys(name).tolist() == fresh.relation_keys(name).tolist()
    assert view.dv_codes.tolist() == fresh.dv_codes.tolist()


# --------------------------------------------------------------------- #
# Hardening
# --------------------------------------------------------------------- #


def twin() -> Triplestore:
    return Triplestore({"E": E, "Dk": DK}, rho=RHO)


def build(root) -> str:
    """A closed store of :func:`twin`."""
    ds = DurableStore(str(root))
    ds.open()
    store = twin()
    ds.snapshot(store, {name: 1 for name in store.relation_names}, 1)
    ds.close()
    return str(root)


def entry_of(manifest: dict, name: str) -> dict:
    if name == "dv_codes":
        return manifest["segments"]["dv_codes"]
    return next(e for e in manifest["segments"]["relations"] if e["name"] == name)


def path_of(root, name: str) -> str:
    manifest = manifest_of(root)
    return os.path.join(root, *manifest["gen_dir"].split("/"), entry_of(manifest, name)["file"])


def stored(root, name: str) -> np.ndarray:
    """The array a segment holds, decoded without any check."""
    count = entry_of(manifest_of(root), name)["count"]
    return decode_keys(read_segment(path_of(root, name)), count).copy()


def restamp(root, name: str, payload: bytes, kind: int = KIND_KEYS, **fields) -> None:
    """Replace a segment's payload, header CRCs and manifest entry included."""
    crc = segments.write_segment(path_of(root, name), kind, payload)
    manifest = manifest_of(root)
    entry_of(manifest, name).update(fields, crc=crc)
    with open(os.path.join(root, "MANIFEST"), "w") as fp:
        json.dump(manifest, fp)


def refused(root) -> str:
    """An open's refusal message; fsck must say exactly STOR-SEGMENT."""
    with pytest.raises(StoreCorruptionError) as info:
        DurableStore(root).open()
    assert [f.rule for f in fsck_store(root)] == ["STOR-SEGMENT"]
    return str(info.value)


class TestHardening:
    def test_a_swapped_key_pair_is_refused_by_open_and_fsck(self, tmp_path, capsys):
        root = build(tmp_path / "s")
        keys = stored(root, "E")
        keys[[3, 4]] = keys[[4, 3]]
        restamp(root, "E", encode_keys(keys))
        assert segments.verify_segment(path_of(root, "E")) == []  # the CRC is no help
        assert "out of order" in refused(root)
        assert cli_main(["fsck", root]) == 1
        assert "STOR-SEGMENT" in capsys.readouterr().out

    def test_a_flipped_bit_is_refused_by_its_crc(self, tmp_path):
        root = build(tmp_path / "s")
        with open(path_of(root, "E"), "r+b") as fp:
            fp.seek(-1, os.SEEK_END)
            last = fp.read(1)[0]
            fp.seek(-1, os.SEEK_END)
            fp.write(bytes([last ^ 1]))
        assert "CRC" in refused(root)

    @pytest.mark.parametrize("seed", range(3))
    def test_truncations(self, tmp_path, seed):
        root = build(tmp_path / "s")
        payload = read_segment(path_of(root, "E"))
        pristine = str(tmp_path / "pristine")
        shutil.copytree(root, pristine)
        for cut in random.Random(seed).sample(range(len(payload)), 8):
            shutil.rmtree(root)
            shutil.copytree(pristine, root)
            restamp(root, "E", payload[:cut])
            refused(root)
        # A file shorter than its header says, CRCs untouched.
        shutil.rmtree(root)
        shutil.copytree(pristine, root)
        with open(path_of(root, "Dk"), "r+b") as fp:
            fp.truncate(segments.HEADER_SIZE + 3)
        with pytest.raises(StoreCorruptionError, match="truncated"):
            DurableStore(root).open()

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_flips_under_restamped_crcs(self, tmp_path, seed):
        root = build(tmp_path / "s")
        rng = random.Random(400 + seed)
        name = rng.choice(["E", "Dk", "dv_codes"])
        payload = read_segment(path_of(root, name))
        pristine = str(tmp_path / "pristine")
        shutil.copytree(root, pristine)
        for bit in rng.sample(range(8 * len(payload)), 12):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            shutil.rmtree(root)
            shutil.copytree(pristine, root)
            restamp(root, name, bytes(flipped))
            try:
                ds = DurableStore(root)
                ds.open()
                ds.close()
            except StoreCorruptionError:
                assert [f.rule for f in fsck_store(root)] == ["STOR-SEGMENT"], bit
            else:
                # Deflate ignores a few bits (the header's level hint, the
                # last byte's padding): the very same stream.
                assert fsck_store(root) == [], bit

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda k, n: (encode_keys(k), {"count": len(k) + 1}), "truncated"),
            (lambda k, n: (encode_keys(k), {"count": len(k) - 1}), "past its"),
            (lambda k, n: (encode_keys(k) + b"\x00", {}), "padded"),
            (lambda k, n: (encode_keys(k) + encode_keys(k), {}), "padded"),
            (lambda k, n: (encode_keys(np.r_[k[:1], k[:-1]]), {}), "out of order"),
            (lambda k, n: (encode_keys(np.r_[k[:-1], n**3]), {}), "outside"),
            (lambda k, n: (encode_keys(np.r_[-1, k[1:]]), {}), "outside"),
            (lambda k, n: (b"", {}), "cannot hold"),
            (lambda k, n: (encode_keys(k)[:-4], {}), "truncated"),
        ],
        ids=[
            "count-over", "count-under", "trailing-byte", "trailing-stream",
            "key-repeated", "key-n3", "key-negative", "empty-payload", "no-adler",
        ],
    )
    def test_crafted_relation_segments(self, tmp_path, make, match):
        root = build(tmp_path / "s")
        payload, fields = make(stored(root, "E"), twin().columnar().n)
        restamp(root, "E", payload, **fields)
        message = refused(root)
        assert match in message, message

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda c, k: np.r_[c[:-1], k], "one code in"),
            (lambda c, k: np.r_[-1, c[1:]], "one code in"),
            (lambda c, k: c[:-1], "one code in"),
        ],
        ids=["code-too-large", "code-negative", "one-short"],
    )
    def test_crafted_code_segments(self, tmp_path, make, match):
        root = build(tmp_path / "s")
        codes = make(stored(root, "dv_codes"), len(twin().columnar().dv_values))
        restamp(root, "dv_codes", encode_keys(codes), count=len(codes))
        assert match in refused(root)

    def test_a_raw_int64_segment_under_format_5_is_refused(self, tmp_path):
        root = build(tmp_path / "s")
        restamp(root, "E", stored(root, "E").tobytes(), kind=1)  # raw int64, pre-format-5
        assert "expected 4" in refused(root)

    def test_a_bomb_inflates_no_further_than_its_declared_count(self, tmp_path, monkeypatch):
        bomb = zlib.compress(bytes(8 * 1024 * 1024), 9)
        assert len(bomb) * 500 < 8 * 1024 * 1024
        produced: list[int] = []
        real = zlib.decompressobj

        class Spy:
            def __init__(self, *args, **kwargs):
                self.inner = real(*args, **kwargs)

            def decompress(self, data, max_length=0):
                out = self.inner.decompress(data, max_length)
                produced.append(len(out))
                return out

            def __getattr__(self, name):
                return getattr(self.inner, name)

        monkeypatch.setattr(segments.zlib, "decompressobj", Spy)
        with pytest.raises(ValueError, match="past its 1000 items"):
            decode_keys(bomb, 1000)
        assert sum(produced) == 8 * 1000 + 1
        # Over several blocks, no one inflated part outgrows its block.
        del produced[:]
        with pytest.raises(ValueError, match="past its"):
            decode_keys(bomb, 3 * 2**15 + 5)
        assert sum(produced) == 8 * (3 * 2**15 + 5) + 1
        assert max(produced) <= 8 * 2**15
        # A count deflate could not reach from the bytes at hand: not one
        # byte inflated, no array allocated.
        del produced[:]
        with pytest.raises(ValueError, match="cannot hold"):
            decode_keys(bomb, 2**40)
        assert produced == []
        bound = segments._MAX_RATIO * len(bomb) // 8
        with pytest.raises(ValueError, match="cannot hold"):
            decode_keys(bomb, bound + 1)
        assert produced == []
        # At the bound the stream is inflated, and found short of it.
        with pytest.raises(ValueError, match="truncated"):
            decode_keys(bomb, bound)
        assert sum(produced) == 8 * 1024 * 1024
        root = build(tmp_path / "s")
        for count in (1000, 2**40):
            restamp(root, "E", bomb, count=count)
            refused(root)
