"""Key segments: every array of a generation as field-wise columns
(``KIND_KEYS``, manifest format 7).  Seeded throughout.

* Layout: a payload is the radix, then per block of 2¹⁵ keys an s, a p
  and an o column (ρ codes: one column), each a base, a plane width and
  its byte planes, each plane closed by ``Z_BLOCK`` — spelled out here
  by :func:`layout` and equal to the encoder's bytes.
* Round trip: sorted unique keys of any count — none, one, either side
  of the block — for a radix from 1 to the largest a store packs, up to
  n³ − 1, and an s-run across a block boundary, come back exactly, from
  the codec and through a written and reopened generation; ρ codes,
  which are not sorted, too.  A generation holds no array of another
  kind.
* Size, clock-free: a relation takes the same bytes in a universe of
  20 000 objects and in one of 69 000 (the radix no longer mixes its
  fields), under 2.45 bytes a key; encoding 10⁵ keys holds under
  1.25 MiB of traced heap.
* Hardening: truncations, a flipped bit, bit flips under re-stamped
  CRCs, a raw ``int64`` array (kind 1, written before format 5), a count
  that disagrees with the stream, trailing bytes, a radix other than
  the dictionary's, a plane width past what the radix needs, a base or
  a field outside ``[0, n)``, a zlib bomb under a small and under a
  huge declared count and at deflate's ratio bound (``segments._MAX_RATIO``
  over three planes an item), and arrays the dictionary refutes — keys
  repeated or out of order; ρ codes out of range or one short — make
  an open raise :class:`StoreCorruptionError` and nothing else, and
  ``fsck`` report exactly ``STOR-SEGMENT``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import struct
import tracemalloc
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
#: Radixes at every plane-width edge, and the largest a store packs.
RADIXES = (1, 2, 3, 255, 256, 257, 65_536, 65_537, _MAX_ENCODABLE_OBJECTS)


def sorted_keys(size: int, n: int, seed: int, spread: int, top: bool) -> np.ndarray:
    """``min(size, n³)`` strictly increasing keys in ``[0, n³)``, gaps
    below ``2**spread``; the last one ``n³ − 1`` when ``top``."""
    size = min(size, n**3)
    rng = np.random.default_rng(seed)
    widest = max(1, min(2**spread, (n**3 - 1) // max(size, 1)))
    keys = np.cumsum(rng.integers(1, widest, size, endpoint=True)) - 1
    if top and size:
        keys[-1] = n**3 - 1
    return keys


def width(values: np.ndarray) -> int:
    return max(1, (int(values.max()).bit_length() + 7) // 8)


def layout(n: int, blocks: list[list[tuple[int, int, np.ndarray]]]) -> bytes:
    """A ``KIND_KEYS`` payload spelled out: the radix, then per block
    each column's ``(base, width)`` and, column by column, its planes,
    least significant first, each closed by ``Z_BLOCK``."""
    deflate = zlib.compressobj(6, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE)
    parts = [struct.pack("<I", n)]
    for columns in blocks:
        parts.append(deflate.compress(b"".join(struct.pack("<IB", b, w) for b, w, _ in columns)))
        for _base, w, values in columns:
            for j in range(w):
                parts.append(deflate.compress(((values >> (8 * j)) & 255).astype(np.uint8)))
                parts.append(deflate.flush(zlib.Z_BLOCK))
    parts.append(deflate.flush())
    return b"".join(parts)


def field_columns(s, p, o) -> list[tuple[int, int, np.ndarray]]:
    """One block's columns from its fields: s against the previous s,
    p against the previous p where s repeats and else against the
    block's least p, o against the block's least o."""
    s, p, o = (np.asarray(f, dtype=np.int64) for f in (s, p, o))
    ds = np.diff(s, prepend=s[0])
    dp = p - p.min()
    again = np.r_[False, ds[1:] == 0]
    dp[again] = (p - np.r_[p[:1], p[:-1]])[again]
    columns = [(int(s[0]), ds), (int(p.min()), dp), (int(o.min()), o - o.min())]
    return [(base, width(values), values) for base, values in columns]


def fields_of(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return keys // (n * n), keys // n % n, keys % n


# --------------------------------------------------------------------- #
# Layout and round trip
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("n", [3, 300, 70_000])
def test_the_layout_is_the_one_spelled_out(n):
    keys = sorted_keys(2**15 + 5, n, n, 40, True)
    blocks = [field_columns(*fields_of(keys[lo : lo + 2**15], n)) for lo in range(0, len(keys), 2**15)]
    assert encode_keys(keys, n) == layout(n, blocks)
    codes = np.random.default_rng(n).integers(0, n, 2**15 + 5)
    one = [[(int(b.min()), width(b - b.min()), b - b.min())] for b in (codes[: 2**15], codes[2**15 :])]
    assert encode_keys(codes, n, 1) == layout(n, one)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    size=st.sampled_from(SIZES),
    n=st.integers(1, _MAX_ENCODABLE_OBJECTS),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(1, 63),
    top=st.booleans(),
)
def test_sorted_unique_keys_round_trip(size, n, seed, spread, top):
    keys = sorted_keys(size, n, seed, spread, top)
    segments.check_keys(keys, n, "keys")
    back = decode_keys(encode_keys(keys, n), len(keys), n)
    assert back.dtype == np.int64 and back.tolist() == keys.tolist()
    segments.check_keys(back, n, "keys")


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n", RADIXES)
def test_every_radix_round_trips_up_to_its_last_key(n, size):
    keys = sorted_keys(size, n, n + size, 62, True)
    assert decode_keys(encode_keys(keys, n), len(keys), n).tolist() == keys.tolist()


def test_an_s_run_across_a_block_boundary_round_trips():
    n = 5000
    s = np.repeat([7, 8, 4999], [2**15 - 3, 20, 2])
    p = np.r_[np.repeat(np.arange(40), 820)[: 2**15 - 3], np.arange(20), [0, 4999]]
    o = np.arange(len(s)) * 7 % n  # distinct within each (s, p) run
    keys = np.unique((s * n + p) * n + o)
    assert len(keys) == len(s)
    assert keys[2**15 - 1] // n**2 == keys[2**15] // n**2 == 8
    assert decode_keys(encode_keys(keys, n), len(keys), n).tolist() == keys.tolist()


@pytest.mark.parametrize("size", SIZES)
def test_codes_round_trip_unsorted(size):
    codes = np.random.default_rng(size).integers(0, 7, size)
    assert decode_keys(encode_keys(codes, 7, 1), size, 7, 1).tolist() == codes.tolist()


def test_the_encoder_refuses_what_the_layout_cannot_hold():
    for keys, n in [([48, 5], 4), ([0, 64], 4), ([-1, 2], 4)]:
        with pytest.raises(ValueError, match="radix 4"):
            encode_keys(np.array(keys), n)
    with pytest.raises(ValueError, match="radix 4"):
        encode_keys(np.array([0, 4]), 4, 1)


def test_no_radix_needs_a_fourth_plane():
    n, zeros = _MAX_ENCODABLE_OBJECTS, np.zeros(4, np.int64)
    assert decode_keys(layout(n, [[(0, 3, zeros)] * 3]), 4, n).tolist() == [0] * 4
    for column in range(3):
        columns = [(0, 3, zeros)] * 3
        columns[column] = (0, 4, zeros)
        with pytest.raises(ValueError, match="plane width 4"):
            decode_keys(layout(n, [columns]), 4, n)


def e_shaped(offset: int) -> np.ndarray:
    """The benchmark's relation E, 10⁵ edges over 19 984 nodes and 16
    skewed labels, as fields whose codes start at ``offset``."""
    rng = np.random.default_rng(12)
    nodes, labels, edges = 19_984, 16, 10**5
    label = np.minimum(rng.geometric(0.15, edges) - 1, labels - 1)
    return offset + np.stack([rng.integers(0, nodes, edges), nodes + label, rng.integers(0, nodes, edges)])


def e_keys(n: int, offset: int) -> np.ndarray:
    s, p, o = e_shaped(offset)
    return np.unique((s * n + p) * n + o)


def test_a_relation_takes_the_same_bytes_in_any_universe():
    small = encode_keys(e_keys(20_000, 0), 20_000)
    large = encode_keys(e_keys(69_000, 31_000), 69_000)
    assert abs(len(large) - len(small)) <= 0.01 * len(small), (len(small), len(large))


def test_an_e_shaped_relation_takes_under_2_45_bytes_a_key():
    keys = e_keys(20_000, 0)
    assert len(encode_keys(keys, 20_000)) < 2.45 * len(keys)


def test_the_encoder_splits_each_field_off_into_a_uint32_column():
    """A block's s, p and o become ``uint32`` columns as each is split
    off, a few thousand keys at a time: encoding 10⁵ keys over 69 067
    objects peaks at 1.16 MiB of traced heap, where int64 fields and
    their deltas peaked at 1.96 MiB.  The bytes are the layout's still
    (:func:`test_the_layout_is_the_one_spelled_out`)."""
    keys = sorted_keys(10**5, 69_067, 12, 40, False)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        payload = encode_keys(keys, 69_067)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.25 * 2**20, f"{(peak - before) / 2**20:.2f} MiB"
    assert decode_keys(payload, len(keys), 69_067).tolist() == keys.tolist()


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
    """The array a segment holds, decoded without any check but the codec's."""
    count = entry_of(manifest_of(root), name)["count"]
    fields = 1 if name == "dv_codes" else 3
    return decode_keys(read_segment(path_of(root, name)), count, N, fields).copy()


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


#: The radix of :func:`twin`'s keys.
N = twin().columnar().n


def with_last(k: np.ndarray, column: int, edit) -> bytes:
    """``k``'s payload with ``edit(base, width, values)`` applied to one
    column of its one block."""
    columns = field_columns(*fields_of(k, N))
    columns[column] = edit(*columns[column])
    return layout(N, [columns])


class TestHardening:
    def test_keys_out_of_order_are_refused_by_open_and_fsck(self, tmp_path, capsys):
        root = build(tmp_path / "s")
        s, p, o = fields_of(stored(root, "E"), N)
        s[4], p[4], o[4] = s[3], p[3], o[3] - 1  # one (s, p) run, o falling
        restamp(root, "E", layout(N, [field_columns(s, p, o)]))
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
            (lambda k: (encode_keys(k, N), {"count": len(k) + 1}), "truncated"),
            (lambda k: (encode_keys(k, N), {"count": len(k) - 1}), "past its"),
            (lambda k: (encode_keys(k, N) + b"\x00", {}), "padded"),
            (lambda k: (encode_keys(k, N) + encode_keys(k, N), {}), "padded"),
            (lambda k: (encode_keys(np.r_[k[:1], k[:-1]], N), {}), "out of order"),
            (lambda k: (encode_keys(k, N + 1), {}), f"radix {N + 1}, the dictionary's is {N}"),
            (lambda k: (struct.pack("<I", N - 1) + encode_keys(k, N)[4:], {}), "radix"),
            (lambda k: (with_last(k, 0, lambda b, w, v: (b, 4, v)), {}), "plane width 4"),
            (lambda k: (with_last(k, 2, lambda b, w, v: (b, 0, v)), {}), "plane width 0"),
            (lambda k: (with_last(k, 1, lambda b, w, v: (N, w, v)), {}), f"base {N}"),
            (lambda k: (with_last(k, 2, lambda b, w, v: (b, w, v + N - v.max())), {}), "outside"),
            (lambda k: (with_last(k, 0, lambda b, w, v: (b, w, v + N)), {}), "outside"),
            (lambda k: (b"", {}), "shorter than its radix"),
            (lambda k: (struct.pack("<I", N), {}), "cannot hold"),
            (lambda k: (encode_keys(k, N)[:-4], {}), "truncated"),
        ],
        ids=[
            "count-over", "count-under", "trailing-byte", "trailing-stream",
            "key-repeated", "radix-over", "radix-under", "width-past-3", "width-0",
            "base-n", "o-past-n", "s-past-n", "empty-payload", "radix-only", "no-adler",
        ],
    )
    def test_crafted_relation_segments(self, tmp_path, make, match):
        root = build(tmp_path / "s")
        payload, fields = make(stored(root, "E"))
        restamp(root, "E", payload, **fields)
        message = refused(root)
        assert match in message, message

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda c, k: (encode_keys(np.r_[c[:-1], k], N, 1), len(c)), "one code in"),
            (lambda c, k: (encode_keys(c[:-1], N, 1), len(c) - 1), "one code in"),
            (lambda c, k: (layout(N, [[(N, 1, c)]]), len(c)), f"base {N}"),
            (lambda c, k: (encode_keys(c, N, 1)[:-1], len(c)), "truncated"),
            (lambda c, k: (encode_keys(c, N - 1, 1), len(c)), "radix"),
        ],
        ids=["code-too-large", "one-short", "base-n", "truncated", "radix"],
    )
    def test_crafted_code_segments(self, tmp_path, make, match):
        root = build(tmp_path / "s")
        payload, count = make(stored(root, "dv_codes"), len(twin().columnar().dv_values))
        restamp(root, "dv_codes", payload, count=count)
        assert match in refused(root)

    def test_a_raw_int64_segment_is_refused(self, tmp_path):
        root = build(tmp_path / "s")
        restamp(root, "E", stored(root, "E").tobytes(), kind=1)  # raw int64, pre-format-5
        assert "expected 4" in refused(root)

    def test_a_bomb_inflates_no_further_than_its_declared_count(self, tmp_path, monkeypatch):
        # Blocks of zero keys, as a valid stream spells them: each column
        # of base 0 and width 1, its plane all zeros.
        block = struct.pack("<IB", 0, 1) * 3 + bytes(3 * 2**15)
        raw = block * 85
        bomb = struct.pack("<I", N) + zlib.compress(raw, 9)
        assert len(bomb) * 500 < len(raw)
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
            decode_keys(bomb, 1000, N)
        assert sum(produced) == 15 + 3 * 1000 + 1
        # Over several blocks, no one inflated part outgrows its block.
        del produced[:]
        with pytest.raises(ValueError, match="past its"):
            decode_keys(bomb, 3 * 2**15 + 5, N)
        assert sum(produced) == 4 * 15 + 3 * (3 * 2**15 + 5) + 1
        assert max(produced) <= 3 * 2**15
        # A count deflate could not reach from the bytes at hand, three
        # planes an item at least: not one byte inflated, no array
        # allocated.
        del produced[:]
        with pytest.raises(ValueError, match="cannot hold"):
            decode_keys(bomb, 2**40, N)
        assert produced == []
        bound = segments._MAX_RATIO * (len(bomb) - 4) // 3
        with pytest.raises(ValueError, match="cannot hold"):
            decode_keys(bomb, bound + 1, N)
        assert produced == []
        # At the bound the stream is inflated, and found short of it.
        with pytest.raises(ValueError, match="truncated"):
            decode_keys(bomb, bound, N)
        assert sum(produced) == len(raw)
        root = build(tmp_path / "s")
        for count in (1000, 2**40):
            restamp(root, "E", bomb, count=count)
            refused(root)
