"""On-disk columnar segments: the durable form of a triplestore.

One *generation* directory holds the dictionary-encoded columnar view
of a store (:mod:`repro.triplestore.columnar`) as flat segment files:

* ``meta.seg`` — the dictionary segment (:mod:`repro.storage.dictionary`):
  the sorted object universe, the distinct data values and the full ρ
  assignment as typed, tagged JSON in one raw LZMA2 stream — data,
  never a pickle;
* ``rel-NNN.seg`` — one file per relation: its sorted unique packed-key
  array as a ``KIND_KEYS`` segment;
* ``dv_codes.seg`` — the ρ-code array, a ``KIND_KEYS`` segment too,
  present only when ρ takes more than one value (otherwise every code
  is 0 and the reader supplies the zeros).

A ``KIND_KEYS`` payload is the radix ``n = |O|`` the keys were packed
with (``uint32``), then one zlib stream, level 6 with run-length
matches only, over blocks of 2¹⁵ items.  A key ``(s·n + p)·n + o`` is
kept field by field, in three columns a block:

* s: the delta to the previous key's s (the block's first s is the
  column's base);
* p: the delta to the previous p where s repeats, else p minus the
  block's least p (the base);
* o: o minus the block's least o (the base).

ρ codes, which are not sorted, are one column: the codes minus the
block's least.  Each column starts with its base (``uint32``) and its
plane width (one byte: 1–3, since ``n < 2²¹``), all columns' headers
first; then come its byte planes, least significant first, each closed
by a ``Z_BLOCK`` flush so it gets Huffman tables of its own.  No field
mixes with another through the radix, so a relation takes the same
bytes in any universe: ≈2.3 B a key for the benchmark's edge relation.
The item count is the manifest's; the decoder refuses a radix other
than the dictionary's, a width the radix cannot need, a base or field
outside ``[0, n)``, and a stream short of, past or padded beyond the
count.  ``KIND_DICT`` and ``KIND_KEYS`` are the only payload kinds of
manifest format 7, the one format this build reads
(:mod:`repro.storage.snapshot`).

Nothing derivable is stored: the active (occurs-in-some-triple) code
set is computed on first use by ``ColumnarStore.active_codes`` exactly
as for an in-memory store.  And nothing unchanged is rewritten: a new
generation hard-links every file of the previous one whose payload the
store being written still holds as the *identical* object
(:class:`Generation`), the on-disk half of the rule that store versions
share what a commit did not touch.  Each generation directory stays
self-contained, so opening, ``fsck`` and the sweep never look across
generations.

Every file starts with a fixed 32-byte header — magic, format version,
payload kind, payload length, payload CRC32, and a CRC32 of the header
itself — and the payload begins at byte 32.

Opening decodes every array eagerly, its payload CRC verified, and
checks it — relation keys strictly increasing in ``[0, n³)``
(:func:`check_keys`, the WAL reader's check too), ρ codes in
``[0, |dv_values|)``.  The :class:`SegmentStore` facade decodes a
relation's ``frozenset`` only when a set-backend consumer asks for it,
and a store derived from it shares every array it did not replace.
"""

from __future__ import annotations

import mmap
import operator
import os
import struct
import zlib
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.errors import StoreCorruptionError, UnknownRelationError
from repro.storage.dictionary import decode_dictionary, encode_dictionary
from repro.storage.fsutil import fsync_dir, fsync_fileobj, tmp_sibling
from repro.triplestore.columnar import ColumnarStore
from repro.triplestore.dictionary import ObjectIndex
from repro.triplestore.model import DEFAULT_RELATION, Triple, Triplestore

__all__ = [
    "FORMAT_VERSION",
    "Generation",
    "KIND_DICT",
    "KIND_KEYS",
    "MANIFEST_FORMAT",
    "SegmentStore",
    "check_keys",
    "decode_keys",
    "encode_keys",
    "open_store_segments",
    "read_segment",
    "verify_segment",
    "write_segment",
    "write_store_segments",
]

#: First 8 bytes of every segment file.
MAGIC = b"RPROSEG1"
#: Bumped on any incompatible layout change; readers refuse newer files.
FORMAT_VERSION = 1

#: Payload kinds.  Kinds 1 and 2 were the raw ``int64`` arrays and the
#: pickled ``meta.seg`` of older formats; no build reuses them.
KIND_DICT = 3
KIND_KEYS = 4

#: Manifest schema version: the one format this build reads and writes.
MANIFEST_FORMAT = 7

#: ``KIND_KEYS``: items a block, items split into fields at a time, bytes
#: inflated at a time, and zlib level 6 with run-length matches only (s and
#: p planes are runs, o planes hold little to match): 3.5–4 times faster to
#: write, 1–3 % larger.
_KEY_BLOCK, _SPLIT, _INFLATE_CHUNK = 1 << 15, 1 << 12, 1 << 14
_DEFLATE = (6, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE)
#: Deflate's largest expansion: a count of more than this many times the
#: compressed bytes, over the planes an item takes at least (one a
#: column), is refused before anything is inflated.
_MAX_RATIO = 1032
#: The radix a payload's keys were packed with, ahead of its stream; and
#: in the stream, ahead of a block's planes, each column's base and width.
_RADIX, _COLUMN = struct.Struct("<I"), struct.Struct("<IB")

#: magic, version, kind, reserved, payload byte length, payload CRC32,
#: header CRC32 (of the preceding 28 bytes) — 32 bytes, 8-aligned.
_HEADER = struct.Struct("<8sHHIQII")
HEADER_SIZE = _HEADER.size
assert HEADER_SIZE == 32


def _pack_header(kind: int, payload_len: int, payload_crc: int) -> bytes:
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, kind, 0, payload_len, payload_crc, 0)
    return head[:-4] + struct.pack("<I", zlib.crc32(head[:-4]))


def write_segment(path: str | os.PathLike, kind: int, payload: bytes) -> int:
    """Durably write one segment file; returns the payload CRC32.

    The file is staged as a ``.tmp`` sibling, flushed and fsync'd, then
    renamed into place — a crash mid-write leaves at most a ``.tmp``
    straggler, never a half-written segment under the final name.
    """
    crc = zlib.crc32(payload)
    path = os.fspath(path)
    tmp = tmp_sibling(path)
    with open(tmp, "wb") as fp:
        fp.write(_pack_header(kind, len(payload), crc))
        fp.write(payload)
        fsync_fileobj(fp)
    os.replace(tmp, path)
    return crc


def _read_header(path: str, raw: bytes) -> tuple[int, int, int]:
    """Validate a segment header; returns (kind, payload_len, payload_crc)."""
    if len(raw) < HEADER_SIZE:
        raise StoreCorruptionError(f"segment {path} is shorter than its header")
    magic, version, kind, _reserved, length, crc, header_crc = _HEADER.unpack(
        raw[:HEADER_SIZE]
    )
    if magic != MAGIC:
        raise StoreCorruptionError(f"segment {path} has bad magic {magic!r}")
    if header_crc != zlib.crc32(raw[: HEADER_SIZE - 4]):
        raise StoreCorruptionError(f"segment {path} has a corrupt header (CRC)")
    if version > FORMAT_VERSION:
        raise StoreCorruptionError(
            f"segment {path} is format v{version}; this build reads up to "
            f"v{FORMAT_VERSION}"
        )
    return kind, length, crc


def read_segment(
    path: str | os.PathLike, *, expect_kind: int | None = None, verify: bool = True
) -> bytes:
    """Read one segment's payload into memory (the dictionary, fsck)."""
    path = os.fspath(path)
    with open(path, "rb") as fp:
        raw = fp.read()
    kind, length, crc = _read_header(path, raw)
    if expect_kind is not None and kind != expect_kind:
        raise StoreCorruptionError(
            f"segment {path} has kind {kind}, expected {expect_kind}"
        )
    payload = raw[HEADER_SIZE : HEADER_SIZE + length]
    if len(payload) != length:
        raise StoreCorruptionError(
            f"segment {path} is truncated: header promises {length} payload "
            f"bytes, file has {len(payload)}"
        )
    if verify and zlib.crc32(payload) != crc:
        raise StoreCorruptionError(f"segment {path} payload fails its CRC32")
    return payload


def _width(top: int) -> int:
    """Bytes a plane needs for values up to ``top``: 1–3 below 2²¹."""
    return max(1, (top.bit_length() + 7) // 8)


def _columns(block: np.ndarray, n: int, fields: int) -> list[tuple[int, np.ndarray]]:
    """A block's ``(base, values)`` per column: one for codes, s/p/o for
    keys, each a ``uint32`` column as its field is split off."""
    if fields == 1:
        base = int(block.min())
        if not (base >= 0 and int(block.max()) < n):
            raise ValueError(f"codes outside what radix {n} packs")
        return [(base, block - base)]
    fits = int(block.min()) >= 0 and int(block.max()) < n**3
    s, p, o = (np.empty(len(block), np.uint32) for _ in range(3))
    for lo in range(0, len(block), _SPLIT):
        high, o[lo : lo + _SPLIT] = np.divmod(block[lo : lo + _SPLIT], n)
        s[lo : lo + _SPLIT], p[lo : lo + _SPLIT] = np.divmod(high, n)
    again = s[1:] == s[:-1]  # where s repeats, p's delta; else p above the least
    fits = fits and bool((s[1:] >= s[:-1]).all())
    first_s, least_p, least_o = int(s[0]), int(p.min()), int(o.min())
    s[1:] -= s[:-1]
    s[0] = 0
    dp = p[1:] - p[:-1]  # a p below its predecessor in a run wraps past n
    p -= least_p
    p[1:][again] = dp[again]
    o -= least_o
    if not (fits and int(p.max()) < n):
        raise ValueError(f"keys out of order or outside what radix {n} packs")
    return [(first_s, s), (least_p, p), (least_o, o)]


def _deflated(deflate: Any, block: np.ndarray, n: int, fields: int) -> list[bytes]:
    """One block's headers and byte planes, each plane closed by ``Z_BLOCK``."""
    columns = _columns(block, n, fields)
    widths = [_width(int(values.max())) for _base, values in columns]
    parts = [deflate.compress(b"".join(map(_COLUMN.pack, [b for b, _ in columns], widths)))]
    for (_base, values), w in zip(columns, widths):
        planes = values.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4)
        for j in range(w):
            parts += [deflate.compress(np.ascontiguousarray(planes[:, j])), deflate.flush(zlib.Z_BLOCK)]
    return parts


def encode_keys(arr: np.ndarray, n: int, fields: int = 3) -> bytes:
    """The ``KIND_KEYS`` payload of sorted keys packed with radix ``n``
    (of ``n``'s ρ codes, ``fields=1``): the radix, then one column per
    field of each block, one byte plane at a time."""
    deflate, parts = zlib.compressobj(*_DEFLATE), [_RADIX.pack(n)]
    for lo in range(0, len(arr), _KEY_BLOCK):
        parts += _deflated(deflate, arr[lo : lo + _KEY_BLOCK], n, fields)
    parts.append(deflate.flush())
    return b"".join(parts)


def _run_sums(values: np.ndarray, again: np.ndarray, before: np.ndarray) -> None:
    """Sum ``values`` in place within each run, a run starting wherever
    ``again`` is false; ``before`` is scratch of the same shape."""
    np.cumsum(values, out=values)
    # Less the sum up to each run's first item, held across the run:
    before[0], before[1:] = 0, values[:-1]
    before[again] = 0
    values -= np.maximum.accumulate(before, out=before)


def decode_keys(payload: bytes | memoryview, count: int, n: int, fields: int = 3) -> np.ndarray:
    """The ``count`` items of a ``KIND_KEYS`` payload packed with radix
    ``n``, inflated a block at a time into an anonymous mapping, off the
    malloc heap like the mapped files it replaced, one column of a block
    summed into it at a time; a defect raises ``ValueError`` or
    ``zlib.error``."""
    if len(payload) < _RADIX.size:
        raise ValueError("payload is shorter than its radix")
    radix = _RADIX.unpack_from(payload)[0]
    if radix != n:
        raise ValueError(f"its keys are packed with radix {radix}, the dictionary's is {n}")
    stream = memoryview(payload)[_RADIX.size :]
    if not 0 <= count <= _MAX_RATIO * len(stream) // fields:
        raise ValueError(f"{len(stream)} compressed bytes cannot hold {count} items")
    out = np.frombuffer(mmap.mmap(-1, 8 * count or 1), dtype="<i8", count=count)
    chunks = (stream[at : at + _INFLATE_CHUNK] for at in range(0, len(stream), _INFLATE_CHUNK))
    inflate, pending, widest = zlib.decompressobj(), b"", _width(n - 1)
    whole, spare = np.zeros((2, min(count, _KEY_BLOCK)), np.int64)  # a column, and scratch

    def take(size: int, lo: int) -> bytearray:
        nonlocal pending
        got = bytearray()
        while len(got) < size and (pending := pending or next(chunks, b"")):
            got += inflate.decompress(pending, size - len(got))
            pending = inflate.unconsumed_tail
        if len(got) < size:
            raise ValueError(f"stream is truncated in the block at item {lo}")
        return got

    for lo in range(0, count, _KEY_BLOCK):
        size = min(_KEY_BLOCK, count - lo)
        dst, top = out[lo : lo + size], 0  # zeros, until the columns are summed in
        for column, (base, w) in enumerate(_COLUMN.iter_unpack(take(_COLUMN.size * fields, lo))):
            if not (1 <= w <= widest and base < n):
                raise ValueError(
                    f"the block at item {lo} has a column of base {base} and plane "
                    f"width {w}: radix {n} needs a base below it and 1-{widest} planes"
                )
            planes = np.frombuffer(take(w * size, lo), np.uint8).reshape(w, size)
            values, scratch = whole[:size], spare[:size]
            np.copyto(values, planes[0])
            for j in range(1, w):  # least significant plane first
                values |= np.left_shift(planes[j], 8 * j, out=scratch, dtype=np.int64)
            if fields == 3 and column == 0:  # s: a sum of deltas
                np.cumsum(values, out=dst)
                dst += base
                top, again = int(dst[-1]), values == 0
                again[0] = False  # a block starts a run of its own
                dst *= n
            elif fields == 3 and column == 1:  # p: summed within each run of one s
                _run_sums(values, again, scratch)
                values += base
                top = max(top, int(values.max()))
                dst += values
                dst *= n
            else:  # o, or a code
                dst += values
                dst += base
                top = max(top, base + int(values.max()))
        if top >= n:
            raise ValueError(f"the block at item {lo} decodes a field outside [0, {n})")
    while not inflate.eof and (pending := pending or next(chunks, b"")):
        if inflate.decompress(pending, 1):
            raise ValueError(f"stream inflates past its {count} items")
        pending = inflate.unconsumed_tail
    if not inflate.eof or inflate.unused_data or next(chunks, b""):
        raise ValueError(f"stream is truncated or padded past its {count} items")
    return out


def _read_keys(path: str, count: int, n: int, fields: int) -> np.ndarray:
    """A ``KIND_KEYS`` segment's array, inflated from the mapped file."""
    with open(path, "rb") as fp:
        mapped = mmap.mmap(fp.fileno(), 0, access=mmap.ACCESS_READ)
    kind, length, crc = _read_header(path, mapped[:HEADER_SIZE])
    payload = memoryview(mapped)[HEADER_SIZE : HEADER_SIZE + length]
    if kind != KIND_KEYS or len(payload) != length or zlib.crc32(payload) != crc:
        raise ValueError(f"it is kind {kind} (expected {KIND_KEYS}), truncated or fails its CRC32")
    return decode_keys(payload, count, n, fields)


def check_keys(keys: np.ndarray, n: int, what: str) -> None:
    """``ValueError`` naming ``what`` unless its keys strictly increase in ``[0, n³)``."""
    bound = n**3
    if len(keys) and not (keys[0] >= 0 and int(keys[-1]) < bound):
        raise ValueError(f"{what} has a key outside [0, {bound})")
    if not (keys[1:] > keys[:-1]).all():
        raise ValueError(f"{what} has keys out of order or repeated")


def verify_segment(path: str | os.PathLike) -> list[str]:
    """Full integrity check of one segment file; returns problem strings."""
    try:
        read_segment(path, verify=True)
    except StoreCorruptionError as exc:
        return [str(exc)]
    except OSError as exc:
        return [f"segment {os.fspath(path)} is unreadable: {exc}"]
    return []


# --------------------------------------------------------------------- #
# Whole-store write
# --------------------------------------------------------------------- #


def _files(
    store: Triplestore,
) -> Iterator[tuple[str, str | None, str, int, tuple, Callable]]:
    """The files ``store``'s generation holds, nothing derivable among them.

    Yields ``(key, name, file, kind, sources, build)``: the manifest key
    (``"relations"`` entries carry the relation ``name``), the file
    name, its payload kind, the objects the payload is made of, and a
    thunk returning ``(entry fields, payload)`` — called only when the
    file has to be written.
    """
    cs = store.columnar()

    def meta() -> tuple[dict, bytes]:
        payload = encode_dictionary(cs.objects, cs.dv_values, store._rho)
        return {"bytes": len(payload)}, payload

    def array(arr: np.ndarray, columns: int, **fields: Any) -> Callable:
        return lambda: ({**fields, "count": len(arr)}, encode_keys(arr, cs.n, columns))

    yield "meta", None, "meta.seg", KIND_DICT, (cs.objects, cs.dv_values, store._rho), meta
    if len(cs.dv_values) > 1:  # one value (or none): every code is 0
        yield "dv_codes", None, "dv_codes.seg", KIND_KEYS, (cs.dv_codes,), array(cs.dv_codes, 1)
    for idx, name in enumerate(store.relation_names):
        keys = cs.relation_keys(name)
        yield "relations", name, f"rel-{idx:03d}.seg", KIND_KEYS, (keys,), array(keys, 3, name=name)


class Generation:
    """A generation directory as the process that wrote or opened it
    remembers it: per file, the manifest entry and the very objects the
    payload holds.

    While a later store version still holds those objects — ``is``, not
    ``==``: versions share by reference everything a commit did not
    touch, and a dictionary growth that re-codes every key array leaves
    no version number to see it by — the file is linked into the next
    generation instead of rewritten.
    """

    __slots__ = ("path", "files")

    def __init__(
        self, path: str | os.PathLike, block: Mapping[str, Any], store: Triplestore
    ) -> None:
        self.path = os.fspath(path)
        entries = {(k, None): block[k] for k in ("meta", "dv_codes") if k in block}
        entries.update({("relations", e["name"]): e for e in block["relations"]})
        self.files: dict[tuple[str, str | None], tuple[Mapping[str, Any], tuple]] = {
            (key, name): (entries[key, name], sources)
            for key, name, _file, _kind, sources, _build in _files(store)
        }

    def held(
        self, key: str, name: str | None, sources: tuple
    ) -> tuple[str, Mapping[str, Any]] | None:
        """Path and manifest entry of the file made of exactly ``sources``."""
        entry, mine = self.files.get((key, name), (None, ()))
        if entry is None or not all(map(operator.is_, mine, sources)):
            return None
        return os.path.join(self.path, entry["file"]), entry


def write_store_segments(
    store: Triplestore, gen_dir: str | os.PathLike, prev: Generation | None = None
) -> dict:
    """Write ``store``'s columnar view into ``gen_dir`` as segment files.

    Returns the ``segments`` manifest block: per-file name, kind, item
    count and CRC32.  A file of ``prev`` whose payload objects ``store``
    still holds is hard-linked (its recorded entry reused) rather than
    written; where the link fails (``EXDEV``, ``EPERM``, ``EMLINK``,
    ``ENOENT``) the file is written like any other.  Every written file
    is atomic and fsync'd, a linked one already was, and the directory
    is fsync'd, so after this returns the generation is fully on disk
    (the manifest pointing at it is the caller's commit point).
    """
    gen_dir = os.fspath(gen_dir)
    os.makedirs(gen_dir, exist_ok=True)
    block: dict[str, Any] = {"relations": []}
    for key, name, fname, kind, sources, build in _files(store):
        path = os.path.join(gen_dir, fname)
        entry = None
        held = prev.held(key, name, sources) if prev is not None else None
        if held is not None:
            try:
                os.link(held[0], path)
                entry = dict(held[1], file=fname)
            except OSError:
                pass
        if entry is None:
            fields, payload = build()
            entry = {**fields, "file": fname, "kind": kind}
            entry["crc"] = write_segment(path, kind, payload)
        if key == "relations":
            block[key].append(entry)
        else:
            block[key] = entry
    fsync_dir(gen_dir)
    return block


# --------------------------------------------------------------------- #
# Whole-store open: mapped columnar view + lazy Triplestore facade
# --------------------------------------------------------------------- #


class SegmentStore(Triplestore):
    """A :class:`Triplestore` served from segments, decoded lazily.

    The columnar/sharded backends run directly on the arrays the open
    decoded (``columnar()`` returns the :class:`ColumnarStore` holding
    them); the Python-``frozenset`` form of a relation is decoded only
    when a set-backend consumer asks for it, and cached — an undecoded
    relation is ``None`` in the relation dictionary.  The universe is lazy the
    same way: the view's dictionary answers membership and ``|O|``, and
    the ``frozenset`` form exists only once ``objects``, ``==`` or
    ``hash`` asked for it (``_objects`` is ``None`` until then).

    Derivation (``with_relations`` …) is the base class's structural
    sharing and stays lazy: the derived store is again a
    :class:`SegmentStore` over the same arrays, holding the replaced
    relations as frozensets and everything else still undecoded.
    Durability of mutations is the WAL's job
    (:mod:`repro.storage.wal`), not this view's.
    """

    __slots__ = ()

    # -- lazy decode ---------------------------------------------------- #

    def relation(self, name: str = DEFAULT_RELATION) -> frozenset[Triple]:
        rel = self._relations.get(name)
        if rel is None:
            if name not in self._relations:
                raise UnknownRelationError(name, self.relation_names)
            cs = self._columnar
            rel = cs.decode_triples(cs.relation_keys(name))
            self._relations[name] = rel
        return rel

    def materialize(self) -> "SegmentStore":
        """Decode every relation into its ``frozenset`` form (idempotent)."""
        for name in self._relations:
            self.relation(name)
        return self

    # -- Triplestore surface, decode-free where possible ----------------- #

    def all_triples(self) -> frozenset[Triple]:
        self.materialize()
        return super().all_triples()

    def __contains__(self, triple: Triple) -> bool:
        cs = self._columnar
        try:
            key = cs.encode_triple_key(tuple(triple))
        except (TypeError, ValueError):
            return False
        if key < 0:
            return False
        for name in self._relations:
            keys = cs.relation_keys(name)
            i = int(np.searchsorted(keys, key))
            if i < len(keys) and keys[i] == key:
                return True
        return False

    def __iter__(self):
        self.materialize()
        return super().__iter__()

    def __len__(self) -> int:
        cs = self._columnar
        return sum(len(cs.relation_keys(name)) for name in self._relations)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SegmentStore):
            other.materialize()
        self.materialize()
        return super().__eq__(other)

    def __hash__(self) -> int:
        self.materialize()
        return super().__hash__()

    def __repr__(self) -> str:
        cs = self._columnar
        rels = ", ".join(f"{n}:{len(cs.relation_keys(n))}" for n in self._relations)
        return f"SegmentStore(|O|={self.n_objects}, {rels})"


def open_store_segments(gen_dir: str | os.PathLike, block: Mapping[str, Any]) -> SegmentStore:
    """Open one generation directory into a :class:`SegmentStore`.

    ``block`` is the manifest's ``segments`` entry written by
    :func:`write_store_segments`.  The dictionary is read first, then
    every array is decoded and checked against it.  A block without
    ``dv_codes`` means ρ takes one value.
    """
    gen_dir = os.fspath(gen_dir)

    def seg_path(entry: Mapping[str, Any]) -> str:
        return os.path.join(gen_dir, entry["file"])

    meta_path = seg_path(block["meta"])
    objects, dv_values, rho = decode_dictionary(
        read_segment(meta_path, expect_kind=KIND_DICT), meta_path
    )
    try:  # the object index hashes every object: a bare JSON array is none
        index = ObjectIndex.build(objects)
    except TypeError as exc:
        raise StoreCorruptionError(
            f"dictionary segment {meta_path} does not decode: {exc}"
        ) from exc
    del objects  # the index holds the universe; no second copy until asked
    twins = index.duplicate()
    if twins is not None:
        a, b = (index.objects[code] for code in twins)
        raise StoreCorruptionError(
            f"dictionary segment {meta_path} holds {a!r} and {b!r}, which "
            "compare equal: a store holds one object per == class"
        )

    def array(
        entry: Mapping[str, Any], columns: int, check: Callable[[np.ndarray], None]
    ) -> np.ndarray:
        path = seg_path(entry)
        try:
            arr = _read_keys(path, entry["count"], len(index), columns)
            check(arr)
        except (KeyError, ValueError, TypeError, zlib.error) as exc:
            raise StoreCorruptionError(f"segment {path} does not decode: {exc}") from exc
        return arr

    def codes(arr: np.ndarray) -> None:
        if len(arr) != len(index) or not ((arr >= 0) & (arr < len(dv_values))).all():
            raise ValueError(f"it is not one code in [0, {len(dv_values)}) per object")

    if "dv_codes" in block:
        dv_codes = array(block["dv_codes"], 1, codes)
    elif len(dv_values) > 1:
        raise StoreCorruptionError(
            f"generation {gen_dir} has {len(dv_values)} data values "
            "but no dv_codes segment"
        )
    else:
        dv_codes = np.zeros(len(index), dtype=np.int64)
    relations = {
        e["name"]: array(e, 3, lambda keys: check_keys(keys, len(index), "it"))
        for e in block["relations"]
    }
    store = object.__new__(SegmentStore)
    store._relations = dict.fromkeys(relations)
    store._rho = rho
    store._objects = None
    store._indexes = {}
    store._stats = None
    store._columnar = ColumnarStore.from_encoded(index, dv_values, dv_codes, relations)
    store._sharded = {}
    store._types = None
    return store
