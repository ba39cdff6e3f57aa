"""On-disk columnar segments: the durable form of a triplestore.

One *generation* directory holds the dictionary-encoded columnar view
of a store (:mod:`repro.triplestore.columnar`) as flat segment files:

* ``meta.seg`` — the dictionary segment (:mod:`repro.storage.dictionary`):
  the sorted object universe, the distinct data values and the full ρ
  assignment as typed, tagged, zlib-compressed JSON — data, never a
  pickle.  A manifest of format 1 or 2 holds a pickled ``meta.seg``
  instead; it is read (and only ever from such a manifest), never
  written, and never linked into a new generation;
* ``rel-NNN.seg`` — one file per relation: its sorted unique packed-key
  array, raw little-endian ``int64``;
* ``dv_codes.seg`` — the ρ-code array, raw ``int64``, present only when
  ρ takes more than one value (otherwise every code is 0 and the reader
  supplies the zeros).

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
itself — and the payload begins at byte 32, so ``int64`` arrays are
8-byte aligned and a reader can hand the mapped pages straight to numpy
(``np.frombuffer`` over ``mmap``) without copying.

Opening is *lazy on two levels*: the columnar arrays alias the mapped
pages (nothing is read until a kernel touches them), and the
:class:`SegmentStore` facade decodes a relation's Python-object
``frozenset`` only when a set-backend consumer actually asks for it —
the columnar/sharded backends never do.  Both survive mutation: a store
derived from a :class:`SegmentStore` shares the mapped arrays of every
relation it did not replace and is still lazy.  Payload CRCs are
verified by ``repro fsck`` and at snapshot time, not on every open
(checking would fault in every page and defeat the zero-copy open);
headers are always validated.
"""

from __future__ import annotations

import mmap
import operator
import os
import pickle
import struct
import zlib
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.errors import StoreCorruptionError, UnknownRelationError
from repro.storage.dictionary import decode_dictionary, encode_dictionary
from repro.storage.fsutil import fsync_dir, fsync_enabled, tmp_sibling
from repro.triplestore.columnar import ColumnarStore
from repro.triplestore.model import DEFAULT_RELATION, Triple, Triplestore

__all__ = [
    "FORMAT_VERSION",
    "Generation",
    "KIND_DICT",
    "KIND_INT64",
    "KIND_PICKLE",
    "MANIFEST_FORMAT",
    "SegmentStore",
    "map_segment",
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

#: Payload kinds.  ``KIND_PICKLE`` is the format-1/2 ``meta.seg``: read, never written.
KIND_INT64 = 1
KIND_PICKLE = 2
KIND_DICT = 3

#: Manifest schema version; readers refuse newer manifests.  Format 3
#: stores the dictionary as a ``KIND_DICT`` segment; format 4 changes no
#: segment, but its WAL holds data records only (:mod:`repro.storage.wal`).
MANIFEST_FORMAT = 4

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
        fp.flush()
        if fsync_enabled():
            os.fsync(fp.fileno())
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


def map_segment(path: str | os.PathLike) -> tuple[np.ndarray, mmap.mmap]:
    """Map an ``int64`` segment: a zero-copy numpy view over the file pages.

    The header is validated eagerly (cheap — one page); the payload CRC
    is *not* checked here, so no data page is faulted in until a kernel
    touches it.  The returned mmap must outlive the array view.
    """
    path = os.fspath(path)
    with open(path, "rb") as fp:
        mapped = mmap.mmap(fp.fileno(), 0, access=mmap.ACCESS_READ)
    kind, length, _crc = _read_header(path, mapped[:HEADER_SIZE])
    if kind != KIND_INT64:
        mapped.close()
        raise StoreCorruptionError(f"segment {path} has kind {kind}, not int64")
    if HEADER_SIZE + length > len(mapped) or length % 8:
        have = len(mapped) - HEADER_SIZE
        mapped.close()
        raise StoreCorruptionError(
            f"segment {path} is truncated: header promises {length} payload "
            f"bytes, file has {have}"
        )
    arr = np.frombuffer(mapped, dtype=np.int64, count=length // 8, offset=HEADER_SIZE)
    return arr, mapped


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

    def int64(arr: np.ndarray, **fields: Any) -> Callable:
        return lambda: (
            {**fields, "count": len(arr)},
            np.ascontiguousarray(arr, dtype=np.int64).tobytes(),
        )

    yield "meta", None, "meta.seg", KIND_DICT, (cs.objects, cs.dv_values, store._rho), meta
    if len(cs.dv_values) > 1:  # one value (or none): every code is 0
        yield "dv_codes", None, "dv_codes.seg", KIND_INT64, (cs.dv_codes,), int64(cs.dv_codes)
    for idx, name in enumerate(store.relation_names):
        keys = cs.relation_keys(name)
        yield "relations", name, f"rel-{idx:03d}.seg", KIND_INT64, (keys,), int64(keys, name=name)


class Generation:
    """A generation directory as the process that wrote or mapped it
    remembers it: per file, the manifest entry and the very objects the
    payload holds.

    While a later store version still holds those objects — ``is``, not
    ``==``: versions share by reference everything a commit did not
    touch, and a dictionary growth that re-codes every key array leaves
    no version number to see it by — the file is linked into the next
    generation instead of rewritten.  Only a file of the kind this build
    writes is remembered: a format-1/2 pickled ``meta.seg`` is always
    rewritten, never linked.
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
            for key, name, _file, kind, sources, _build in _files(store)
            if entries.get((key, name), {}).get("kind") == kind
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
    """A :class:`Triplestore` served from mmap'd segments, decoded lazily.

    The columnar/sharded backends run directly on the mapped arrays
    (``columnar()`` returns a :class:`ColumnarStore` whose arrays alias
    the file pages, which keeps the mappings alive); the
    Python-``frozenset`` form of a relation is decoded only when a
    set-backend consumer asks for it, and cached — an undecoded relation
    is ``None`` in the relation dictionary.  The universe is lazy the
    same way: the view's dictionary answers membership and ``|O|``, and
    the ``frozenset`` form exists only once ``objects``, ``==`` or
    ``hash`` asked for it (``_objects`` is ``None`` until then).

    Derivation (``with_relations`` …) is the base class's structural
    sharing and stays lazy: the derived store is again a
    :class:`SegmentStore` over the same mappings, holding the replaced
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


def _read_pickled_meta(path: str) -> tuple[list, list, dict]:
    """``(objects, dv_values, rho)`` of a format-1/2 pickled ``meta.seg``."""
    meta = pickle.loads(read_segment(path, expect_kind=KIND_PICKLE))
    if meta["n"] != len(meta["objects"]):  # pragma: no cover — meta disagrees
        raise StoreCorruptionError(
            f"meta segment {path} names {len(meta['objects'])} objects but "
            f"records n={meta['n']}"
        )
    return meta["objects"], meta["dv_values"], dict(meta["rho"])


def open_store_segments(
    gen_dir: str | os.PathLike,
    block: Mapping[str, Any],
    manifest_format: int = MANIFEST_FORMAT,
) -> SegmentStore:
    """Open one generation directory into a :class:`SegmentStore`.

    ``block`` is the manifest's ``segments`` entry written by
    :func:`write_store_segments`, ``manifest_format`` the format of the
    manifest holding it.  Array segments are mmap'd zero-copy; only the
    (small, compressed) dictionary segment is read eagerly — as a
    pickle only when the manifest is format 1 or 2.  A block without
    ``dv_codes`` means ρ takes one value; a format-1 block's ``active``
    entry is ignored (the view derives it on demand).
    """
    gen_dir = os.fspath(gen_dir)

    def seg_path(entry: Mapping[str, Any]) -> str:
        return os.path.join(gen_dir, entry["file"])

    meta_path = seg_path(block["meta"])
    if manifest_format >= 3:
        objects, dv_values, rho = decode_dictionary(
            read_segment(meta_path, expect_kind=KIND_DICT), meta_path
        )
    else:
        objects, dv_values, rho = _read_pickled_meta(meta_path)

    def mapped(entry: Mapping[str, Any]) -> np.ndarray:
        # The view keeps its mapping alive; dropping it unmaps the file.
        arr, _mapping = map_segment(seg_path(entry))
        if len(arr) != entry["count"]:
            raise StoreCorruptionError(
                f"segment {seg_path(entry)} holds {len(arr)} items, manifest "
                f"says {entry['count']}"
            )
        return arr

    if "dv_codes" in block:
        dv_codes = mapped(block["dv_codes"])
    elif len(dv_values) > 1:
        raise StoreCorruptionError(
            f"generation {gen_dir} has {len(dv_values)} data values "
            "but no dv_codes segment"
        )
    else:
        dv_codes = np.zeros(len(objects), dtype=np.int64)
    store = object.__new__(SegmentStore)
    store._relations = {e["name"]: None for e in block["relations"]}
    store._rho = rho
    # The dictionary below holds the universe; no second copy until asked.
    store._objects = None
    store._indexes = {}
    store._stats = None
    relations = {e["name"]: mapped(e) for e in block["relations"]}
    try:  # the object index hashes every object: a bare JSON array is none
        store._columnar = ColumnarStore.from_encoded(objects, dv_values, dv_codes, relations)
    except TypeError as exc:
        raise StoreCorruptionError(
            f"dictionary segment {meta_path} does not decode: {exc}"
        ) from exc
    store._sharded = {}
    return store
