"""The upgrade of a manifest-format-5 store to format 6 (``repro upgrade``).

Formats 5 and 6 differ in two streams, which hold the same tagged JSON
text (:mod:`repro.storage.dictionary`): a format-5 ``meta.seg`` deflates
it where format 6 writes one raw LZMA2 stream, and a format-5 WAL record
(record version 1) deflates its dictionary tail where version 2 keeps
the text as it is.  Every other byte — the ``KIND_KEYS`` segments, the
manifest's fields, a record's keys — means the same in both.  So the
upgrade carries each text over byte for byte and decodes no object into
another type: the store it leaves answers every query as the format-5
store did.

:func:`upgrade_store` runs in four steps, the generation on disk being G:

1. check the manifest, and read, inflate and convert every stream it
   rewrites — the dictionary segment and each log record past the
   manifest's ``wal_seq``, as an open would replay them — before
   anything is written;
2. write generation G + 1: the LZMA2 ``meta.seg`` beside links to every
   other file of G; open it as any format-6 generation opens, every
   check included, and replay the converted records on top;
3. fold that store into generation G + 2 (:func:`write_snapshot`, which
   links every file the records left as it was): its format-6 manifest
   is the commit point;
4. empty the log and sweep every other generation.

A defect found in steps 1–2 raises :class:`StoreCorruptionError` with
the manifest untouched; a crash before step 3's manifest swap leaves
the format-5 store as it was, beside generations that nothing names
(the next snapshot or upgrade clears them).  After the swap the log
holds only records the manifest has folded, which an open skips unread.

This is the only reader of format 5: every other surface refuses it
(:func:`~repro.storage.manager.read_manifest`).
"""

from __future__ import annotations

import os
import shutil
import zlib
from typing import Any, NamedTuple

from repro.errors import StoreCorruptionError
from repro.storage.dictionary import _PREAMBLE as _DICT_PREAMBLE
from repro.storage.dictionary import compress_text
from repro.storage.fsutil import fsync_dir
from repro.storage.manager import (
    WAL_DIR,
    manifest_problem,
    parse_manifest,
    read_manifest,
    replay_record,
)
from repro.storage.segments import (
    _MAX_RATIO,
    KIND_DICT,
    KIND_KEYS,
    Generation,
    open_store_segments,
    read_segment,
    write_segment,
)
from repro.storage.snapshot import gen_path, sweep_generations, write_snapshot
from repro.storage.wal import (
    _PREAMBLE,
    MAGIC,
    RECORD_VERSION,
    WriteAheadLog,
    _pad,
    _take,
    read_pointer,
    scan_records,
)

__all__ = ["UPGRADES_FROM", "Upgrade", "upgrade_store"]

#: The one manifest format this build upgrades from.
UPGRADES_FROM = 5


class Upgrade(NamedTuple):
    """What :func:`upgrade_store` did: the generation it wrote, the log
    records it folded, and ``meta.seg``'s payload bytes before and after."""

    generation: int
    records: int
    dictionary_bytes: tuple[int, int]


def _inflated(payload: bytes | memoryview) -> bytes:
    """A format-5 dictionary payload — the preamble, then a zlib stream
    of the text — as the preamble and the text itself, refused on any
    defect 5.x refused: a declared length deflate cannot reach from the
    bytes at hand, a stream that inflates past it, stops short of it or
    is followed by anything.  The text's CRC is checked where it is
    decoded."""
    if len(payload) < _DICT_PREAMBLE.size:
        raise ValueError("payload is shorter than its preamble")
    length = _DICT_PREAMBLE.unpack_from(payload)[0]
    stream = memoryview(payload)[_DICT_PREAMBLE.size :]
    if length > _MAX_RATIO * len(stream):
        raise ValueError(
            f"{len(stream)} compressed bytes cannot inflate to the declared {length}"
        )
    inflate = zlib.decompressobj()
    try:
        raw = inflate.decompress(stream, length + 1)
    except zlib.error as exc:
        raise ValueError(f"stream does not inflate: {exc}") from exc
    if len(raw) != length or not inflate.eof or inflate.unused_data:
        raise ValueError(
            f"stream is truncated, padded or too long: {len(raw)} of {length} "
            "declared bytes decoded"
        )
    return bytes(payload[: _DICT_PREAMBLE.size]) + raw


def _record_v2(payload: bytes) -> bytes:
    """A version-1 WAL record as version 2: its tail inflated, every
    other byte as it was (the keys still start 8-aligned)."""
    if payload[: len(MAGIC)] != MAGIC:
        raise ValueError("it is not a data record")
    if len(payload) < _PREAMBLE.size:
        raise ValueError("record is shorter than its preamble")
    _magic, version, base, tail_len, count = _PREAMBLE.unpack_from(payload)
    if version != 1:
        raise ValueError(f"record version {version}; a format-5 log holds version 1")
    end = _take(payload, _PREAMBLE.size, tail_len, "the tail")
    tail = _inflated(memoryview(payload)[_PREAMBLE.size : end])
    rest = _take(payload, end, -end % 8, "the tail's padding")
    head = _PREAMBLE.pack(MAGIC, RECORD_VERSION, base, len(tail), count)
    return b"".join([head, tail, _pad(len(tail)), payload[rest:]])


def _logged(root: str, wal_seq: int) -> tuple[list[tuple[int, bytes]], int]:
    """The log's records past ``wal_seq`` as version 2, and the last
    sequence number it holds; the log is read as recovery reads it (a
    torn tail is not a record) but left as it is."""
    wal_dir = os.path.join(root, WAL_DIR)
    log = os.path.join(wal_dir, WriteAheadLog.LOG)
    committed, pointer_seq = read_pointer(wal_dir)
    try:
        with open(log, "rb") as fp:
            raw = fp.read()
    except FileNotFoundError:
        raw = b""
    records, valid_end = scan_records(raw)
    if valid_end < committed:
        raise StoreCorruptionError(
            f"WAL {log} is corrupt: commit pointer covers {committed} bytes "
            f"but only {valid_end} verify"
        )
    converted = []
    for seq, payload in records:
        if seq > wal_seq:
            try:
                converted.append((seq, _record_v2(payload)))
            except ValueError as exc:
                raise StoreCorruptionError(
                    f"WAL record seq={seq} in {log} does not decode: {exc}"
                ) from exc
    last_seq = max([pointer_seq, wal_seq] + [seq for seq, _ in records])
    return converted, last_seq


def _link(src: str, dst: str) -> None:
    """``dst`` as another name of the ``KIND_KEYS`` segment ``src``, or a
    copy where the link fails."""
    try:
        os.link(src, dst)
    except OSError:
        write_segment(dst, KIND_KEYS, read_segment(src, expect_kind=KIND_KEYS))


def _stage(root: str, manifest: dict, payload: bytes) -> tuple[str, dict]:
    """Generation G + 1 of ``manifest``'s G: ``payload`` as its
    ``meta.seg``, every other file linked; its directory and segment map."""
    old_dir = os.path.join(root, *manifest["gen_dir"].split("/"))
    new_dir = os.path.join(root, *gen_path(manifest["generation"] + 1).split("/"))
    for stale in (new_dir, new_dir + ".tmp"):  # debris of an interrupted run
        if os.path.exists(stale):
            shutil.rmtree(stale)
    os.makedirs(new_dir)
    block: dict[str, Any] = dict(manifest["segments"])
    for entry in [block.get("dv_codes"), *block["relations"]]:
        if entry is not None:
            _link(os.path.join(old_dir, entry["file"]), os.path.join(new_dir, entry["file"]))
    meta = block["meta"]
    crc = write_segment(os.path.join(new_dir, meta["file"]), KIND_DICT, payload)
    block["meta"] = {**meta, "bytes": len(payload), "crc": crc}
    fsync_dir(new_dir)
    return new_dir, block


def upgrade_store(root: str | os.PathLike) -> Upgrade | None:
    """Rewrite the manifest-format-5 store at ``root`` as format 6, in
    place and exactly; ``None`` when it is of format 6 already.

    Any other format raises as an open does
    (:func:`~repro.storage.manager.read_manifest`); a defect in what the
    upgrade reads raises :class:`StoreCorruptionError` before the
    manifest moves.
    """
    root = os.fspath(root)
    path, manifest = parse_manifest(root)
    if manifest["format"] != UPGRADES_FROM:
        read_manifest(root)
        return None
    problem = manifest_problem(manifest)
    if problem is not None:
        raise StoreCorruptionError(f"store manifest {path} {problem}")
    records, last_seq = _logged(root, manifest["wal_seq"])
    gen_dir = os.path.join(root, *manifest["gen_dir"].split("/"))
    meta_path = os.path.join(gen_dir, manifest["segments"]["meta"]["file"])
    try:
        old = read_segment(meta_path, expect_kind=KIND_DICT)
        try:
            new = compress_text(_inflated(old))
        except ValueError as exc:
            raise StoreCorruptionError(
                f"dictionary segment {meta_path} does not decode: {exc}"
            ) from exc
        stage_dir, block = _stage(root, manifest, new)
        base = store = open_store_segments(stage_dir, block)
    except FileNotFoundError as exc:
        raise StoreCorruptionError(f"store {root} references a missing segment: {exc}") from exc
    rel_versions = dict(manifest["rel_versions"])
    store_version = manifest["store_version"]
    log = os.path.join(root, WAL_DIR, WriteAheadLog.LOG)
    for seq, payload in records:
        store, names = replay_record(store, seq, payload, log)
        for name in names:
            rel_versions[name] = rel_versions.get(name, 0) + 1
        store_version += 1
    generation = manifest["generation"] + 2
    write_snapshot(
        root,
        store,
        generation=generation,
        rel_versions=rel_versions,
        store_version=store_version,
        wal_seq=last_seq,
        prev=Generation(stage_dir, block, base),
    )
    WriteAheadLog(os.path.join(root, WAL_DIR)).reset(last_seq)
    sweep_generations(root, generation)
    return Upgrade(generation, len(records), (len(old), len(new)))
