"""The upgrade of a manifest-format-6 store to format 7 (``repro upgrade``).

Formats 6 and 7 differ only in the ``KIND_KEYS`` payloads: format 6
deflates an array's deltas, eight byte planes a block; format 7 keeps a
relation's s, p and o fields in columns of their own and the ρ codes in
one (:mod:`repro.storage.segments`).  ``meta.seg``, the manifest's fields
and the log's records (version 2) mean the same in both.  So the upgrade
decodes no object into another type, and the store it leaves answers
every query as the format-6 store did.

:func:`upgrade_store` runs in four steps, the generation on disk being G:

1. check the manifest, read the dictionary for the radix, decode every
   key segment of G with the format-6 decoder — a relation's keys
   checked as an open checks them — and encode it as format 7, before
   anything is written;
2. write generation G + 1: those payloads beside a link to G's
   ``meta.seg``;
3. open G + 1 as any format-7 generation opens, every check included;
4. swap the manifest for a format-7 one naming G + 1, with G's
   relation versions, store version and ``wal_seq`` — the log is left
   as it is, for the next open to replay — and sweep G.

A defect found in step 1 raises :class:`StoreCorruptionError` before
anything under the store is written; one found in step 3 leaves the
format-6 manifest in place beside a generation nothing names (the next
snapshot or upgrade clears it), and so does a crash before the swap.

This is the only reader of format 6: every other surface refuses it
(:func:`~repro.storage.manager.read_manifest`).
"""

from __future__ import annotations

import mmap
import os
import shutil
import zlib
from typing import Any, NamedTuple

import numpy as np

from repro.errors import StoreCorruptionError
from repro.storage.dictionary import decode_dictionary
from repro.storage.fsutil import fsync_dir
from repro.storage.manager import manifest_problem, parse_manifest, read_manifest
from repro.storage.segments import (
    _INFLATE_CHUNK,
    _KEY_BLOCK,
    _MAX_RATIO,
    KIND_DICT,
    KIND_KEYS,
    MANIFEST_FORMAT,
    check_keys,
    encode_keys,
    open_store_segments,
    read_segment,
    write_segment,
)
from repro.storage.snapshot import gen_path, sweep_generations, write_manifest

__all__ = ["UPGRADES_FROM", "Upgrade", "upgrade_store"]

#: The one manifest format this build upgrades from.
UPGRADES_FROM = 6


class Upgrade(NamedTuple):
    """What :func:`upgrade_store` did: the generation it wrote, and the
    payload bytes of its key segments before and after."""

    generation: int
    key_bytes: tuple[int, int]


def _decode_v6(payload: bytes, count: int) -> np.ndarray:
    """The ``count`` items of a format-6 ``KIND_KEYS`` payload — one zlib
    stream of their deltas, each block of 2¹⁵ as eight byte planes —
    refused on any defect 6.x refused: a count deflate cannot reach from
    the bytes at hand, a stream that stops short of it, inflates past it
    or is followed by anything."""
    if not 0 <= count <= _MAX_RATIO * len(payload) // 8:
        raise ValueError(f"{len(payload)} compressed bytes cannot hold {count} items")
    out = np.frombuffer(mmap.mmap(-1, 8 * count or 1), dtype="<i8", count=count)
    stream, inflate, pending = memoryview(payload), zlib.decompressobj(), b""
    chunks = (stream[at : at + _INFLATE_CHUNK] for at in range(0, len(stream), _INFLATE_CHUNK))
    for lo in range(0, count, _KEY_BLOCK):
        size = min(_KEY_BLOCK, count - lo)
        block = bytearray()
        while len(block) < 8 * size and (pending := pending or next(chunks, b"")):
            block += inflate.decompress(pending, 8 * size - len(block))
            pending = inflate.unconsumed_tail
        if len(block) < 8 * size:
            raise ValueError(f"stream is truncated in the block at item {lo}")
        planes = np.frombuffer(block, np.uint8).reshape(8, size)
        out[lo : lo + size].view(np.uint8).reshape(size, 8)[:] = planes.T
    while not inflate.eof and (pending := pending or next(chunks, b"")):
        if inflate.decompress(pending, 1):
            raise ValueError(f"stream inflates past its {count} items")
        pending = inflate.unconsumed_tail
    if not inflate.eof or inflate.unused_data or next(chunks, b""):
        raise ValueError(f"stream is truncated or padded past its {count} items")
    return np.cumsum(out, out=out)


def _converted(gen_dir: str, block: dict) -> list[tuple[str, dict, bytes, int]]:
    """Every key segment of the format-6 generation ``gen_dir`` as
    ``(manifest key, entry, format-7 payload, format-6 payload bytes)``."""
    meta_path = os.path.join(gen_dir, block["meta"]["file"])
    objects, _dv_values, _rho = decode_dictionary(
        read_segment(meta_path, expect_kind=KIND_DICT), meta_path
    )
    entries = [("dv_codes", block["dv_codes"])] if "dv_codes" in block else []
    converted = []
    for key, entry in entries + [("relations", e) for e in block["relations"]]:
        path = os.path.join(gen_dir, entry["file"])
        old = read_segment(path, expect_kind=KIND_KEYS)
        try:
            arr = _decode_v6(old, entry["count"])
            if key == "relations":
                check_keys(arr, len(objects), "it")
            payload = encode_keys(arr, len(objects), 3 if key == "relations" else 1)
        except (KeyError, TypeError, ValueError, zlib.error) as exc:
            raise StoreCorruptionError(f"segment {path} does not decode: {exc}") from exc
        converted.append((key, entry, payload, len(old)))
    return converted


def upgrade_store(root: str | os.PathLike) -> Upgrade | None:
    """Rewrite the manifest-format-6 store at ``root`` as format 7, in
    place and exactly; ``None`` when it is of format 7 already.

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
    old_dir = os.path.join(root, *manifest["gen_dir"].split("/"))
    generation = manifest["generation"] + 1
    new_dir = os.path.join(root, *gen_path(generation).split("/"))
    try:
        converted = _converted(old_dir, manifest["segments"])
        shutil.rmtree(new_dir, ignore_errors=True)  # debris of an interrupted run
        os.makedirs(new_dir)
        block: dict[str, Any] = dict(manifest["segments"], relations=[])
        meta = block["meta"]["file"]
        try:
            os.link(os.path.join(old_dir, meta), os.path.join(new_dir, meta))
        except OSError:
            payload = read_segment(os.path.join(old_dir, meta), expect_kind=KIND_DICT)
            write_segment(os.path.join(new_dir, meta), KIND_DICT, payload)
        for key, entry, payload, _old in converted:
            crc = write_segment(os.path.join(new_dir, entry["file"]), KIND_KEYS, payload)
            if key == "relations":
                block[key].append({**entry, "crc": crc})
            else:
                block[key] = {**entry, "crc": crc}
        fsync_dir(new_dir)
        fsync_dir(os.path.dirname(new_dir))
        open_store_segments(new_dir, block)
    except FileNotFoundError as exc:
        raise StoreCorruptionError(f"store {root} references a missing segment: {exc}") from exc
    # G's fold state, relation versions and wal_seq included, under G + 1.
    gen = {"format": MANIFEST_FORMAT, "generation": generation, "gen_dir": gen_path(generation)}
    write_manifest(root, {**manifest, **gen, "segments": block})
    sweep_generations(root, generation)
    before = sum(old for *_, old in converted)
    return Upgrade(generation, (before, sum(len(payload) for _, _, payload, _ in converted)))
