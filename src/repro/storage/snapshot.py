"""Snapshots: folding the WAL into a fresh segment generation.

A snapshot writes the *current* store into a brand-new generation
directory and then swaps the manifest to point at it.  The ordering
makes the swap atomic under any crash:

1. segments are written into ``segments/gen-NNNNNN.tmp`` — each file
   individually fsync'd-and-renamed, or hard-linked from the previous
   generation when the store still holds the very objects it was
   written from — then the directory is fsync'd;
2. the directory is renamed to its final ``gen-NNNNNN`` name and
   ``segments/`` is fsync'd — the generation now durably exists, but
   nothing references it yet;
3. the ``MANIFEST`` file is atomically replaced to point at the new
   generation (and to record the fold: relation versions and the last
   WAL sequence now baked into segments) — *this* is the commit point;
4. only after the manifest is durable are the WAL reset and the old
   generation directories removed.

A crash before step 3 leaves the old manifest pointing at the old,
untouched generation (the ``.tmp`` or orphaned new generation is swept
on the next snapshot).  A crash after step 3 leaves the new manifest
with a stale-but-harmless WAL (records with ``seq <= wal_seq`` are
skipped on replay) and possibly an unreferenced old generation
(likewise swept later).  Links change none of this: every generation
directory names all of its files itself, so removing one never reaches
into another — the shared inode lives while any directory names it.

Manifest format 7 is the only one this build reads or writes: the
dictionary as data (a ``KIND_DICT`` ``meta.seg``, one LZMA2 stream),
every array as compressed field-wise columns (``KIND_KEYS``), a WAL of
data records only (:mod:`repro.storage.wal`), and nothing a reader can
derive — no ``active`` entry, and ``dv_codes`` only when ρ takes more
than one value.  A store of an older format is refused when it opens
(:func:`~repro.storage.manager.read_manifest`); ``repro upgrade``
rewrites a format-6 store as format 7 (:mod:`repro.storage.upgrade`),
a format-5 one first needs ``repro upgrade`` under the last 6.x build,
and an older one ``repro compact`` under the last 4.x build before
that.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Mapping

from repro.storage.fsutil import atomic_write_bytes, fsync_dir
from repro.storage.segments import MANIFEST_FORMAT, Generation, write_store_segments
from repro.triplestore.model import Triplestore

__all__ = ["MANIFEST_FORMAT", "gen_path", "sweep_generations", "write_manifest", "write_snapshot"]

_SEGMENTS_DIR = "segments"
_MANIFEST = "MANIFEST"


def _gen_name(generation: int) -> str:
    return f"gen-{generation:06d}"


def gen_path(generation: int) -> str:
    """The manifest's ``gen_dir`` for ``generation``, relative to the root."""
    return f"{_SEGMENTS_DIR}/{_gen_name(generation)}"


def write_snapshot(
    root: str | os.PathLike,
    store: Triplestore,
    *,
    generation: int,
    rel_versions: Mapping[str, int],
    store_version: int,
    wal_seq: int,
    prev: Generation | None = None,
) -> dict[str, Any]:
    """Write ``store`` as generation ``generation`` and commit the manifest.

    Files of ``prev`` (the generation on disk, as the caller remembers
    it) that ``store`` did not change are linked, not rewritten.
    Returns the new manifest dictionary.  Does *not* touch the WAL or
    old generations — the caller resets/sweeps those only after this
    returns (i.e. after the manifest swap is durable).
    """
    root = os.fspath(root)
    seg_root = os.path.join(root, _SEGMENTS_DIR)
    os.makedirs(seg_root, exist_ok=True)
    gen = _gen_name(generation)
    tmp_dir = os.path.join(seg_root, gen + ".tmp")
    final_dir = os.path.join(seg_root, gen)
    for stale in (tmp_dir, final_dir):  # debris from an interrupted snapshot
        if os.path.exists(stale):
            shutil.rmtree(stale)
    block = write_store_segments(store, tmp_dir, prev)
    os.rename(tmp_dir, final_dir)
    fsync_dir(seg_root)
    manifest: dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "generation": generation,
        "gen_dir": gen_path(generation),
        "segments": block,
        "rel_versions": dict(rel_versions),
        "store_version": store_version,
        "wal_seq": wal_seq,
    }
    write_manifest(root, manifest)
    return manifest


def write_manifest(root: str | os.PathLike, manifest: Mapping[str, Any]) -> None:
    """Atomically replace ``root``'s manifest: the commit point of a
    snapshot and of an upgrade, once the generation it names is durable."""
    atomic_write_bytes(
        os.path.join(os.fspath(root), _MANIFEST),
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )


def sweep_generations(root: str | os.PathLike, keep_generation: int) -> list[str]:
    """Remove generation directories other than ``keep_generation``.

    Also sweeps ``.tmp`` staging debris.  Only called after the manifest
    referencing ``keep_generation`` is durable on disk; returns the
    removed directory names.
    """
    root = os.fspath(root)
    seg_root = os.path.join(root, _SEGMENTS_DIR)
    keep = _gen_name(keep_generation)
    removed: list[str] = []
    try:
        entries = sorted(os.listdir(seg_root))
    except FileNotFoundError:
        return removed
    for name in entries:
        if name == keep or not name.startswith("gen-"):
            continue
        path = os.path.join(seg_root, name)
        if os.path.isdir(path):
            shutil.rmtree(path)
            removed.append(name)
    if removed:
        fsync_dir(seg_root)
    return removed
