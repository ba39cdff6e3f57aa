"""Offline integrity checking of a store directory (``repro fsck``).

Walks everything the manifest references and reports structured
:class:`~repro.analysis.invariants.Finding` records under the
``STOR-*`` rules — the same record type the lint and plan-verifier
families use, so reports render and filter identically everywhere.

fsck reads every referenced byte: the manifest as an open reads it
(:func:`~repro.storage.manager.read_manifest`: a store of an older
format is one ``STOR-MANIFEST`` finding, and nothing else is read),
per-segment header *and* payload checksums against the file header and
the manifest, a full decode of the dictionary segment; when all files
read, the generation opened as an open does (every array decoded and
checked against the dictionary); WAL record checksums against the
commit pointer, every record past the manifest's ``wal_seq`` decoded
and replayed onto the generation as an open would; and catalog
readability.  A torn WAL tail is *healthy* (recovery truncates it by
design) and is not reported as a finding.
"""

from __future__ import annotations

import os
import zlib
from typing import Iterator

from repro.analysis.invariants import Finding
from repro.storage import catalog as _catalog
from repro.storage.dictionary import decode_dictionary
from repro.storage.manager import MANIFEST_NAME, WAL_DIR, read_manifest, replay_record
from repro.storage.segments import SegmentStore, open_store_segments, read_segment
from repro.storage.wal import WriteAheadLog, read_pointer, read_record, scan_records
from repro.errors import StorageError, StoreCorruptionError

__all__ = ["fsck_store"]


def _segment_entries(segments: dict) -> Iterator[tuple[str, dict]]:
    for key in ("meta", "dv_codes"):
        if key in segments:
            yield key, segments[key]
    for entry in segments["relations"]:
        yield "relations", entry


def _gen_dir(root: str, manifest: dict) -> str:
    return os.path.join(root, *manifest["gen_dir"].split("/"))


def _check_segments(root: str, manifest: dict) -> Iterator[Finding]:
    gen_dir = _gen_dir(root, manifest)
    if not os.path.isdir(gen_dir):
        yield Finding(
            "STOR-SEGMENT",
            f"generation directory {manifest['gen_dir']!r} is missing",
            path=gen_dir,
        )
        return
    for key, entry in _segment_entries(manifest["segments"]):
        path = os.path.join(gen_dir, entry["file"])
        if not os.path.exists(path):
            yield Finding("STOR-SEGMENT", "referenced segment is missing", path=path)
            continue
        try:
            payload = read_segment(path, verify=True)
        except StoreCorruptionError as exc:
            yield Finding("STOR-SEGMENT", str(exc), path=path)
            continue
        except OSError as exc:  # pragma: no cover — permissions etc.
            yield Finding("STOR-SEGMENT", f"segment is unreadable: {exc}", path=path)
            continue
        if zlib.crc32(payload) != entry.get("crc"):
            yield Finding(
                "STOR-SEGMENT",
                "segment payload does not match the CRC recorded in the "
                "manifest",
                path=path,
            )
        if key == "meta":
            try:
                objects, _dv_values, _rho = decode_dictionary(payload, path)
                hash(tuple(objects))  # as the object index of an open does
            except StoreCorruptionError as exc:
                yield Finding("STOR-SEGMENT", str(exc), path=path)
            except TypeError as exc:
                yield Finding(
                    "STOR-SEGMENT",
                    f"dictionary segment {path} does not decode: {exc}",
                    path=path,
                )


def _check_wal(root: str, manifest: dict, store: SegmentStore | None) -> Iterator[Finding]:
    wal_dir = os.path.join(root, WAL_DIR)
    log_path = os.path.join(wal_dir, WriteAheadLog.LOG)
    commit_path = os.path.join(wal_dir, WriteAheadLog.COMMIT)
    try:
        committed, _pointer_seq = read_pointer(wal_dir)
    except (OSError, StoreCorruptionError) as exc:
        yield Finding("STOR-WAL", f"commit pointer is unreadable: {exc}", path=commit_path)
        return
    try:
        with open(log_path, "rb") as fp:
            raw = fp.read()
    except FileNotFoundError:
        raw = b""
    except OSError as exc:  # pragma: no cover — permissions etc.
        yield Finding("STOR-WAL", f"log is unreadable: {exc}", path=log_path)
        return
    records, valid_end = scan_records(raw)
    if valid_end < committed:
        yield Finding(
            "STOR-WAL",
            f"commit pointer covers {committed} bytes but only {valid_end} "
            "verify — committed records are corrupt",
            path=log_path,
        )
        return
    records = [(seq, payload) for seq, payload in records if seq > manifest["wal_seq"]]
    if not records:
        return
    # Replayed onto the generation as an open would, so a record is also
    # checked against the dictionary it extends; a generation that does
    # not open is the segment check's finding, and each record is then
    # only decoded.
    for seq, payload in records:
        try:
            if store is None:
                read_record(payload, where=f"seq={seq} in {log_path}")
            else:
                store, _names = replay_record(store, seq, payload, log_path)
        except StoreCorruptionError as exc:
            # Every later record extends what this one would have made.
            yield Finding("STOR-WAL", str(exc), path=log_path)
            return


def fsck_store(root: str | os.PathLike) -> list[Finding]:
    """Full integrity check; an empty list means the store is healthy."""
    root = os.fspath(root)
    try:
        manifest = read_manifest(root)
    except FileNotFoundError:
        problem = "no MANIFEST file — not an initialised store directory"
    except OSError as exc:
        problem = f"manifest is unreadable: {exc}"
    except StorageError as exc:  # an older format, or a malformed manifest
        problem = str(exc)
    else:
        problem = None
    if problem is not None:
        return [Finding("STOR-MANIFEST", problem, path=os.path.join(root, MANIFEST_NAME))]
    findings = list(_check_segments(root, manifest))
    store = None
    if not findings:  # every file reads: decode and check its arrays as an open does
        try:
            store = open_store_segments(_gen_dir(root, manifest), manifest["segments"])
        except (StoreCorruptionError, OSError, KeyError, TypeError, ValueError) as exc:
            findings.append(Finding("STOR-SEGMENT", str(exc), path=root))
    findings.extend(_check_wal(root, manifest, store))
    findings.extend(
        Finding("STOR-CATALOG", problem, path=os.path.join(root, _catalog.CATALOG_DIR))
        for problem in _catalog.verify_catalog(root)
    )
    return findings
