"""Write-ahead log: the durability of ``install`` / ``batch`` mutations.

Between snapshots, every committed mutation batch lives here as *one*
log record — the unit of atomicity — appended to ``wal.log``::

    <payload_len u64> <seq u64> <payload_crc32 u32> <header_crc32 u32>
    <payload>

The payload is data, read without the pickle module: the batch as the
commit encoded it (:class:`~repro.triplestore.columnar.EncodedBatch`),
all integers little-endian::

    "RWAL" <version u32 = 2> <base u64> <tail_len u64> <relations u64>
    <tail: tail_len bytes> <zeros to a multiple of 8>
    per relation, in application order:
        <name_len u64> <count u64>
        <name: UTF-8, zeros to a multiple of 8> <keys: count × int64>

``base`` is the size of the dictionary the batch extends; the *tail* is
the batch's objects outside it, in code (``repr``) order, as the
dictionary segment's preamble and tagged JSON text, uncompressed
(:func:`~repro.storage.dictionary.encode_values`): the log is
short-lived and its keys are raw, and an LZMA2 encoder would cost every
commit 0.7–1 MB of peak memory and 0.3–0.4 ms (a 14 KB tail, 2-core
x86-64 host);
a relation's keys are its sorted unique packed keys over the grown
dictionary of ``n = base + len(tail)`` objects.  Replay decodes a record
and installs it through the same
:meth:`~repro.triplestore.columnar.ColumnarStore.apply` the commit ran.
:func:`read_record` trusts nothing: every declared length is checked
against the bytes that remain before anything is sliced, a key must lie
in ``[0, n³)`` and the keys strictly increase (the check a relation
segment gets too, :func:`~repro.storage.segments.check_keys`), and the
tail must be in ``repr`` order, hold no object twice and none the
dictionary holds —
anything else, a record that does not start with ``RWAL`` or is of
another version among it, is
:class:`~repro.errors.StoreCorruptionError`.  (``repro upgrade``
converts a format-5 log's version-1 records,
:mod:`repro.storage.upgrade`.)

Commit is a two-step protocol:

1. the record is appended, flushed and ``fsync``'d — the batch's
   content is durable, but not yet acknowledged;
2. the ``COMMIT`` pointer file (JSON ``{"offset", "seq"}``) is
   atomically replaced (tmp + fsync + rename, :func:`atomic_write_bytes`)
   to cover the new record.

The batch was encoded, type-checked and applied before step 1, and the
in-memory store swap happens only after step 2, so the log never holds
a batch the store refused and a query never observes state the log
would not reproduce.

Recovery scans the log from the start and classifies what it finds:

* a record that fails its CRC *inside* the committed region (before the
  ``COMMIT`` offset) is real corruption → :class:`StoreCorruptionError`;
* a fully-valid record *past* the pointer was durable before the crash
  (step 1 completed) — it is promoted: replayed, and the pointer
  repaired to cover it;
* a torn tail (partial or CRC-failing bytes at the end) is a crash
  between the two steps — it is truncated away and the store reopens in
  the pre-batch state.

Either way a batch is all-or-nothing: exactly the pre-batch or the
post-batch state, never half of one.

Records carry a monotonically increasing ``seq`` that survives
snapshots; the manifest's ``wal_seq`` records the last sequence folded
into segments, so recovery replays only ``seq > wal_seq``.

Crash testing hooks: when ``REPRO_STORAGE_FAULT`` names one of the
:data:`FAULT_POINTS`, the process hard-exits (``os._exit(137)``) at
that point of the next :meth:`WriteAheadLog.append` — no ``atexit``, no
buffers flushed beyond what the protocol already made durable.  This is
how the recovery tests kill a writer mid-commit deterministically.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, NamedTuple

import numpy as np

from repro.errors import StoreCorruptionError, StorageError
from repro.storage.dictionary import decode_values, encode_values
from repro.storage.fsutil import atomic_write_bytes, fsync_fileobj
from repro.storage.segments import check_keys
from repro.triplestore.columnar import EncodedBatch

__all__ = [
    "FAULT_ENV",
    "FAULT_POINTS",
    "LoggedBatch",
    "WriteAheadLog",
    "encode_record",
    "read_pointer",
    "read_record",
    "scan_records",
]

#: payload byte length, sequence number, payload CRC32, header CRC32
#: (of the preceding 20 bytes) — 24 bytes per record header.
_RECORD = struct.Struct("<QQII")
RECORD_HEADER_SIZE = _RECORD.size

#: A record's first bytes; any other start is corruption.
MAGIC = b"RWAL"
#: The record layout version; a reader refuses any other.
RECORD_VERSION = 2
#: magic, version, dictionary size extended, tail bytes, relation count.
_PREAMBLE = struct.Struct("<4sIQQQ")
#: A relation's name length in bytes and key count.
_RELATION = struct.Struct("<QQ")

#: Environment hook: hard-exit the process at a named commit step.
FAULT_ENV = "REPRO_STORAGE_FAULT"
#: Valid fault points, in commit-protocol order.
FAULT_POINTS = (
    "wal-before-record",   # nothing written: clean pre-batch state
    "wal-mid-record",      # torn tail: half a record on disk
    "wal-before-sync",     # record written, not fsync'd: torn or whole
    "wal-before-commit",   # record durable, pointer stale: promoted
    "wal-after-commit",    # fully committed: post-batch state
)


class LoggedBatch(NamedTuple):
    """A decoded record: the dictionary size it extends, its tail and its
    relations' keys (read-only ``int64`` arrays), in application order."""

    base: int
    fresh: list
    keys: dict[str, np.ndarray]


def _pad(length: int) -> bytes:
    return bytes(-length % 8)


def encode_record(batch: EncodedBatch) -> bytes:
    """The payload of one record: ``batch`` in the layout of the module
    docstring."""
    tail = encode_values(batch.fresh.objects)
    parts: list[Any] = [
        _PREAMBLE.pack(MAGIC, RECORD_VERSION, batch.base, len(tail), len(batch.keys)),
        tail,
        _pad(len(tail)),
    ]
    for name, keys in batch.keys.items():
        raw = name.encode("utf-8", "surrogatepass")
        keys = np.ascontiguousarray(keys, dtype="<i8")
        parts += [_RELATION.pack(len(raw), len(keys)), raw, _pad(len(raw)), keys]
    return b"".join(parts)


def _take(payload: bytes, off: int, length: int, what: str) -> int:
    """The offset past ``length`` bytes of ``what`` at ``off``, refused
    when the payload does not hold them."""
    if length > len(payload) - off:
        raise ValueError(
            f"{what} declares {length} bytes, {len(payload) - off} remain"
        )
    return off + length


def _decode(payload: bytes) -> LoggedBatch:
    if payload[: len(MAGIC)] != MAGIC:
        raise ValueError("it is not a data record")
    if len(payload) < _PREAMBLE.size:
        raise ValueError("record is shorter than its preamble")
    _magic, version, base, tail_len, count = _PREAMBLE.unpack_from(payload)
    if version != RECORD_VERSION:
        raise ValueError(f"record version {version}; this build reads {RECORD_VERSION}")
    off = _take(payload, _PREAMBLE.size, tail_len, "the tail")
    fresh = decode_values(payload[_PREAMBLE.size : off])
    off = _take(payload, off, -off % 8, "the tail's padding")
    keys: dict[str, np.ndarray] = {}
    for _ in range(count):
        at = _take(payload, off, _RELATION.size, "a relation header")
        name_len, n_keys = _RELATION.unpack_from(payload, off)
        off = _take(payload, at, name_len, "a relation name")
        name = payload[at:off].decode("utf-8", "surrogatepass")
        if name in keys:
            raise ValueError(f"relation {name!r} appears twice")
        off = _take(payload, off, -name_len % 8, "a name's padding")
        at, off = off, _take(payload, off, 8 * n_keys, f"relation {name!r}")
        arr = np.frombuffer(payload, dtype="<i8", count=n_keys, offset=at)
        check_keys(arr, base + len(fresh), f"relation {name!r}")
        keys[name] = arr.astype(np.int64, copy=False)
    if off != len(payload):
        raise ValueError(f"{len(payload) - off} bytes follow the last relation")
    return LoggedBatch(base, fresh, keys)


def read_record(payload: bytes, *, where: str) -> LoggedBatch:
    """The :class:`LoggedBatch` of one record read from ``where``; any
    defect raises :class:`StoreCorruptionError`."""
    try:
        return _decode(payload)
    except Exception as exc:
        raise StoreCorruptionError(f"WAL record {where} does not decode: {exc}") from exc


def _fault(point: str) -> None:
    if os.environ.get(FAULT_ENV) == point:
        os._exit(137)


def scan_records(raw: bytes) -> tuple[list[tuple[int, bytes]], int]:
    """Parse a WAL image into its valid record prefix.

    Returns ``(records, valid_end)`` where ``records`` is a list of
    ``(seq, payload)`` and ``valid_end`` is the byte offset after the
    last fully-valid record — everything beyond it is a torn tail (or
    corruption, depending on where the commit pointer stands; the
    caller decides).
    """
    records: list[tuple[int, bytes]] = []
    off = 0
    while off + RECORD_HEADER_SIZE <= len(raw):
        header = raw[off : off + RECORD_HEADER_SIZE]
        plen, seq, payload_crc, header_crc = _RECORD.unpack(header)
        if header_crc != zlib.crc32(header[:-4]):
            break
        end = off + RECORD_HEADER_SIZE + plen
        if plen > len(raw) - off - RECORD_HEADER_SIZE:
            break
        payload = raw[off + RECORD_HEADER_SIZE : end]
        if zlib.crc32(payload) != payload_crc:
            break
        records.append((seq, payload))
        off = end
    return records, off


def read_pointer(wal_dir: str | os.PathLike) -> tuple[int, int]:
    """The ``(offset, seq)`` of the ``COMMIT`` pointer in ``wal_dir``.

    ``(0, 0)`` when there is none.  Raises :class:`StoreCorruptionError`
    unless the pointer is a JSON object whose ``offset`` and ``seq`` are
    each a non-negative ``int`` (``bool`` is not one).
    """
    path = os.path.join(os.fspath(wal_dir), WriteAheadLog.COMMIT)
    try:
        with open(path, "rb") as fp:
            raw = fp.read()
    except FileNotFoundError:
        return 0, 0
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        raise StoreCorruptionError(
            f"WAL commit pointer {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(doc, dict):
        raise StoreCorruptionError(f"WAL commit pointer {path} is not a JSON object")
    for name in ("offset", "seq"):
        value = doc.get(name)
        if type(value) is not int or value < 0:
            raise StoreCorruptionError(
                f"WAL commit pointer {path} has {name} {value!r}, not a "
                "non-negative integer"
            )
    return doc["offset"], doc["seq"]


class WriteAheadLog:
    """The per-store WAL: ``wal.log`` + the ``COMMIT`` pointer file."""

    LOG = "wal.log"
    COMMIT = "COMMIT"

    def __init__(self, wal_dir: str | os.PathLike) -> None:
        self.dir = os.fspath(wal_dir)
        os.makedirs(self.dir, exist_ok=True)
        self.log_path = os.path.join(self.dir, self.LOG)
        self.commit_path = os.path.join(self.dir, self.COMMIT)
        self._fp: Any = None
        #: Byte offset of the committed end of the log.
        self.offset = 0
        #: Sequence number the next :meth:`append` will use.
        self.next_seq = 1

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def recover(self, *, min_seq: int = 0) -> list[tuple[int, bytes]]:
        """Repair the log and return the committed records to replay.

        Promotes fully-durable records past a stale pointer, truncates
        torn tails, and raises :class:`StoreCorruptionError` if bytes
        *inside* the committed region fail their checksums.  Returns
        ``(seq, payload)`` pairs with ``seq > min_seq`` (older records
        are already folded into segments), in log order, for
        :func:`read_record`.
        """
        committed, pointer_seq = read_pointer(self.dir)
        try:
            with open(self.log_path, "rb") as fp:
                raw = fp.read()
        except FileNotFoundError:
            raw = b""
        records, valid_end = scan_records(raw)
        if valid_end < committed:
            raise StoreCorruptionError(
                f"WAL {self.log_path} is corrupt: commit pointer covers "
                f"{committed} bytes but only {valid_end} verify"
            )
        if valid_end < len(raw):
            # Torn tail from a crash mid-append: drop it.
            with open(self.log_path, "r+b") as fp:
                fp.truncate(valid_end)
                fsync_fileobj(fp)
        last_seq = max([pointer_seq, min_seq] + [seq for seq, _ in records])
        if valid_end != committed or last_seq != pointer_seq:
            # Promote durable-but-unacknowledged records into the pointer.
            self._write_pointer(valid_end, last_seq)
        self.offset = valid_end
        self.next_seq = last_seq + 1
        return [(seq, payload) for seq, payload in records if seq > min_seq]

    # ------------------------------------------------------------------ #
    # Commit path
    # ------------------------------------------------------------------ #

    def _write_pointer(self, offset: int, seq: int) -> None:
        atomic_write_bytes(
            self.commit_path,
            json.dumps({"offset": offset, "seq": seq}).encode("ascii"),
        )

    def _file(self):
        if self._fp is None or self._fp.closed:
            self._fp = open(self.log_path, "ab")
            if self._fp.tell() != self.offset:  # pragma: no cover — foreign writes
                raise StorageError(
                    f"WAL {self.log_path} is {self._fp.tell()} bytes on disk "
                    f"but {self.offset} committed; reopen the store to recover"
                )
        return self._fp

    def append(self, batch: EncodedBatch) -> int:
        """Durably commit one encoded batch; returns its sequence number.

        The record is fsync'd before the commit pointer moves (see the
        module docstring for the protocol).
        """
        seq = self.next_seq
        payload = encode_record(batch)
        header = _RECORD.pack(len(payload), seq, zlib.crc32(payload), 0)[:-4]
        record = header + struct.pack("<I", zlib.crc32(header)) + payload
        _fault("wal-before-record")
        fp = self._file()
        if os.environ.get(FAULT_ENV) == "wal-mid-record":
            fp.write(record[: RECORD_HEADER_SIZE + len(payload) // 2])
            fp.flush()
            os._exit(137)
        fp.write(record)
        fp.flush()
        _fault("wal-before-sync")
        os.fsync(fp.fileno())
        _fault("wal-before-commit")
        self.offset += len(record)
        self._write_pointer(self.offset, seq)
        _fault("wal-after-commit")
        self.next_seq = seq + 1
        return seq

    @property
    def size(self) -> int:
        """Committed log size in bytes (the compaction trigger input)."""
        return self.offset

    def reset(self, seq: int) -> None:
        """Empty the log after its records were folded into segments.

        ``seq`` is the last folded sequence number; it is preserved in
        the pointer so sequence numbers stay monotonic across snapshots.
        """
        if self._fp is not None and not self._fp.closed:
            self._fp.close()
        self._fp = None
        with open(self.log_path, "ab"):
            pass  # ensure it exists before truncating
        with open(self.log_path, "r+b") as fp:
            fp.truncate(0)
            fsync_fileobj(fp)
        self.offset = 0
        self._write_pointer(0, seq)
        self.next_seq = seq + 1

    def close(self) -> None:
        if self._fp is not None and not self._fp.closed:
            self._fp.close()
        self._fp = None
