"""Durable storage: on-disk segments, WAL transactions, snapshots.

The persistence layer behind ``Database(path=...)`` and the
``repro fsck`` / ``repro compact`` / ``repro upgrade`` /
``repro serve DIR`` surfaces.  A store directory holds compressed columnar segments
(:mod:`repro.storage.segments`) beside a typed, compressed dictionary
segment (:mod:`repro.storage.dictionary`), a write-ahead log making
``install``/``batch`` crash-recoverable (:mod:`repro.storage.wal`),
snapshot/compaction machinery (:mod:`repro.storage.snapshot`), a
warm-reopen catalog of statistics and query texts
(:mod:`repro.storage.catalog`), an offline checker
(:mod:`repro.storage.fsck`) and the upgrade of a format-6 store
(:mod:`repro.storage.upgrade`, ``repro upgrade``).  :class:`DurableStore`
(:mod:`repro.storage.manager`) coordinates the lifecycle.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.storage.fsck": "fsck_store",
        "repro.storage.manager": "DurableStore store_footprint",
        "repro.storage.segments": "SegmentStore",
        "repro.storage.wal": "WriteAheadLog",
    },
)
