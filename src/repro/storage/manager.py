"""The durable-store coordinator behind ``Database(path=...)``.

A store directory is::

    <root>/
      MANIFEST                 # JSON: current generation + fold state
      segments/gen-NNNNNN/     # segment files (repro.storage.segments)
      wal/wal.log, wal/COMMIT  # mutations since the manifest's snapshot
      catalog/                 # warm-reopen caches (repro.storage.catalog)

:class:`DurableStore` owns the open/recover/commit/snapshot lifecycle;
:class:`repro.db.Database` drives it:

* **open** — read the manifest, map the segments into a lazy
  :class:`~repro.storage.segments.SegmentStore`, recover the WAL and
  replay committed records on top.  Relation dependency versions are
  re-derived deterministically (manifest versions + one bump per
  replayed record).  A directory without a manifest is initialised as an
  empty generation-1 store — unless its WAL has a commit pointer, which
  only a commit or snapshot writes: then the manifest was lost, and the
  open is refused.  A format-1/2 store holding an object the
  dictionary segment cannot store is refused here, before its first
  snapshot would fail.
* **commit** — refuse a batch holding an object the dictionary segment
  cannot store, then append it to the WAL (fsync before the commit
  pointer moves); the caller swaps its in-memory store only after this
  returns.
* **snapshot** — fold everything into a fresh generation
  (:mod:`repro.storage.snapshot`), then reset the WAL and sweep old
  generations.  The store remembers which objects the current
  generation's files hold, so a snapshot writes only what changed and
  links the rest.  Triggered explicitly (``repro compact``), by the WAL
  size crossing ``REPRO_STORAGE_WAL_LIMIT`` bytes after a commit, and
  on clean close, so a cleanly-closed store always reopens straight
  from mmap'd segments with no replay.

No cross-process locking is attempted: one writer per store directory
at a time is the contract (tenants each get their own directory).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import StorageError, StoreCorruptionError
from repro.storage import catalog as _catalog
from repro.storage.dictionary import check_storable, unstorable_type
from repro.storage.segments import Generation, open_store_segments
from repro.storage.snapshot import MANIFEST_FORMAT, sweep_generations, write_snapshot
from repro.storage.wal import WriteAheadLog
from repro.triplestore.model import Triple, Triplestore

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.db import Database

__all__ = ["DurableStore", "WAL_LIMIT_ENV", "store_footprint"]

#: WAL size (bytes) past which a commit triggers auto-compaction.
WAL_LIMIT_ENV = "REPRO_STORAGE_WAL_LIMIT"
_DEFAULT_WAL_LIMIT = 16 * 1024 * 1024

MANIFEST_NAME = "MANIFEST"
WAL_DIR = "wal"


class DurableStore:
    """One on-disk store directory: segments + WAL + catalog."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        self.manifest: dict | None = None
        self.generation = 0
        self.wal: WriteAheadLog | None = None
        #: Set by :meth:`open`: the recovered store and its dependency
        #: versions (the Database seeds its own from these).
        self.store: Triplestore | None = None
        self.rel_versions: dict[str, int] = {}
        self.store_version = 0
        #: The generation on disk and the objects its files hold.
        self._current: Generation | None = None

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _wal_limit(self) -> int:
        try:
            return int(os.environ.get(WAL_LIMIT_ENV, _DEFAULT_WAL_LIMIT))
        except ValueError:
            return _DEFAULT_WAL_LIMIT

    # ------------------------------------------------------------------ #
    # Open / recover
    # ------------------------------------------------------------------ #

    def _read_manifest(self) -> dict:
        try:
            with open(self.manifest_path, "rb") as fp:
                manifest = json.loads(fp.read())
        except ValueError as exc:
            raise StoreCorruptionError(
                f"store manifest {self.manifest_path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or "segments" not in manifest:
            raise StoreCorruptionError(
                f"store manifest {self.manifest_path} has no segment map"
            )
        if manifest.get("format", 0) > MANIFEST_FORMAT:
            raise StoreCorruptionError(
                f"store {self.root} is manifest format "
                f"v{manifest.get('format')}; this build reads up to "
                f"v{MANIFEST_FORMAT}"
            )
        return manifest

    @property
    def gen_dir(self) -> str:
        """The current generation's directory."""
        return os.path.join(self.root, *self.manifest["gen_dir"].split("/"))

    def _remember(self, store: Triplestore) -> None:
        """``store`` is what the manifest's generation holds on disk."""
        self._current = Generation(self.gen_dir, self.manifest["segments"], store)

    def open(self) -> Triplestore:
        """Open (or initialise) the directory; returns the current store.

        Raises :class:`StoreCorruptionError` when the committed state on
        disk cannot be trusted — the manifest of a store that committed
        is gone, say; a torn WAL tail is repaired silently.
        Raises :class:`StorageError` for a format-1/2 store holding an
        object this build cannot write.
        """
        os.makedirs(self.root, exist_ok=True)
        manifest_format = MANIFEST_FORMAT
        if os.path.exists(self.manifest_path):
            manifest = self.manifest = self._read_manifest()
            manifest_format = int(manifest.get("format", 1))
            try:
                store: Triplestore = open_store_segments(
                    self.gen_dir, manifest["segments"], manifest_format
                )
            except FileNotFoundError as exc:
                raise StoreCorruptionError(
                    f"store {self.root} references a missing segment: {exc}"
                ) from exc
            self.generation = int(manifest.get("generation", 0))
            self.rel_versions = {
                str(k): int(v) for k, v in manifest.get("rel_versions", {}).items()
            }
            self.store_version = int(manifest.get("store_version", 0))
            wal_seq = int(manifest.get("wal_seq", 0))
        elif os.path.exists(os.path.join(self.root, WAL_DIR, WriteAheadLog.COMMIT)):
            raise StoreCorruptionError(
                f"store {self.root} has a WAL commit pointer but no "
                f"{MANIFEST_NAME}: the snapshot its log continues is lost"
            )
        else:
            # Fresh directory: lay down an empty generation-1 snapshot so
            # the store is fsck-able and reopenable from the first moment.
            store = Triplestore()
            self.generation = 1
            self.rel_versions = {}
            self.store_version = 0
            wal_seq = 0
            self.manifest = write_snapshot(
                self.root,
                store,
                generation=1,
                rel_versions={},
                store_version=0,
                wal_seq=0,
            )
        self._remember(store)
        self.wal = WriteAheadLog(os.path.join(self.root, WAL_DIR))
        for _seq, record in self.wal.recover(min_seq=wal_seq):
            relations = record.get("relations", {})
            store = store.with_relations(relations)
            for name in relations:
                self.rel_versions[name] = self.rel_versions.get(name, 0) + 1
            self.store_version += 1
        if manifest_format < MANIFEST_FORMAT:
            self._refuse_unstorable(store, manifest_format)
        self.store = store
        return store

    def _refuse_unstorable(self, store: Triplestore, manifest_format: int) -> None:
        """Refuse an older store holding what this build cannot write.

        Formats 1 and 2 pickled the dictionary, so a commit took any
        hashable; such a store would open and then fail its first
        snapshot — and with it every compaction and clean close.
        """
        cs = store.columnar()
        rho = store.rho_map()
        stray = unstorable_type((cs.objects, cs.dv_values, rho, rho.values()))
        if stray is None:
            return
        self.close()
        raise StorageError(
            f"store {self.root} (manifest format {manifest_format}) holds an "
            f"object of type {stray.__qualname__!r}, which manifest format "
            f"{MANIFEST_FORMAT} cannot store: a durable store holds only str, "
            "int, float, bool, None, bytes and tuples of them.  Migrate it by "
            "reading it with the build that wrote it and loading its "
            "triples, with such objects replaced, into a new store."
        )

    # ------------------------------------------------------------------ #
    # Commit / compaction
    # ------------------------------------------------------------------ #

    def commit(self, mutations: Mapping[str, Iterable[Triple]]) -> int:
        """Durably log one mutation batch; returns its WAL sequence.

        A batch holding an object the dictionary segment cannot store
        raises :class:`~repro.errors.StorageError` before anything is
        logged: the WAL must not accept what the next snapshot refuses.
        """
        assert self.wal is not None, "store is not open"
        check_storable(mutations)
        return self.wal.append(mutations)

    def snapshot(
        self,
        store: Triplestore,
        rel_versions: Mapping[str, int],
        store_version: int,
    ) -> None:
        """Fold the WAL into a fresh segment generation (compaction)."""
        assert self.wal is not None, "store is not open"
        generation = self.generation + 1
        wal_seq = self.wal.next_seq - 1
        self.manifest = write_snapshot(
            self.root,
            store,
            generation=generation,
            rel_versions=rel_versions,
            store_version=store_version,
            wal_seq=wal_seq,
            prev=self._current,
        )
        self._remember(store)
        self.generation = generation
        # The manifest referencing the new generation is durable; now the
        # WAL records it folded — and the old generations — can go.
        self.wal.reset(wal_seq)
        sweep_generations(self.root, generation)

    def maybe_compact(self, db: "Database") -> bool:
        """Auto-compact when the WAL outgrows its limit; True if it did."""
        if self.wal is not None and self.wal.size > self._wal_limit():
            self.snapshot(db.store, db._rel_versions, db._store_version)
            return True
        return False

    # ------------------------------------------------------------------ #
    # Warm caches / close
    # ------------------------------------------------------------------ #

    def load_warm(self, db: "Database") -> tuple[int, int]:
        """Seed stats and plan cache from the catalog; (stats, plans) counts."""
        return (
            _catalog.load_stats(self.root, db),
            _catalog.load_plans(self.root, db),
        )

    def flush(self, db: "Database") -> None:
        """Clean-close housekeeping: fold the WAL, persist the catalog."""
        if self.wal is not None and self.wal.size > 0:
            self.snapshot(db.store, db._rel_versions, db._store_version)
        _catalog.save_catalog(self.root, db)

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _dirs, names in os.walk(path)
        for name in names
    )


def store_footprint(root: str | os.PathLike) -> dict[str, int]:
    """The store directory's bytes on disk by what they hold (``repro info``).

    ``dictionary`` is ``meta.seg`` plus ``dv_codes.seg`` when present;
    ``total`` is every file under ``root`` — divided by the live triple
    count it is the benchmark's ``disk_bytes_per_triple``.
    """
    ds = DurableStore(root)
    ds.manifest = ds._read_manifest()
    block = ds.manifest["segments"]

    def size(entry: Mapping) -> int:
        return os.path.getsize(os.path.join(ds.gen_dir, entry["file"]))

    return {
        "generation": int(ds.manifest.get("generation", 0)),
        "relations": sum(size(e) for e in block["relations"]),
        "dictionary": sum(size(block[k]) for k in ("meta", "dv_codes") if k in block),
        "catalog": _tree_bytes(os.path.join(ds.root, _catalog.CATALOG_DIR)),
        "wal": _tree_bytes(os.path.join(ds.root, WAL_DIR)),
        "total": _tree_bytes(ds.root),
    }
