"""The durable-store coordinator behind ``Database(path=...)``.

A store directory is::

    <root>/
      MANIFEST                 # JSON: current generation + fold state
      segments/gen-NNNNNN/     # segment files (repro.storage.segments)
      wal/wal.log, wal/COMMIT  # mutations since the manifest's snapshot
      catalog/                 # warm-reopen caches (repro.storage.catalog)

:class:`DurableStore` owns the open/recover/commit/snapshot lifecycle;
:class:`repro.db.Database` drives it:

* **open** — read and check the manifest (:func:`read_manifest`:
  format 7 only, and an older store is refused before anything else is
  read or written), decode the segments into a lazy
  :class:`~repro.storage.segments.SegmentStore`, recover the WAL and
  replay committed records on top, each through the apply half of a
  derivation (:meth:`~repro.triplestore.columnar.ColumnarStore.apply`),
  so a replayed relation stays lazy too.  Relation dependency versions
  are re-derived deterministically (manifest versions + one bump per
  replayed record).  A directory without a manifest is initialised as an
  empty generation-1 store — unless its WAL has a commit pointer, which
  only a commit or snapshot writes: then the manifest was lost, and the
  open is refused.
* **commit** — derive the store's next version from the current one:
  encode the batch against the columnar view (which a durable store
  always has), refuse an object the dictionary segment cannot store,
  apply the batch — then append what was encoded to the WAL (fsync
  before the commit pointer moves).  Only then does :attr:`store` move
  on, and the caller publish it: a batch the store refuses is never
  logged.
* **snapshot** — fold everything into a fresh generation
  (:mod:`repro.storage.snapshot`), then reset the WAL and sweep old
  generations.  The store remembers which objects the current
  generation's files hold, so a snapshot writes only what changed and
  links the rest.  Triggered explicitly (``repro compact``), by the WAL
  size crossing ``REPRO_STORAGE_WAL_LIMIT`` bytes after a commit, and
  on clean close, so a cleanly-closed store always reopens straight
  from its segments with no replay.

No cross-process locking is attempted: one writer per store directory
at a time is the contract (tenants each get their own directory).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import StorageError, StoreCorruptionError, TriplestoreError
from repro.storage import catalog as _catalog
from repro.storage.dictionary import check_storable
from repro.storage.segments import Generation, open_store_segments
from repro.storage.snapshot import MANIFEST_FORMAT, gen_path, sweep_generations, write_snapshot
from repro.storage.wal import WriteAheadLog, read_record
from repro.triplestore.model import Triple, Triplestore, freeze_triples

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.db import Database

__all__ = [
    "DurableStore",
    "WAL_LIMIT_ENV",
    "manifest_problem",
    "parse_manifest",
    "read_manifest",
    "replay_record",
    "store_footprint",
]

#: WAL size (bytes) past which a commit triggers auto-compaction.
WAL_LIMIT_ENV = "REPRO_STORAGE_WAL_LIMIT"
_DEFAULT_WAL_LIMIT = 16 * 1024 * 1024

MANIFEST_NAME = "MANIFEST"
WAL_DIR = "wal"


def _read_wal_limit() -> int:
    """``REPRO_STORAGE_WAL_LIMIT`` in bytes (16 MiB when unset)."""
    raw = os.environ.get(WAL_LIMIT_ENV)
    if raw is None:
        return _DEFAULT_WAL_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = None
    if limit is None or limit < 0:
        raise StorageError(
            f"{WAL_LIMIT_ENV} must be a non-negative int (bytes), got {raw!r}"
        )
    return limit


def _is_count(value: object) -> bool:
    """A non-negative ``int`` (``bool`` is not one)."""
    return type(value) is int and value >= 0


def _is_file_name(value: object) -> bool:
    """A plain file name: no directory part, no ``.``/``..``."""
    return (
        isinstance(value, str)
        and os.path.basename(value) == value
        and value not in ("", ".", "..")
    )


def manifest_problem(manifest: dict) -> str | None:
    """What is wrong with the fields of a format-6 or -7 ``manifest`` (the
    two share every field), if anything."""
    for field in ("generation", "store_version", "wal_seq"):
        if not _is_count(manifest.get(field)):
            return f"has no {field} count (it holds {manifest.get(field)!r})"
    versions = manifest.get("rel_versions")
    if not isinstance(versions, dict) or not all(type(v) is int for v in versions.values()):
        return f"has no map of relation versions (it holds {versions!r})"
    # The next snapshot clears generation + 1's directory as debris: a
    # manifest naming that one would lose its live generation.
    expected = gen_path(manifest["generation"])
    if manifest.get("gen_dir") != expected:
        return f"names generation directory {manifest.get('gen_dir')!r}, not {expected!r}"
    block = manifest.get("segments")
    if not isinstance(block, dict) or not isinstance(block.get("relations"), list):
        return "has no segment map with a list of relations"
    relations = block["relations"]
    entries = [block.get("meta"), *relations]
    if "dv_codes" in block:
        entries.append(block["dv_codes"])
    for entry in entries:
        if not isinstance(entry, dict) or not _is_file_name(entry.get("file")):
            return f"has a segment entry without a file name: {entry!r}"
    names = [entry.get("name") for entry in relations]
    if not all(isinstance(name, str) for name in names) or len(set(names)) < len(names):
        return f"has relation entries without distinct names: {names!r}"
    return None


def parse_manifest(root: str | os.PathLike) -> tuple[str, dict]:
    """The path and the JSON object of ``root``'s manifest, whose format
    number is a count; nothing else is checked.

    Raises ``FileNotFoundError`` when there is none and
    :class:`StoreCorruptionError` when it does not parse.
    """
    path = os.path.join(os.fspath(root), MANIFEST_NAME)
    with open(path, "rb") as fp:
        raw = fp.read()
    try:
        manifest = json.loads(raw)
    except ValueError as exc:
        raise StoreCorruptionError(f"store manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise StoreCorruptionError(f"store manifest {path} is not a JSON object")
    if not _is_count(manifest.get("format")):
        raise StoreCorruptionError(
            f"store manifest {path} has no format number (it holds {manifest.get('format')!r})"
        )
    return path, manifest


def read_manifest(root: str | os.PathLike) -> dict:
    """The manifest of the store directory ``root``, every field checked.

    Raises ``FileNotFoundError`` when there is none;
    :class:`StorageError` for a store of an older manifest format, which
    this build does not read — nothing else under ``root`` has been read
    or written then, and the message gives the upgrade; and
    :class:`StoreCorruptionError` for a manifest that does not parse,
    is of a newer format, or holds a field of the wrong shape.
    """
    root = os.fspath(root)
    path, manifest = parse_manifest(root)
    version = manifest["format"]
    if version > MANIFEST_FORMAT:
        raise StoreCorruptionError(
            f"store {root} is manifest format v{version}; this build reads "
            f"v{MANIFEST_FORMAT} only"
        )
    if version < MANIFEST_FORMAT:
        raise StorageError(
            f"store {root} is manifest format {version}; this build reads format "
            f"{MANIFEST_FORMAT} only.  Upgrade it in place with `repro upgrade "
            "STORE`, which rewrites a format-6 store exactly (a format-5 store "
            "first needs `repro upgrade STORE` under the last 6.x build, and one "
            "older than format 5 `repro compact` under the last 4.x build before that)."
        )
    problem = manifest_problem(manifest)
    if problem is not None:
        raise StoreCorruptionError(f"store manifest {path} {problem}")
    return manifest


def replay_record(
    store: Triplestore, seq: int, payload: bytes, where: str
) -> tuple[Triplestore, tuple[str, ...]]:
    """``store`` with WAL record ``seq`` (read from ``where``) replayed on
    top, and the relations it replaced; any defect raises
    :class:`StoreCorruptionError`.

    The record is checked against ``store``'s dictionary and applied as
    its commit applied it, its relations left undecoded.
    """
    label = f"seq={seq} in {where}"
    record = read_record(payload, where=label)
    names = tuple(record.keys)
    try:
        batch = store.columnar().logged(*record)
        relations = {**store._relations, **dict.fromkeys(names)}
        return store._derive(relations, names, batch=batch), names
    except (ValueError, TypeError, TriplestoreError) as exc:
        raise StoreCorruptionError(f"WAL record {label} does not apply: {exc}") from exc


class DurableStore:
    """One on-disk store directory: segments + WAL + catalog."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        self.manifest: dict | None = None
        self.generation = 0
        self.wal: WriteAheadLog | None = None
        #: Set by :meth:`open`: the recovered store and its dependency
        #: versions (the Database seeds its own from these).  Each
        #: :meth:`commit` moves :attr:`store` on to the version it logged.
        self.store: Triplestore | None = None
        self.rel_versions: dict[str, int] = {}
        self.store_version = 0
        #: The generation on disk and the objects its files hold.
        self._current: Generation | None = None
        #: Set by :meth:`open`, so a commit never reads the environment.
        self._wal_limit = _DEFAULT_WAL_LIMIT

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    # ------------------------------------------------------------------ #
    # Open / recover
    # ------------------------------------------------------------------ #

    @property
    def gen_dir(self) -> str:
        """The current generation's directory."""
        return os.path.join(self.root, *self.manifest["gen_dir"].split("/"))

    def _remember(self, store: Triplestore) -> None:
        """``store`` is what the manifest's generation holds on disk."""
        self._current = Generation(self.gen_dir, self.manifest["segments"], store)

    def open(self) -> Triplestore:
        """Open (or initialise) the directory; returns the current store.

        Raises :class:`StorageError` for a store of an older manifest
        format (see :func:`read_manifest`), and
        :class:`StoreCorruptionError` when the committed state on disk
        cannot be trusted — the manifest of a store that committed is
        gone, say; a torn WAL tail is repaired silently.  A
        ``REPRO_STORAGE_WAL_LIMIT`` that is not a non-negative integer
        raises :class:`StorageError` before anything is read.
        """
        self._wal_limit = _read_wal_limit()
        os.makedirs(self.root, exist_ok=True)
        try:
            manifest = read_manifest(self.root)
        except FileNotFoundError:
            manifest = None
        if manifest is not None:
            self.manifest = manifest
            try:
                store: Triplestore = open_store_segments(self.gen_dir, manifest["segments"])
            except FileNotFoundError as exc:
                raise StoreCorruptionError(
                    f"store {self.root} references a missing segment: {exc}"
                ) from exc
            self.generation = manifest["generation"]
            self.rel_versions = dict(manifest["rel_versions"])
            self.store_version = manifest["store_version"]
            wal_seq = manifest["wal_seq"]
        elif os.path.exists(os.path.join(self.root, WAL_DIR, WriteAheadLog.COMMIT)):
            raise StoreCorruptionError(
                f"store {self.root} has a WAL commit pointer but no "
                f"{MANIFEST_NAME}: the snapshot its log continues is lost"
            )
        else:
            # Fresh directory: lay down an empty generation-1 snapshot so
            # the store is fsck-able and reopenable from the first moment,
            # and serve it from its segments like any other.
            self.generation = 1
            self.rel_versions = {}
            self.store_version = 0
            wal_seq = 0
            self.manifest = write_snapshot(
                self.root,
                Triplestore(),
                generation=1,
                rel_versions={},
                store_version=0,
                wal_seq=0,
            )
            store = open_store_segments(self.gen_dir, self.manifest["segments"])
        self._remember(store)
        self.wal = WriteAheadLog(os.path.join(self.root, WAL_DIR))
        log = self.wal.log_path
        for seq, payload in self.wal.recover(min_seq=wal_seq):
            store, names = replay_record(store, seq, payload, log)
            for name in names:
                self.rel_versions[name] = self.rel_versions.get(name, 0) + 1
            self.store_version += 1
        self.store = store
        return store

    # ------------------------------------------------------------------ #
    # Commit / compaction
    # ------------------------------------------------------------------ #

    def commit(self, mutations: Mapping[str, Iterable[Triple]]) -> int:
        """Durably commit one mutation batch; returns its WAL sequence.

        The batch is encoded once against :attr:`store`'s columnar view,
        type-checked, applied — and only then logged, as it was encoded;
        :attr:`store` becomes the derived version after the record is
        durable.  A batch holding an object the dictionary segment cannot
        store raises :class:`~repro.errors.StorageError`, one that
        outgrows the packed-key range
        :class:`~repro.errors.TriplestoreError`, both before anything is
        logged: the WAL must not accept what the store refuses.
        """
        return self._commit_frozen(
            {str(name): freeze_triples(triples) for name, triples in mutations.items()}
        )

    def _commit_frozen(self, frozen: Mapping[str, "frozenset[Triple]"]) -> int:
        """:meth:`commit` of relations already coerced to frozensets of
        3-tuples (``Database`` validates before it stages, once)."""
        assert self.wal is not None and self.store is not None, "store is not open"
        store = self.store
        batch = store.columnar().encode(frozen)
        check_storable(batch.relations, batch.types)
        derived = store._derive(
            {**store._relations, **batch.relations}, tuple(frozen), batch=batch
        )
        seq = self.wal.append(batch)
        self.store = derived
        return seq

    def snapshot(
        self,
        store: Triplestore,
        rel_versions: Mapping[str, int],
        store_version: int,
    ) -> None:
        """Fold the WAL into a fresh segment generation (compaction);
        ``store`` becomes the version the next :meth:`commit` derives from."""
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
        self.store = store
        self.generation = generation
        # The manifest referencing the new generation is durable; now the
        # WAL records it folded — and the old generations — can go.
        self.wal.reset(wal_seq)
        sweep_generations(self.root, generation)

    def maybe_compact(self, db: "Database") -> bool:
        """Auto-compact when the WAL outgrows its limit; True if it did."""
        if self.wal is not None and self.wal.size > self._wal_limit:
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
    ds.manifest = read_manifest(ds.root)
    block = ds.manifest["segments"]

    def size(entry: Mapping) -> int:
        return os.path.getsize(os.path.join(ds.gen_dir, entry["file"]))

    return {
        "generation": ds.manifest["generation"],
        "relations": sum(size(e) for e in block["relations"]),
        "dictionary": sum(size(block[k]) for k in ("meta", "dv_codes") if k in block),
        "catalog": _tree_bytes(os.path.join(ds.root, _catalog.CATALOG_DIR)),
        "wal": _tree_bytes(os.path.join(ds.root, WAL_DIR)),
        "total": _tree_bytes(ds.root),
    }
