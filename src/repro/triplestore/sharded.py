"""Hash-sharded view of the columnar triplestore encoding.

The ROADMAP's scale-out item: partition each relation's sorted
packed-key array (:mod:`repro.triplestore.columnar`) into ``k`` shards
by hash of one triple position — the *partition key*, subject by
default — so that joins, set operations and fixpoints can run
shard-wise (:mod:`repro.core.engines.sharded`).

Design rules, shared with the executor:

* A :class:`ShardedColumnarStore` wraps — never copies — the parent
  :class:`~repro.triplestore.columnar.ColumnarStore`.  Dictionary
  encoding lives on the parent, so integer codes are comparable across
  shards and a shard-wise merge join needs no re-encoding.
* The shard of a triple is ``code(position) % k`` on the partition key
  position.  Hashing integer codes directly is enough: codes are dense
  and the partitioner only needs *consistency*, not uniformity.
* Each shard is itself a sorted unique packed-key array (partitioning a
  sorted array by a row predicate preserves order), so the per-shard
  algebra is exactly the parent's sorted-array algebra
  (:func:`~repro.triplestore.columnar.sorted_unique` and friends).
* Because equal triples agree on every position, a relation partitioned
  on *any* position has pairwise-disjoint shards whose union is the
  relation — the invariant the executor maintains for every
  intermediate result.

Everything here is derived data over an immutable store, built lazily
and cached per ``(shards, key_pos)`` via :meth:`Triplestore.sharded`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TriplestoreError
from repro.triplestore.columnar import ColumnarStore

__all__ = ["ShardedColumnarStore"]

#: Triple positions a relation can be partitioned on (0=s, 1=p, 2=o).
PARTITION_POSITIONS = (0, 1, 2)


class ShardedColumnarStore:
    """A ``k``-way hash partition of every relation's packed-key array.

    Attributes
    ----------
    cs:
        The parent columnar store (owns the dictionary encoding).
    k:
        Number of shards.
    key_pos:
        The triple position stored relations are partitioned on
        (0 = subject by default).
    """

    __slots__ = ("cs", "k", "key_pos", "_shards", "_columns")

    def __init__(self, cs: ColumnarStore, shards: int, key_pos: int = 0) -> None:
        if shards < 1:
            raise TriplestoreError(f"shard count must be >= 1, got {shards}")
        if key_pos not in PARTITION_POSITIONS:
            raise TriplestoreError(
                f"partition key position must be one of {PARTITION_POSITIONS}, "
                f"got {key_pos}"
            )
        self.cs = cs
        self.k = int(shards)
        self.key_pos = int(key_pos)
        self._shards: dict[str, list[np.ndarray]] = {}
        self._columns: dict[str, list[np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Partitioning primitives (shared with the executor)
    # ------------------------------------------------------------------ #

    def component(self, keys: np.ndarray, pos: int) -> np.ndarray:
        """The code column at triple position ``pos`` of packed ``keys``."""
        n = self.cs.radix
        if pos == 2:
            return keys % n
        if pos == 1:
            return (keys // n) % n
        return keys // (n * n)

    def shard_ids(self, keys: np.ndarray, pos: int) -> np.ndarray:
        """The shard of each packed key when partitioning on ``pos``."""
        return self.component(keys, pos) % self.k

    def partition(self, keys: np.ndarray, pos: int) -> list[np.ndarray]:
        """Split a sorted unique key array into ``k`` shards on ``pos``.

        Each output shard is again sorted unique (filtering preserves
        order), and the shards are pairwise disjoint by construction.
        """
        if self.k == 1:
            return [keys]
        ids = self.shard_ids(keys, pos)
        return [keys[ids == s] for s in range(self.k)]

    # ------------------------------------------------------------------ #
    # Relations
    # ------------------------------------------------------------------ #

    @property
    def relation_names(self) -> tuple[str, ...]:
        return self.cs.relation_names

    def relation_shards(self, name: str) -> list[np.ndarray]:
        """Relation ``name`` as ``k`` sorted key arrays, cached.

        Raises :class:`~repro.errors.UnknownRelationError` for missing
        names (via the parent store).
        """
        cached = self._shards.get(name)
        if cached is None:
            cached = self.partition(self.cs.relation_keys(name), self.key_pos)
            for shard in cached:  # cached and handed to every query: immutable
                shard.setflags(write=False)
            self._shards[name] = cached
        return cached

    def shard_columns(self, name: str) -> list[np.ndarray]:
        """Relation ``name`` as per-shard ``(N, 3)`` code-column blocks.

        Cached, so repeated base-relation lookups of the sharded
        exchange do not re-unpack the packed keys.
        """
        cached = self._columns.get(name)
        if cached is None:
            cached = [self.cs.unpack(shard) for shard in self.relation_shards(name)]
            for block in cached:
                block.setflags(write=False)
            self._columns[name] = cached
        return cached

    def active_codes(self) -> np.ndarray:
        """Codes of objects occurring in some stored triple (domain of U).

        The union of a relation's shards is the relation, so this is
        exactly the parent's (cached, :func:`sorted_unique`-merged)
        active set — delegating avoids re-unpacking every shard and a
        duplicate cached array per ``(shards, key_pos)`` view.
        """
        return self.cs.active_codes()

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{name}:{len(self.cs.relation_keys(name))}"
            for name in self.relation_names
        )
        return (
            f"ShardedColumnarStore(k={self.k}, key_pos={self.key_pos}, "
            f"|O|={self.cs.n}, {rels})"
        )
