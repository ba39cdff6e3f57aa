"""Hash-sharded view of the columnar triplestore encoding.

Partitions each relation's sorted packed-key array
(:mod:`repro.triplestore.columnar`) into ``k`` shards by hash of its
subject, so that joins, set operations and fixpoints can run shard-wise
(:mod:`repro.core.engines.sharded`).

Design rules, shared with the executor:

* A :class:`ShardedColumnarStore` wraps — never copies — the parent
  :class:`~repro.triplestore.columnar.ColumnarStore`.  Dictionary
  encoding lives on the parent, so integer codes are comparable across
  shards and a shard-wise merge join needs no re-encoding.
* The shard of a triple is ``code(position) % k`` on the position a
  result is partitioned on — the subject for stored relations.  Hashing
  integer codes directly is enough: codes are dense and the partitioner
  only needs *consistency*, not uniformity.
* Each shard is itself a sorted unique packed-key array (partitioning a
  sorted array by a row predicate preserves order), so the per-shard
  algebra is exactly the parent's sorted-array algebra
  (:func:`~repro.triplestore.columnar.sorted_unique` and friends).
* Because equal triples agree on every position, a relation partitioned
  on *any* position has pairwise-disjoint shards whose union is the
  relation — the invariant the executor maintains for every
  intermediate result.

Everything here is derived data over an immutable store, built lazily
and cached per shard count via :meth:`Triplestore.sharded`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TriplestoreError
from repro.triplestore.columnar import ColumnarStore

__all__ = ["ShardedColumnarStore"]


class ShardedColumnarStore:
    """A ``k``-way hash partition of every relation's packed-key array,
    on the subject.

    Attributes
    ----------
    cs:
        The parent columnar store (owns the dictionary encoding).
    k:
        Number of shards.
    """

    __slots__ = ("cs", "k", "_shards")

    def __init__(self, cs: ColumnarStore, shards: int) -> None:
        if shards < 1:
            raise TriplestoreError(f"shard count must be >= 1, got {shards}")
        self.cs = cs
        self.k = int(shards)
        self._shards: dict[str, list[np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Partitioning primitives (shared with the executor)
    # ------------------------------------------------------------------ #

    def shard_ids(self, keys: np.ndarray, pos: int) -> np.ndarray:
        """The shard of each packed key when partitioning on ``pos``."""
        return self.cs.column(keys, pos) % self.k

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

    def relation_shards(self, name: str) -> list[np.ndarray]:
        """Relation ``name`` as ``k`` sorted key arrays, cached.

        Raises :class:`~repro.errors.UnknownRelationError` for missing
        names (via the parent store).
        """
        cached = self._shards.get(name)
        if cached is None:
            cached = self.partition(self.cs.relation_keys(name), 0)
            for shard in cached:  # cached and handed to every query: immutable
                shard.setflags(write=False)
            self._shards[name] = cached
        return cached

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{name}:{len(self.cs.relation_keys(name))}"
            for name in self.cs.relation_names
        )
        return f"ShardedColumnarStore(k={self.k}, |O|={self.cs.n}, {rels})"
