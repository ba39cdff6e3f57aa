"""Relation statistics backing the cost-based physical planner.

A :class:`TriplestoreStats` catalog holds, per relation,

* the cardinality ``|R|`` and
* the number of distinct objects at each of the three positions
  (subject, predicate, object),

computed lazily and cached alongside the store's lazy index cache —
stores are immutable by convention, so neither cache ever invalidates,
and a derived store inherits the entries of the relations it shares
with its parent.  Where the store has a columnar view the distincts are
counted on its integer code columns.
The planner (:mod:`repro.core.plan`) uses these numbers to pick hash
join build sides, estimate equality selectivities and decide between a
full scan and an index lookup.

When planning without a store (e.g. ``repro explain`` with no
data file), :data:`DEFAULT_STATS` supplies fixed textbook assumptions so
cost estimates are still well-defined, just unanchored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.triplestore.columnar import sorted_unique

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.triplestore.model import Triplestore

__all__ = ["RelationStats", "TriplestoreStats", "DEFAULT_STATS"]

#: Assumed relation size when no store is available at planning time.
DEFAULT_CARDINALITY = 1000
#: Assumed distinct count per position under the same circumstances.
DEFAULT_DISTINCT = 100


@dataclass(frozen=True)
class RelationStats:
    """Statistics of one ternary relation."""

    name: str
    cardinality: int
    #: Distinct objects at positions 0 (subject), 1 (predicate), 2 (object).
    distinct: tuple[int, int, int]

    def distinct_at(self, position: int) -> int:
        """Distinct objects at one position (0-based)."""
        return self.distinct[position]

    def eq_selectivity(self, position: int) -> float:
        """Estimated fraction of triples matching ``position = const``.

        The uniform-distribution estimate ``1 / distinct`` of classical
        optimizers; 1.0 for an empty relation (no information).
        """
        d = self.distinct[position]
        return 1.0 / d if d else 1.0


class TriplestoreStats:
    """Lazy, cached per-relation statistics of one triplestore.

    Obtained from :meth:`repro.triplestore.model.Triplestore.stats`;
    also constructible directly for testing.
    """

    __slots__ = ("_store", "_cache")

    def __init__(self, store: "Triplestore") -> None:
        self._store = store
        self._cache: dict[str, RelationStats] = {}

    def relation(self, name: str) -> RelationStats:
        """Statistics for ``name``, computed on first use."""
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        cs = self._store._columnar
        if cs is not None:
            # Count on the code columns, one at a time: no tuple is
            # decoded, which for a relation held only as keys would cost
            # more memory than the relation.
            rows = cs.relation_keys(name)
            distinct = tuple(len(sorted_unique(cs.column(rows, i))) for i in range(3))
        else:
            rows = self._store.relation(name)
            distinct = tuple(len({t[i] for t in rows}) for i in range(3))
        stats = RelationStats(name, len(rows), distinct)  # type: ignore[arg-type]
        self._cache[name] = stats
        return stats

    def computed(self) -> dict[str, RelationStats]:
        """Snapshot of the statistics computed so far (persisted by the
        durable-store catalog at close time)."""
        return dict(self._cache)

    def seed(self, entries: "Iterable[RelationStats]") -> None:
        """Prefill the cache — warm reopen from a persisted catalog.

        Seeded entries are trusted as-is; the durable-store catalog only
        offers entries whose relation version still matches.
        """
        for stats in entries:
            self._cache[stats.name] = stats

    # -- tolerant accessors used by the planner ------------------------ #

    def cardinality(self, name: str) -> int:
        """``|R|``, or :data:`DEFAULT_CARDINALITY` for unknown relations.

        Unknown names are *not* an error here: the planner must be able
        to build (and cost) a plan whose execution will then raise the
        proper :class:`~repro.errors.UnknownRelationError`.
        """
        if name not in self._store.relation_names:
            return DEFAULT_CARDINALITY
        return self.relation(name).cardinality

    def distinct(self, name: str, position: int) -> int:
        """Distinct count at a position, with the same unknown-name default."""
        if name not in self._store.relation_names:
            return DEFAULT_DISTINCT
        return self.relation(name).distinct_at(position)

    @property
    def n_objects(self) -> int:
        """The store's ``|O|``."""
        return self._store.n_objects

    @property
    def total_triples(self) -> int:
        """The store's ``|T|`` (all relations)."""
        return len(self._store)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{s.name}:|R|={s.cardinality},d={s.distinct}" for s in self._cache.values()
        )
        return f"TriplestoreStats({parts or 'nothing computed yet'})"


class _DefaultStats:
    """Store-free statistics: fixed assumptions for every relation."""

    n_objects = DEFAULT_DISTINCT
    total_triples = DEFAULT_CARDINALITY

    @staticmethod
    def cardinality(name: str) -> int:
        return DEFAULT_CARDINALITY

    @staticmethod
    def distinct(name: str, position: int) -> int:
        return DEFAULT_DISTINCT

    def __repr__(self) -> str:  # pragma: no cover — cosmetic
        return "DEFAULT_STATS"


#: Shared store-free catalog for planning without data.
DEFAULT_STATS = _DefaultStats()
