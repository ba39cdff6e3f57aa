"""n-ary generalisation of triplestores (Section 7, future work).

The paper: *"Our algebras deal with triples, but we can define similar
algebras for n-tuples, for any fixed n.  If n = 2, we get the standard
relation algebra […]. For n = 3 […] we would like to see what the
connection is for arbitrary n."*

:class:`NaryStore` holds relations of one fixed arity ``k`` plus the
data-value function ρ, exactly like Definition 1 with 3 replaced by k.
For ``k == 3`` it is interconvertible with :class:`~repro.triplestore.model.Triplestore`
(tested), so the n-ary engine doubles as an independent implementation
of the paper's core semantics.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from typing import Any

from repro.errors import TriplestoreError, UnknownRelationError
from repro.triplestore.model import Triplestore

Tuple_ = tuple


class NaryStore:
    """A database of k-ary relations over objects with data values."""

    __slots__ = ("arity", "_relations", "_rho", "_objects")

    def __init__(
        self,
        arity: int,
        relations: Mapping[str, Iterable[tuple]],
        rho: Mapping[Hashable, Any] | None = None,
        extra_objects: Iterable[Hashable] = (),
    ) -> None:
        if arity < 1:
            raise TriplestoreError(f"arity must be positive, got {arity}")
        self.arity = arity
        rel_map: dict[str, frozenset[tuple]] = {}
        objects: set = set(extra_objects)
        for name, rows in relations.items():
            frozen = set()
            for row in rows:
                row = tuple(row)
                if len(row) != arity:
                    raise TriplestoreError(
                        f"relation {name!r} expects {arity}-tuples, got {row!r}"
                    )
                frozen.add(row)
                objects.update(row)
            rel_map[str(name)] = frozenset(frozen)
        if not rel_map:
            rel_map = {"E": frozenset()}
        self._relations = rel_map
        self._rho = dict(rho or {})
        self._objects = frozenset(objects)

    # ------------------------------------------------------------------ #

    @property
    def objects(self) -> frozenset:
        return self._objects

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def relation(self, name: str) -> frozenset[tuple]:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name, self.relation_names) from None

    def rho(self, obj: Hashable) -> Any:
        return self._rho.get(obj)

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._relations.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NaryStore):
            return NotImplemented
        return (
            self.arity == other.arity
            and self._relations == other._relations
            and self._rho == other._rho
            and self._objects == other._objects
        )

    def __hash__(self) -> int:
        return hash(
            (self.arity, frozenset(self._relations.items()), frozenset(self._rho.items()))
        )

    def __repr__(self) -> str:
        rels = ", ".join(f"{n}:{len(r)}" for n, r in self._relations.items())
        return f"NaryStore(k={self.arity}, |O|={len(self._objects)}, {rels})"

    # ------------------------------------------------------------------ #

    @classmethod
    def from_triplestore(cls, store: Triplestore) -> "NaryStore":
        """View a triplestore as the k = 3 case."""
        return cls(
            3,
            {name: store.relation(name) for name in store.relation_names},
            store.rho_map(),
            store.objects,
        )

    def to_triplestore(self) -> Triplestore:
        """Only for k = 3."""
        if self.arity != 3:
            raise TriplestoreError(f"cannot view arity-{self.arity} store as triples")
        return Triplestore(
            {name: self.relation(name) for name in self.relation_names},
            self._rho,
            self._objects,
        )
