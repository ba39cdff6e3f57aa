"""The triplestore data model (Definition 1 of the paper).

A *triplestore database* is a tuple ``T = (O, E1, ..., En, rho)`` where

* ``O`` is a finite set of objects,
* each ``Ei`` is a set of triples over ``O x O x O``, and
* ``rho : O -> D`` assigns a data value to each object.

Objects may be any hashable Python values (strings in all the paper's
examples).  Data values likewise; the paper also allows tuples of values
(the social network of Section 2.3 uses quintuples) and our ``rho`` does
too since tuples are hashable.  ``O`` is a set, so it holds one object
per ``==`` class (``1``, ``True`` and ``1.0`` are one); which spelling a
store keeps is :mod:`repro.triplestore.identity`'s rule, applied to
every triple a store takes in.

The model is deliberately closed under query evaluation: the result of a
TriAL expression is a plain ``frozenset`` of triples over ``O`` that can be
installed back into a store with :meth:`Triplestore.with_relation`, making
composition (the paper's closure property) a one-liner.

Stores are immutable, so a derived store (``with_relation[s]``,
``add_triple``, ``with_rho``, ``restrict``) is a *structural-sharing
version* of its parent: it reuses the parent's frozensets, object set, ρ
dictionary, hash indexes, statistics and columnar arrays for everything
the derivation did not touch.  Deriving costs what the delta costs, and
a chain of versions (one per commit) holds one copy of what they have in
common.
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Iterable, Iterator, Mapping
from itertools import chain
from typing import Any

from repro.errors import TriplestoreError, UnknownRelationError
from repro.triplestore.identity import objects_of, respell, respellings

Obj = Hashable
Triple = tuple[Any, Any, Any]

#: Default relation name used throughout the paper ("often we have just a
#: single ternary relation E").
DEFAULT_RELATION = "E"


def _as_triple(item: Iterable[Any]) -> Triple:
    """Coerce ``item`` into a 3-tuple, raising a helpful error otherwise."""
    triple = tuple(item)
    if len(triple) != 3:
        raise TriplestoreError(f"triples must have exactly 3 components, got {triple!r}")
    return triple


def _collected(triples: Iterable[Iterable[Any]]) -> Collection[Iterable[Any]]:
    """``triples``, read once into a list unless it is a collection."""
    return triples if isinstance(triples, Collection) else list(triples)


def _frozen(triples: Collection[Iterable[Any]]) -> frozenset[Triple]:
    """``triples`` as a frozenset of 3-tuples (:func:`_as_triple` of each),
    spelled as the set kept them: of equal triples, the first.

    A batch that already is hashable 3-tuples — the common case — is
    checked by type and length over the deduplicated set instead of
    being rebuilt triple by triple.
    """
    try:
        frozen = frozenset(triples)
    except TypeError:  # an unhashable item (a list, say): coerce each
        return frozenset(map(_as_triple, triples))
    if not (set(map(type, frozen)) <= {tuple} and set(map(len, frozen)) <= {3}):
        frozen = frozenset(map(_as_triple, frozen))
    return frozen


def freeze_triples(triples: Iterable[Iterable[Any]]) -> frozenset[Triple]:
    """``triples`` as a frozenset of 3-tuples (:func:`_as_triple` of each).

    Where two equal triples spell an object apart (``(1, 'p', 'a')`` and
    ``(True, 'p', 'a')``), the kept triple spells it as
    :func:`~repro.triplestore.identity.respellings` says, not as the
    first one did.
    """
    triples = _collected(triples)
    frozen = _frozen(triples)
    if len(frozen) < len(triples):  # equal triples met: weigh every spelling
        types = set(map(type, objects_of([triples])))
        renames = respellings(objects_of([triples]), types)
        if renames:
            frozen = respell(triples, renames)
    return frozen


class Triplestore:
    """An immutable-by-convention triplestore database.

    Parameters
    ----------
    relations:
        Either an iterable of triples (installed under
        :data:`DEFAULT_RELATION`) or a mapping ``name -> iterable of
        triples`` for multi-relation stores.
    rho:
        Optional mapping from objects to data values.  Objects without an
        entry have data value ``None`` (the paper's ``⊥``).
    extra_objects:
        Objects that belong to ``O`` without occurring in any triple (the
        model permits this; e.g. isolated graph nodes).

    Examples
    --------
    >>> t = Triplestore([("a", "p", "b")], rho={"a": 1, "b": 1})
    >>> ("a", "p", "b") in t.relation("E")
    True
    >>> sorted(t.objects)
    ['a', 'b', 'p']
    """

    __slots__ = (
        "_relations",
        "_rho",
        "_objects",
        "_indexes",
        "_stats",
        "_columnar",
        "_sharded",
        "_types",
    )

    def __init__(
        self,
        relations: Mapping[str, Iterable[Triple]] | Iterable[Triple] | None = None,
        rho: Mapping[Obj, Any] | None = None,
        extra_objects: Iterable[Obj] = (),
    ) -> None:
        if relations is None:
            batches: dict = {}
        elif isinstance(relations, Mapping):
            batches = {str(name): _collected(t) for name, t in relations.items()}
        else:
            batches = {DEFAULT_RELATION: _collected(relations)}
        batches = batches or {DEFAULT_RELATION: ()}
        rel_map: dict[str, frozenset[Triple]] = {
            name: _frozen(triples) for name, triples in batches.items()
        }

        # Every spelling given is weighed, in one respellings call: a batch
        # whose set dropped equal triples is read as given (each item a
        # 3-item iterable, as _frozen checked), so that a spelling the set
        # did not keep still counts.
        extra_objects = tuple(extra_objects)
        given = [
            rel if len(rel) == len(batches[name]) else batches[name]
            for name, rel in rel_map.items()
        ]
        types = set(map(type, chain(extra_objects, objects_of(given))))
        renames = respellings(chain(extra_objects, objects_of(given)), types)
        if renames:
            rel_map = {name: respell(g, renames) for name, g in zip(rel_map, given)}
            extra_objects = tuple(map(renames.get, extra_objects, extra_objects))
        objects = frozenset(chain(extra_objects, objects_of(rel_map.values())))

        self._relations: dict[str, frozenset[Triple]] = rel_map
        self._rho: dict[Obj, Any] = dict(rho or {})
        self._objects: frozenset[Obj] = objects
        #: The exact types of the universe's objects, kept on the set
        #: path (a columnar dictionary knows its own).
        self._types: frozenset[type] | None = (
            frozenset(map(type, objects)) if renames else frozenset(types)
        )
        self._indexes: dict[tuple[str, tuple[int, ...]], dict[tuple, list[Triple]]] = {}
        self._stats = None
        self._columnar = None
        self._sharded: dict = {}

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def objects(self) -> frozenset[Obj]:
        """The finite object set ``O``."""
        if self._objects is None:
            self._objects = frozenset(self._columnar.objects)
        return self._objects

    def _universe(self) -> Collection[Obj]:
        """``O`` as something to ask ``in`` and ``len`` of.

        A store opened from segments starts with ``_objects = None``: its
        columnar dictionary already holds the universe, once, as an
        object array with a hash index over it
        (:class:`~repro.triplestore.dictionary.ObjectIndex`, a set-like
        view), and a second copy as a frozenset is built only when
        :attr:`objects`, ``==`` or ``hash`` ask for one.
        """
        return self._columnar.universe() if self._objects is None else self._objects

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Names of the ternary relations, in insertion order."""
        return tuple(self._relations)

    def relation(self, name: str = DEFAULT_RELATION) -> frozenset[Triple]:
        """The set of triples of relation ``name``.

        Raises :class:`UnknownRelationError` for missing names.
        """
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name, self.relation_names) from None

    def rho(self, obj: Obj) -> Any:
        """The data value ρ(obj); ``None`` when unassigned (paper's ⊥)."""
        return self._rho.get(obj)

    def rho_map(self) -> dict[Obj, Any]:
        """A copy of the full data-value assignment."""
        return dict(self._rho)

    def all_triples(self) -> frozenset[Triple]:
        """Union of all relations (used for the active domain of U)."""
        out: set[Triple] = set()
        for triples in self._relations.values():
            out.update(triples)
        return frozenset(out)

    def __contains__(self, triple: Triple) -> bool:
        return any(triple in rel for rel in self._relations.values())

    def __iter__(self) -> Iterator[Triple]:
        for triples in self._relations.values():
            yield from triples

    def __len__(self) -> int:
        """Total number of triples, the paper's ``|T|``."""
        return sum(len(rel) for rel in self._relations.values())

    @property
    def size(self) -> int:
        """Alias for ``len(self)`` matching the paper's ``|T|`` notation."""
        return len(self)

    @property
    def n_objects(self) -> int:
        """The paper's ``|O|``."""
        return len(self._universe())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triplestore):
            return NotImplemented
        return (
            self._relations == other._relations
            and self.objects == other.objects
            and self._rho == other._rho
        )

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self._relations.items()),
                self.objects,
                frozenset(self._rho.items()),
            )
        )

    def __repr__(self) -> str:
        rels = ", ".join(f"{n}:{len(t)}" for n, t in self._relations.items())
        return f"Triplestore(|O|={self.n_objects}, {rels})"

    # ------------------------------------------------------------------ #
    # Derived stores (closure / composition support)
    # ------------------------------------------------------------------ #

    def _derive(
        self,
        relations: dict[str, "frozenset[Triple] | None"],
        replaced: Collection[str] = (),
        rho: dict[Obj, Any] | None = None,
        batch: "EncodedBatch | None" = None,
    ) -> "Triplestore":
        """A version of this store that shares what it does not change.

        ``relations`` is the derived store's full relation dictionary;
        ``replaced`` names the entries whose content is new, every other
        entry is this store's own object.  ``rho`` replaces the
        data-value function when given.  Objects are retained, so the
        universe only grows; the replaced relations are spelled by
        :func:`~repro.triplestore.identity.respellings` (this store's
        objects win) — on the columnar path by
        :meth:`ColumnarStore.encode`, whose ``batch.relations`` a caller
        that passes ``batch`` installs.

        The derived store shares this store's frozensets, object set, ρ
        dictionary, hash indexes and computed statistics for every
        relation it keeps, and — when this store has a columnar view —
        gets a view that shares the dictionary and the kept relations'
        arrays (:meth:`ColumnarStore.apply` of ``batch``, the replaced
        relations encoded against this store's view — by
        :meth:`ColumnarStore.encode` unless the caller already holds
        it).  A store that never asked for :meth:`columnar` derives
        stores that have none either.
        """
        if not relations:
            relations, replaced = {DEFAULT_RELATION: frozenset()}, (DEFAULT_RELATION,)
        child = object.__new__(type(self))
        child._rho = self._rho if rho is None else rho
        if self._columnar is None:
            new = [relations[name] for name in replaced]
            types = set(map(type, objects_of(new)))
            renames = respellings(objects_of(new), types, self._objects, self._types)
            if renames:
                new = [respell(triples, renames) for triples in new]
                relations = {**relations, **dict(zip(replaced, new))}
            fresh: Collection[Obj] = set(objects_of(new))
            fresh -= self._objects
            child._relations = relations
            child._columnar = None
            child._types = self._types.union(map(type, fresh))
        else:
            view = self._columnar
            if batch is None:
                batch = view.encode({name: relations[name] for name in replaced})
                relations = {**relations, **batch.relations}
            child._relations = relations
            child._columnar = view.apply(child, batch, rho is not None)
            fresh = batch.fresh.objects
            child._types = None
        # (A universe nobody asked for yet stays unbuilt in the child: its
        # view's dictionary grew by the same new objects.)
        child._objects = (
            self._objects.union(fresh)
            if len(fresh) and self._objects is not None
            else self._objects
        )
        # (Snapshots of the caches: a concurrent reader may be filling them.)
        child._indexes = {
            key: idx
            for key, idx in list(self._indexes.items())
            if key[0] in relations and key[0] not in replaced
        }
        child._stats = None
        if self._stats is not None:
            child.stats().seed(
                s
                for s in self._stats.computed().values()
                if s.name in relations and s.name not in replaced
            )
        child._sharded = {}
        return child

    def with_relations(
        self, mapping: Mapping[str, Iterable[Triple]]
    ) -> "Triplestore":
        """A new store with every ``name`` of ``mapping`` (re)bound.

        This is how query results are composed back into stores: the
        closure property of TriAL means any expression result is a valid
        relation for a new store.  One derivation for the whole mapping
        — a batch or a WAL record is one store version; the relations it
        does not name are shared with this store, not rebuilt.
        """
        return self._with_frozen(
            {
                str(name): freeze_triples(triples) for name, triples in mapping.items()
            }
        )

    def _with_frozen(self, frozen: Mapping[str, "frozenset[Triple]"]) -> "Triplestore":
        """:meth:`with_relations` for relations already coerced to frozensets
        of 3-tuples (``Database`` validates before it logs, once)."""
        return self._derive({**self._relations, **frozen}, tuple(frozen))

    def with_relation(self, name: str, triples: Iterable[Triple]) -> "Triplestore":
        """A new store with ``name`` (re)bound to ``triples``."""
        return self.with_relations({name: triples})

    def add_triple(self, triple: Triple, name: str = DEFAULT_RELATION) -> "Triplestore":
        """A new store with ``triple`` added to relation ``name``.

        Mutation-by-derivation: the original store — and its cached
        indexes, statistics and columnar view — is untouched; the derived
        store shares them for every other relation.

        >>> t = Triplestore([("a", "p", "b")])
        >>> t2 = t.add_triple(("b", "p", "c"))
        >>> len(t), len(t2)
        (1, 2)
        """
        existing = self.relation(name) if name in self._relations else frozenset()
        return self.with_relation(name, existing | {_as_triple(triple)})

    def with_rho(self, rho: Mapping[Obj, Any]) -> "Triplestore":
        """A new store with the data-value function replaced."""
        return self._derive(dict(self._relations), rho=dict(rho or {}))

    def restrict(self, names: Iterable[str]) -> "Triplestore":
        """A new store keeping only the given relations (objects retained).

        Raises :class:`UnknownRelationError` for missing names, like
        :meth:`relation` and :meth:`index`.
        """
        keep = {}
        for name in names:
            if name not in self._relations:
                raise UnknownRelationError(name, self.relation_names)
            keep[name] = self._relations[name]
        return self._derive(keep)

    # ------------------------------------------------------------------ #
    # Indexes
    # ------------------------------------------------------------------ #

    def index(self, name: str, positions: tuple[int, ...]) -> dict[tuple, list[Triple]]:
        """A hash index of relation ``name`` keyed on the given positions.

        Positions are 0-based (0 = subject, 1 = predicate, 2 = object).
        Indexes are built lazily and cached; stores are treated as
        immutable so the cache never invalidates.

        >>> t = Triplestore([("a", "p", "b"), ("a", "q", "c")])
        >>> sorted(t.index("E", (0,))[("a",)])
        [('a', 'p', 'b'), ('a', 'q', 'c')]
        """
        key = (name, positions)
        cached = self._indexes.get(key)
        if cached is not None:
            return cached
        idx: dict[tuple, list[Triple]] = {}
        for triple in self.relation(name):
            idx.setdefault(tuple(triple[p] for p in positions), []).append(triple)
        self._indexes[key] = idx
        return idx

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def stats(self) -> "TriplestoreStats":
        """The store's statistics catalog (lazy, cached like indexes).

        >>> t = Triplestore([("a", "p", "b"), ("a", "q", "c")])
        >>> t.stats().cardinality("E"), t.stats().distinct("E", 0)
        (2, 1)
        """
        if self._stats is None:
            from repro.triplestore.stats import TriplestoreStats

            self._stats = TriplestoreStats(self)
        return self._stats

    def columnar(self) -> "ColumnarStore":
        """The store's columnar (array-encoded) view, built lazily.

        Like indexes and statistics this is derived, cached data over an
        immutable store — shared by every vectorised execution against it.
        """
        if self._columnar is None:
            from repro.triplestore.columnar import ColumnarStore

            self._columnar = ColumnarStore(self)
        return self._columnar

    def sharded(self, shards: int) -> "ShardedColumnarStore":
        """A subject-partitioned view of the columnar encoding, built lazily.

        Shares the dictionary encoding of :meth:`columnar` (codes are
        comparable across shards) and is cached per shard count like
        every other derived view of the immutable store.
        """
        cached = self._sharded.get(shards)
        if cached is None:
            from repro.triplestore.sharded import ShardedColumnarStore

            cached = self._sharded[shards] = ShardedColumnarStore(self.columnar(), shards)
        return cached

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_pairs_of_relations(
        cls, **relations: Iterable[Triple]
    ) -> "Triplestore":
        """Keyword-argument constructor: ``Triplestore.from_pairs_of_relations(E=[...], F=[...])``."""
        return cls(dict(relations))

    @classmethod
    def empty(cls) -> "Triplestore":
        """A store with one empty relation and no objects."""
        return cls()
