"""Array-backed ("columnar") representation of triplestores.

The paper's complexity results are stated over array representations of a
triplestore (Section 5's cubic matrices); :class:`MatrixStore` realises
the dense cubic form verbatim.  This module is its *sparse* sibling and
the storage layer of the vectorised execution backend
(:mod:`repro.core.engines.vectorized`):

* the object universe is sorted and dictionary-encoded to contiguous
  integer codes (``objects[i]`` has code ``i``);
* data values are dictionary-encoded the same way, with ``dv_codes``
  mapping object codes to data-value codes (the array form of ρ — the
  paper's ``DV`` array);
* each relation is a deduplicated, lexicographically sorted ``(N, 3)``
  ``int64`` column-triple array, equivalently a sorted 1-D array of
  *packed keys* ``(s·n + p)·n + o``.

Packed keys make relations totally ordered, so the set operations of the
algebra become sorted-array merges (:func:`sorted_unique` and binary
searches, see :mod:`repro.core.engines.vectorized`) and hash joins become
``np.searchsorted`` merge joins — no Python-level loops over triples.
An engine reads packed keys a column at a time (:meth:`ColumnarStore.column`,
:meth:`ColumnarStore.key_column`) and never has to unpack an
intermediate result whole.  Everything here is derived data: a :class:`ColumnarStore` is a
read-only view of an immutable :class:`Triplestore`, built lazily and
cached on the store like its hash indexes and statistics
(:meth:`Triplestore.columnar`).

**Sharing contract.**  A store derived from one that already has a
columnar view (``with_relations`` and friends) gets its view in two
steps, not from a rebuild: :meth:`ColumnarStore.encode` turns the
replaced relations into an :class:`EncodedBatch` — packed keys plus the
objects outside the dictionary, every object hashed once and looked up
once — and :meth:`ColumnarStore.apply` installs it.  A durable commit
logs the batch between the two, and WAL replay runs the same
:meth:`~ColumnarStore.apply` on a batch read back from the log.  The
dictionary (the ``objects`` array with its
:class:`~repro.triplestore.dictionary.ObjectIndex`, the wire array of
:meth:`ColumnarStore.wire_array`, ``dv_*``) and the key arrays and
access paths (:class:`AccessPath`) of every relation the derivation did
not replace are the parent's *by reference*.  A relation is held only as its packed keys:
readers take the columns they need (:meth:`ColumnarStore.column`) or
unpack the rows they touch, never a second ``(N, 3)`` copy.
When the new triples bring objects outside the universe the dictionary
grows once — codes always follow ``repr`` order, so the old codes map to
the new ones monotonically, re-coded packed keys are still sorted, the
fresh objects' hashes merge into the index without a re-sort, and the
derived view equals a from-scratch build field by field.  Because
versions share arrays, every array a view holds is read-only
(``writeable=False``): an engine that wrote into an input in place
would corrupt every version and cached result sharing it, so it raises
instead.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from typing import Any, Callable, Collection, Iterable, Mapping

import numpy as np

from repro.errors import TriplestoreError
from repro.triplestore.dictionary import ObjectIndex, hashes_of, object_array
from repro.triplestore.identity import objects_of, respell, respellings
from repro.triplestore.model import Obj, Triple, Triplestore

__all__ = [
    "JSON_NATIVE",
    "AccessPath",
    "ColumnarStore",
    "EncodedBatch",
    "KeyPart",
    "sorted_unique",
]

#: The object types JSON carries as themselves.  Store objects are
#: arbitrary Python values; on the service wire every other object
#: crosses as its ``repr`` (the CLI's display convention).
JSON_NATIVE = (str, int, float, bool, type(None))

#: Packed keys are ``(s·n + p)·n + o`` in int64; n³ must stay below 2^63.
_MAX_ENCODABLE_OBJECTS = 2_097_151

#: One component of an access-path key: a triple position (0..2) and
#: whether it compares ρ-codes (η) instead of object codes (θ).
KeyPart = tuple[int, bool]

#: The θ key on positions 1–3: packed-key order is the order of each of
#: its prefixes, and such a key is the packed key's own leading digits.
_THETA_PREFIX: tuple[KeyPart, ...] = ((0, False), (1, False), (2, False))

#: A single-θ path addresses its groups by object code through an array
#: of ``n + 1`` offsets; past this many codes per row (a small operand in
#: a large universe) the offsets would outweigh the rows they index, and
#: the path keeps the sorted key column instead.
_OFFSETS_MAX_FANOUT = 16


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort an int64 key array and drop duplicates.

    The canonical form of every columnar relation and intermediate
    result.  Deliberately *not* ``np.unique``: numpy ≥ 2.4 routes that
    through a hash table which is an order of magnitude slower than
    sort + mask on packed integer keys.
    """
    if len(keys) <= 1:
        return keys
    keys = np.sort(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _pack(columns: np.ndarray, n: int) -> np.ndarray:
    """``(N, 3)`` codes as packed keys ``(s·n + p)·n + o``."""
    return (columns[:, 0] * n + columns[:, 1]) * n + columns[:, 2]


def _readonly(arr: np.ndarray) -> np.ndarray:
    """Mark an array a store holds (and versions share) as immutable."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, slots=True)
class AccessPath:
    """The rows of one relation (or join operand) grouped by a key.

    ``perm`` lists the row indices stably sorted by the key, in the
    narrowest integer dtype that holds the row count; it is ``None`` when
    the rows already are in key order (packed-key order is SPO order, so
    position 1 and its prefixes need no permutation).  A single θ
    position addresses its groups by code — the rows
    ``perm[offsets[c]:offsets[c + 1]]`` hold code ``c``; every other key
    keeps ``keys``, sorted, to be probed with ``np.searchsorted``: key
    ``k``'s rows are those of ``keys`` in ``[k·scale, (k + 1)·scale)``.
    A θ prefix of rows in packed-key order keeps the packed keys
    themselves (``scale`` is ``n²``, ``n`` or 1): no key column at all.
    Exactly one of ``offsets`` and ``keys`` is set; every array the path
    built is read-only.
    """

    perm: np.ndarray | None
    offsets: np.ndarray | None
    keys: np.ndarray | None
    scale: int = 1

    def rows(self, needle: int) -> slice | np.ndarray:
        """The rows whose key equals ``needle``, ascending (an index).

        A negative needle (a constant outside the dictionary) matches
        nothing.
        """
        if needle < 0:
            lo = hi = 0
        elif self.offsets is not None:
            lo, hi = self.offsets[needle], self.offsets[needle + 1]
        else:
            lo = np.searchsorted(self.keys, needle * self.scale)
            hi = np.searchsorted(self.keys, (needle + 1) * self.scale)
        return slice(lo, hi) if self.perm is None else self.perm[lo:hi]


@dataclass(frozen=True, slots=True)
class EncodedBatch:
    """Replacement relations as codes: what :meth:`ColumnarStore.encode`
    makes of a batch, what a durable commit logs and what
    :meth:`ColumnarStore.apply` installs — at commit and at replay alike.

    ``base`` is the size of the dictionary the batch extends; ``fresh``
    indexes the batch's objects outside it, in code (``repr``) order —
    the dictionary's tail — and ``at[i]`` is the number of old objects
    before the ``i``-th of them (non-decreasing).  ``keys`` maps each
    relation, in application order, to its read-only sorted unique
    packed keys over the grown dictionary of ``base + len(fresh)``
    objects.  ``relations`` is the batch's triples as the store spells
    them (:mod:`~repro.triplestore.identity`) and ``types`` their
    objects' exact types — both empty for a batch read back from a log.
    """

    base: int
    fresh: ObjectIndex
    at: np.ndarray
    keys: dict[str, np.ndarray]
    relations: Mapping[str, frozenset] = field(default_factory=dict)
    types: frozenset = frozenset()


class ColumnarStore:
    """Sorted integer-encoded column-triple view of a :class:`Triplestore`.

    Attributes
    ----------
    objects:
        The ``repr``-sorted object universe as a read-only object array;
        code ``i`` denotes ``objects[i]``.  It is the decode array.
    object_index:
        The :class:`~repro.triplestore.dictionary.ObjectIndex` over
        ``objects`` (object → code), built per process.
    n:
        ``len(objects)`` — the code range.
    radix:
        The packing radix, ``max(n, 1)``.  A store whose relations are
        all empty has ``n == 0``; packing with radix 0 would divide by
        zero in :meth:`unpack`, so the degenerate store packs (its
        vacuously empty arrays) with radix 1 instead.
    dv_values:
        The sorted distinct data values; ``dv_codes[i]`` indexes into it.
    dv_codes:
        ``int64`` array of length ``n``: the data-value code of each
        object code (the encoded ρ).
    """

    __slots__ = (
        "objects",
        "object_index",
        "n",
        "radix",
        "_wire_cell",
        "dv_values",
        "dv_codes",
        "_dv_code_of",
        "_relations",
        "_paths",
        "_active",
    )

    def __init__(self, store: Triplestore) -> None:
        """Encode ``store`` from scratch (a store with no parent view)."""
        self._set_dictionary(ObjectIndex.build(sorted(store.objects, key=repr)))
        self._encode_rho(store.rho)
        self._relations: dict[str, np.ndarray] = {
            name: self.encode_triples(store.relation(name)) for name in store.relation_names
        }
        self._paths: dict[str, dict[tuple[int, ...], AccessPath]] = {}
        self._active: np.ndarray | None = None

    @classmethod
    def from_encoded(
        cls,
        index: ObjectIndex,
        dv_values: list[Any],
        dv_codes: np.ndarray,
        relations: Mapping[str, np.ndarray],
    ) -> "ColumnarStore":
        """A view over a dictionary and arrays that are already encoded
        (read from segments); the arrays are aliased, not copied, and
        the active set is derived on first use."""
        cs = object.__new__(cls)
        cs._set_dictionary(index)
        cs.dv_values = dv_values
        cs._dv_code_of = {v: i for i, v in enumerate(dv_values)}
        cs.dv_codes = _readonly(dv_codes)
        cs._relations = {name: _readonly(keys) for name, keys in relations.items()}
        cs._paths = {}
        cs._active = None
        return cs

    def _set_dictionary(self, index: ObjectIndex) -> None:
        """Install ``index`` (over the ``repr``-sorted universe) as the
        dictionary."""
        n = len(index)
        if n > _MAX_ENCODABLE_OBJECTS:
            raise TriplestoreError(
                f"cannot pack triples over {n} objects into int64 keys "
                f"(limit {_MAX_ENCODABLE_OBJECTS})"
            )
        self.object_index = index
        self.objects: np.ndarray = index.objects
        self.n: int = n
        self.radix: int = max(n, 1)
        # Filled by wire_array(); a cell, so that every version sharing
        # this dictionary shares the array whichever of them fills it.
        self._wire_cell: list = [None]

    def _encode_rho(self, rho: Callable[[Obj], Any]) -> None:
        """Dictionary-encode the data values of the whole universe."""
        assigned = list(map(rho, self.objects))
        self.dv_values: list[Any] = sorted(set(assigned), key=repr)
        self._dv_code_of: dict[Any, int] = {v: i for i, v in enumerate(self.dv_values)}
        self.dv_codes = _readonly(
            np.fromiter(map(self._dv_code_of.__getitem__, assigned), np.int64, len(assigned))
        )

    # ------------------------------------------------------------------ #
    # Derivation: the view of a store derived from this view's store
    # ------------------------------------------------------------------ #

    def encode(self, relations: Mapping[str, Collection[Triple]]) -> "EncodedBatch":
        """``relations`` as codes against this view's dictionary: the
        first half of deriving a version of this view's store.

        The batch is spelled first as every ingest is
        (:func:`~repro.triplestore.identity.respellings`: an object the
        dictionary holds keeps the dictionary's spelling), which costs
        a batch of plain types one pass over their types.  Every object
        is then hashed once, in one pass over the batch, and looked up
        once against the dictionary; the objects outside it are
        deduplicated on those hashes (:meth:`_fresh`).  The codes are
        those of the grown dictionary :meth:`apply` installs.
        """
        count = 3 * sum(map(len, relations.values()))
        flat = list(objects_of(relations.values()))
        types = frozenset(map(type, flat))
        index = self.object_index
        renames = respellings(flat, types, index, index.types)
        if renames:
            relations = {name: respell(rel, renames) for name, rel in relations.items()}
            flat = list(objects_of(relations.values()))
        values = object_array(flat, count)
        hashes = hashes_of(flat, count)
        codes = self.object_index.lookup(flat, hashes)
        absent = np.flatnonzero(codes < 0)
        fresh, rank = self._fresh(values[absent], hashes[absent])
        at = self._landing(fresh.objects)
        if len(fresh):
            present = codes >= 0
            codes[present] += np.searchsorted(at, codes[present], side="right")
            codes[absent] = at[rank] + rank
        radix = max(self.n + len(fresh), 1)
        keys: dict[str, np.ndarray] = {}
        lo = 0
        for name, rel in relations.items():
            hi = lo + 3 * len(rel)
            keys[name] = _readonly(sorted_unique(_pack(codes[lo:hi].reshape(-1, 3), radix)))
            lo = hi
        return EncodedBatch(self.n, fresh, at, keys, relations, types)

    @staticmethod
    def _fresh(missing: np.ndarray, hashes: np.ndarray) -> tuple[ObjectIndex, np.ndarray]:
        """The distinct objects among ``missing`` (an object array whose
        ``hashes`` the caller holds) — indexed, in ``repr`` order — and
        each occurrence's rank among them.

        Occurrences are grouped by hash with one sort, and each group is
        one object when all its members equal its first occurrence (as
        dict keys do; :meth:`encode` has respelled the batch, so every
        member of an ``==`` class is spelled as that occurrence is); the
        index is assembled from the groups, with no second hash or sort.
        Only a batch where two unequal objects share a hash (a
        collision, a NaN) is deduplicated by a ``set``.
        """
        if not len(missing):
            return ObjectIndex.build([]), np.empty(0, dtype=np.int64)
        by_hash = np.argsort(hashes)
        ordered = hashes[by_hash]
        starts = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        group = np.empty(len(ordered), dtype=np.int64)
        group[by_hash] = np.cumsum(starts) - 1
        firsts = missing[np.minimum.reduceat(by_hash, np.flatnonzero(starts))]
        if np.asarray(firsts[group] == missing, dtype=bool).all():
            reprs = list(map(repr, firsts.tolist()))
            by_repr = np.fromiter(
                sorted(range(len(reprs)), key=reprs.__getitem__), np.int64, len(reprs)
            )
            rank_of = np.empty(len(by_repr), dtype=np.int64)
            rank_of[by_repr] = np.arange(len(by_repr))
            index = ObjectIndex(firsts[by_repr], ordered[starts], rank_of.astype(np.int32))
            return index, rank_of[group]
        index = ObjectIndex.build(sorted(set(missing.tolist()), key=repr))
        return index, index.lookup(missing, hashes)

    def logged(
        self, base: int, fresh: list[Obj], keys: dict[str, np.ndarray]
    ) -> "EncodedBatch":
        """A batch read back from a log, checked against this dictionary.

        ``fresh`` must extend a dictionary of exactly ``base`` objects,
        be in ``repr`` order, and hold no object twice and none this
        dictionary holds; anything else raises ``ValueError`` (an
        unhashable object, ``TypeError``).  The keys are the caller's
        to check.
        """
        if base != self.n:
            raise ValueError(
                f"the batch extends a dictionary of {base} objects, not {self.n}"
            )
        reprs = list(map(repr, fresh))
        if any(map(operator.gt, reprs, reprs[1:])):
            raise ValueError("the fresh objects are not in repr order")
        index = ObjectIndex.build(fresh)
        if index.duplicate() is not None:
            raise ValueError("an object is fresh twice")
        if (self.object_index.encode(fresh) >= 0).any():
            raise ValueError("a fresh object is already in the dictionary")
        return EncodedBatch(base, index, self._landing(fresh), keys)

    def _landing(self, fresh: Iterable[Obj]) -> np.ndarray:
        """Where each of ``fresh`` (``repr``-sorted objects outside this
        dictionary) lands: ``at[i]`` old objects precede ``fresh[i]``."""
        if not self.n:
            return np.zeros(len(fresh), dtype=np.int64)
        land = partial(bisect_right, self.objects, key=repr)
        return np.fromiter(map(land, map(repr, fresh)), np.int64, len(fresh))

    def apply(
        self, store: Triplestore, batch: "EncodedBatch", rho_changed: bool
    ) -> "ColumnarStore":
        """The columnar view of ``store``, a store derived from this view's
        by replacing the relations of ``batch``: the second half of a
        derivation, and all of a replay.

        The dictionary grows by ``batch.fresh`` (or is shared), the
        batch's keys are installed as they are, and every other relation
        of ``store`` is one of this view's, shared — or, when the
        dictionary grew, re-coded.  ``rho_changed`` says ρ was replaced.
        The view equals ``ColumnarStore(store)`` field by field.
        """
        child = object.__new__(ColumnarStore)
        remap = None
        fresh = batch.fresh.objects
        if len(fresh):
            index, remap = self.object_index.grow(batch.fresh, batch.at)
            child._set_dictionary(index)
        else:
            child._set_dictionary(self.object_index)
            child._wire_cell = self._wire_cell
        rho = store._rho.get
        if rho_changed:
            child._encode_rho(rho)
        elif remap is None:
            child.dv_values, child._dv_code_of = self.dv_values, self._dv_code_of
            child.dv_codes = self.dv_codes
        else:
            child._grow_rho(self, rho, fresh, remap, batch.at + np.arange(len(fresh)))
        replaced = batch.keys
        relations: dict[str, np.ndarray] = {}
        for name in store.relation_names:
            if name in replaced:
                relations[name] = replaced[name]
            elif remap is None:
                relations[name] = self._relations[name]
            else:
                # Monotone remap: the re-coded keys are still sorted unique.
                relations[name] = _readonly(
                    child.pack(remap[self.unpack(self._relations[name])])
                )
        child._relations = relations
        child._paths = {}
        if remap is None:
            # The per-relation path table itself is shared, so a path
            # built later by either version serves both.
            for name in relations:
                if name not in replaced:
                    child._paths[name] = self._paths.setdefault(name, {})
        # The active set survives only when the relation set did.
        same = not replaced and len(relations) == len(self._relations)
        child._active = self._active if same else None
        return child

    def _grow_rho(
        self,
        parent: "ColumnarStore",
        rho: Callable[[Obj], Any],
        fresh: np.ndarray,
        remap: np.ndarray,
        fresh_codes: np.ndarray,
    ) -> None:
        """Extend ``parent``'s ρ encoding to the grown dictionary."""
        code = parent._dv_code_of
        fresh_values = np.fromiter(
            map(code.get, map(rho, fresh), repeat(-1)), np.int64, len(fresh)
        )
        if (fresh_values < 0).any():
            # A fresh object carries a data value no old object has (ρ
            # already mapped an object outside the universe): the value
            # dictionary itself changes.
            self._encode_rho(rho)
            return
        self.dv_values, self._dv_code_of = parent.dv_values, code
        dv_codes = np.empty(self.n, dtype=np.int64)
        dv_codes[remap] = parent.dv_codes
        dv_codes[fresh_codes] = fresh_values
        self.dv_codes = _readonly(dv_codes)

    # ------------------------------------------------------------------ #
    # Encoding and decoding
    # ------------------------------------------------------------------ #

    @property
    def n_data_values(self) -> int:
        """Number of distinct data values (the η-key radix)."""
        return len(self.dv_values)

    def code_of(self, obj: Obj, default: int = -1) -> int:
        """The integer code of ``obj`` (``default`` when absent)."""
        return self.object_index.code_of(obj, default)

    def universe(self) -> ObjectIndex:
        """The object universe as a set-like view of the dictionary — no copy."""
        return self.object_index

    def dv_code_of(self, value: Any, default: int = -1) -> int:
        """The integer code of a data value (``default`` when absent)."""
        return self._dv_code_of.get(value, default)

    def pack(self, columns: np.ndarray) -> np.ndarray:
        """Pack an ``(N, 3)`` code array into 1-D int64 keys."""
        return _pack(columns, self.radix)

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`pack`: keys back into ``(N, 3)`` code columns."""
        n = self.radix
        out = np.empty((len(keys), 3), dtype=np.int64)
        # x mod n as x - (x // n)·n: numpy divides by a scalar several
        # times faster than it takes the remainder (keys are never negative).
        rest = keys // n
        np.subtract(keys, rest * n, out=out[:, 2])
        top = rest // n
        np.subtract(rest, top * n, out=out[:, 1])
        out[:, 0] = top
        return out

    def column(self, keys: np.ndarray, pos: int) -> np.ndarray:
        """Code column ``pos`` of packed ``keys`` — one column of
        :meth:`unpack`, at the cost of that column alone."""
        n = self.radix
        if pos == 0:
            return keys // (n * n)
        if pos == 1:
            keys = keys // n
        below = keys // n
        below *= n
        return np.subtract(keys, below, out=below)

    def encode_triples(self, triples: Iterable[Triple]) -> np.ndarray:
        """Encode object triples into a read-only sorted unique packed-key
        array.

        Every object must belong to the store's universe — results of
        TriAL expressions always do (the closure property).
        """
        flat = list(chain.from_iterable(triples))
        codes = self.object_index.encode(flat)
        absent = np.flatnonzero(codes < 0)
        if len(absent):
            raise TriplestoreError(
                f"cannot encode triples: object {flat[absent[0]]!r} is not in "
                f"the store's universe of {self.n} objects"
            )
        return self._pack_codes(codes)

    def _pack_codes(self, codes: np.ndarray) -> np.ndarray:
        """Object codes, three per triple, as a read-only sorted unique
        packed-key array."""
        return _readonly(sorted_unique(self.pack(codes.reshape(-1, 3))))

    def decode_triples(self, keys: np.ndarray) -> frozenset[Triple]:
        """Decode a packed-key array back into a set of object triples."""
        columns = self.unpack(keys)
        arr = self.objects
        return frozenset(
            zip(
                arr[columns[:, 0]].tolist(),
                arr[columns[:, 1]].tolist(),
                arr[columns[:, 2]].tolist(),
            )
        )

    def decode_list(self, keys: np.ndarray) -> list[Triple]:
        """Decode packed keys into object triples, *preserving key order*.

        The streaming counterpart of :meth:`decode_triples`: cursors
        hand it one window of keys at a time, so a ``limit``-style read
        decodes only the rows it actually yields.
        """
        columns = self.unpack(keys)
        arr = self.objects
        return list(
            zip(
                arr[columns[:, 0]].tolist(),
                arr[columns[:, 1]].tolist(),
                arr[columns[:, 2]].tolist(),
            )
        )

    def wire_array(self) -> np.ndarray:
        """The decode array of the service wire format (code → JSON value).

        :data:`JSON_NATIVE` objects are themselves, every other object
        is its ``repr``.  When the whole universe is native this *is* the
        decode array; otherwise it is a copy with the other objects
        replaced.  Built on first use — only result egress asks for it —
        and shared by every version that shares the dictionary.
        """
        cell = self._wire_cell
        if cell[0] is None:
            wire = self.objects
            native = map(isinstance, wire, repeat(JSON_NATIVE))
            foreign = np.flatnonzero(~np.fromiter(native, bool, len(wire)))
            if len(foreign):
                wire = wire.copy()
                wire[foreign] = list(map(repr, wire[foreign]))
                _readonly(wire)
            cell[0] = wire
        return cell[0]

    def wire_rows(self, keys: np.ndarray) -> list[list]:
        """Packed keys as JSON-ready rows, *preserving key order*.

        Equal to ``[jsonable_row(t) for t in decode_list(keys)]`` of the
        service protocol, in one gather over the code columns: no tuple
        and no per-value type test per row.
        """
        return self.wire_array()[self.unpack(keys)].tolist()

    def decode_pairs(self, keys: np.ndarray) -> frozenset[tuple[Obj, Obj]]:
        """π₁,₃ of a packed-key array, deduplicated *before* decoding.

        The pair projection happens on integer codes (pack with radix
        ``n``, sorted-unique, then decode), so heavily duplicated
        subject/object pairs never reach the Python-object layer.
        """
        columns = self.unpack(keys)
        pair_keys = sorted_unique(columns[:, 0] * self.radix + columns[:, 2])
        arr = self.objects
        return frozenset(
            zip(
                arr[(pair_keys // self.radix)].tolist(),
                arr[(pair_keys % self.radix)].tolist(),
            )
        )

    def encode_triple_key(self, triple: Triple) -> int:
        """The packed key of one triple, or ``-1`` when any component is
        outside the store's universe (no stored key is negative)."""
        code = self.object_index.code_of
        s, p, o = code(triple[0]), code(triple[1]), code(triple[2])
        if s < 0 or p < 0 or o < 0:
            return -1
        return (s * self.radix + p) * self.radix + o

    # ------------------------------------------------------------------ #
    # Relations
    # ------------------------------------------------------------------ #

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def relation_keys(self, name: str) -> np.ndarray:
        """Relation ``name`` as a sorted unique packed-key array."""
        try:
            return self._relations[name]
        except KeyError:
            from repro.errors import UnknownRelationError

            raise UnknownRelationError(name, self.relation_names) from None

    def active_codes(self) -> np.ndarray:
        """Codes of objects occurring in some stored triple (domain of U),
        read a column at a time."""
        if self._active is None:
            pieces = [
                sorted_unique(self.column(keys, pos))
                for keys in self._relations.values()
                for pos in range(3)
            ]
            self._active = _readonly(
                sorted_unique(np.concatenate(pieces))
                if pieces
                else np.empty(0, dtype=np.int64)
            )
        return self._active

    # ------------------------------------------------------------------ #
    # Access paths
    # ------------------------------------------------------------------ #

    def key_column(self, rows: np.ndarray, key: tuple[KeyPart, ...]) -> np.ndarray:
        """The composite int64 key of each of ``rows`` on ``key``.

        ``rows`` is a packed-key array, of which only the columns ``key``
        names are unpacked — and none for a θ key on positions 1, 1–2 or
        1–3, which is the packed key's own leading digits.  Components
        fold radix by radix (``n`` for θ, the data-value count for η), so
        equal keys mean equal components on any two operands of this
        store; the caller keeps the key's range inside int64.
        """
        if key == _THETA_PREFIX[: len(key)]:
            return rows // self.radix ** (3 - len(key))
        out = None
        for pos, on_data in key:
            part = self.column(rows, pos)
            if on_data:
                part = self.dv_codes[part]
            radix = max(self.n_data_values, 1) if on_data else self.radix
            out = part if out is None else out * radix + part
        return out

    def key_of(self, codes: Iterable[int]) -> int:
        """The composite θ key of one row from its component codes (the
        scalar twin of :meth:`key_column`); ``-1`` when a code is — a
        constant outside the dictionary, which no stored key equals."""
        out = 0
        for code in codes:
            if code < 0:
                return -1
            out = out * self.radix + code
        return out

    def build_path(
        self,
        rows: np.ndarray,
        key: tuple[KeyPart, ...],
        presorted: bool = False,
        column: Callable[[], np.ndarray] | None = None,
    ) -> AccessPath:
        """Group ``rows`` by ``key`` (see :class:`AccessPath`).

        ``rows`` is packed keys, as :meth:`key_column` reads; ``column``
        makes that key column as an array the path may keep and sort in
        place, when the caller wants it made otherwise.  ``presorted`` says the
        rows are in packed-key order, as every relation and operator
        result is; a θ key on position 1 or one of its prefixes then
        needs no permutation, and unless it is addressed by code, no key
        column either.
        """
        in_order = presorted and key == _THETA_PREFIX[: len(key)]
        theta = not any(on_data for _, on_data in key)
        by_code = theta and len(key) == 1 and self.n <= _OFFSETS_MAX_FANOUT * len(rows)
        if in_order and not by_code:
            return AccessPath(None, None, rows, self.radix ** (3 - len(key)))
        owned = column is not None
        column = column() if owned else self.key_column(rows, key)
        # Row indices and counts: the narrowest signed dtype holding them.
        narrow = np.min_scalar_type(-(len(rows) + 1))
        perm = None
        if not in_order:
            perm = _readonly(np.argsort(column, kind="stable").astype(narrow))
        if by_code:
            counts = np.bincount(column, minlength=self.n)
            offsets = np.zeros(self.n + 1, dtype=narrow)
            offsets[1:] = np.cumsum(counts, out=counts)  # no temporary at the wide dtype
            return AccessPath(perm, _readonly(offsets), None)
        if perm is not None and owned:
            column.sort()  # column[perm], with no second array
        keys = np.ascontiguousarray(column) if perm is None or owned else column[perm]
        return AccessPath(perm, None, _readonly(keys))

    def access_path(self, name: str, positions: tuple[int, ...]) -> AccessPath:
        """The access path of relation ``name`` on the θ key ``positions``
        (the array twin of :meth:`Triplestore.index`), built on first use
        and shared by every version that shares the relation.

        Store paths key on object codes only: an η key would go stale in
        a version that shares the relation but replaced ρ.
        """
        paths = self._paths.setdefault(name, {})
        path = paths.get(positions)
        if path is None:
            key = tuple((pos, False) for pos in positions)
            path = paths[positions] = self.build_path(
                self.relation_keys(name), key, presorted=True
            )
        return path

    def __repr__(self) -> str:
        rels = ", ".join(f"{n}:{len(k)}" for n, k in self._relations.items())
        return f"ColumnarStore(|O|={self.n}, {rels})"
