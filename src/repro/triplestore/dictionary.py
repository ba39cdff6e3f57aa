"""The object dictionary of a columnar view: code → object and back.

Section 5 of the paper states its bounds over a dictionary-encoded
universe ``O``: objects are the codes ``0 … n−1`` and every relation an
array of codes.  :class:`ObjectIndex` is that dictionary held once:

* ``objects`` — one read-only object array, code → object.  It is the
  decode array (a gather over code columns turns keys back into
  objects) and the array written to disk;
* an index over it for object → code, per process and never persisted:
  ``hashes``, the sorted ``int64`` column of ``hash(obj)``, and
  ``order``, the ``int32`` permutation with
  ``hashes[i] == hash(objects[order[i]])``.  About 12 bytes an object,
  where a ``dict`` would spend over 50.

A lookup is exactly a ``dict``'s: hash the object (an unhashable one
raises ``TypeError``), find the run of equal hashes by binary search,
and take the first object of the run that *is* the one asked for or
compares ``==`` to it.  So ``1``, ``True`` and ``1.0`` find each other
as dict keys do, a NaN finds itself by identity, and two objects whose
hashes collide (``hash(-1) == hash(-2)``) keep their own codes.

Bulk lookups are one vectorised :meth:`ObjectIndex.lookup`, run a
block of objects at a time: the block's hashes — computed once, in one
pass, by the caller (:func:`hashes_of`; :meth:`ObjectIndex.encode`
does both) — are located with one ``searchsorted`` and the candidates
compared with one elementwise ``==``; only the rare object that is not
its run's first (a hash collision, a NaN) takes the scalar path.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence, Set
from typing import Any

import numpy as np

__all__ = ["ObjectIndex", "hashes_of", "object_array"]

#: Objects looked up per block: a lookup's temporaries stay O(block),
#: however many objects a relation mentions.
_BLOCK = 1 << 15


def object_array(objs: Iterable[Any], count: int = -1) -> np.ndarray:
    """A 1-D object array of ``objs`` — each item one element, tuples
    included (``np.array`` would read a list of tuples as a matrix)."""
    return np.fromiter(objs, dtype=object, count=count)


def hashes_of(objs: Iterable[Any], count: int = -1) -> np.ndarray:
    """``hash`` of each of ``objs`` as an ``int64`` array (an unhashable
    object raises ``TypeError``)."""
    return np.fromiter(map(hash, objs), dtype=np.int64, count=count)


def _ascending_runs(hashes: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``order`` with each run of equal ``hashes`` listing its codes
    ascending, as a stable sort would, whichever sort produced it."""
    if (hashes[1:] == hashes[:-1]).any():
        order = order[np.lexsort((order, hashes))]
    return order


class ObjectIndex(Set):
    """A code → object array and its object → code index (see the module
    docstring).  Immutable, so versions of a store share it by reference;
    as a set-like view it is the universe ``O`` (``in``, ``len``,
    ``iter``)."""

    __slots__ = ("objects", "hashes", "order", "_types")

    def __init__(self, objects: np.ndarray, hashes: np.ndarray, order: np.ndarray) -> None:
        self.objects = objects
        self.hashes = hashes
        self.order = order
        for arr in (objects, hashes, order):
            arr.setflags(write=False)
        self._types: frozenset[type] | None = None

    @property
    def types(self) -> frozenset[type]:
        """The exact types of the objects (one pass, on first use)."""
        if self._types is None:
            self._types = frozenset(map(type, self.objects))
        return self._types

    @classmethod
    def build(cls, objs: Sequence[Any]) -> "ObjectIndex":
        """Index ``objs`` — code ``i`` is the ``i``-th object."""
        hashes = hashes_of(objs, len(objs))
        order = np.argsort(hashes)
        hashes = hashes[order]
        order = _ascending_runs(hashes, order).astype(np.int32)
        return cls(object_array(objs, len(objs)), hashes, order)

    def grow(self, fresh: "ObjectIndex", at: np.ndarray) -> tuple["ObjectIndex", np.ndarray]:
        """This dictionary with the objects of ``fresh`` inserted, and the
        old codes' map.

        ``fresh`` indexes the new objects in the order they take codes;
        ``at[i]`` is the number of old objects before its ``i``-th
        (non-decreasing).  Returns the grown index and ``remap``, where
        ``remap[old_code]`` is an old object's new code — strictly
        increasing.  The sorted hashes of ``fresh`` are merged into the
        sorted column: nothing is hashed or sorted again.
        """
        n_old, n_fresh = len(self.objects), len(fresh)
        fresh_codes = at + np.arange(n_fresh)
        # An old object moves up by the number of fresh ones landing at or
        # before it.
        remap = np.arange(n_old, dtype=np.int64)
        remap += np.searchsorted(at, remap, side="right")
        objects = np.empty(n_old + n_fresh, dtype=object)
        objects[remap] = self.objects
        objects[fresh_codes] = fresh.objects
        slots = np.searchsorted(self.hashes, fresh.hashes, side="right")
        slots += np.arange(n_fresh)
        kept = np.ones(n_old + n_fresh, dtype=bool)
        kept[slots] = False
        hashes = np.empty(n_old + n_fresh, dtype=np.int64)
        hashes[slots] = fresh.hashes
        hashes[kept] = self.hashes
        order = np.empty(n_old + n_fresh, dtype=np.int32)
        order[slots] = fresh_codes[fresh.order]
        order[kept] = remap[self.order]
        grown = ObjectIndex(objects, hashes, _ascending_runs(hashes, order))
        if self._types is not None:
            grown._types = self._types | fresh.types
        return grown, remap

    def duplicate(self) -> tuple[int, int] | None:
        """Two codes whose objects compare ``==``, or ``None``.

        A dictionary holds one object per ``==`` class, so a pair means
        damage.  Equal objects hash alike: only runs of equal hashes are
        compared, as a dict compares its keys.
        """
        run: dict = {}
        last = -2
        for i in np.flatnonzero(self.hashes[1:] == self.hashes[:-1]).tolist():
            if i != last + 1:  # a new run starts at i
                first = int(self.order[i])
                run = {self.objects[first]: first}
            code = int(self.order[i + 1])
            obj = self.objects[code]
            if obj in run:
                return run[obj], code
            run[obj] = code
            last = i
        return None

    # -- lookups -------------------------------------------------------- #

    def code_of(self, obj: Any, default: int = -1) -> int:
        """The code of ``obj`` (``default`` when absent) — a dict lookup."""
        h = hash(obj)
        hashes = self.hashes
        i = int(np.searchsorted(hashes, h))
        while i < len(hashes) and hashes[i] == h:
            code = int(self.order[i])
            known = self.objects[code]
            if known is obj or known == obj:
                return code
            i += 1
        return default

    def encode(self, objs: Sequence[Any]) -> np.ndarray:
        """The codes of ``objs`` as an ``int64`` array, ``-1`` for an
        object outside the dictionary."""
        return self.lookup(objs, hashes_of(objs, len(objs)))

    def lookup(self, objs: Sequence[Any], hashes: np.ndarray) -> np.ndarray:
        """:meth:`encode` of ``objs`` whose ``hashes`` the caller already
        holds — :data:`_BLOCK` objects at a time."""
        codes = np.full(len(objs), -1, dtype=np.int64)
        if len(self.hashes):
            for lo in range(0, len(objs), _BLOCK):
                hi = lo + _BLOCK
                self._lookup_block(objs[lo:hi], hashes[lo:hi], codes[lo:hi])
        return codes

    def _lookup_block(self, objs: Sequence[Any], wanted: np.ndarray, codes: np.ndarray) -> None:
        # Sorted needles walk the hash column front to back instead of
        # jumping through it.
        by_hash = np.argsort(wanted)
        slot = np.empty_like(by_hash)
        slot[by_hash] = np.searchsorted(self.hashes, wanted[by_hash])
        np.minimum(slot, len(self.hashes) - 1, out=slot)
        found = np.flatnonzero(self.hashes[slot] == wanted)
        candidate = self.order[slot[found]].astype(np.int64)
        asked = object_array(objs, len(objs))[found]
        same = np.asarray(self.objects[candidate] == asked, dtype=bool)
        codes[found[same]] = candidate[same]
        # Not the first of its hash run (a collision, a NaN): walk the run.
        for i in found[~same].tolist():
            codes[i] = self.code_of(objs[i])

    # -- the universe as a set-like view ---------------------------------- #

    def __contains__(self, obj: object) -> bool:
        return self.code_of(obj) >= 0

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.objects)

    def __repr__(self) -> str:
        return f"ObjectIndex(|O|={len(self.objects)})"
