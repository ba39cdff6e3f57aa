"""Object identity: one object per ``==`` class, spelled one way.

Definition 1 makes ``O`` a finite *set* of objects, and a Python set
holds one object per ``==`` class: ``1``, ``True`` and ``1.0`` are one
object, as are ``0.0`` and ``-0.0``, or ``(1,)`` and ``(True,)``.  Which
of a class's spellings a store keeps is decided here, by
:func:`respellings`, for every ingest — a new store
(:class:`~repro.triplestore.model.Triplestore`), a version derived on
the set path, a batch encoded against a columnar dictionary
(:meth:`~repro.triplestore.columnar.ColumnarStore.encode`, which a
durable commit and the sharded backend run) — and by one rule:

* the store's existing object wins;
* else, among the ingest's own spellings, the one with the least
  ``repr`` wins — whatever the hash seed or the input order.

So every backend answers the same objects, and a durable store answers
after a reopen what it answered before.

Most ingests pay one pass over their objects' exact types: objects of
``str``, ``bytes`` and ``NoneType`` plus at most one of ``int`` and
``bool`` are equal only when spelled alike, so a batch (with the
universe it joins) of those types has nothing to respell.  A ``float``
(``-0.0 == 0.0``), a tuple or any other type takes the slow path: one
``repr`` per object that is not a string, bytes or ``None`` (per
object, when a type outside the builtins is in play), and one lookup
of each ``==`` class in the universe.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Set
from itertools import chain, compress
from operator import itemgetter, not_
from typing import Any

from repro.triplestore.dictionary import ObjectIndex

__all__ = ["objects_of", "one_spelling", "respell", "respellings"]

#: Types whose equal objects are always spelled alike, one another included.
_PLAIN = frozenset({str, bytes, type(None)})
#: Types that equal no object of :data:`_PLAIN` but their own spelling.
_BUILTIN = _PLAIN | {int, bool, float, tuple}


def one_spelling(types: Set[type]) -> bool:
    """Whether no two objects of these exact types are equal yet spelled
    apart: beside :data:`_PLAIN`, at most one of ``int`` and ``bool``."""
    rest = types - _PLAIN
    return rest <= {int} or rest <= {bool}


def respellings(
    objs: Iterable[Any],
    types: Set[type],
    known: Collection[Any] = (),
    known_types: Set[type] = frozenset(),
) -> dict:
    """How an ingest of ``objs`` spells each ``==`` class: a map from one
    member of every class that ``objs`` spell otherwise to the class's
    object — empty when nothing is to be respelled.

    ``types`` are the exact types of ``objs``; ``known`` is the universe
    they join (a set, or the columnar dictionary's
    :class:`~repro.triplestore.dictionary.ObjectIndex`) and
    ``known_types`` its objects' types.  A class's object is its member
    in ``known`` if it has one, else its spelling with the least
    ``repr``.  Look a member up with ``get(x, x)``: a dict finds any
    spelling of the class.
    """
    every = types | known_types
    if one_spelling(every):
        return {}
    if every <= _BUILTIN:  # a str, bytes or None equals only itself
        objs = list(objs)
        objs = compress(objs, map(not_, map(_PLAIN.__contains__, map(type, objs))))
    classes: dict = {}  # a member of each class -> its (repr, object) spellings
    for spelling in {(repr(obj), obj) for obj in objs}:
        classes.setdefault(spelling[1], []).append(spelling)
    held = {obj: obj for obj in _members(known, list(classes))}
    renames = {}
    for member, spellings in classes.items():
        if member in held:
            obj = held[member]
            spelled = repr(obj)
        elif len(spellings) > 1:
            spelled, obj = min(spellings, key=itemgetter(0))
        else:
            continue
        if any(r != spelled for r, _ in spellings):
            renames[member] = obj
    return renames


def _members(known: Collection[Any], wanted: list) -> Iterable[Any]:
    """The objects of ``known`` equal to some of ``wanted``."""
    if isinstance(known, ObjectIndex):  # one vectorised lookup
        codes = known.encode(wanted)
        return known.objects[codes[codes >= 0]].tolist()
    # A set answers membership, not its own member: scan it only when
    # some of ``wanted`` is in it.
    held = set(filter(known.__contains__, wanted))
    return filter(held.__contains__, known) if held else ()


def respell(triples: Iterable[tuple], renames: dict) -> frozenset:
    """``triples`` with every object spelled as ``renames`` says."""
    get = renames.get
    return frozenset((get(s, s), get(p, p), get(o, o)) for s, p, o in triples)


def objects_of(relations: Iterable[Iterable[tuple]]) -> Iterable[Any]:
    """Every object of every triple of ``relations``, in order."""
    return chain.from_iterable(chain.from_iterable(relations))
