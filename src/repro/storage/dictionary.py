"""The dictionary segment: a store's universe O, data values and ρ as data.

``meta.seg`` of a manifest-format-7 generation is one ``KIND_DICT``
segment.  Its payload is a fixed 20-byte preamble — the decoded text's
length and the object count (little-endian ``uint64``) and its CRC-32
(``uint32``) — followed by one raw LZMA2 stream (no container: preset
1, a 64 KiB dictionary, :data:`_FILTERS`) of ASCII JSON text::

    [objects, dv_values, rho_keys, rho_values]

A WAL record's dictionary tail (:mod:`repro.storage.wal`) is the same
preamble followed by the text itself, uncompressed, over one list of
values (:func:`encode_values`).

A ``str`` is a JSON string.  Every other value is a one-key tagged
object, so ``1``, ``True`` and ``1.0`` stay distinct and nothing is
stored as a bare JSON number::

    {"int": "-0x1f"}              # hex: no digit limit either way
    {"float": "0x1.8p+1"}         # float.hex: exact, also for ±inf, NaN, -0.0
    {"bool": true}    {"none": null}
    {"bytes": "AGI="}             # base64
    {"tuple": [value, ...]}       # recursive

An all-``str`` universe therefore decodes at ``json.loads`` speed: the
tag hook runs only for tagged values, never once per string.  Those
seven types (exactly — no subclasses) are all a durable store can hold;
:func:`check_storable` refuses anything else before it reaches the WAL.

LZMA2, not zlib: the 608 241-byte text of a 69 067-object universe
(the e2e benchmark's ``db_analytic`` store) is a 23 221-byte LZMA2
stream and a 155 899-byte zlib (level 1) one, and its whole decode —
inflate, CRC and ``json.loads`` — takes 7.3 ms against 6.2 ms (medians
of 41 interleaved runs, 2-core x86-64 host): the JSON parse dominates
both, so a sixth of the bytes costs a sixth more decode time.  A WAL
tail is not compressed: an LZMA2 encoder would cost every commit
0.7–1 MB of peak memory and 0.3–0.4 ms, while the log is short-lived
and its keys are raw ``int64`` already.

Decoding trusts nothing: a declared length LZMA2 could not reach from
the compressed bytes at hand is refused before inflating, the
decompressor never produces more than the preamble's declared length
(plus one byte to notice a longer stream), a WAL tail's text is exactly
as long as declared, and every mismatch — length, object count, CRC, a
truncated or padded stream, a stray tag, an unhashable value (an
object's is found by the object index built over the universe) — raises
:class:`~repro.errors.StoreCorruptionError` and nothing else.  The CRC
is the text's own: a raw LZMA2 stream carries no check at all, so a
damaged stream could otherwise inflate to another valid document.
"""

from __future__ import annotations

import base64
import json
import lzma
import struct
import zlib
from collections.abc import Set
from itertools import chain
from typing import Any, Collection, Iterable, Mapping

from repro.errors import StorageError, StoreCorruptionError

__all__ = [
    "check_storable",
    "decode_dictionary",
    "decode_values",
    "encode_dictionary",
    "encode_values",
    "unstorable_type",
]

#: The exact types a durable store holds, besides tuples of them.
_SCALARS = frozenset({str, int, float, bool, type(None), bytes})

#: Decoded text length, object count, CRC-32 of the decoded text.
_PREAMBLE = struct.Struct("<QQI")
#: The one filter chain, for writing and reading alike.  Preset 1 writes
#: six times faster than preset 6 for the same bytes, and a wider window
#: finds nothing more in a sorted universe, whose matches lie among its
#: neighbours: the 69 067-object text above is 23 555 B with a 16 KiB
#: window, 23 221 B with 64 KiB and 23 723 B with 1 MiB.
_FILTERS = ({"id": lzma.FILTER_LZMA2, "preset": 1, "dict_size": 1 << 16},)
#: LZMA2's largest expansion under :data:`_FILTERS`: a declared length
#: beyond this many times the compressed bytes is refused before anything
#: is inflated.  Zero bytes compress furthest, and the ratio levels off
#: because an LZMA2 chunk holds at most 2 MiB: 1 MiB of them compress
#: 4 660:1, 64 MiB (67 108 864 B) 6 820:1 and 256 MiB 6 861:1, at
#: presets 1, 6 and 9e alike.  The bound leaves a fifth above that.
_MAX_RATIO = 8192


def _unstorable(kind: type, where: str) -> StorageError:
    return StorageError(
        f"{where} holds an object of type {kind.__qualname__!r}; a durable "
        "store holds only str, int, float, bool, None, bytes and tuples of them"
    )


def unstorable_type(groups: Iterable[Collection[Any]]) -> type | None:
    """A type among the values of ``groups`` (tuples searched recursively)
    that the codec cannot hold, or ``None``."""
    groups = list(groups)
    kinds = set(map(type, chain.from_iterable(groups))) - _SCALARS
    stray = kinds - {tuple}
    if stray:
        return min(stray, key=lambda kind: kind.__qualname__)
    if kinds:
        return unstorable_type(v for group in groups for v in group if type(v) is tuple)
    return None


def check_storable(mutations: Mapping[str, Collection[tuple]], types: Set[type]) -> None:
    """Raise :class:`StorageError` if a relation of ``mutations`` holds an
    object the dictionary segment cannot write.

    ``types`` are the exact types of the objects of ``mutations``, which
    the encoder took in its one pass over them: that clears a batch of
    scalars; only a batch holding something else (a tuple, or a stray)
    is searched relation by relation.
    """
    if types <= _SCALARS:
        return
    for name, triples in mutations.items():
        stray = unstorable_type(triples)
        if stray is not None:
            raise _unstorable(stray, f"relation {name!r}")


# --------------------------------------------------------------------- #
# Encode
# --------------------------------------------------------------------- #


def _tag(value: Any) -> Any:
    kind = type(value)
    if kind is str:
        return value
    if kind is int:
        return {"int": hex(value)}
    if kind is float:
        return {"float": value.hex()}
    if kind is bool:
        return {"bool": value}
    if value is None:
        return {"none": None}
    if kind is bytes:
        return {"bytes": base64.b64encode(value).decode("ascii")}
    if kind is tuple:
        return {"tuple": [_tag(v) for v in value]}
    raise _unstorable(kind, "the dictionary")


def _tagged(values: Iterable[Any]) -> list:
    values = list(values)
    if set(map(type, values)) <= {str}:
        return values
    return [_tag(v) for v in values]


def _text(doc: list, count: int) -> tuple[bytes, bytes]:
    """The preamble and the ASCII JSON text of ``doc``."""
    text = json.dumps(doc, ensure_ascii=True, separators=(",", ":"), allow_nan=False)
    raw = text.encode("ascii")
    return _PREAMBLE.pack(len(raw), count, zlib.crc32(raw)), raw


def encode_dictionary(
    objects: Iterable[Any], dv_values: Iterable[Any], rho: Mapping[Any, Any]
) -> bytes:
    """The ``KIND_DICT`` payload of a universe, its data values and ρ."""
    objects = _tagged(objects)
    doc = [objects, _tagged(dv_values), _tagged(rho.keys()), _tagged(rho.values())]
    preamble, raw = _text(doc, len(objects))
    return preamble + lzma.compress(raw, format=lzma.FORMAT_RAW, filters=_FILTERS)


def encode_values(values: Iterable[Any]) -> bytes:
    """One list of values in the same codec, uncompressed: the preamble,
    then the text of one JSON list (a WAL record's dictionary tail)."""
    values = _tagged(values)
    preamble, raw = _text(values, len(values))
    return preamble + raw


# --------------------------------------------------------------------- #
# Decode
# --------------------------------------------------------------------- #


_TAGS = frozenset({"int", "float", "bool", "none", "bytes", "tuple"})


def _untag(obj: dict) -> Any:
    """The value of one tagged object: :func:`_tag` inverted, strictly."""
    if len(obj) != 1:
        raise ValueError(f"a tagged value has {len(obj)} keys")
    ((tag, value),) = obj.items()
    kind = type(value)
    if tag == "int" and kind is str:
        return int(value, 16)
    if tag == "float" and kind is str:
        return float.fromhex(value)
    if tag == "bool" and kind is bool:
        return value
    if tag == "none" and value is None:
        return None
    if tag == "bytes" and kind is str:
        return base64.b64decode(value, validate=True)
    if tag == "tuple" and kind is list:
        return tuple(value)
    if tag not in _TAGS:
        raise ValueError(f"unknown tag {tag!r}")
    raise ValueError(f"{tag} tag holds {kind.__name__}")


def _bare(token: str) -> Any:
    raise ValueError(f"bare JSON number {token!r}")


def _split(payload: bytes) -> tuple[int, int, int, memoryview]:
    """A payload's declared text length, count and CRC, and a view of
    what follows."""
    if len(payload) < _PREAMBLE.size:
        raise ValueError("payload is shorter than its preamble")
    length, count, crc = _PREAMBLE.unpack_from(payload)
    return length, count, crc, memoryview(payload)[_PREAMBLE.size :]


def _parse(raw: bytes | memoryview, crc: int) -> Any:
    """The JSON document of a decoded text that must pass ``crc``."""
    if zlib.crc32(raw) != crc:
        raise ValueError("decoded text fails its CRC-32")
    return json.loads(
        str(raw, "ascii"),
        object_hook=_untag,
        parse_int=_bare,
        parse_float=_bare,
        parse_constant=_bare,
    )


def _inflate(payload: bytes) -> tuple[Any, int]:
    """The JSON document of a ``KIND_DICT`` payload and the count its
    preamble holds."""
    length, count, crc, stream = _split(payload)
    if length > _MAX_RATIO * len(stream):
        raise ValueError(
            f"{len(stream)} compressed bytes cannot inflate to the declared {length}"
        )
    inflate = lzma.LZMADecompressor(format=lzma.FORMAT_RAW, filters=_FILTERS)
    raw = inflate.decompress(stream, length + 1)
    if len(raw) > length:
        raise ValueError(f"stream inflates past its declared {length} bytes")
    if len(raw) < length or not inflate.eof or inflate.unused_data:
        raise ValueError(
            f"stream is truncated or padded: {len(raw)} of {length} declared "
            "bytes decoded"
        )
    return _parse(raw, crc), count


def _decode(payload: bytes) -> tuple[list, list, dict]:
    doc, count = _inflate(payload)
    if type(doc) is not list or len(doc) != 4 or any(type(part) is not list for part in doc):
        raise ValueError("document is not four lists")
    objects, dv_values, keys, values = doc
    if len(objects) != count:
        raise ValueError(f"preamble counts {count} objects, text holds {len(objects)}")
    if len(keys) != len(values):
        raise ValueError(f"ρ has {len(keys)} keys but {len(values)} values")
    # Tags yield hashable values only; a bare JSON array, at any depth,
    # is not one.  The universe is hashed once, by the object index an
    # open builds over it, which refuses such an object there.
    hash(tuple(chain(dv_values, keys, values)))
    return objects, dv_values, dict(zip(keys, values))


def decode_dictionary(payload: bytes, where: str) -> tuple[list, list, dict]:
    """``(objects, dv_values, rho)`` of a ``KIND_DICT`` payload read from
    ``where``; any defect raises :class:`StoreCorruptionError`.

    The objects are not hashed here: hashing the universe costs as much
    again as the JSON parse, and the object index built over it next
    hashes it anyway.  Its caller refuses an unhashable object.
    """
    try:
        return _decode(payload)
    except Exception as exc:
        raise StoreCorruptionError(
            f"dictionary segment {where} does not decode: {exc}"
        ) from exc


def decode_values(payload: bytes) -> list:
    """The list :func:`encode_values` wrote; any defect raises
    ``ValueError``.  The values are not hashed here (see
    :func:`decode_dictionary`)."""
    length, count, crc, raw = _split(payload)
    if length != len(raw):
        raise ValueError(f"preamble declares {length} bytes of text, {len(raw)} follow")
    doc = _parse(raw, crc)
    if type(doc) is not list or len(doc) != count:
        raise ValueError(f"text is not a list of the {count} values its preamble counts")
    return doc
