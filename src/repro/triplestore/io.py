"""Plain-text serialisation for triplestores.

The format is a tiny line-oriented language, sufficient for examples and
for shipping the paper's datasets as readable fixtures:

.. code-block:: text

    # comment
    @rho Edinburgh "scotland"
    @rho o175 ("Mario", "m@nes.com", 23, null, null)
    E StAndrews BusOp1 Edinburgh
    part_of BusOp1 NatExpress      # relation name first, then s p o

Tokens are whitespace-separated.  A quoted string is a JSON string, so
it may hold spaces and, escaped, ``"``, ``\\`` and line breaks (one
that is not valid JSON reads as the text between its quotes, as before
escapes).  Data values may be strings, integers, floats, ``null`` (maps
to ``None``), ``!true`` / ``!false``, ``!bytes:`` and base64, or
parenthesised tuples of those.  :func:`dumps` writes a string — an
object or a relation name — bare only where it reads back as itself, so
``loads(dumps(store))`` gives back every relation name and every str,
int, float, bool, None, bytes and tuple of them, each of its type.
"""

from __future__ import annotations

import base64
import binascii
import io
import json
import re
from typing import Any, TextIO

from repro.errors import ParseError
from repro.triplestore.model import Triple, Triplestore


#: The tagged tokens of the two bools.
_BOOLS = {"!true": True, "!false": False}
#: What JSON leaves raw but a line-oriented UTF-8 file cannot hold: the
#: line breaks ``str.splitlines`` knows beyond the control characters,
#: and lone surrogates.
_UNSAFE = re.compile("[\x85\u2028\u2029\ud800-\udfff]")


def _tokenize(line: str) -> list[str]:
    tokens: list[str] = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch.isspace():
            i += 1
        elif ch == "#":
            break
        elif ch == '"':
            j = i + 1
            while j < n and line[j] != '"':
                j += 2 if line[j] == "\\" else 1
            if j >= n:
                raise ParseError("unterminated string", line, i)
            tokens.append(line[i:j + 1])
            i = j + 1
        elif ch in "(),":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < n and not line[j].isspace() and line[j] not in '(),"#':
                j += 1
            tokens.append(line[i:j])
            i = j
    return tokens


def _parse_value(tokens: list[str], start: int) -> tuple[Any, int]:
    """Parse one data value starting at ``tokens[start]``; return (value, next)."""
    tok = tokens[start]
    if tok == "(":
        items: list[Any] = []
        i = start + 1
        while i < len(tokens) and tokens[i] != ")":
            if tokens[i] == ",":
                i += 1
                continue
            value, i = _parse_value(tokens, i)
            items.append(value)
        if i >= len(tokens):
            raise ParseError("unterminated tuple value")
        return tuple(items), i + 1
    if tok.startswith('"'):
        try:
            return json.loads(tok), start + 1
        except ValueError:  # written before escapes: the text as it stands
            return tok[1:-1], start + 1
    if tok == "null":
        return None, start + 1
    if tok in _BOOLS:
        return _BOOLS[tok], start + 1
    if tok.startswith("!bytes:"):
        try:
            return base64.b64decode(tok[7:], validate=True), start + 1
        except binascii.Error as exc:
            raise ParseError(f"bad base64 in {tok!r}: {exc}") from exc
    try:
        return int(tok), start + 1
    except ValueError:
        pass
    try:
        return float(tok), start + 1
    except ValueError:
        pass
    return tok, start + 1


def loads(text: str) -> Triplestore:
    """Parse the text format into a :class:`Triplestore`."""
    relations: dict[str, set[Triple]] = {}
    rho: dict[Any, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        arity = 2 if tokens[0] == "@rho" else 3
        values, at = [], 1
        while at < len(tokens) and len(values) < arity:
            value, at = _parse_value(tokens, at)
            values.append(value)
        if len(values) != arity or at != len(tokens):
            shape = "@rho needs an object and a value" if arity == 2 else "expected 'REL s p o'"
            raise ParseError(f"line {lineno}: {shape}, got {len(tokens)} tokens")
        if arity == 2:
            rho[values[0]] = values[1]
        else:
            name = _parse_value(tokens, 0)[0] if tokens[0].startswith('"') else tokens[0]
            relations.setdefault(name, set()).add(tuple(values))
    return Triplestore(relations, rho)


def load(fp: TextIO) -> Triplestore:
    """Read a triplestore from an open text file."""
    return loads(fp.read())


def load_path(path: str) -> Triplestore:
    """Read a triplestore from a file path."""
    with open(path, encoding="utf-8") as fp:
        return load(fp)


def _bare(text: str) -> bool:
    """Whether ``text`` may be written as it is: a UTF-8 line can hold it,
    and it is read back as this very string."""
    try:
        return (
            not _UNSAFE.search(text)
            and _tokenize(text) == [text]
            and _parse_value([text], 0)[0] == text
        )
    except ParseError:
        return False


def _format_value(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, tuple):
        return "(" + ", ".join(_format_value(v) for v in value) + ")"
    if type(value) is str:
        if _bare(value):
            return value
        return _UNSAFE.sub(lambda m: f"\\u{ord(m.group()):04x}", json.dumps(value, ensure_ascii=False))
    if type(value) is bool:
        return "!true" if value else "!false"
    if type(value) is bytes:
        return "!bytes:" + base64.b64encode(value).decode("ascii")
    return repr(value)


def dumps(store: Triplestore) -> str:
    """Serialise ``store`` into the text format (sorted, deterministic)."""
    out = io.StringIO()
    for obj in sorted(store.objects, key=repr):
        value = store.rho(obj)
        if value is not None:
            out.write(f"@rho {_format_value(obj)} {_format_value(value)}\n")
    for name in store.relation_names:
        # A name is quoted as objects are where it would not read back.
        label = _format_value(name) if name != "@rho" else json.dumps(name)
        for triple in sorted(store.relation(name), key=repr):
            s, p, o = (_format_value(x) for x in triple)
            out.write(f"{label} {s} {p} {o}\n")
    return out.getvalue()


def dump(store: Triplestore, fp: TextIO) -> None:
    """Write ``store`` to an open text file."""
    fp.write(dumps(store))


def dump_path(store: Triplestore, path: str) -> None:
    """Write ``store`` to a file path."""
    with open(path, "w", encoding="utf-8") as fp:
        dump(store, fp)
