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
import io
import json
import re
from typing import Any, TextIO

from repro.core.scan import LineScanner
from repro.errors import ParseError
from repro.triplestore.model import Triple, Triplestore


#: The tagged tokens of the two bools.
_BOOLS = {"!true": True, "!false": False}
#: What JSON leaves raw but a line-oriented UTF-8 file cannot hold: the
#: line breaks ``str.splitlines`` knows beyond the control characters,
#: and lone surrogates.
_UNSAFE = re.compile("[\x85\u2028\u2029\ud800-\udfff]")
#: Whitespace and comments: ``#`` outside a string runs to the line's end.
_BLANK = re.compile(r"(?:\s+|#.*)*")
#: A quoted string, to the next quote no backslash escapes: JSON, or
#: (written before escapes) the text between its quotes.
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
#: Any other token: a bare word, or a tuple mark standing alone.
_TOKEN = re.compile(r'[^\s(),"#]+|[(),]')


class _LineReader(LineScanner):
    def skip(self) -> None:
        self.pos = _BLANK.match(self.text, self.pos).end()

    def string(self) -> str | None:
        """A quoted string, decoded, or ``None`` if none starts here."""
        text = self.word(_STRING)
        if text is None:
            if self.peek() == '"':
                self.error("unterminated string")
            return None
        try:
            return json.loads(text)
        except ValueError:  # written before escapes: the text as it stands
            return text[1:-1]

    def value(self) -> Any:
        """One data value; a lone ``)`` or ``,`` is the string it spells."""
        if self.match("("):
            items: list[Any] = []
            while not self.match(")"):
                if self.at_end():
                    self.error("unterminated tuple value")
                if not self.match(","):
                    items.append(self.value())
            return tuple(items)
        text = self.string()
        if text is not None:
            return text
        start = self.pos
        tok = self.word(_TOKEN)
        if tok == "null":
            return None
        if tok in _BOOLS:
            return _BOOLS[tok]
        if tok.startswith("!bytes:"):
            try:
                return base64.b64decode(tok[7:], validate=True)
            except ValueError as exc:  # not base64, or not even ASCII
                self.pos = start
                self.error(f"bad base64 in {tok!r}: {exc}")
        for number in (int, float):
            try:
                return number(tok)
            except ValueError:
                pass
        return tok

    def values(self, count: int, shape: str) -> list[Any]:
        """The line's remaining ``count`` values, and nothing after them."""
        out = []
        for _ in range(count):
            if self.at_end():
                self.error(shape)
            out.append(self.value())
        self.end(shape)
        return out


def loads(text: str) -> Triplestore:
    """Parse the text format into a :class:`Triplestore`."""
    relations: dict[str, set[Triple]] = {}
    rho: dict[Any, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        sc = _LineReader(line, lineno)
        if sc.at_end():
            continue
        name = sc.string()
        if name is None:
            name = sc.word(_TOKEN)
            if name == "@rho":
                obj, value = sc.values(2, "@rho needs an object and a value")
                rho[obj] = value
                continue
        triple = sc.values(3, "expected 'REL s p o'")
        relations.setdefault(name, set()).add(tuple(triple))
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
    if _UNSAFE.search(text) or not _TOKEN.fullmatch(text):
        return False
    try:
        return _LineReader(text, 1).value() == text
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
