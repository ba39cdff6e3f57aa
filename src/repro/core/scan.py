"""The one cursor under every text parser in the reproduction.

TriAL(*) expressions and their θ/η condition lists, FO/TrCl formulas,
TripleDatalog¬ programs, GXPath, NREs, RPQ regexes, the triplestore
text format and N-Triples each keep their own grammar; they share this
lexical layer.  A :class:`Scanner` walks the caller's own text, so the
offset in every :class:`~repro.errors.ParseError` it raises is an offset
into that text (for the two line formats, :class:`LineScanner`, into the
line it names).
Whitespace separates tokens (:meth:`Scanner.skip`, which a grammar with
comments overrides); a read that fails consumes nothing.

>>> sc = Scanner("  E(x, 'part of', -2.5)")
>>> sc.word(NAME), sc.match("("), sc.word(NAME), sc.match(",")
('E', True, 'x', True)
>>> sc.quoted("'"), sc.match(","), sc.number()
('part of', True, -2.5)
>>> sc.end("trailing input")
Traceback (most recent call last):
    ...
repro.errors.ParseError: trailing input at position 22 (near "E(x, 'part of', -2.5)")
"""

from __future__ import annotations

import re
from typing import NoReturn

from repro.errors import ParseError

#: A bare name: relation, predicate, variable, label or keyword.
NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


class Scanner:
    """A cursor over ``text``; ``pos`` is the offset of the next token.

    Whitespace is skipped before the first token and after each one, so
    ``pos`` never rests on it and a failed read costs one comparison.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.skip()

    def skip(self) -> None:
        """Move past whitespace."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos

    def _advance(self, end: int) -> None:
        self.pos = end
        self.skip()

    def peek(self) -> str:
        """The next character, or ``""`` at the end."""
        return self.text[self.pos:self.pos + 1]

    def match(self, token: str) -> bool:
        """Consume ``token`` if the text continues with it."""
        if self.text.startswith(token, self.pos):
            self._advance(self.pos + len(token))
            return True
        return False

    def expect(self, token: str) -> None:
        """Consume ``token`` or raise."""
        if not self.match(token):
            self.error(f"expected {token!r}")

    def keyword(self, word: str) -> bool:
        """Consume ``word`` if it stands here as a whole word.

        >>> sc = Scanner("order")
        >>> sc.keyword("or"), sc.keyword("order")
        (False, True)
        """
        m = NAME.match(self.text, self.pos)
        if m is None or m.group() != word:
            return False
        self._advance(m.end())
        return True

    def word(self, pattern: re.Pattern[str]) -> str | None:
        """Consume and return what ``pattern`` matches here, or ``None``."""
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self._advance(m.end())
        return m.group()

    def quoted(self, quotes: str) -> str | None:
        """The contents of a string opened by one of ``quotes``, or ``None``.

        The string runs to the next copy of its opening quote; there are
        no escapes.
        """
        quote = self.peek()
        if not quote or quote not in quotes:
            return None
        close = self.text.find(quote, self.pos + 1)
        if close < 0:
            self.error("unterminated string")
        value = self.text[self.pos + 1:close]
        self._advance(close + 1)
        return value

    def number(self) -> int | float | None:
        """An optionally signed integer or decimal, or ``None``."""
        raw = self.word(_NUMBER)
        if raw is None:
            return None
        return float(raw) if "." in raw else int(raw)

    def at_end(self) -> bool:
        """True when only whitespace is left."""
        return self.pos == len(self.text)

    def end(self, message: str) -> None:
        """Raise ``message`` unless only whitespace is left."""
        if not self.at_end():
            self.error(message)

    def error(self, message: str) -> NoReturn:
        """Raise a :class:`ParseError` at the current offset."""
        raise ParseError(message, self.text, self.pos)


class LineScanner(Scanner):
    """A :class:`Scanner` over one line of a line-oriented file: its
    errors name the line, and their offset is into that line.

    >>> LineScanner("E a b", 4).error("expected 'REL s p o'")
    Traceback (most recent call last):
        ...
    repro.errors.ParseError: line 4: expected 'REL s p o' at position 0 (near 'E a b')
    """

    def __init__(self, line: str, lineno: int) -> None:
        self.lineno = lineno
        super().__init__(line)

    def error(self, message: str) -> NoReturn:
        raise ParseError(f"line {self.lineno}: {message}", self.text, self.pos)
