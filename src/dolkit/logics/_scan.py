"""Tiny regex token scanner shared by the text-format parsers."""

from __future__ import annotations

import re
from typing import Callable, Mapping, NamedTuple

from ..errors import ParseError


class Tok(NamedTuple):
    """A token: a plain tuple with named fields, cheap to build."""

    kind: str
    text: str
    line: int
    col: int


def scan(
    text: str,
    master: "re.Pattern[str]",
    skip: frozenset[str] = frozenset({"WS", "COMMENT"}),
    start_line: int = 1,
    start_col: int = 1,
    token_end: Mapping[str, Callable[[str, int, int, int], int]] | None = None,
) -> list[Tok]:
    """Tokenize `text` with a named-group master regex.

    Group names become token kinds; groups named in `skip` are dropped.
    Unmatchable input raises ParseError at its position. `start_line/col`
    shift positions for fragments embedded in a larger document.
    `token_end` maps a kind whose regex only opens its token to a function
    `(text, start, line, col) -> end` that finds where the token ends, or
    raises ParseError at `line:col` when it cannot end.

    The scanner keeps the offset at which the current line starts, so the
    column of offset `pos` is `pos - line_start + 1`; only a piece that holds
    a newline moves `line` and `line_start`.
    """
    match, count = master.match, text.count
    toks: list[Tok] = []
    append = toks.append
    line = start_line
    line_start = 1 - start_col  # makes the first line's columns start at start_col
    pos, size = 0, len(text)
    while pos < size:
        m = match(text, pos)
        end = m.end() if m is not None else pos
        if end == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup or ""
        if token_end is not None and kind in token_end:
            end = token_end[kind](text, pos, line, pos - line_start + 1)
        if kind not in skip:
            append(Tok(kind, text[pos:end], line, pos - line_start + 1))
        newlines = count("\n", pos, end)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, end) + 1
        pos = end
    append(Tok("EOF", "", line, pos - line_start + 1))
    return toks


class TokenCursor:
    """Lookahead-1 cursor over a token list with uniform error reporting."""

    def __init__(self, toks: list[Tok]):
        self.toks = toks
        self.i = 0

    @property
    def cur(self) -> Tok:
        return self.toks[self.i]

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.cur
        return t.kind == kind and (text is None or t.text == text)

    def advance(self) -> Tok:
        t = self.cur
        if t.kind != "EOF":
            self.i += 1
        return t

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Tok:
        if not self.at(kind, text):
            want = what or (text if text is not None else kind)
            raise ParseError(
                f"found {self.cur.text!r}" if self.cur.kind != "EOF" else "unexpected end of input",
                self.cur.line,
                self.cur.col,
                expected=(want,),
            )
        return self.advance()

    def error(self, message: str, *expected: str) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.col, expected=tuple(expected))
