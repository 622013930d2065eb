"""Tiny regex token scanner shared by the text-format parsers."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping

from ..errors import ParseError


@dataclass(frozen=True)
class Tok:
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
    """
    toks: list[Tok] = []
    line, col = start_line, start_col
    pos = 0
    while pos < len(text):
        m = master.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        end = m.end()
        if token_end is not None and kind in token_end:
            end = token_end[kind](text, pos, line, col)
        piece = text[pos:end]
        if kind not in skip:
            toks.append(Tok(kind, piece, line, col))
        newlines = piece.count("\n")
        if newlines:
            line += newlines
            col = len(piece) - piece.rfind("\n")
        else:
            col += len(piece)
        pos = end
    toks.append(Tok("EOF", "", line, col))
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
