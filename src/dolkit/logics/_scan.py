"""Tiny regex token scanner and operator-precedence loop shared by the
text-format parsers."""

from __future__ import annotations

import re
from typing import Any, Callable, Mapping, NamedTuple

from ..errors import ParseError, UndeclaredPrefix


class Tok(NamedTuple):
    """A token: a plain tuple with named fields, cheap to build."""

    kind: str
    text: str
    line: int
    col: int


_SKIP = frozenset({"WS", "COMMENT"})


def scan(
    text: str,
    master: "re.Pattern[str]",
    start_line: int = 1,
    start_col: int = 1,
    token_end: Mapping[str, Callable[[str, int, int, int], int]] | None = None,
) -> list[Tok]:
    """Tokenize `text` with a named-group master regex.

    Group names become token kinds; `WS` and `COMMENT` pieces are dropped.
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
        if kind not in _SKIP:
            append(Tok(kind, text[pos:end], line, pos - line_start + 1))
        newlines = count("\n", pos, end)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, end) + 1
        pos = end
    append(Tok("EOF", "", line, pos - line_start + 1))
    return toks


def expand_name(
    tok: Tok, prefixes: Mapping[str, str] | None, origin: str | None = None
) -> tuple[str | None, str]:
    """Split the name `pfx:local` into the IRI that `prefixes` gives `pfx` and
    `local`; a name without a prefix gives `(origin, name)`."""
    pfx, colon, local = tok.text.partition(":")
    if not colon:
        return origin, tok.text
    if prefixes is None or pfx not in prefixes:
        raise UndeclaredPrefix(f"{tok.line}:{tok.col}: prefix {pfx!r} is not declared")
    return prefixes[pfx], local


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


def climb(
    cur: TokenCursor,
    binary: Mapping[str, tuple[int, bool, Callable[[Any, Any], Any]]],
    operand: Callable[[], Any],
    *rpar: str,
) -> Any:
    """Read the formula at `cur` by operator precedence; leave `cur` after it.

    `binary` maps an operator's spelling to its binding level (higher binds
    tighter), whether it is right-associative, and its constructor. `operand()`
    reads an operand or a prefix operator's constructor (a callable), which
    takes the next operand alone: `not p and q` is `(not p) and q`. A `(` opens
    a group that `cur.expect(*rpar)` closes. The stacks are explicit
    (Dijkstra's shunting-yard), so input of any depth is read.
    """
    toks = cur.toks
    ops: list[Any] = []  # None for an open `(`, prefix constructors, binary entries
    lefts: list[Any] = []  # the left operand of each binary entry in `ops`
    while True:
        if toks[cur.i].text == "(":
            ops.append(None)
            cur.i += 1
            continue
        x = operand()
        if callable(x):
            ops.append(x)
            continue
        while True:  # `x` is a finished operand
            op = binary.get(toks[cur.i].text)
            # apply the prefixes, then the binary operators that bind at least as
            # tight as `op` (tighter, if `op` associates to the right)
            floor = 0 if op is None else op[0] - (not op[1])
            while ops and ops[-1] is not None and (callable(ops[-1]) or ops[-1][0] > floor):
                top = ops.pop()
                x = top(x) if callable(top) else top[2](lefts.pop(), x)
            if op is not None:
                lefts.append(x)
                ops.append(op)
                cur.i += 1
                break
            if not ops:
                return x
            cur.expect(*rpar)
            ops.pop()
