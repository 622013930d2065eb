"""Propositional logic: ASTs, parser, printer.

Grammar (precedence from tightest to loosest: not, and, or, impl, iff;
impl and iff are right-associative, and/or left-associative):

    F ::= NAME | true | false | not F | F and F | F or F | F impl F
        | F iff F | ( F )

Atom names may be prefixed (`pfx:name`); the prefix must be declared in the
supplied prefix map and expands to the atom's origin.

The parser is `_scan.climb` over the `_BINARY` table, which the printer also
reads, so text of any nesting depth parses. A theory shares one atom table,
so each spelled name is resolved, and its `PVar` built, once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Mapping, Union

from ..errors import ParseError
from ..kernel import Kind, Logic, Role, Sentence, Signature, Theory, Walk, node, run, symbols_of
from ._scan import Tok, TokenCursor, climb, expand_name, scan

PropAst = Union["PTrue", "PFalse", "PVar", "PNot", "PBin"]


@node
class PTrue:
    pass


@node
class PFalse:
    pass


@node
class PVar:
    origin: str
    name: str


@node
class PNot:
    body: PropAst


@node
class PBin:
    op: str  # "and" | "or" | "impl" | "iff"
    left: PropAst
    right: PropAst


_KEYWORDS = {"true", "false", "not", "and", "or", "impl", "iff"}

_TOKENS = re.compile(
    r"(?P<WS>\s+)"
    r"|(?P<COMMENT>%%[^\n]*)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*(?::[A-Za-z_][A-Za-z0-9_]*)?)"
    r"|(?P<LPAR>\()"
    r"|(?P<RPAR>\))"
)


def parse_prop(
    text: str,
    origin: str = "",
    prefixes: Mapping[str, str] | None = None,
    start_line: int = 1,
    start_col: int = 1,
    atoms: dict[str, PVar] | None = None,
) -> PropAst:
    """Parse a single propositional sentence. `atoms` caches the `PVar` of each
    spelled name; share it only among sentences with equal `origin` and `prefixes`."""
    toks = scan(text, _TOKENS, start_line=start_line, start_col=start_col)
    p = _Parser(toks, origin, prefixes, {} if atoms is None else atoms)
    ast = climb(p, _BINARY, p.unary, "RPAR")
    tok = toks[p.i]
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col, ("end of sentence",))
    return ast


@dataclass
class _Parser(TokenCursor):
    """A cursor over one sentence's tokens; `unary` reads an operand, or `PNot`, for `climb`."""

    toks: list[Tok]
    origin: str
    prefixes: Mapping[str, str] | None
    atoms: dict[str, PVar]
    i: int = 0

    def unary(self) -> Any:
        tok = self.toks[self.i]
        text = tok.text
        if tok.kind == "NAME":
            self.i += 1
            if text not in _KEYWORDS:
                atom = self.atoms.get(text)
                if atom is None:
                    atom = self.atoms[text] = PVar(*expand_name(tok, self.prefixes, self.origin))
                return atom
            if text == "not":
                return PNot
            if text == "true":
                return PTrue()
            if text == "false":
                return PFalse()
            message = f"keyword {text!r} cannot start a formula"
            raise ParseError(message, tok.line, tok.col, ("atom",))
        raise ParseError("expected a formula", tok.line, tok.col, ("atom", "not", "("))


# binding level (higher binds tighter), right-associative?, constructor
_BINARY = {
    "iff": (1, True, partial(PBin, "iff")),
    "impl": (2, True, partial(PBin, "impl")),
    "or": (3, False, partial(PBin, "or")),
    "and": (4, False, partial(PBin, "and")),
}


def print_prop(ast: PropAst, prefixes: Mapping[str, str] | None = None) -> str:
    rev = {iri: pfx for pfx, iri in (prefixes or {}).items()}
    return _literal(ast, rev) or run(_print(ast, 0, rev))


def _literal(ast: PropAst, rev: dict[str, str]) -> str:
    """The text of a constant, an atom or a negated one; "" for another formula."""
    if isinstance(ast, PNot):
        body = "" if isinstance(ast.body, PNot) else _literal(ast.body, rev)
        return body and "not " + body
    if isinstance(ast, PTrue):
        return "true"
    if isinstance(ast, PFalse):
        return "false"
    if not isinstance(ast, PVar):
        return ""
    if not ast.origin:
        return ast.name
    pfx = rev.get(ast.origin)
    return f"{pfx}:{ast.name}" if pfx else f"{ast.origin}:{ast.name}"


def _print(ast: PropAst, parent_level: int, rev: dict[str, str]) -> Walk:
    if isinstance(ast, PNot):
        return "not " + (_literal(ast.body, rev) or (yield _print(ast.body, 5, rev)))
    level, right_assoc, _ = _BINARY[ast.op]
    if right_assoc:
        left = _literal(ast.left, rev) or (yield _print(ast.left, level + 1, rev))
        right = _literal(ast.right, rev) or (yield _print(ast.right, level, rev))
    else:
        left = _literal(ast.left, rev) or (yield _print(ast.left, level, rev))
        right = _literal(ast.right, rev) or (yield _print(ast.right, level + 1, rev))
    out = f"{left} {ast.op} {right}"
    return f"({out})" if level < parent_level else out


class PropLogic(Logic):
    id = "Prop"
    admitted_kinds = frozenset({Kind.PROP_VAR})
    name_nodes = {PVar: Kind.PROP_VAR}

    def print_sentence(self, ast: Any, prefixes: Mapping[str, str] | None = None) -> str:
        return print_prop(ast, prefixes)

    def parse_theory(
        self,
        text: str,
        name: str,
        origin: str = "",
        prefixes: Mapping[str, str] | None = None,
        start_line: int = 1,
        start_col: int = 1,
    ) -> Theory:
        """One sentence per non-empty line; `%%` starts a comment."""
        sentences: list[Sentence] = []
        atoms: dict[str, PVar] = {}
        for lineno, raw in enumerate(text.splitlines(), start=start_line):
            line = raw.split("%%", 1)[0]
            stripped = line.strip()
            if not stripped:
                continue
            col = len(line) - len(line.lstrip()) + (start_col if lineno == start_line else 1)
            ast = parse_prop(stripped, origin, prefixes, lineno, col, atoms)
            sentences.append(Sentence(self.id, ast, f"{name}_{len(sentences) + 1}", Role.AXIOM))
        return Theory(name, Signature(self.id, symbols_of(*sentences)), tuple(sentences))

    def print_theory(self, t: Theory, prefixes: Mapping[str, str] | None = None) -> str:
        return "".join(print_prop(s.ast, prefixes) + "\n" for s in t.sentences)

