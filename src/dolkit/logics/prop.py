"""Propositional logic: ASTs, parser, printer.

Grammar (precedence from tightest to loosest: not, and, or, impl, iff;
impl and iff are right-associative, and/or left-associative):

    F ::= NAME | true | false | not F | F and F | F or F | F impl F
        | F iff F | ( F )

Atom names may be prefixed (`pfx:name`); the prefix must be declared in the
supplied prefix map and expands to the atom's origin.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Mapping, Union

from ..errors import UndeclaredPrefix
from ..kernel import Kind, Logic, Role, Sentence, Signature, Theory, symbols_of
from ._scan import Tok, TokenCursor, scan

PropAst = Union["PTrue", "PFalse", "PVar", "PNot", "PBin"]


@dataclass(frozen=True)
class PTrue:
    pass


@dataclass(frozen=True)
class PFalse:
    pass


@dataclass(frozen=True)
class PVar:
    origin: str
    name: str


@dataclass(frozen=True)
class PNot:
    body: PropAst


@dataclass(frozen=True)
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


def _resolve_name(tok: Tok, origin: str, prefixes: Mapping[str, str] | None) -> PVar:
    if ":" in tok.text:
        pfx, local = tok.text.split(":", 1)
        if prefixes is None or pfx not in prefixes:
            raise UndeclaredPrefix(f"{tok.line}:{tok.col}: prefix {pfx!r} is not declared")
        return PVar(prefixes[pfx], local)
    return PVar(origin, tok.text)


def parse_prop(
    text: str,
    origin: str = "",
    prefixes: Mapping[str, str] | None = None,
    start_line: int = 1,
    start_col: int = 1,
) -> PropAst:
    """Parse a single propositional sentence."""
    cur = TokenCursor(scan(text, _TOKENS, start_line=start_line, start_col=start_col))
    ast = _parse_iff(cur, origin, prefixes)
    if not cur.at("EOF"):
        raise cur.error(f"trailing input {cur.cur.text!r}", "end of sentence")
    return ast


def _parse_iff(cur, origin, prefixes) -> PropAst:
    left = _parse_impl(cur, origin, prefixes)
    if cur.at("NAME", "iff"):
        cur.advance()
        return PBin("iff", left, _parse_iff(cur, origin, prefixes))
    return left


def _parse_impl(cur, origin, prefixes) -> PropAst:
    left = _parse_or(cur, origin, prefixes)
    if cur.at("NAME", "impl"):
        cur.advance()
        return PBin("impl", left, _parse_impl(cur, origin, prefixes))
    return left


def _parse_or(cur, origin, prefixes) -> PropAst:
    ast = _parse_and(cur, origin, prefixes)
    while cur.at("NAME", "or"):
        cur.advance()
        ast = PBin("or", ast, _parse_and(cur, origin, prefixes))
    return ast


def _parse_and(cur, origin, prefixes) -> PropAst:
    ast = _parse_unary(cur, origin, prefixes)
    while cur.at("NAME", "and"):
        cur.advance()
        ast = PBin("and", ast, _parse_unary(cur, origin, prefixes))
    return ast


def _parse_unary(cur, origin, prefixes) -> PropAst:
    if cur.at("NAME", "not"):
        cur.advance()
        return PNot(_parse_unary(cur, origin, prefixes))
    if cur.at("NAME", "true"):
        cur.advance()
        return PTrue()
    if cur.at("NAME", "false"):
        cur.advance()
        return PFalse()
    if cur.at("LPAR"):
        cur.advance()
        ast = _parse_iff(cur, origin, prefixes)
        cur.expect("RPAR")
        return ast
    if cur.at("NAME"):
        tok = cur.cur
        if tok.text in _KEYWORDS:
            raise cur.error(f"keyword {tok.text!r} cannot start a formula", "atom")
        cur.advance()
        return _resolve_name(tok, origin, prefixes)
    raise cur.error("expected a formula", "atom", "not", "(")


_LEVEL = {"iff": 1, "impl": 2, "or": 3, "and": 4}


def print_prop(ast: PropAst, prefixes: Mapping[str, str] | None = None) -> str:
    rev = {iri: pfx for pfx, iri in (prefixes or {}).items()}
    return _print(ast, 0, rev)


def _print(ast: PropAst, parent_level: int, rev: dict[str, str]) -> str:
    if isinstance(ast, PTrue):
        return "true"
    if isinstance(ast, PFalse):
        return "false"
    if isinstance(ast, PVar):
        if not ast.origin:
            return ast.name
        pfx = rev.get(ast.origin)
        return f"{pfx}:{ast.name}" if pfx else f"{ast.origin}:{ast.name}"
    if isinstance(ast, PNot):
        return "not " + _print(ast.body, 5, rev)
    level = _LEVEL[ast.op]
    # impl/iff associate to the right, and/or to the left
    if ast.op in ("impl", "iff"):
        left = _print(ast.left, level + 1, rev)
        right = _print(ast.right, level, rev)
    else:
        left = _print(ast.left, level, rev)
        right = _print(ast.right, level + 1, rev)
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
    ) -> Theory:
        """One sentence per non-empty line; `%%` starts a comment."""
        sentences: list[Sentence] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("%%", 1)[0]
            if not line.strip():
                continue
            indent = len(line) - len(line.lstrip())
            ast = parse_prop(line.strip(), origin, prefixes, start_line=lineno, start_col=indent + 1)
            sentences.append(Sentence(self.id, ast, f"{name}_{len(sentences) + 1}", Role.AXIOM))
        symbols = frozenset().union(*map(symbols_of, sentences))
        return Theory(name, Signature(self.id, symbols), tuple(sentences))

    def print_theory(self, t: Theory, prefixes: Mapping[str, str] | None = None) -> str:
        return "".join(print_prop(s.ast, prefixes) + "\n" for s in t.sentences)

