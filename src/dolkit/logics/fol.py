"""Function-free first-order logic with a TPTP FOF text syntax.

Terms are variables and constants only. The text parser reads an equality
or inequality atom far enough to reject it at its `=` or `!=`.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Any, Iterable, Mapping, Union

from ..errors import ParseError, UnknownConstruct
from ..kernel import Kind, Logic, Role, Sentence, Signature, Theory, Walk, node, run, symbols_of
from ._scan import TokenCursor, climb, scan

Term = Union["FVar", "FConst"]
FolAst = Union["FTrue", "FFalse", "FAtom", "FNot", "FBin", "FQuant"]


@node
class FVar:
    name: str


@node
class FConst:
    origin: str
    name: str


@node
class FTrue:
    pass


@node
class FFalse:
    pass


@node
class FAtom:
    origin: str
    name: str
    args: tuple[Term, ...] = ()


@node
class FNot:
    body: FolAst


@node
class FBin:
    op: str  # "and" | "or" | "impl" | "iff"
    left: FolAst
    right: FolAst


@node
class FQuant:
    quant: str  # "forall" | "exists"
    var: str
    body: FolAst


def forall(variables: Iterable[str], body: FolAst) -> FolAst:
    for v in reversed(list(variables)):
        body = FQuant("forall", v, body)
    return body


# -- TPTP name sanitization ----------------------------------------------------

_PLAIN_LOWER_WORD = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def sanitize_tptp_name(name: str) -> str:
    """Map an arbitrary symbol name to a TPTP lower word, injectively.

    Names that already are lower words pass through unchanged unless they
    start with the reserved escape prefix "q_". Everything else becomes
    "q_" + escaped name, where "_" doubles and any other character outside
    [A-Za-z0-9] becomes "_0<hex>_". Plain outputs never start with "q_",
    escaped outputs always do, and the escape stream decodes uniquely, so
    distinct names never collide.
    """
    if _PLAIN_LOWER_WORD.match(name) and not name.startswith("q_"):
        return name
    pieces = ["q_"]
    for ch in name:
        if ch == "_":
            pieces.append("__")
        elif ch.isascii() and ch.isalnum():
            pieces.append(ch)
        else:
            pieces.append("_0%x_" % ord(ch))
    return "".join(pieces)


def _symbol_tptp_name(origin: str, name: str, prefixes: Mapping[str, str] | None) -> str:
    if origin and prefixes:
        for pfx, iri in prefixes.items():
            if iri == origin:
                return sanitize_tptp_name(f"{pfx}:{name}")
    return sanitize_tptp_name(f"{origin}:{name}" if origin else name)


_VAR_WORD = re.compile(r"[A-Z][a-zA-Z0-9_]*\Z")


def _var_tptp_name(name: str) -> str:
    if _VAR_WORD.match(name):
        return name
    cleaned = "".join(ch if (ch.isascii() and ch.isalnum()) else "_" for ch in name)
    return "V_" + cleaned


# -- printing --------------------------------------------------------------------


def print_fol(ast: FolAst, prefixes: Mapping[str, str] | None = None) -> str:
    """Render a formula in TPTP FOF syntax (binary connectives parenthesized)."""
    return run(_print(ast, prefixes))


def _print_term(t: Term, prefixes: Mapping[str, str] | None) -> str:
    if isinstance(t, FVar):
        return _var_tptp_name(t.name)
    return _symbol_tptp_name(t.origin, t.name, prefixes)


def _print(ast: FolAst, prefixes: Mapping[str, str] | None) -> Walk:
    if isinstance(ast, FTrue):
        return "$true"
    if isinstance(ast, FFalse):
        return "$false"
    if isinstance(ast, FAtom):
        head = _symbol_tptp_name(ast.origin, ast.name, prefixes)
        if not ast.args:
            return head
        return head + "(" + ", ".join(_print_term(a, prefixes) for a in ast.args) + ")"
    if isinstance(ast, FNot):
        body = yield _print(ast.body, prefixes)
        if isinstance(ast.body, (FAtom, FTrue, FFalse, FBin)):
            # FBin already comes parenthesized
            return "~" + body
        return "~(" + body + ")"
    if isinstance(ast, FBin):
        op = {"and": "&", "or": "|", "impl": "=>", "iff": "<=>"}[ast.op]
        return f"({(yield _print(ast.left, prefixes))} {op} {(yield _print(ast.right, prefixes))})"
    if isinstance(ast, FQuant):
        sigil = "!" if ast.quant == "forall" else "?"
        return f"{sigil}[{_var_tptp_name(ast.var)}]: {(yield _print(ast.body, prefixes))}"
    raise TypeError(f"not a FOL ast: {ast!r}")


def print_tptp(
    sentence: Sentence | FolAst,
    name: str,
    role: str,
    prefixes: Mapping[str, str] | None = None,
) -> str:
    """One TPTP FOF annotated formula: `fof(name, role, formula).`"""
    ast = sentence.ast if isinstance(sentence, Sentence) else sentence
    return f"fof({sanitize_tptp_name(name)}, {role}, {print_fol(ast, prefixes)})."


# -- parsing ---------------------------------------------------------------------

_TOKENS = re.compile(
    r"(?P<WS>\s+)"
    r"|(?P<COMMENT>%[^\n]*)"
    r"|(?P<IFF><=>)"
    r"|(?P<IMPL>=>)"
    r"|(?P<NEQ>!=)"
    r"|(?P<DOLLAR>\$(?:true|false))"
    r"|(?P<LOWER>[a-z][a-zA-Z0-9_]*)"
    r"|(?P<UPPER>[A-Z][a-zA-Z0-9_]*)"
    r"|(?P<PUNCT>[()\[\],.:!?~&|=])"
)


# binding level (higher binds tighter), right-associative?, constructor
_BINARY = {
    "<=>": (1, True, partial(FBin, "iff")),
    "=>": (2, True, partial(FBin, "impl")),
    "|": (3, False, partial(FBin, "or")),
    "&": (4, False, partial(FBin, "and")),
}


class _FofParser:
    def __init__(self, cur: TokenCursor, origin: str):
        self.cur = cur
        self.origin = origin
        self.bound: list[str] = []

    def document(self) -> list[tuple[str, Role, FolAst]]:
        out = []
        names: set[str] = set()
        while not self.cur.at("EOF"):
            out.append(self.statement(names))
        return out

    def statement(self, names: set[str]) -> tuple[str, Role, FolAst]:
        self.cur.expect("LOWER", "fof", what="fof")
        self.cur.expect("PUNCT", "(")
        name_tok = self.cur.expect("LOWER", what="formula name")
        name = name_tok.text
        if name in names:
            raise ParseError(f"duplicate formula name {name!r}", name_tok.line, name_tok.col)
        names.add(name)
        self.cur.expect("PUNCT", ",")
        role_tok = self.cur.expect("LOWER", what="formula role")
        if role_tok.text in ("axiom", "hypothesis", "definition", "lemma"):
            role = Role.AXIOM
        elif role_tok.text == "conjecture":
            role = Role.CONJECTURE
        else:
            raise UnknownConstruct(
                f"unsupported formula role {role_tok.text!r}", role_tok.line, role_tok.col
            )
        self.cur.expect("PUNCT", ",")
        ast = self.formula()
        self.cur.expect("PUNCT", ")")
        self.cur.expect("PUNCT", ".")
        return name, role, ast

    def formula(self) -> FolAst:
        return climb(self.cur, _BINARY, self.unary, "PUNCT", ")")

    def unary(self) -> Any:
        """An operand, or the constructor of `~` or of a quantifier, whose
        variables stay bound until it is applied to its body."""
        if self.cur.at("PUNCT", "~"):
            self.cur.advance()
            return FNot
        if self.cur.at("PUNCT", "!") or self.cur.at("PUNCT", "?"):
            quant = "forall" if self.cur.advance().text == "!" else "exists"
            self.cur.expect("PUNCT", "[")
            names = [self.cur.expect("UPPER", what="variable").text]
            while self.cur.at("PUNCT", ","):
                self.cur.advance()
                names.append(self.cur.expect("UPPER", what="variable").text)
            self.cur.expect("PUNCT", "]")
            self.cur.expect("PUNCT", ":")
            self.bound.extend(names)
            return partial(self.quantify, quant, names)
        if self.cur.at("DOLLAR"):
            return FTrue() if self.cur.advance().text == "$true" else FFalse()
        if self.cur.at("UPPER"):
            self.term()
            raise self.equality()
        if self.cur.at("LOWER"):
            tok = self.cur.advance()
            if self.cur.at("PUNCT", "("):
                self.cur.advance()
                args = [self.term()]
                while self.cur.at("PUNCT", ","):
                    self.cur.advance()
                    args.append(self.term())
                self.cur.expect("PUNCT", ")")
                return FAtom(self.origin, tok.text, tuple(args))
            if self.cur.at("PUNCT", "=") or self.cur.at("NEQ"):
                raise self.equality()
            return FAtom(self.origin, tok.text, ())
        raise self.cur.error("expected a formula", "atom", "~", "!", "?", "(")

    def quantify(self, quant: str, names: list[str], body: FolAst) -> FolAst:
        del self.bound[-len(names):]
        for v in reversed(names):
            body = FQuant(quant, v, body)
        return body

    def equality(self) -> UnknownConstruct:
        """The rejection of an equality atom whose left term was just read."""
        tok = self.cur.cur
        if not self.cur.at("NEQ"):
            self.cur.expect("PUNCT", "=", what="=")
        return UnknownConstruct("equality atoms are not enabled", tok.line, tok.col)

    def term(self) -> Term:
        if self.cur.at("UPPER"):
            tok = self.cur.advance()
            if tok.text not in self.bound:
                raise ParseError(f"unbound variable {tok.text!r}", tok.line, tok.col)
            return FVar(tok.text)
        tok = self.cur.expect("LOWER", what="term")
        if self.cur.at("PUNCT", "("):
            raise UnknownConstruct("function terms are not supported", tok.line, tok.col)
        return FConst(self.origin, tok.text)


def parse_fof_document(
    text: str,
    origin: str = "",
    start_line: int = 1,
    start_col: int = 1,
) -> list[tuple[str, Role, FolAst]]:
    """Parse a sequence of `fof(name, role, formula).` statements with
    distinct names."""
    cur = TokenCursor(scan(text, _TOKENS, start_line, start_col))
    return _FofParser(cur, origin).document()


def parse_fof_formula(text: str, origin: str = "") -> FolAst:
    """Parse a bare FOF formula (no `fof(...)` wrapper)."""
    cur = TokenCursor(scan(text, _TOKENS))
    ast = _FofParser(cur, origin).formula()
    if not cur.at("EOF"):
        raise cur.error(f"trailing input {cur.cur.text!r}", "end of formula")
    return ast


# -- logic registration ------------------------------------------------------------


class FolLogic(Logic):
    id = "FOL"
    admitted_kinds = frozenset({Kind.PREDICATE, Kind.INDIVIDUAL})
    name_nodes = {FAtom: Kind.PREDICATE, FConst: Kind.INDIVIDUAL}

    def print_sentence(self, ast: Any, prefixes: Mapping[str, str] | None = None) -> str:
        return print_fol(ast, prefixes)

    def parse_theory(
        self,
        text: str,
        name: str,
        origin: str = "",
        prefixes: Mapping[str, str] | None = None,
        start_line: int = 1,
        start_col: int = 1,
    ) -> Theory:
        statements = parse_fof_document(text, origin, start_line=start_line, start_col=start_col)
        sentences = [Sentence(self.id, ast, fof_name, role) for fof_name, role, ast in statements]
        return Theory(name, Signature(self.id, symbols_of(*sentences)), tuple(sentences))

    def print_theory(self, t: Theory, prefixes: Mapping[str, str] | None = None) -> str:
        lines = []
        for i, s in enumerate(t.sentences, 1):
            role = "conjecture" if s.role is Role.CONJECTURE else "axiom"
            lines.append(print_tptp(s, s.label or f"ax{i}", role, prefixes))
        return "".join(line + "\n" for line in lines)

