"""A small OWL-like description logic with a Manchester-style frame syntax.

Supported frames and sections:

    Class: C            SubClassOf: / EquivalentTo: / DisjointWith: <expr list>
    Individual: i       Types: <expr list>   Facts: <prop ind list>
    ObjectProperty: p   SubPropertyOf: / InverseOf: <prop list>
                        Characteristics: Transitive

Class expressions: named classes, `not`, `and`, `or`, `p some E`, `p only E`,
parentheses. Names are bare (taking the document origin), prefixed
(`f1:Chris`), or full IRIs in angle brackets. Recognized Manchester syntax
outside this subset raises UnknownConstruct rather than a plain syntax error.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Any, Mapping, Union

from ..errors import DolkitError, ParseError, UnknownConstruct
from ..kernel import Kind, Logic, Role, Sentence, Signature, Symbol, Theory, Walk, node, run, symbols_of
from ._scan import Tok, TokenCursor, climb, expand_name, scan

ClassExpr = Union["ClsName", "ClsNot", "ClsAnd", "ClsOr", "ClsSome", "ClsOnly"]
DlAst = Union[
    "SubClassOf",
    "EquivalentClasses",
    "DisjointClasses",
    "ClassAssertion",
    "PropertyAssertion",
    "SubPropertyOf",
    "InverseProperties",
    "TransitiveProperty",
]


@node
class ClsName:
    origin: str
    name: str


@node
class ClsNot:
    body: ClassExpr


@node
class ClsAnd:
    left: ClassExpr
    right: ClassExpr


@node
class ClsOr:
    left: ClassExpr
    right: ClassExpr


@node
class PropName:
    origin: str
    name: str


@node
class IndName:
    origin: str
    name: str


@node
class ClsSome:
    prop: PropName
    filler: ClassExpr


@node
class ClsOnly:
    prop: PropName
    filler: ClassExpr


@node
class SubClassOf:
    sub: ClassExpr
    sup: ClassExpr


@node
class EquivalentClasses:
    left: ClassExpr
    right: ClassExpr


@node
class DisjointClasses:
    left: ClassExpr
    right: ClassExpr


@node
class ClassAssertion:
    cls: ClassExpr
    individual: IndName


@node
class PropertyAssertion:
    prop: PropName
    subject: IndName
    obj: IndName


@node
class SubPropertyOf:
    sub: PropName
    sup: PropName


@node
class InverseProperties:
    left: PropName
    right: PropName


@node
class TransitiveProperty:
    prop: PropName


_TOKENS = re.compile(
    r"(?P<WS>\s+)"
    r"|(?P<COMMENT>#[^\n]*)"
    r"|(?P<IRIREF><[^<>\s]*>)"
    r"|(?P<NAME>[A-Za-z0-9_][A-Za-z0-9_.\-]*(?::[A-Za-z0-9_][A-Za-z0-9_.\-]*)?)"
    r"|(?P<COLON>:)"
    r"|(?P<COMMA>,)"
    r"|(?P<LPAR>\()"
    r"|(?P<RPAR>\))"
)

_FRAMES = {
    "Class": Kind.CLASS,
    "Individual": Kind.INDIVIDUAL,
    "ObjectProperty": Kind.OBJECT_PROPERTY,
}
_UNSUPPORTED_FRAMES = (
    "DataProperty",
    "AnnotationProperty",
    "Datatype",
    "Prefix",
    "Ontology",
    "Import",
)
_SECTIONS: dict[str, tuple[str, ...]] = {
    "Class": ("SubClassOf", "EquivalentTo", "DisjointWith"),
    "Individual": ("Types", "Facts"),
    "ObjectProperty": ("SubPropertyOf", "InverseOf", "Characteristics"),
}
_UNSUPPORTED_SECTIONS = (
    "Annotations",
    "Domain",
    "Range",
    "SameAs",
    "DifferentFrom",
    "DisjointUnionOf",
    "HasKey",
    "SubPropertyChain",
    "EquivalentProperties",
    "DisjointProperties",
)
_EXPR_KEYWORDS = ("not", "and", "or", "some", "only")
# binding level (higher binds tighter), right-associative?, constructor
_BINARY = {"or": (1, False, ClsOr), "and": (2, False, ClsAnd)}
_PREFIX = len(_BINARY) + 1  # `not` and restrictions: tighter than every binary operator
_UNSUPPORTED_EXPR = ("min", "max", "exactly", "value", "Self", "that", "inverse")


def split_iri(iri: str, prefixes: Mapping[str, str] | None) -> tuple[str, str]:
    """Split a full IRI into (origin, local) by the longest declared prefix,
    falling back to the last '#' or '/' separator."""
    best = ""
    for declared in (prefixes or {}).values():
        if iri.startswith(declared) and len(declared) > len(best):
            best = declared
    if best:
        return best, iri[len(best):]
    for sep in ("#", "/"):
        k = iri.rfind(sep)
        if 0 < k < len(iri) - 1:
            return iri[: k + 1], iri[k + 1 :]
    return "", iri


class _Names:
    def __init__(self, origin: str, prefixes: Mapping[str, str] | None):
        self.origin = origin
        self.prefixes = prefixes or {}

    def resolve(self, tok: Tok) -> tuple[str, str]:
        if tok.kind != "IRIREF":
            return expand_name(tok, self.prefixes, self.origin)
        origin, local = split_iri(tok.text[1:-1], self.prefixes)
        if not local:
            raise ParseError(f"IRI {tok.text} has no local name", tok.line, tok.col)
        return origin, local


class _FrameParser:
    def __init__(self, cur: TokenCursor, names: _Names):
        self.cur = cur
        self.names = names
        self.sentences: list[DlAst] = []
        self.declared: set[Symbol] = set()

    def document(self) -> None:
        while not self.cur.at("EOF"):
            self.frame()

    def _name_tok(self, what: str) -> Tok:
        if self.cur.at("NAME") or self.cur.at("IRIREF"):
            tok = self.cur.advance()
            if tok.kind == "NAME" and tok.text in _UNSUPPORTED_EXPR:
                raise UnknownConstruct(
                    f"{tok.text!r} is outside the supported fragment", tok.line, tok.col
                )
            return tok
        raise self.cur.error(f"expected {what}", what)

    def frame(self) -> None:
        head = self.cur.cur
        if head.kind != "NAME":
            raise self.cur.error("expected a frame", *(f + ":" for f in _FRAMES))
        if head.text in _UNSUPPORTED_FRAMES:
            raise UnknownConstruct(
                f"frame {head.text!r} is outside the supported fragment", head.line, head.col
            )
        if head.text not in _FRAMES:
            raise self.cur.error(
                f"found {head.text!r}", *(f + ":" for f in _FRAMES)
            )
        self.cur.advance()
        self.cur.expect("COLON")
        subject = self._name_tok("a name")
        origin, local = self.names.resolve(subject)
        self.declared.add(Symbol(origin, local, _FRAMES[head.text], 0))
        while True:
            section = self.cur.cur
            if section.kind != "NAME" or not self.cur.toks[self.cur.i + 1].kind == "COLON":
                return
            if section.text in _FRAMES:
                return
            if section.text in _UNSUPPORTED_SECTIONS:
                raise UnknownConstruct(
                    f"section {section.text!r} is outside the supported fragment",
                    section.line,
                    section.col,
                )
            if section.text not in _SECTIONS[head.text]:
                raise self.cur.error(
                    f"section {section.text!r} not valid in a {head.text} frame",
                    *(s + ":" for s in _SECTIONS[head.text]),
                )
            self.cur.advance()
            self.cur.expect("COLON")
            self.section(head.text, section.text, origin, local)

    def section(self, frame: str, section: str, origin: str, local: str) -> None:
        while True:
            if frame == "Class":
                expr = self.class_expr()
                subject = ClsName(origin, local)
                if section == "SubClassOf":
                    self.sentences.append(SubClassOf(subject, expr))
                elif section == "EquivalentTo":
                    self.sentences.append(EquivalentClasses(subject, expr))
                else:
                    self.sentences.append(DisjointClasses(subject, expr))
            elif frame == "Individual":
                ind = IndName(origin, local)
                if section == "Types":
                    self.sentences.append(ClassAssertion(self.class_expr(), ind))
                else:  # Facts
                    p_origin, p_local = self.names.resolve(self._name_tok("a property name"))
                    o_origin, o_local = self.names.resolve(self._name_tok("an individual name"))
                    self.sentences.append(
                        PropertyAssertion(
                            PropName(p_origin, p_local), ind, IndName(o_origin, o_local)
                        )
                    )
            else:  # ObjectProperty
                prop = PropName(origin, local)
                if section == "Characteristics":
                    tok = self._name_tok("a characteristic")
                    if tok.text != "Transitive":
                        raise UnknownConstruct(
                            f"characteristic {tok.text!r} is outside the supported fragment",
                            tok.line,
                            tok.col,
                        )
                    self.sentences.append(TransitiveProperty(prop))
                else:
                    other = PropName(*self.names.resolve(self._name_tok("a property name")))
                    if section == "SubPropertyOf":
                        self.sentences.append(SubPropertyOf(prop, other))
                    else:
                        self.sentences.append(InverseProperties(prop, other))
            if self.cur.at("COMMA"):
                self.cur.advance()
                continue
            return

    def class_expr(self) -> ClassExpr:
        return climb(self.cur, _BINARY, self.unary_expr, "RPAR")

    def unary_expr(self) -> Any:
        """A class expression, or the constructor of `not` or of a restriction."""
        if self.cur.at("NAME", "not"):
            self.cur.advance()
            return ClsNot
        tok = self._name_tok("a class expression")
        if tok.kind == "NAME" and tok.text in _EXPR_KEYWORDS:
            raise self.cur.error(f"keyword {tok.text!r} cannot start an expression", "class name")
        origin, local = self.names.resolve(tok)
        if self.cur.at("NAME", "some") or self.cur.at("NAME", "only"):
            restriction = ClsSome if self.cur.advance().text == "some" else ClsOnly
            return partial(restriction, PropName(origin, local))
        follower = self.cur.cur
        if follower.kind == "NAME" and follower.text in _UNSUPPORTED_EXPR:
            raise UnknownConstruct(
                f"{follower.text!r} restrictions are outside the supported fragment",
                follower.line,
                follower.col,
            )
        return ClsName(origin, local)


def parse_dl_frames(
    text: str,
    origin: str = "",
    prefixes: Mapping[str, str] | None = None,
    start_line: int = 1,
    start_col: int = 1,
) -> tuple[list[DlAst], frozenset[Symbol]]:
    """Parse frame text; returns the sentences and the declared symbols."""
    cur = TokenCursor(scan(text, _TOKENS, start_line, start_col))
    parser = _FrameParser(cur, _Names(origin, prefixes))
    parser.document()
    return parser.sentences, frozenset(parser.declared)


def parse_dl_frame(
    text: str, origin: str = "", prefixes: Mapping[str, str] | None = None
) -> list[DlAst]:
    """Parse frame text to its sentence list (declarations contribute symbols
    only; fetch them via parse_dl_frames)."""
    return parse_dl_frames(text, origin, prefixes)[0]


# -- printing --------------------------------------------------------------------


# a local part the scanner reads back as one name
_LOCAL = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*")


def _print_name(origin: str, name: str, rev: dict[str, str]) -> str:
    """A bare name, `pfx:local`, or else the full IRI `<origin+name>`."""
    if _LOCAL.fullmatch(name):
        if not origin and name not in _EXPR_KEYWORDS + _UNSUPPORTED_EXPR:
            return name
        pfx = rev.get(origin)
        if pfx is not None:
            return f"{pfx}:{name}"
    return f"<{origin}{name}>"


def _print_expr(ast: ClassExpr, level: int, rev: dict[str, str]) -> Walk:
    if isinstance(ast, ClsName):
        return _print_name(ast.origin, ast.name, rev)
    if isinstance(ast, ClsNot):
        return "not " + (yield _print_expr(ast.body, _PREFIX, rev))
    if isinstance(ast, (ClsSome, ClsOnly)):
        word = "some" if isinstance(ast, ClsSome) else "only"
        prop = _print_name(ast.prop.origin, ast.prop.name, rev)
        return f"{prop} {word} " + (yield _print_expr(ast.filler, _PREFIX, rev))
    if isinstance(ast, (ClsAnd, ClsOr)):
        word = "and" if isinstance(ast, ClsAnd) else "or"
        own = _BINARY[word][0]
        left = yield _print_expr(ast.left, own, rev)
        out = f"{left} {word} " + (yield _print_expr(ast.right, own + 1, rev))
        return f"({out})" if level > own else out
    raise TypeError(f"not a class expression: {ast!r}")


def print_dl_sentence(ast: DlAst, prefixes: Mapping[str, str] | None = None) -> str:
    rev = {iri: pfx for pfx, iri in (prefixes or {}).items()}

    def name(n) -> str:
        return _print_name(n.origin, n.name, rev)

    def named_class(expr: ClassExpr, what: str) -> str:
        if not isinstance(expr, ClsName):
            raise DolkitError(f"cannot print a complex {what} as a frame subject")
        return name(expr)

    def expr(e: ClassExpr) -> str:
        return run(_print_expr(e, 0, rev))

    if isinstance(ast, SubClassOf):
        return f"Class: {named_class(ast.sub, 'subclass')} SubClassOf: {expr(ast.sup)}"
    if isinstance(ast, EquivalentClasses):
        return f"Class: {named_class(ast.left, 'class')} EquivalentTo: {expr(ast.right)}"
    if isinstance(ast, DisjointClasses):
        return f"Class: {named_class(ast.left, 'class')} DisjointWith: {expr(ast.right)}"
    if isinstance(ast, ClassAssertion):
        return f"Individual: {name(ast.individual)} Types: {expr(ast.cls)}"
    if isinstance(ast, PropertyAssertion):
        return f"Individual: {name(ast.subject)} Facts: {name(ast.prop)} {name(ast.obj)}"
    if isinstance(ast, SubPropertyOf):
        return f"ObjectProperty: {name(ast.sub)} SubPropertyOf: {name(ast.sup)}"
    if isinstance(ast, InverseProperties):
        return f"ObjectProperty: {name(ast.left)} InverseOf: {name(ast.right)}"
    if isinstance(ast, TransitiveProperty):
        return f"ObjectProperty: {name(ast.prop)} Characteristics: Transitive"
    raise TypeError(f"not a DL sentence: {ast!r}")


class SimpleDlLogic(Logic):
    id = "SimpleDL"
    admitted_kinds = frozenset({Kind.CLASS, Kind.INDIVIDUAL, Kind.OBJECT_PROPERTY})
    name_nodes = {ClsName: Kind.CLASS, PropName: Kind.OBJECT_PROPERTY, IndName: Kind.INDIVIDUAL}

    def print_sentence(self, ast: Any, prefixes: Mapping[str, str] | None = None) -> str:
        return print_dl_sentence(ast, prefixes)

    def parse_theory(
        self,
        text: str,
        name: str,
        origin: str = "",
        prefixes: Mapping[str, str] | None = None,
        start_line: int = 1,
        start_col: int = 1,
    ) -> Theory:
        asts, declared = parse_dl_frames(text, origin, prefixes, start_line, start_col)
        sentences = tuple(
            Sentence(self.id, ast, f"{name}_{i}", Role.AXIOM) for i, ast in enumerate(asts, 1)
        )
        used = symbols_of(*sentences)
        return Theory(name, Signature(self.id, declared | used), sentences)

    def print_theory(self, t: Theory, prefixes: Mapping[str, str] | None = None) -> str:
        rev = {iri: pfx for pfx, iri in (prefixes or {}).items()}
        used = symbols_of(*t.sentences)
        frame_word = {kind: word for word, kind in _FRAMES.items()}
        lines = []
        for sym in t.signature.sorted_symbols():
            if sym in used or sym.kind not in frame_word:
                continue
            lines.append(f"{frame_word[sym.kind]}: {_print_name(sym.origin, sym.name, rev)}")
        lines.extend(print_dl_sentence(s.ast, prefixes) for s in t.sentences)
        return "".join(line + "\n" for line in lines)
