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
from dataclasses import dataclass
from typing import Any, Mapping, Union

from ..errors import DolkitError, UndeclaredPrefix, UnknownConstruct
from ..kernel import Kind, Logic, Role, Sentence, Signature, Symbol, Theory
from ._scan import Tok, TokenCursor, scan

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


@dataclass(frozen=True)
class ClsName:
    origin: str
    name: str


@dataclass(frozen=True)
class ClsNot:
    body: ClassExpr


@dataclass(frozen=True)
class ClsAnd:
    left: ClassExpr
    right: ClassExpr


@dataclass(frozen=True)
class ClsOr:
    left: ClassExpr
    right: ClassExpr


@dataclass(frozen=True)
class PropName:
    origin: str
    name: str


@dataclass(frozen=True)
class IndName:
    origin: str
    name: str


@dataclass(frozen=True)
class ClsSome:
    prop: PropName
    filler: ClassExpr


@dataclass(frozen=True)
class ClsOnly:
    prop: PropName
    filler: ClassExpr


@dataclass(frozen=True)
class SubClassOf:
    sub: ClassExpr
    sup: ClassExpr


@dataclass(frozen=True)
class EquivalentClasses:
    left: ClassExpr
    right: ClassExpr


@dataclass(frozen=True)
class DisjointClasses:
    left: ClassExpr
    right: ClassExpr


@dataclass(frozen=True)
class ClassAssertion:
    cls: ClassExpr
    individual: IndName


@dataclass(frozen=True)
class PropertyAssertion:
    prop: PropName
    subject: IndName
    obj: IndName


@dataclass(frozen=True)
class SubPropertyOf:
    sub: PropName
    sup: PropName


@dataclass(frozen=True)
class InverseProperties:
    left: PropName
    right: PropName


@dataclass(frozen=True)
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

_FRAMES = ("Class", "Individual", "ObjectProperty")
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
        if tok.kind == "IRIREF":
            return split_iri(tok.text[1:-1], self.prefixes)
        if ":" in tok.text:
            pfx, local = tok.text.split(":", 1)
            if pfx not in self.prefixes:
                raise UndeclaredPrefix(f"{tok.line}:{tok.col}: prefix {pfx!r} is not declared")
            return self.prefixes[pfx], local
        return self.origin, tok.text


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
        kind = {
            "Class": Kind.CLASS,
            "Individual": Kind.INDIVIDUAL,
            "ObjectProperty": Kind.OBJECT_PROPERTY,
        }[head.text]
        self.declared.add(Symbol(origin, local, kind, 0))
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

    # class expressions: or < and < (not | restriction | atom)
    def class_expr(self) -> ClassExpr:
        ast = self.and_expr()
        while self.cur.at("NAME", "or"):
            self.cur.advance()
            ast = ClsOr(ast, self.and_expr())
        return ast

    def and_expr(self) -> ClassExpr:
        ast = self.unary_expr()
        while self.cur.at("NAME", "and"):
            self.cur.advance()
            ast = ClsAnd(ast, self.unary_expr())
        return ast

    def unary_expr(self) -> ClassExpr:
        if self.cur.at("NAME", "not"):
            self.cur.advance()
            return ClsNot(self.unary_expr())
        if self.cur.at("LPAR"):
            self.cur.advance()
            ast = self.class_expr()
            self.cur.expect("RPAR")
            return ast
        tok = self._name_tok("a class expression")
        if tok.kind == "NAME" and tok.text in _EXPR_KEYWORDS:
            raise self.cur.error(f"keyword {tok.text!r} cannot start an expression", "class name")
        origin, local = self.names.resolve(tok)
        if self.cur.at("NAME", "some") or self.cur.at("NAME", "only"):
            which = self.cur.advance().text
            filler = self.unary_expr()
            prop = PropName(origin, local)
            return ClsSome(prop, filler) if which == "some" else ClsOnly(prop, filler)
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
) -> tuple[list[DlAst], frozenset[Symbol]]:
    """Parse frame text; returns the sentences and the declared symbols."""
    cur = TokenCursor(scan(text, _TOKENS))
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


def _print_name(origin: str, name: str, rev: dict[str, str]) -> str:
    if not origin:
        return name
    pfx = rev.get(origin)
    if pfx is not None:
        return f"{pfx}:{name}"
    return f"<{origin}{name}>"


def _print_expr(ast: ClassExpr, level: int, rev: dict[str, str]) -> str:
    if isinstance(ast, ClsName):
        return _print_name(ast.origin, ast.name, rev)
    if isinstance(ast, ClsNot):
        return "not " + _print_expr(ast.body, 3, rev)
    if isinstance(ast, (ClsSome, ClsOnly)):
        word = "some" if isinstance(ast, ClsSome) else "only"
        prop = _print_name(ast.prop.origin, ast.prop.name, rev)
        return f"{prop} {word} " + _print_expr(ast.filler, 3, rev)
    if isinstance(ast, ClsAnd):
        out = _print_expr(ast.left, 2, rev) + " and " + _print_expr(ast.right, 3, rev)
        return f"({out})" if level > 2 else out
    if isinstance(ast, ClsOr):
        out = _print_expr(ast.left, 1, rev) + " or " + _print_expr(ast.right, 2, rev)
        return f"({out})" if level > 1 else out
    raise TypeError(f"not a class expression: {ast!r}")


def print_dl_sentence(ast: DlAst, prefixes: Mapping[str, str] | None = None) -> str:
    rev = {iri: pfx for pfx, iri in (prefixes or {}).items()}

    def name(n) -> str:
        return _print_name(n.origin, n.name, rev)

    def named_class(expr: ClassExpr, what: str) -> str:
        if not isinstance(expr, ClsName):
            raise DolkitError(f"cannot print a complex {what} as a frame subject")
        return name(expr)

    if isinstance(ast, SubClassOf):
        return f"Class: {named_class(ast.sub, 'subclass')} SubClassOf: {_print_expr(ast.sup, 0, rev)}"
    if isinstance(ast, EquivalentClasses):
        return f"Class: {named_class(ast.left, 'class')} EquivalentTo: {_print_expr(ast.right, 0, rev)}"
    if isinstance(ast, DisjointClasses):
        return f"Class: {named_class(ast.left, 'class')} DisjointWith: {_print_expr(ast.right, 0, rev)}"
    if isinstance(ast, ClassAssertion):
        return f"Individual: {name(ast.individual)} Types: {_print_expr(ast.cls, 0, rev)}"
    if isinstance(ast, PropertyAssertion):
        return f"Individual: {name(ast.subject)} Facts: {name(ast.prop)} {name(ast.obj)}"
    if isinstance(ast, SubPropertyOf):
        return f"ObjectProperty: {name(ast.sub)} SubPropertyOf: {name(ast.sup)}"
    if isinstance(ast, InverseProperties):
        return f"ObjectProperty: {name(ast.left)} InverseOf: {name(ast.right)}"
    if isinstance(ast, TransitiveProperty):
        return f"ObjectProperty: {name(ast.prop)} Characteristics: Transitive"
    raise TypeError(f"not a DL sentence: {ast!r}")


# -- symbol extraction and renaming -------------------------------------------------


def _expr_symbols(ast: ClassExpr, out: set[Symbol]) -> None:
    if isinstance(ast, ClsName):
        out.add(Symbol(ast.origin, ast.name, Kind.CLASS, 0))
    elif isinstance(ast, ClsNot):
        _expr_symbols(ast.body, out)
    elif isinstance(ast, (ClsAnd, ClsOr)):
        _expr_symbols(ast.left, out)
        _expr_symbols(ast.right, out)
    elif isinstance(ast, (ClsSome, ClsOnly)):
        out.add(Symbol(ast.prop.origin, ast.prop.name, Kind.OBJECT_PROPERTY, 0))
        _expr_symbols(ast.filler, out)


def dl_symbols(ast: DlAst) -> frozenset[Symbol]:
    out: set[Symbol] = set()
    if isinstance(ast, (SubClassOf, EquivalentClasses, DisjointClasses)):
        pair = (ast.sub, ast.sup) if isinstance(ast, SubClassOf) else (ast.left, ast.right)
        for e in pair:
            _expr_symbols(e, out)
    elif isinstance(ast, ClassAssertion):
        _expr_symbols(ast.cls, out)
        out.add(Symbol(ast.individual.origin, ast.individual.name, Kind.INDIVIDUAL, 0))
    elif isinstance(ast, PropertyAssertion):
        out.add(Symbol(ast.prop.origin, ast.prop.name, Kind.OBJECT_PROPERTY, 0))
        out.add(Symbol(ast.subject.origin, ast.subject.name, Kind.INDIVIDUAL, 0))
        out.add(Symbol(ast.obj.origin, ast.obj.name, Kind.INDIVIDUAL, 0))
    elif isinstance(ast, (SubPropertyOf, InverseProperties)):
        pair = (ast.sub, ast.sup) if isinstance(ast, SubPropertyOf) else (ast.left, ast.right)
        for p in pair:
            out.add(Symbol(p.origin, p.name, Kind.OBJECT_PROPERTY, 0))
    elif isinstance(ast, TransitiveProperty):
        out.add(Symbol(ast.prop.origin, ast.prop.name, Kind.OBJECT_PROPERTY, 0))
    else:
        raise TypeError(f"not a DL sentence: {ast!r}")
    return frozenset(out)


def _map_name(node, kind: Kind, mapping: Mapping[Symbol, Symbol], ctor):
    image = mapping[Symbol(node.origin, node.name, kind, 0)]
    return ctor(image.origin, image.name)


def _rename_expr(ast: ClassExpr, mapping: Mapping[Symbol, Symbol]) -> ClassExpr:
    if isinstance(ast, ClsName):
        return _map_name(ast, Kind.CLASS, mapping, ClsName)
    if isinstance(ast, ClsNot):
        return ClsNot(_rename_expr(ast.body, mapping))
    if isinstance(ast, ClsAnd):
        return ClsAnd(_rename_expr(ast.left, mapping), _rename_expr(ast.right, mapping))
    if isinstance(ast, ClsOr):
        return ClsOr(_rename_expr(ast.left, mapping), _rename_expr(ast.right, mapping))
    if isinstance(ast, (ClsSome, ClsOnly)):
        prop = _map_name(ast.prop, Kind.OBJECT_PROPERTY, mapping, PropName)
        filler = _rename_expr(ast.filler, mapping)
        return ClsSome(prop, filler) if isinstance(ast, ClsSome) else ClsOnly(prop, filler)
    raise TypeError(f"not a class expression: {ast!r}")


def rename_dl(ast: DlAst, mapping: Mapping[Symbol, Symbol]) -> DlAst:
    if isinstance(ast, SubClassOf):
        return SubClassOf(_rename_expr(ast.sub, mapping), _rename_expr(ast.sup, mapping))
    if isinstance(ast, EquivalentClasses):
        return EquivalentClasses(_rename_expr(ast.left, mapping), _rename_expr(ast.right, mapping))
    if isinstance(ast, DisjointClasses):
        return DisjointClasses(_rename_expr(ast.left, mapping), _rename_expr(ast.right, mapping))
    if isinstance(ast, ClassAssertion):
        return ClassAssertion(
            _rename_expr(ast.cls, mapping),
            _map_name(ast.individual, Kind.INDIVIDUAL, mapping, IndName),
        )
    if isinstance(ast, PropertyAssertion):
        return PropertyAssertion(
            _map_name(ast.prop, Kind.OBJECT_PROPERTY, mapping, PropName),
            _map_name(ast.subject, Kind.INDIVIDUAL, mapping, IndName),
            _map_name(ast.obj, Kind.INDIVIDUAL, mapping, IndName),
        )
    if isinstance(ast, SubPropertyOf):
        return SubPropertyOf(
            _map_name(ast.sub, Kind.OBJECT_PROPERTY, mapping, PropName),
            _map_name(ast.sup, Kind.OBJECT_PROPERTY, mapping, PropName),
        )
    if isinstance(ast, InverseProperties):
        return InverseProperties(
            _map_name(ast.left, Kind.OBJECT_PROPERTY, mapping, PropName),
            _map_name(ast.right, Kind.OBJECT_PROPERTY, mapping, PropName),
        )
    if isinstance(ast, TransitiveProperty):
        return TransitiveProperty(_map_name(ast.prop, Kind.OBJECT_PROPERTY, mapping, PropName))
    raise TypeError(f"not a DL sentence: {ast!r}")


class SimpleDlLogic(Logic):
    id = "SimpleDL"
    admitted_kinds = frozenset(
        {Kind.CLASS, Kind.INDIVIDUAL, Kind.OBJECT_PROPERTY, Kind.DATA_PROPERTY}
    )

    def symbols_of_ast(self, ast: Any) -> frozenset[Symbol]:
        return dl_symbols(ast)

    def rename_ast(self, ast: Any, mapping: Mapping[Symbol, Symbol]) -> Any:
        return rename_dl(ast, mapping)

    def print_sentence(self, ast: Any, prefixes: Mapping[str, str] | None = None) -> str:
        return print_dl_sentence(ast, prefixes)

    def parse_theory(
        self,
        text: str,
        name: str,
        origin: str = "",
        prefixes: Mapping[str, str] | None = None,
        label_base: str | None = None,
    ) -> Theory:
        asts, declared = parse_dl_frames(text, origin, prefixes)
        base = label_base or name
        sentences = tuple(
            Sentence(self.id, ast, f"{base}_{i}", Role.AXIOM) for i, ast in enumerate(asts, 1)
        )
        used = (
            frozenset().union(*(dl_symbols(s.ast) for s in sentences))
            if sentences
            else frozenset()
        )
        return Theory(name, Signature(self.id, declared | used), sentences)

    def print_theory(self, t: Theory, prefixes: Mapping[str, str] | None = None) -> str:
        rev = {iri: pfx for pfx, iri in (prefixes or {}).items()}
        used = (
            frozenset().union(*(dl_symbols(s.ast) for s in t.sentences))
            if t.sentences
            else frozenset()
        )
        frame_word = {
            Kind.CLASS: "Class",
            Kind.INDIVIDUAL: "Individual",
            Kind.OBJECT_PROPERTY: "ObjectProperty",
        }
        lines = []
        for sym in t.signature.sorted_symbols():
            if sym in used or sym.kind not in frame_word:
                continue
            lines.append(f"{frame_word[sym.kind]}: {_print_name(sym.origin, sym.name, rev)}")
        lines.extend(print_dl_sentence(s.ast, prefixes) for s in t.sentences)
        return "".join(line + "\n" for line in lines)
