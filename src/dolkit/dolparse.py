"""Parser for the DOL subset: prefix block, logic selection, ontology and
alignment definitions, plus file-system reference resolution.

Grammar (whitespace and `%%` line comments are insignificant; `end` is
accepted but optional after definitions):

    document  ::= prefix_block? item*
    prefix_block ::= '%prefix(' (NAME ':' IRIREF)* ')%'
    item      ::= 'logic' NAME
                | 'ontology' NAME '=' expr 'end'?
                | 'alignment' NAME ':' expr 'to' expr '=' corrs 'end'?
    expr      ::= 'combine' NAME (',' NAME)*
                | operand ('and' operand)* ('then' BASIC)?
    operand   ::= NAME | IRIREF | BASIC
    corrs     ::= corr (',' corr)*
    corr      ::= cname ('=' | '<' | '>') cname

Basic fragments are `{ ... }` blocks with balanced braces, passed verbatim to
the current logic's parser. `>` correspondences normalize to `<` with the
operands swapped.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Union

from .errors import (
    AmbiguousPrefix,
    DuplicateName,
    ParseError,
    RepoIoError,
    UndeclaredPrefix,
    UnknownLogic,
    UnresolvedIri,
)
from .logics._scan import Tok, TokenCursor, scan
from .mappings import (
    EXTENSION_LOGICS,
    extensions_for_logic,
    logic_for_extension,
    logic_for_language,
)

_MASTER = re.compile(
    r"(?P<WS>\s+)"
    r"|(?P<COMMENT>%%[^\n]*)"
    r"|(?P<PREFIX_OPEN>%prefix\()"
    r"|(?P<PREFIX_CLOSE>\)%)"
    r"|(?P<IRIREF><[^<>\s]*>)"
    r"|(?P<NAME>[A-Za-z0-9_][A-Za-z0-9_.\-]*(?::[A-Za-z0-9_.\-/]+)?)"
    r"|(?P<EQ>=)"
    r"|(?P<LT><)"
    r"|(?P<GT>>)"
    r"|(?P<COMMA>,)"
    r"|(?P<COLON>:)"
    r"|(?P<BASIC>\{)"
)

_KEYWORDS = frozenset({"logic", "ontology", "alignment", "combine", "and", "then", "to", "end"})


_BRACE = re.compile(r"[{}]")


def _basic_end(text: str, start: int, line: int, col: int) -> int:
    """End of the balanced `{ ... }` block that opens at `start`."""
    depth = 0
    for m in _BRACE.finditer(text, start):
        depth += 1 if m.group() == "{" else -1
        if not depth:
            return m.end()
    raise ParseError("unbalanced '{' in basic fragment", line, col)


# -- document AST ----------------------------------------------------------------


@dataclass(frozen=True)
class Ref:
    """An ontology reference: a local definition name (iri is None) or a
    resolved IRI with its written form kept for display."""

    written: str
    iri: str | None = None

    @property
    def display(self) -> str:
        return self.written


@dataclass(frozen=True)
class Basic:
    logic_id: str
    text: str
    line: int = 0
    col: int = 0

    def __eq__(self, other) -> bool:  # positions are diagnostics, not identity
        return (
            isinstance(other, Basic)
            and self.logic_id == other.logic_id
            and self.text == other.text
        )

    def __hash__(self) -> int:
        return hash((self.logic_id, self.text))


@dataclass(frozen=True)
class And:
    operands: tuple["OntologyExpr", ...]


@dataclass(frozen=True)
class Then:
    base: "OntologyExpr"
    extension: Basic


@dataclass(frozen=True)
class Combine:
    alignments: tuple[str, ...]


OntologyExpr = Union[Ref, Basic, And, Then, Combine]


@dataclass(frozen=True)
class LogicDecl:
    written: str
    logic_id: str


@dataclass(frozen=True)
class OntologyDef:
    name: str
    expr: OntologyExpr


class Relation(Enum):
    EQUIVALENT = "="
    LEFT_SUBSUMED = "<"


@dataclass(frozen=True)
class CorrName:
    """A correspondence operand: origin is None for unprefixed names (they
    resolve against their side's theory), or the expanded prefix IRI."""

    name: str
    origin: str | None = None

    @property
    def display(self) -> str:
        return self.name if self.origin is None else f"{self.origin}{self.name}"


@dataclass(frozen=True)
class Correspondence:
    left: CorrName
    right: CorrName
    relation: Relation


@dataclass(frozen=True)
class AlignmentDef:
    name: str
    left: OntologyExpr
    right: OntologyExpr
    correspondences: tuple[Correspondence, ...]


DocItem = Union[LogicDecl, OntologyDef, AlignmentDef]


@dataclass(frozen=True)
class DolDocument:
    prefixes: tuple[tuple[str, str], ...]
    items: tuple[DocItem, ...]

    @property
    def prefix_map(self) -> dict[str, str]:
        return dict(self.prefixes)

    def definitions(self) -> dict[str, DocItem]:
        return {
            item.name: item
            for item in self.items
            if isinstance(item, (OntologyDef, AlignmentDef))
        }

    def ontology_defs(self) -> list[OntologyDef]:
        return [i for i in self.items if isinstance(i, OntologyDef)]

    def alignment_defs(self) -> list[AlignmentDef]:
        return [i for i in self.items if isinstance(i, AlignmentDef)]


# -- parser ---------------------------------------------------------------------


class _DolParser:
    def __init__(self, toks: list[Tok]):
        self.cur = TokenCursor(toks)
        self.prefixes: dict[str, str] = {}
        self.names: set[str] = set()
        self.current_logic: str | None = None

    def document(self) -> DolDocument:
        if self.cur.at("PREFIX_OPEN"):
            self.prefix_block()
        items: list[DocItem] = []
        while not self.cur.at("EOF"):
            items.append(self.item())
        if not items:
            raise self.cur.error("document has no items", "logic", "ontology", "alignment")
        doc = DolDocument(tuple(self.prefixes.items()), tuple(items))
        self._check_combines(doc)
        return doc

    def prefix_block(self) -> None:
        self.cur.expect("PREFIX_OPEN")
        while self.cur.at("NAME"):
            name_tok = self.cur.advance()
            if ":" in name_tok.text:
                raise ParseError(
                    f"prefix name {name_tok.text!r} must not contain ':'",
                    name_tok.line,
                    name_tok.col,
                )
            self.cur.expect("COLON")
            iri_tok = self.cur.expect("IRIREF", what="<IRI>")
            self.prefixes[name_tok.text] = iri_tok.text[1:-1]
        self.cur.expect("PREFIX_CLOSE", what=")%")

    def item(self) -> DocItem:
        tok = self.cur.cur
        if tok.kind != "NAME" or tok.text not in ("logic", "ontology", "alignment"):
            raise self.cur.error(
                f"found {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input",
                "logic",
                "ontology",
                "alignment",
            )
        self.cur.advance()
        if tok.text == "logic":
            name_tok = self.cur.expect("NAME", what="logic name")
            try:
                logic_id = logic_for_language(name_tok.text)
            except UnknownLogic:
                raise UnknownLogic(
                    f"{name_tok.line}:{name_tok.col}: unknown logic or language "
                    f"{name_tok.text!r}"
                ) from None
            self.current_logic = logic_id
            return LogicDecl(name_tok.text, logic_id)
        name_tok = self.cur.expect("NAME", what="definition name")
        if ":" in name_tok.text or name_tok.text in _KEYWORDS:
            raise ParseError(
                f"bad definition name {name_tok.text!r}", name_tok.line, name_tok.col
            )
        if name_tok.text in self.names:
            raise DuplicateName(
                f"{name_tok.line}:{name_tok.col}: {name_tok.text!r} is already defined"
            )
        self.names.add(name_tok.text)
        if tok.text == "ontology":
            self.cur.expect("EQ", what="=")
            expr = self.expr()
            self._optional_end()
            return OntologyDef(name_tok.text, expr)
        # alignment
        self.cur.expect("COLON", what=":")
        left = self.expr()
        self._keyword("to")
        right = self.expr()
        self.cur.expect("EQ", what="=")
        corrs = self.correspondences()
        self._optional_end()
        return AlignmentDef(name_tok.text, left, right, tuple(corrs))

    def _optional_end(self) -> None:
        if self.cur.at("NAME", "end"):
            self.cur.advance()

    def _keyword(self, word: str) -> None:
        if not self.cur.at("NAME", word):
            raise self.cur.error(f"found {self.cur.cur.text!r}", word)
        self.cur.advance()

    def expr(self) -> OntologyExpr:
        if self.cur.at("NAME", "combine"):
            self.cur.advance()
            names = [self._alignment_name()]
            while self.cur.at("COMMA"):
                self.cur.advance()
                names.append(self._alignment_name())
            return Combine(tuple(names))
        operands = [self.operand()]
        while self.cur.at("NAME", "and"):
            self.cur.advance()
            operands.append(self.operand())
        expr: OntologyExpr = operands[0] if len(operands) == 1 else And(tuple(operands))
        if self.cur.at("NAME", "then"):
            then_tok = self.cur.advance()
            if not self.cur.at("BASIC"):
                raise ParseError(
                    "a `then` extension must be a basic fragment in braces",
                    then_tok.line,
                    then_tok.col,
                )
            return Then(expr, self._basic(self.cur.advance()))
        return expr

    def _alignment_name(self) -> str:
        tok = self.cur.expect("NAME", what="alignment name")
        if tok.text in _KEYWORDS or ":" in tok.text:
            raise ParseError(f"bad alignment name {tok.text!r}", tok.line, tok.col)
        return tok.text

    def operand(self) -> OntologyExpr:
        if self.cur.at("BASIC"):
            return self._basic(self.cur.advance())
        if self.cur.at("IRIREF"):
            tok = self.cur.advance()
            return Ref(tok.text, tok.text[1:-1])
        if self.cur.at("NAME"):
            tok = self.cur.cur
            if tok.text in _KEYWORDS:
                raise self.cur.error(f"found keyword {tok.text!r}", "ontology reference")
            self.cur.advance()
            if ":" in tok.text:
                pfx, local = tok.text.split(":", 1)
                iri_base = self.prefixes.get(pfx)
                if iri_base is None:
                    raise UndeclaredPrefix(
                        f"{tok.line}:{tok.col}: prefix {pfx!r} is not declared"
                    )
                return Ref(tok.text, iri_base + local)
            return Ref(tok.text, None)
        raise self.cur.error(
            f"found {self.cur.cur.text!r}" if self.cur.cur.kind != "EOF" else "unexpected end of input",
            "ontology reference",
            "{ fragment }",
        )

    def _basic(self, tok: Tok) -> Basic:
        if self.current_logic is None:
            raise UnknownLogic(
                f"{tok.line}:{tok.col}: basic fragment before any `logic` declaration"
            )
        return Basic(self.current_logic, tok.text, tok.line, tok.col)

    def correspondences(self) -> list[Correspondence]:
        corrs = [self.correspondence()]
        while self.cur.at("COMMA"):
            self.cur.advance()
            corrs.append(self.correspondence())
        return corrs

    def correspondence(self) -> Correspondence:
        left = self._corr_name()
        rel_tok = self.cur.cur
        if rel_tok.kind == "EQ":
            relation = Relation.EQUIVALENT
            swap = False
        elif rel_tok.kind == "LT":
            relation = Relation.LEFT_SUBSUMED
            swap = False
        elif rel_tok.kind == "GT":
            relation = Relation.LEFT_SUBSUMED
            swap = True
        else:
            raise self.cur.error(f"found {rel_tok.text!r}", "=", "<", ">")
        self.cur.advance()
        right = self._corr_name()
        if swap:
            left, right = right, left
        return Correspondence(left, right, relation)

    def _corr_name(self) -> CorrName:
        tok = self.cur.cur
        if tok.kind == "IRIREF":
            self.cur.advance()
            return CorrName(tok.text[1:-1], "")
        if tok.kind != "NAME" or tok.text in _KEYWORDS:
            raise self.cur.error(
                f"found {tok.text!r}" if tok.kind != "EOF" else "unexpected end of input",
                "symbol name",
            )
        self.cur.advance()
        if ":" in tok.text:
            pfx, local = tok.text.split(":", 1)
            iri_base = self.prefixes.get(pfx)
            if iri_base is None:
                raise UndeclaredPrefix(f"{tok.line}:{tok.col}: prefix {pfx!r} is not declared")
            return CorrName(local, iri_base)
        return CorrName(tok.text, None)

    def _check_combines(self, doc: DolDocument) -> None:
        alignment_names = {a.name for a in doc.alignment_defs()}

        def check(expr: OntologyExpr) -> None:
            if isinstance(expr, Combine):
                missing = [n for n in expr.alignments if n not in alignment_names]
                if missing:
                    raise UnresolvedIri(
                        f"combine references undeclared alignment(s): {', '.join(missing)}"
                    )
                repeated = sorted({n for n in expr.alignments if expr.alignments.count(n) > 1})
                if repeated:
                    raise DuplicateName(
                        f"combine names alignment(s) more than once: "
                        f"{', '.join(map(repr, repeated))}"
                    )
            elif isinstance(expr, And):
                for op in expr.operands:
                    check(op)
            elif isinstance(expr, Then):
                check(expr.base)

        for item in doc.ontology_defs():
            check(item.expr)


def parse_document(text: str) -> DolDocument:
    """Parse a DOL document; raises ParseError and friends on bad input."""
    toks = scan(text, _MASTER, token_end={"BASIC": _basic_end})
    # a BASIC token stands for the fragment inside its braces
    toks = [Tok(t.kind, t.text[1:-1], t.line, t.col) if t.kind == "BASIC" else t for t in toks]
    return _DolParser(toks).document()


# -- printing -------------------------------------------------------------------


def print_document(doc: DolDocument) -> str:
    """Canonical text for a parsed document; reparsing it yields an equal AST."""
    out: list[str] = []
    if doc.prefixes:
        out.append("%prefix(")
        for name, iri in doc.prefixes:
            out.append(f"    {name}: <{iri}>")
        out.append(")%")
        out.append("")
    rev = {iri: pfx for pfx, iri in doc.prefixes}

    def expr_text(expr: OntologyExpr) -> str:
        if isinstance(expr, Ref):
            return expr.written
        if isinstance(expr, Basic):
            return "{" + expr.text + "}"
        if isinstance(expr, And):
            return " and ".join(expr_text(op) for op in expr.operands)
        if isinstance(expr, Then):
            return f"{expr_text(expr.base)} then {{{expr.extension.text}}}"
        if isinstance(expr, Combine):
            return "combine " + ", ".join(expr.alignments)
        raise TypeError(f"not an ontology expression: {expr!r}")

    def corr_name_text(c: CorrName) -> str:
        if c.origin is None:
            return c.name
        pfx = rev.get(c.origin)
        return f"{pfx}:{c.name}" if pfx else f"<{c.origin}{c.name}>"

    for item in doc.items:
        if isinstance(item, LogicDecl):
            out.append(f"logic {item.written}")
        elif isinstance(item, OntologyDef):
            out.append(f"ontology {item.name} = {expr_text(item.expr)} end")
        else:
            out.append(f"alignment {item.name} : {expr_text(item.left)} to {expr_text(item.right)} =")
            rows = []
            for corr in item.correspondences:
                rows.append(
                    f"    {corr_name_text(corr.left)} {corr.relation.value} "
                    f"{corr_name_text(corr.right)}"
                )
            out.append(",\n".join(rows))
            out.append("end")
        out.append("")
    return "\n".join(out).rstrip() + "\n"


# -- repository config and reference resolution --------------------------------------


@dataclass(frozen=True)
class RepoEntry:
    directory: Path
    default_logic: str | None = None


@dataclass(frozen=True)
class RepoConfig:
    """Maps IRI prefixes to directories (`repo.json`: an object whose keys are
    IRI prefixes and whose values are either a directory path or an object
    {"path": ..., "default_logic": ...})."""

    entries: tuple[tuple[str, RepoEntry], ...] = ()

    @classmethod
    def from_file(cls, path: str | Path) -> "RepoConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as e:
            raise RepoIoError(f"cannot read repository config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise RepoIoError(f"bad repository config {path}: {e}") from e
        base = path.parent
        entries: list[tuple[str, RepoEntry]] = []
        for prefix, value in raw.items():
            if isinstance(value, str):
                entries.append((prefix, RepoEntry(base / value)))
            else:
                entries.append(
                    (prefix, RepoEntry(base / value["path"], value.get("default_logic")))
                )
        return cls(tuple(entries))

    @classmethod
    def single(cls, prefix: str, directory: str | Path, default_logic: str | None = None):
        return cls(((prefix, RepoEntry(Path(directory), default_logic)),))


def resolve_reference(iri: str, repo: RepoConfig) -> tuple[str, str, str]:
    """Resolve an IRI to (file text, logic id, origin prefix).

    The longest configured IRI prefix wins; the file's logic is detected from
    its extension, probing the directory's default logic first when the IRI
    has none. The origin prefix is the matched IRI prefix.
    """
    matches = [(prefix, entry) for prefix, entry in repo.entries if iri.startswith(prefix)]
    if not matches:
        raise UnresolvedIri(f"no repository prefix matches {iri!r}")
    best_len = max(len(p) for p, _ in matches)
    best = [(p, e) for p, e in matches if len(p) == best_len]
    if len(best) > 1:
        raise AmbiguousPrefix(f"multiple prefixes of length {best_len} match {iri!r}")
    prefix, entry = best[0]
    rel = iri[len(prefix):].lstrip("/")
    candidate = entry.directory / rel
    suffix = candidate.suffix
    if suffix == ".dol":
        raise UnknownLogic(f"{iri!r}: nested DOL documents cannot be used as basic ontologies")
    if logic_for_extension(suffix):
        paths = [candidate]
    else:
        ordered: list[str] = []
        if entry.default_logic:
            ordered.extend(extensions_for_logic(entry.default_logic))
        ordered.extend(e for e in EXTENSION_LOGICS if e not in ordered)
        paths = [candidate.with_name(candidate.name + ext) for ext in ordered]
    for path in paths:
        if path.is_file():
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as e:
                raise RepoIoError(f"cannot read {path}: {e}") from e
            logic_id = logic_for_extension(path.suffix)
            assert logic_id is not None
            return text, logic_id, prefix
    tried = ", ".join(str(p) for p in paths)
    raise RepoIoError(f"{iri!r} resolves under {prefix!r} but no file exists (tried: {tried})")
