"""Logic/language/serialization registry and concrete logic mappings.

Three mappings are built in: prop2fol and dl2fol (translations into the
first-order fragment) and fol2prop (the forgetful projection that keeps only
nullary predicates). Each maps signatures to signatures and sentences to
sentences; none adds axioms of its own. Mapping metadata records the
translation/projection dichotomy plus declared accuracy. Routes between
logics, for heterogeneous unions and extensions and into a prover's logic,
follow translations only, and every translation is faithful; fol2prop is
listed but never routed.

The registry is plain tables: the mappings by id, the ontology languages
and the logic that reads each, the serializations and the language and file
extensions of each, and the extension table derived from the last two.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import LogicMismatch, NoCommonTarget, NoPath, UnknownLogic
from .kernel import (
    Kind,
    Sentence,
    Signature,
    Symbol,
    Theory,
    Walk,
    registered_logic_ids,
    run,
)
from .logics import fol, prop, simpledl


class Direction(Enum):
    TRANSLATION = "Translation"
    PROJECTION = "Projection"


class Accuracy(Enum):
    SUBLOGIC = "Sublogic"
    EMBEDDING = "Embedding"
    FAITHFUL = "Faithful"


@dataclass(frozen=True)
class MappingMeta:
    id: str
    source_logic: str
    target_logic: str
    direction: Direction
    # declared closed upward: Sublogic implies Embedding, which implies Faithful
    accuracy: frozenset[Accuracy] = frozenset()


class LogicMapping:
    """A mapping between logics: a signature map plus a partial sentence map
    (total for translations, possibly undefined for projections)."""

    meta: MappingMeta

    def map_signature(self, sig: Signature) -> Signature:
        raise NotImplementedError

    def map_sentence(self, sentence: Sentence) -> Sentence | None:
        raise NotImplementedError


def translate_along(path: list[LogicMapping], t: Theory) -> Theory:
    """Translate a theory along a mapping path. Each step keeps the defined
    sentence images in order, each under its source label; a projection
    leaves out the sentences it has no image for."""
    for m in path:
        if t.logic_id != m.meta.source_logic:
            raise LogicMismatch(
                f"theory {t.name!r} is in {t.logic_id}, mapping {m.meta.id} expects "
                f"{m.meta.source_logic}"
            )
        images = [m.map_sentence(s) for s in t.sentences]
        t = Theory(
            t.name, m.map_signature(t.signature), tuple(i for i in images if i is not None)
        )
    return t


# -- prop2fol --------------------------------------------------------------------


def _prop2fol_ast(ast) -> Walk:
    if isinstance(ast, prop.PTrue):
        return fol.FTrue()
    if isinstance(ast, prop.PFalse):
        return fol.FFalse()
    if isinstance(ast, prop.PVar):
        return fol.FAtom(ast.origin, ast.name, ())
    if isinstance(ast, prop.PNot):
        return fol.FNot((yield _prop2fol_ast(ast.body)))
    if isinstance(ast, prop.PBin):
        return fol.FBin(ast.op, (yield _prop2fol_ast(ast.left)), (yield _prop2fol_ast(ast.right)))
    raise TypeError(f"not a propositional ast: {ast!r}")


class Prop2Fol(LogicMapping):
    meta = MappingMeta(
        "prop2fol",
        "Prop",
        "FOL",
        Direction.TRANSLATION,
        frozenset({Accuracy.SUBLOGIC, Accuracy.EMBEDDING, Accuracy.FAITHFUL}),
    )

    def map_signature(self, sig: Signature) -> Signature:
        return Signature(
            "FOL", frozenset(Symbol(s.origin, s.name, Kind.PREDICATE, 0) for s in sig.symbols)
        )

    def map_sentence(self, sentence: Sentence) -> Sentence | None:
        return Sentence(
            "FOL", run(_prop2fol_ast(sentence.ast)), sentence.label, sentence.role
        )


# -- dl2fol ----------------------------------------------------------------------

def _dl_symbol_image(sym: Symbol) -> Symbol:
    if sym.kind is Kind.CLASS:
        return Symbol(sym.origin, sym.name, Kind.PREDICATE, 1)
    if sym.kind is Kind.OBJECT_PROPERTY:
        return Symbol(sym.origin, sym.name, Kind.PREDICATE, 2)
    if sym.kind is Kind.INDIVIDUAL:
        return sym
    raise LogicMismatch(f"dl2fol cannot map a {sym.kind.value} symbol")


class _FreshVars:
    _POOL = ("X", "Y", "Z")

    def __init__(self) -> None:
        self.count = 0

    def take(self) -> str:
        name = (
            self._POOL[self.count]
            if self.count < len(self._POOL)
            else f"X{self.count - len(self._POOL) + 1}"
        )
        self.count += 1
        return name


def _cls_to_fol(expr, term, vars: _FreshVars) -> Walk:
    if isinstance(expr, simpledl.ClsName):
        return fol.FAtom(expr.origin, expr.name, (term,))
    if isinstance(expr, simpledl.ClsNot):
        return fol.FNot((yield _cls_to_fol(expr.body, term, vars)))
    if isinstance(expr, (simpledl.ClsAnd, simpledl.ClsOr)):
        op = "and" if isinstance(expr, simpledl.ClsAnd) else "or"
        left = yield _cls_to_fol(expr.left, term, vars)
        return fol.FBin(op, left, (yield _cls_to_fol(expr.right, term, vars)))
    if isinstance(expr, simpledl.ClsSome):
        v = vars.take()
        link = fol.FAtom(expr.prop.origin, expr.prop.name, (term, fol.FVar(v)))
        filler = yield _cls_to_fol(expr.filler, fol.FVar(v), vars)
        return fol.FQuant("exists", v, fol.FBin("and", link, filler))
    if isinstance(expr, simpledl.ClsOnly):
        v = vars.take()
        link = fol.FAtom(expr.prop.origin, expr.prop.name, (term, fol.FVar(v)))
        filler = yield _cls_to_fol(expr.filler, fol.FVar(v), vars)
        return fol.FQuant("forall", v, fol.FBin("impl", link, filler))
    raise TypeError(f"not a class expression: {expr!r}")


def _binary(p: simpledl.PropName, x, y) -> fol.FAtom:
    return fol.FAtom(p.origin, p.name, (x, y))


def _dl2fol_ast(ast) -> Walk:
    vars = _FreshVars()
    if isinstance(ast, simpledl.SubClassOf):
        x = vars.take()
        sub = yield _cls_to_fol(ast.sub, fol.FVar(x), vars)
        sup = yield _cls_to_fol(ast.sup, fol.FVar(x), vars)
        return fol.FQuant("forall", x, fol.FBin("impl", sub, sup))
    if isinstance(ast, simpledl.EquivalentClasses):
        x = vars.take()
        left = yield _cls_to_fol(ast.left, fol.FVar(x), vars)
        right = yield _cls_to_fol(ast.right, fol.FVar(x), vars)
        return fol.FQuant("forall", x, fol.FBin("iff", left, right))
    if isinstance(ast, simpledl.DisjointClasses):
        x = vars.take()
        left = yield _cls_to_fol(ast.left, fol.FVar(x), vars)
        right = yield _cls_to_fol(ast.right, fol.FVar(x), vars)
        return fol.FQuant("forall", x, fol.FBin("impl", left, fol.FNot(right)))
    if isinstance(ast, simpledl.ClassAssertion):
        ind = fol.FConst(ast.individual.origin, ast.individual.name)
        return (yield _cls_to_fol(ast.cls, ind, vars))
    if isinstance(ast, simpledl.PropertyAssertion):
        return _binary(
            ast.prop,
            fol.FConst(ast.subject.origin, ast.subject.name),
            fol.FConst(ast.obj.origin, ast.obj.name),
        )
    if isinstance(ast, simpledl.SubPropertyOf):
        x, y = vars.take(), vars.take()
        return fol.forall(
            [x, y],
            fol.FBin(
                "impl",
                _binary(ast.sub, fol.FVar(x), fol.FVar(y)),
                _binary(ast.sup, fol.FVar(x), fol.FVar(y)),
            ),
        )
    if isinstance(ast, simpledl.InverseProperties):
        x, y = vars.take(), vars.take()
        return fol.forall(
            [x, y],
            fol.FBin(
                "iff",
                _binary(ast.left, fol.FVar(x), fol.FVar(y)),
                _binary(ast.right, fol.FVar(y), fol.FVar(x)),
            ),
        )
    if isinstance(ast, simpledl.TransitiveProperty):
        x, y, z = vars.take(), vars.take(), vars.take()
        body = fol.FBin(
            "impl",
            fol.FBin(
                "and",
                _binary(ast.prop, fol.FVar(x), fol.FVar(y)),
                _binary(ast.prop, fol.FVar(y), fol.FVar(z)),
            ),
            _binary(ast.prop, fol.FVar(x), fol.FVar(z)),
        )
        return fol.forall([x, y, z], body)
    raise TypeError(f"not a DL sentence: {ast!r}")


class Dl2Fol(LogicMapping):
    """The standard translation: classes become unary predicates, properties
    binary ones, and individuals constants. Like OWL, it makes no unique-name
    assumption."""

    meta = MappingMeta(
        "dl2fol",
        "SimpleDL",
        "FOL",
        Direction.TRANSLATION,
        frozenset({Accuracy.EMBEDDING, Accuracy.FAITHFUL}),
    )

    def map_signature(self, sig: Signature) -> Signature:
        return Signature("FOL", frozenset(_dl_symbol_image(s) for s in sig.symbols))

    def map_sentence(self, sentence: Sentence) -> Sentence | None:
        return Sentence("FOL", run(_dl2fol_ast(sentence.ast)), sentence.label, sentence.role)


# -- fol2prop --------------------------------------------------------------------


def _fol2prop_ast(ast) -> Walk:
    """Propositional image of a FOL formula, or None when the formula uses
    quantifiers or predicates of arity > 0."""
    if isinstance(ast, fol.FTrue):
        return prop.PTrue()
    if isinstance(ast, fol.FFalse):
        return prop.PFalse()
    if isinstance(ast, fol.FAtom):
        if ast.args:
            return None
        return prop.PVar(ast.origin, ast.name)
    if isinstance(ast, fol.FNot):
        body = yield _fol2prop_ast(ast.body)
        return None if body is None else prop.PNot(body)
    if isinstance(ast, fol.FBin):
        left = yield _fol2prop_ast(ast.left)
        right = yield _fol2prop_ast(ast.right)
        if left is None or right is None:
            return None
        return prop.PBin(ast.op, left, right)
    return None  # quantifiers


class Fol2Prop(LogicMapping):
    meta = MappingMeta("fol2prop", "FOL", "Prop", Direction.PROJECTION, frozenset())

    def map_signature(self, sig: Signature) -> Signature:
        symbols = frozenset(
            Symbol(s.origin, s.name, Kind.PROP_VAR, 0)
            for s in sig.symbols
            if s.kind is Kind.PREDICATE and s.arity == 0
        )
        return Signature("Prop", symbols)

    def map_sentence(self, sentence: Sentence) -> Sentence | None:
        image = run(_fol2prop_ast(sentence.ast))
        if image is None:
            return None
        return Sentence("Prop", image, sentence.label, sentence.role)


# -- registry --------------------------------------------------------------------

_MAPPINGS: dict[str, LogicMapping] = {m.meta.id: m for m in (Dl2Fol(), Fol2Prop(), Prop2Fol())}

# ontology language -> the logic that reads it
LANGUAGES = {"OWL": "SimpleDL", "Propositional": "Prop", "TPTP": "FOL"}

# serialization -> (ontology language, file extensions)
SERIALIZATIONS = {
    "manchester": ("OWL", (".omn", ".owl")),
    "tptp-fof": ("TPTP", (".p", ".fof")),
    "prop-text": ("Propositional", (".prop",)),
}

# file extension -> logic id, in the order unsuffixed IRIs probe them
EXTENSION_LOGICS = {
    ext: LANGUAGES[language] for language, exts in SERIALIZATIONS.values() for ext in exts
}

# the categories of `dolkit logics`, in listing order
CATEGORIES = ("OntologyLanguage", "Logic", "Serialization", "Mapping")


def registry_lines(category: str) -> list[str]:
    """The `dolkit logics` lines of one category, sorted by id."""
    if category == "OntologyLanguage":
        return [f"{category} {n} supported-by={logic}" for n, logic in sorted(LANGUAGES.items())]
    if category == "Logic":
        return [f"{category} {logic_id}" for logic_id in registered_logic_ids()]
    if category == "Serialization":
        return [
            f"{category} {n} serialization-of={language} extensions={' '.join(exts)}"
            for n, (language, exts) in sorted(SERIALIZATIONS.items())
        ]
    lines = []
    for m in (_MAPPINGS[mid].meta for mid in sorted(_MAPPINGS)):
        flags = ",".join([m.direction.value, *sorted(a.value for a in m.accuracy)])
        lines.append(f"{category} {m.id} {m.source_logic}->{m.target_logic} {flags}")
    return lines


def get_mapping(mapping_id: str) -> LogicMapping:
    try:
        return _MAPPINGS[mapping_id]
    except KeyError:
        raise NoPath(f"no registered mapping {mapping_id!r}") from None


def logic_for_language(name: str) -> str:
    """Resolve a `logic` declaration: either a logic id or a language name."""
    if name in registered_logic_ids():
        return name
    try:
        return LANGUAGES[name]
    except KeyError:
        raise UnknownLogic(f"unknown logic or language {name!r}") from None


# -- path search -----------------------------------------------------------------


def find_path(from_logic: str, to_logic: str) -> list[LogicMapping]:
    """Shortest path of translations between two logics; ties break
    lexicographically on mapping ids. Empty when from == to. Projections are
    never routed, and every translation declares Faithful, so every path is
    faithful.

    Breadth-first search over id-sorted edges reaches each logic first along
    its least (length, ids) path, since every layer is queued in that order."""
    for logic_id in (from_logic, to_logic):
        if logic_id not in registered_logic_ids():
            raise UnknownLogic(f"unknown logic {logic_id!r}")
    edges = [
        m for _, m in sorted(_MAPPINGS.items()) if m.meta.direction is Direction.TRANSLATION
    ]
    best: dict[str, list[LogicMapping]] = {from_logic: []}
    queue = deque([from_logic])
    while queue and to_logic not in best:
        at = queue.popleft()
        for e in edges:
            if e.meta.source_logic == at and e.meta.target_logic not in best:
                best[e.meta.target_logic] = best[at] + [e]
                queue.append(e.meta.target_logic)
    if to_logic not in best:
        raise NoPath(f"no mapping path from {from_logic} to {to_logic}")
    return best[to_logic]


def common_target(*logic_ids: str) -> str:
    """The logic that all the given logics reach by translations, minimizing
    the total path length; ties break lexicographically on the target id."""
    candidates: list[tuple[int, str]] = []
    for target in registered_logic_ids():
        try:
            length = sum(len(find_path(logic_id, target)) for logic_id in logic_ids)
        except (NoPath, UnknownLogic):
            continue
        candidates.append((length, target))
    if not candidates:
        raise NoCommonTarget(f"no common translation target for {' and '.join(logic_ids)}")
    return min(candidates)[1]
