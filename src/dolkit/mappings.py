"""Logic/language/serialization registry and concrete logic mappings.

Three mappings are built in: prop2fol and dl2fol (translations into the
first-order fragment) and fol2prop (the forgetful projection that keeps only
nullary predicates). Each maps signatures to signatures and sentences to
sentences; none adds axioms of its own. Mapping metadata records the
translation/projection dichotomy plus declared accuracy, and path search over
the mapping graph backs heterogeneous unions.

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
    EXACT = "Exact"
    WEAKLY_EXACT = "WeaklyExact"


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


def translate_theory(m: LogicMapping, t: Theory) -> tuple[Theory, list[Sentence]]:
    """Translate a theory along a mapping.

    Returns the translated theory (the defined sentence images in order, each
    under its source label) and the list of dropped sentences (empty for
    translations).
    """
    if t.logic_id != m.meta.source_logic:
        raise LogicMismatch(
            f"theory {t.name!r} is in {t.logic_id}, mapping {m.meta.id} expects "
            f"{m.meta.source_logic}"
        )
    images: list[Sentence] = []
    dropped: list[Sentence] = []
    for s in t.sentences:
        image = m.map_sentence(s)
        if image is None:
            dropped.append(s)
        else:
            images.append(image)
    return Theory(t.name, m.map_signature(t.signature), tuple(images)), dropped


def translate_along(path: list["LogicMapping"], t: Theory) -> tuple[Theory, list[Sentence]]:
    """Fold translate_theory over a mapping path; dropped sentences are
    collected in source-theory terms of the stage that dropped them."""
    dropped_all: list[Sentence] = []
    for m in path:
        t, dropped = translate_theory(m, t)
        dropped_all.extend(dropped)
    return t, dropped_all


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


def _edges(translations_only: bool, required: Accuracy | None) -> list[LogicMapping]:
    out = []
    for mid in sorted(_MAPPINGS):
        m = _MAPPINGS[mid]
        if translations_only and m.meta.direction is not Direction.TRANSLATION:
            continue
        if required is not None and required not in m.meta.accuracy:
            continue
        out.append(m)
    return out


def find_path(
    from_logic: str,
    to_logic: str,
    required_accuracy: Accuracy | None = None,
    translations_only: bool = False,
) -> list[LogicMapping]:
    """Shortest mapping path whose every edge declares the required accuracy;
    ties break lexicographically on mapping ids. Empty when from == to.

    Breadth-first search over id-sorted edges reaches each logic first along
    its least (length, ids) path, since every layer is queued in that order."""
    for logic_id in (from_logic, to_logic):
        if logic_id not in registered_logic_ids():
            raise UnknownLogic(f"unknown logic {logic_id!r}")
    edges = _edges(translations_only, required_accuracy)
    best: dict[str, list[LogicMapping]] = {from_logic: []}
    queue = deque([from_logic])
    while queue and to_logic not in best:
        at = queue.popleft()
        for e in edges:
            if e.meta.source_logic == at and e.meta.target_logic not in best:
                best[e.meta.target_logic] = best[at] + [e]
                queue.append(e.meta.target_logic)
    if to_logic not in best:
        detail = f" with accuracy {required_accuracy.value}" if required_accuracy else ""
        raise NoPath(f"no mapping path from {from_logic} to {to_logic}{detail}")
    return best[to_logic]


def common_target(logic_a: str, logic_b: str) -> tuple[str, list[LogicMapping], list[LogicMapping]]:
    """A logic reachable from both via translations, minimizing total path
    length; ties break lexicographically on the target logic id."""
    candidates: list[tuple[int, str, list[LogicMapping], list[LogicMapping]]] = []
    for target in registered_logic_ids():
        try:
            pa = find_path(logic_a, target, translations_only=True)
            pb = find_path(logic_b, target, translations_only=True)
        except (NoPath, UnknownLogic):
            continue
        candidates.append((len(pa) + len(pb), target, pa, pb))
    if not candidates:
        raise NoCommonTarget(f"no common translation target for {logic_a} and {logic_b}")
    candidates.sort(key=lambda c: (c[0], c[1]))
    _, target, pa, pb = candidates[0]
    return target, pa, pb
