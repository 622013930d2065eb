"""Core logic framework: kinded symbols, signatures, morphisms, sentences, theories.

Every concrete logic registers itself here and supplies the per-logic
operations (symbol extraction, symbol renaming, printing) that the generic
operations dispatch to. All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Mapping

from .errors import (
    InvalidTheory,
    KindClash,
    LogicMismatch,
    MismatchedEndpoints,
    SymbolNotInSource,
)


class Kind(Enum):
    CLASS = "Class"
    INDIVIDUAL = "Individual"
    OBJECT_PROPERTY = "ObjectProperty"
    DATA_PROPERTY = "DataProperty"
    PREDICATE = "Predicate"
    FUNCTION = "Function"
    PROP_VAR = "PropVar"


class Role(Enum):
    AXIOM = "Axiom"
    CONJECTURE = "Conjecture"


@dataclass(frozen=True)
class Symbol:
    """A non-logical symbol. Identity is (origin, name, kind, arity).

    `origin` is the defining ontology's IRI prefix (or "" for symbols born
    without one); `name` is the local name. Two same-spelled symbols from
    different ontologies are different symbols until an alignment merges them.
    """

    origin: str
    name: str
    kind: Kind
    arity: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("symbol name must be non-empty")
        if self.arity < 0:
            raise ValueError("symbol arity must be non-negative")

    @property
    def qualified(self) -> str:
        return f"{self.origin}:{self.name}" if self.origin else self.name

    def sort_key(self) -> tuple:
        return (self.origin, self.name, self.kind.value, self.arity)

    def __repr__(self) -> str:
        return f"{self.qualified}:{self.kind.value}" + (f"/{self.arity}" if self.arity else "")


@dataclass(frozen=True)
class Signature:
    logic_id: str
    symbols: frozenset[Symbol] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", frozenset(self.symbols))
        seen: dict[tuple[str, Kind], Symbol] = {}
        for sym in self.symbols:
            key = (sym.qualified, sym.kind)
            if key in seen and seen[key] != sym:
                raise KindClash(sym.qualified, seen[key], sym)
            seen[key] = sym
        logic = _LOGICS.get(self.logic_id)
        if logic is not None:
            for sym in self.symbols:
                if sym.kind not in logic.admitted_kinds:
                    raise KindClash(
                        sym.qualified, sym.kind, f"not admitted by logic {self.logic_id}"
                    )

    def sorted_symbols(self) -> list[Symbol]:
        return sorted(self.symbols, key=Symbol.sort_key)

    def by_local_name(self, name: str) -> list[Symbol]:
        return sorted((s for s in self.symbols if s.name == name), key=Symbol.sort_key)

    def by_qualified(self, origin: str, name: str) -> list[Symbol]:
        return sorted(
            (s for s in self.symbols if s.origin == origin and s.name == name),
            key=Symbol.sort_key,
        )


@dataclass(frozen=True, eq=True)
class SignatureMorphism:
    """Kind- and arity-preserving total map between same-logic signatures."""

    source: Signature
    target: Signature
    mapping: Mapping[Symbol, Symbol]

    def __post_init__(self) -> None:
        if self.source.logic_id != self.target.logic_id:
            raise LogicMismatch(
                f"morphism between logics {self.source.logic_id} and {self.target.logic_id}"
            )
        object.__setattr__(self, "mapping", dict(self.mapping))
        for sym in self.source.symbols:
            image = self.mapping.get(sym)
            if image is None:
                raise SymbolNotInSource(f"no image for {sym!r}")
            if image not in self.target.symbols:
                raise SymbolNotInSource(f"image {image!r} of {sym!r} missing from target")
            if image.kind != sym.kind or image.arity != sym.arity:
                raise KindClash(sym.qualified, (sym.kind, sym.arity), (image.kind, image.arity))

    __hash__ = None  # type: ignore[assignment]

    def apply(self, sym: Symbol) -> Symbol:
        try:
            return self.mapping[sym]
        except KeyError:
            raise SymbolNotInSource(f"{sym!r} is not in the morphism's source") from None


@dataclass(frozen=True)
class Sentence:
    logic_id: str
    ast: Any
    label: str | None = None
    role: Role = Role.AXIOM

    def with_role(self, role: Role) -> "Sentence":
        return Sentence(self.logic_id, self.ast, self.label, role)

    def with_label(self, label: str) -> "Sentence":
        return Sentence(self.logic_id, self.ast, label, self.role)


@dataclass(frozen=True)
class Theory:
    """An ontology: a signature plus an ordered list of sentences over it."""

    name: str
    signature: Signature
    sentences: tuple[Sentence, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))

    @property
    def logic_id(self) -> str:
        return self.signature.logic_id

    @property
    def axioms(self) -> tuple[Sentence, ...]:
        return tuple(s for s in self.sentences if s.role is Role.AXIOM)

    @property
    def conjectures(self) -> tuple[Sentence, ...]:
        return tuple(s for s in self.sentences if s.role is Role.CONJECTURE)

    def axiom_by_label(self, label: str) -> Sentence | None:
        for s in self.sentences:
            if s.label == label:
                return s
        return None


def fresh_name(base: str, is_taken: Callable[[str], bool]) -> str:
    """`base` if it is free, else the first free one of `base_2`, `base_3`, ..."""
    name, k = base, 2
    while is_taken(name):
        name, k = f"{base}_{k}", k + 1
    return name


# -- per-logic dispatch --------------------------------------------------------


class Logic:
    """Interface each concrete logic implements and registers."""

    id: str = ""
    admitted_kinds: frozenset[Kind] = frozenset()

    def symbols_of_ast(self, ast: Any) -> frozenset[Symbol]:
        raise NotImplementedError

    def rename_ast(self, ast: Any, mapping: Mapping[Symbol, Symbol]) -> Any:
        raise NotImplementedError

    def print_sentence(self, ast: Any, prefixes: Mapping[str, str] | None = None) -> str:
        """Render one sentence in the logic's text syntax.

        `prefixes` maps prefix names to origin IRIs and is used to compact
        qualified names on output.
        """
        raise NotImplementedError

    def parse_theory(
        self,
        text: str,
        name: str,
        origin: str = "",
        prefixes: Mapping[str, str] | None = None,
        label_base: str | None = None,
    ) -> Theory:
        raise NotImplementedError

    def print_theory(self, t: Theory, prefixes: Mapping[str, str] | None = None) -> str:
        raise NotImplementedError


_LOGICS: dict[str, Logic] = {}


def register_logic(logic: Logic) -> None:
    _LOGICS[logic.id] = logic


def get_logic(logic_id: str) -> Logic:
    try:
        return _LOGICS[logic_id]
    except KeyError:
        raise LogicMismatch(f"no registered logic {logic_id!r}") from None


def registered_logic_ids() -> list[str]:
    return sorted(_LOGICS)


# -- generic operations --------------------------------------------------------


def identity(sig: Signature) -> SignatureMorphism:
    return SignatureMorphism(sig, sig, {s: s for s in sig.symbols})


def compose(first: SignatureMorphism, second: SignatureMorphism) -> SignatureMorphism:
    if first.target != second.source:
        raise MismatchedEndpoints(
            "cannot compose: first morphism's target differs from second's source"
        )
    return SignatureMorphism(
        first.source,
        second.target,
        {s: second.apply(first.apply(s)) for s in first.source.symbols},
    )


def symbols_of(sentence: Sentence) -> frozenset[Symbol]:
    return get_logic(sentence.logic_id).symbols_of_ast(sentence.ast)


def translate_sentence(m: SignatureMorphism, sentence: Sentence) -> Sentence:
    if sentence.logic_id != m.source.logic_id:
        raise LogicMismatch(
            f"sentence in {sentence.logic_id} under a {m.source.logic_id} morphism"
        )
    logic = get_logic(sentence.logic_id)
    for sym in logic.symbols_of_ast(sentence.ast):
        if sym not in m.mapping:
            raise SymbolNotInSource(f"{sym!r} occurs in the sentence but not in the morphism")
    ast = logic.rename_ast(sentence.ast, m.mapping)
    return Sentence(sentence.logic_id, ast, sentence.label, sentence.role)


def signature_union(a: Signature, b: Signature) -> Signature:
    if a.logic_id != b.logic_id:
        raise LogicMismatch(f"union of {a.logic_id} and {b.logic_id} signatures")
    by_name_a: dict[str, set[tuple[Kind, int]]] = {}
    for s in a.symbols:
        by_name_a.setdefault(s.qualified, set()).add((s.kind, s.arity))
    for s in b.symbols:
        entries = by_name_a.get(s.qualified)
        if entries is not None and (s.kind, s.arity) not in entries:
            raise KindClash(s.qualified, sorted(k.value for k, _ in entries), s.kind.value)
    return Signature(a.logic_id, a.symbols | b.symbols)


def validate_theory(t: Theory) -> None:
    """Check the Theory invariants; raises InvalidTheory on violation."""
    labels: set[str] = set()
    for s in t.sentences:
        if s.logic_id != t.logic_id:
            raise InvalidTheory(f"{t.name}: sentence logic {s.logic_id} != {t.logic_id}")
        if s.label is not None:
            if s.label in labels:
                raise InvalidTheory(f"{t.name}: duplicate sentence label {s.label!r}")
            labels.add(s.label)
        missing = symbols_of(s) - t.signature.symbols
        if missing:
            names = ", ".join(repr(m) for m in sorted(missing, key=Symbol.sort_key))
            raise InvalidTheory(f"{t.name}: sentence uses symbols outside the signature: {names}")
