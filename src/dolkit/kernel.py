"""Core logic framework: kinded symbols, signatures, morphisms, sentences, theories.

Every concrete logic registers itself here. It supplies its parser and
printer, and one table, `name_nodes`, from each AST node type that names a
symbol to that symbol's `Kind`. The kernel collects and renames the symbols
of every logic's sentences with one generic walk over that table. All values
are immutable after construction.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from types import GeneratorType
from typing import Any, Callable, Generator, Mapping

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
    PREDICATE = "Predicate"
    PROP_VAR = "PropVar"

    # Enum's __hash__ hashes the name in Python; members compare by identity
    __hash__ = object.__hash__


class Role(Enum):
    AXIOM = "Axiom"
    CONJECTURE = "Conjecture"

    __hash__ = object.__hash__


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


def node(cls: type) -> type:
    """An immutable AST node class built from `cls`: a named tuple over its
    annotated fields, with their defaults, that keeps the body's methods.
    Equality and hashing are structural, but nodes of different types never
    compare equal, and a node without fields is still true."""
    fields = vars(cls).get("__annotations__", {})
    body = {k: v for k, v in vars(cls).items() if k not in (*fields, "__dict__", "__weakref__")}
    defaults = [vars(cls)[f] for f in fields if f in vars(cls)]
    base = namedtuple(cls.__name__, fields, defaults=defaults, module=cls.__module__)
    return type(cls.__name__, (base,), {**_NODE_METHODS, **body})


_NODE_METHODS = {
    "__slots__": (),
    "__eq__": lambda self, other, _eq=tuple.__eq__: type(self) is type(other) and _eq(self, other),
    "__ne__": lambda self, other: not self == other,  # tuple's own ignores the type
    "__hash__": tuple.__hash__,
    "__bool__": lambda self: True,  # even with no fields
}


Walk = Generator[Any, Any, Any]


def run(walk: Walk) -> Any:
    """The result of a recursive walk, computed on an explicit stack so that
    no depth of input exhausts the recursion limit. The walk is a generator
    that yields the generator of each recursive call where it would make the
    call, `x = yield walk(child)`, and returns its result."""
    stack, value = [walk], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def fresh_name(base: str, is_taken: Callable[[str], bool]) -> str:
    """`base` if it is free, else the first free one of `base_2`, `base_3`, ..."""
    name, k = base, 2
    while is_taken(name):
        name, k = f"{base}_{k}", k + 1
    return name


# -- per-logic dispatch --------------------------------------------------------


class Logic:
    """Interface each concrete logic implements and registers.

    ASTs are `node` classes whose fields are strings, AST nodes or tuples
    of them. `name_nodes` maps each node type that names a symbol to its
    kind; such a node has `origin` and `name` fields, and its arity is the
    length of its `args` field (0 without one). `symbols_of` and
    `translate_sentence` read this table, so a logic writes no walk of its own.
    """

    id: str = ""
    admitted_kinds: frozenset[Kind] = frozenset()
    name_nodes: Mapping[type, Kind] = {}

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
        start_line: int = 1,
        start_col: int = 1,
    ) -> Theory:
        """Read a theory; error positions count from `start_line:start_col`,
        where `text` begins in its document."""
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


_Layout = tuple[Kind | None, tuple[str, ...], tuple[str, ...], bool]
_LAYOUTS: dict[type, _Layout] = {}


def _layout(kinds: Mapping[type, Kind], node_type: type) -> _Layout:
    """How the walks treat a node type: the kind of symbol it names (None if
    it names none), its fields annotated `str`, the fields they descend into
    (every other field), and whether the symbol's arity is the length of its
    `args`. A node type belongs to one logic, so the answer is cached by type."""
    fields = node_type.__annotations__.items()
    names = tuple(name for name, t in fields if t in ("str", str))
    keys = tuple(name for name, t in fields if t not in ("str", str))
    layout = _LAYOUTS[node_type] = (kinds.get(node_type), names, keys, "args" in keys)
    return layout


def symbols_of(*sentences: Sentence) -> frozenset[Symbol]:
    """The symbols named in the sentences, found in one walk over an explicit
    stack so that deep ASTs do not exhaust the recursion limit. Each distinct
    `(node type, origin, name, arity)` builds one `Symbol`, however often it occurs."""
    found: dict[tuple[type, str, str, int], Symbol] = {}
    for sentence in sentences:
        kinds = get_logic(sentence.logic_id).name_nodes
        todo = [sentence.ast]
        while todo:
            node = todo.pop()
            node_type = type(node)
            if node_type is tuple:
                todo.extend(node)
                continue
            kind, _, keys, has_args = _LAYOUTS.get(node_type) or _layout(kinds, node_type)
            if kind is not None:
                arity = len(node.args) if has_args else 0
                ident = (node_type, node.origin, node.name, arity)
                if ident not in found:
                    found[ident] = Symbol(node.origin, node.name, kind, arity)
            for key in keys:
                todo.append(getattr(node, key))
    return frozenset(found.values())


def translate_sentence(m: SignatureMorphism, sentence: Sentence) -> Sentence:
    """Rename the sentence's symbols along `m`. Each name node is looked up
    before its children, so a symbol without an image is reported at its
    first occurrence in pre-order."""
    if sentence.logic_id != m.source.logic_id:
        raise LogicMismatch(
            f"sentence in {sentence.logic_id} under a {m.source.logic_id} morphism"
        )
    kinds = get_logic(sentence.logic_id).name_nodes

    def rename(node: Any) -> Any:
        """The node's image; for a node with children, a generator for `run`
        that builds it, so that a leaf makes no generator."""
        node_type = type(node)
        kind, names, keys, has_args = _LAYOUTS.get(node_type) or _layout(kinds, node_type)
        if kind is None and not keys:
            return node
        fields = {name: getattr(node, name) for name in names}
        if kind is not None:
            sym = Symbol(node.origin, node.name, kind, len(node.args) if has_args else 0)
            image = m.mapping.get(sym)
            if image is None:
                raise SymbolNotInSource(f"{sym!r} occurs in the sentence but not in the morphism")
            fields["origin"], fields["name"] = image.origin, image.name
        return rebuild(node, node_type, fields, keys) if keys else node_type(**fields)

    def rebuild(node: Any, node_type: type, fields: dict[str, Any], keys: tuple[str, ...]):
        for key in keys:
            child = getattr(node, key)
            images = []
            for item in child if type(child) is tuple else (child,):
                image = rename(item)
                images.append((yield image) if type(image) is GeneratorType else image)
            fields[key] = tuple(images) if type(child) is tuple else images[0]
        return node_type(**fields)

    image = rename(sentence.ast)
    if type(image) is GeneratorType:
        image = run(image)
    return Sentence(sentence.logic_id, image, sentence.label, sentence.role)


def sentence_key(sentence: Sentence) -> tuple:
    """A flat tuple that is equal for two sentences exactly when their logic,
    role and AST are, built without recursion or hashing a node: each node's
    type and string fields in pre-order, children last-first, and each
    tuple's length."""
    kinds = get_logic(sentence.logic_id).name_nodes
    key: list[Any] = [sentence.logic_id, sentence.role]
    todo = [sentence.ast]
    while todo:
        node = todo.pop()
        node_type = type(node)
        if node_type is tuple:
            key.append(len(node))
            todo.extend(node)
            continue
        _, names, keys, _ = _LAYOUTS.get(node_type) or _layout(kinds, node_type)
        key.append(node_type)
        for name in names:
            key.append(getattr(node, name))
        for field in keys:
            todo.append(getattr(node, field))
    return tuple(key)


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
