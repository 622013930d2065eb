"""Semantics of DOL structuring: flattening expressions to theories,
alignment diagrams, colimit-based combination, proof-obligation extraction,
and the development graph.

Flattening resolves references through the repository config, unions
same-logic operands, and routes heterogeneous unions through the mapping
graph's common target. Combination quotients the disjoint union of the
aligned signatures by the equivalence closure the alignments induce.

Each job is done once per `Env`, which caches: every definition's
`FlatDefinition` (its theory and, for competency questions, the base and
the conjectures), every file-backed theory by IRI, every theory's image in
another logic, and the diagram node ids of files and of inline alignment
sides. `combine_details` resolves its alignments once and builds the
diagram from that `AlignmentResolution`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

from .dolparse import (
    AlignmentDef,
    And,
    Basic,
    Combine,
    CorrName,
    DolDocument,
    OntologyDef,
    OntologyExpr,
    Ref,
    Relation,
    RepoConfig,
    Then,
    resolve_reference,
)
from .errors import (
    DolkitError,
    EmptyCombine,
    HeterogeneousAlignment,
    KindMismatch,
    NewSymbolInConjecture,
    UnresolvedCorrespondence,
    UnresolvedIri,
)
from .kernel import (
    Kind,
    Role,
    Sentence,
    Signature,
    SignatureMorphism,
    Symbol,
    Theory,
    fresh_name,
    get_logic,
    sentence_key,
    signature_union,
    symbols_of,
    translate_sentence,
)
from .logics import fol, prop, simpledl
from .mappings import common_target, find_path, translate_along


@dataclass(frozen=True)
class FlatDefinition:
    """A definition flattened once. A `then` whose extension adds no symbols
    to its base is read as competency questions: `base` is then the flattened
    base and `conjectures` the extension's sentences, with role CONJECTURE."""

    theory: Theory
    base: Theory | None = None
    conjectures: tuple[Sentence, ...] = ()


class Env:
    """Analysis context: the parsed document, the repository config, and the
    caches that make each piece of work happen once per Env."""

    def __init__(self, document: DolDocument, repo: RepoConfig, origin: str = ""):
        self.document = document
        self.repo = repo
        self.origin = origin
        self.prefixes = document.prefix_map
        self._definitions: dict[str, FlatDefinition] = {}
        # definitions being flattened and alignments whose sides are being
        # resolved now; the parser keeps their names apart
        self._flattening: set[str] = set()
        self._by_iri: dict[str, Theory] = {}
        # (id(source), target logic) -> (source, image); the entry keeps the
        # source alive, so that its id is not reused
        self._translations: dict[tuple[int, str], tuple[Theory, Theory]] = {}
        self._iri_nodes: dict[str, str] = {}  # iri -> graph/diagram node id
        self._expr_nodes: dict[OntologyExpr, tuple[str, Theory]] = {}
        # definition names are node ids already; fresh ones must avoid them
        self._node_ids: set[str] = set(document.definitions())
        # a definition that is exactly one IRI reference names that file's node
        for item in document.ontology_defs():
            if isinstance(item.expr, Ref) and item.expr.iri is not None:
                self._iri_nodes.setdefault(item.expr.iri, item.name)

    def definition(self, name: str):
        item = self.document.definitions().get(name)
        if item is None:
            raise UnresolvedIri(f"undefined reference {name!r}")
        return item

    def _new_node_id(self, base: str) -> str:
        node_id = fresh_name(base, self._node_ids.__contains__)
        self._node_ids.add(node_id)
        return node_id

    def node_id_for_iri(self, iri: str) -> str:
        """Stable display node id for a file-backed theory."""
        existing = self._iri_nodes.get(iri)
        if existing is None:
            existing = self._iri_nodes[iri] = self._new_node_id(
                iri.rstrip("/").rsplit("/", 1)[-1] or iri
            )
        return existing

    def load_iri(self, iri: str) -> Theory:
        cached = self._by_iri.get(iri)
        if cached is None:
            text, logic_id, origin = resolve_reference(iri, self.repo)
            name = self.node_id_for_iri(iri)
            logic = get_logic(logic_id)
            cached = logic.parse_theory(text, name, origin=origin, prefixes=self.prefixes)
            self._by_iri[iri] = cached
        return cached

    def flat_definition(self, item: OntologyDef) -> FlatDefinition:
        """The definition flattened, once per Env, so that shared bases are one
        Theory object. A definition that needs itself is an import cycle."""
        cached = self._definitions.get(item.name)
        if cached is None:
            if item.name in self._flattening:
                raise DolkitError(f"import cycle through {item.name!r}")
            self._flattening.add(item.name)
            try:
                if isinstance(item.expr, Then):
                    cached = _flatten_then(item.expr, self, item.name)
                else:
                    cached = FlatDefinition(flatten(item.expr, self, item.name))
            finally:
                self._flattening.discard(item.name)
            self._definitions[item.name] = cached
        return cached

    def alignment_side(self, expr: OntologyExpr) -> tuple[str, Theory]:
        """Flatten an alignment side and give it a stable diagram node id;
        repeated occurrences of the same side share one node and theory."""
        if isinstance(expr, Ref) and expr.iri is not None:
            return self.node_id_for_iri(expr.iri), self.load_iri(expr.iri)
        if isinstance(expr, Ref):
            return expr.written, flatten(expr, self, expr.written)
        cached = self._expr_nodes.get(expr)
        if cached is None:
            node_id = self._new_node_id(_expr_display(expr))
            cached = self._expr_nodes[expr] = (node_id, flatten(expr, self, node_id))
        return cached

    def to_common_logic(self, theories: list[Theory]) -> list[Theory]:
        """Translate a mixed-logic batch into a common target logic; each theory
        is translated once per Env, so a shared base stays one Theory object."""
        target = common_target(*sorted({t.logic_id for t in theories}))
        out = []
        for t in theories:
            key = (id(t), target)
            if key not in self._translations:
                self._translations[key] = (t, translate_along(find_path(t.logic_id, target), t))
            out.append(self._translations[key][1])
        return out


def _merge_sentences(groups: list[tuple[Sentence, ...]]) -> tuple[Sentence, ...]:
    """Order-preserving structural union; colliding labels get a numeric
    suffix so theory invariants hold."""
    seen_keys: set = set()
    used_labels: set[str] = set()
    merged: list[Sentence] = []
    for group in groups:
        for s in group:
            key = sentence_key(s)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            if s.label is not None:
                label = fresh_name(s.label, used_labels.__contains__)
                if label != s.label:
                    s = s.with_label(label)
                used_labels.add(label)
            merged.append(s)
    return tuple(merged)


def _union(name: str, theories: list[Theory]) -> Theory:
    sig = theories[0].signature
    for t in theories[1:]:
        sig = signature_union(sig, t.signature)
    return Theory(name, sig, _merge_sentences([t.sentences for t in theories]))


def flatten(expr: OntologyExpr, env: Env, name: str = "") -> Theory:
    """Resolve an ontology expression to a theory."""
    if isinstance(expr, Ref):
        if expr.iri is None:
            item = env.definition(expr.written)
            if isinstance(item, AlignmentDef):
                raise UnresolvedIri(f"{expr.written!r} names an alignment, not an ontology")
            t = flatten_definition(item, env)
        else:
            t = env.load_iri(expr.iri)
        return dataclasses.replace(t, name=name) if name and name != t.name else t
    if isinstance(expr, Basic):
        logic = get_logic(expr.logic_id)
        return logic.parse_theory(
            expr.text, name or "fragment", env.origin, env.prefixes, expr.line, expr.col + 1
        )
    if isinstance(expr, And):
        parts = [flatten(op, env) for op in expr.operands]
        if len({t.logic_id for t in parts}) > 1:
            parts = env.to_common_logic(parts)
        return _union(name or "union", parts)
    if isinstance(expr, Then):
        return _flatten_then(expr, env, name).theory
    if isinstance(expr, Combine):
        return combine(list(expr.alignments), env, name or "combine")
    raise TypeError(f"not an ontology expression: {expr!r}")


def _flatten_then(expr: Then, env: Env, name: str) -> FlatDefinition:
    """Flatten a `then` extension. A base and an extension in different
    logics are first translated into a common one. An extension that then
    introduces no symbols beyond its base is a set of conjectures (proof
    obligations); one that declares new symbols is an ordinary extension."""
    base = flatten(expr.base, env, name="")
    ext = flatten(expr.extension, env, name=name or "extension")
    if ext.logic_id != base.logic_id:
        base, ext = env.to_common_logic([base, ext])
    if not ext.signature.symbols <= base.signature.symbols:
        return FlatDefinition(_union(name or "extension", [base, ext]))
    conjectures = tuple(s.with_role(Role.CONJECTURE) for s in ext.sentences)
    merged = Theory(
        name or "extension",
        base.signature,
        _merge_sentences([base.sentences, conjectures]),
    )
    return FlatDefinition(merged, base, conjectures)


def flatten_definition(item: OntologyDef, env: Env) -> Theory:
    return env.flat_definition(item).theory


def validate_document(doc: DolDocument, env: Env) -> None:
    """Document-level analysis pass: every definition flattens and every
    alignment correspondence resolves to same-kind symbols."""
    for item in doc.ontology_defs():
        flatten_definition(item, env)
    if doc.alignment_defs():
        resolve_alignments(doc.alignment_defs(), env)


# -- alignment diagrams and colimits ------------------------------------------------


@dataclass(frozen=True)
class DiagramEdge:
    source: str
    target: str
    morphism: SignatureMorphism


@dataclass(frozen=True)
class Diagram:
    nodes: tuple[tuple[str, Signature], ...]
    edges: tuple[DiagramEdge, ...]

    def node_map(self) -> dict[str, Signature]:
        return dict(self.nodes)

    def __post_init__(self) -> None:
        sigs = self.node_map()
        for e in self.edges:
            if e.source not in sigs or e.target not in sigs:
                raise DolkitError(f"diagram edge {e.source}->{e.target} misses a node")
            if e.morphism.source != sigs[e.source] or e.morphism.target != sigs[e.target]:
                raise DolkitError(
                    f"diagram edge {e.source}->{e.target} morphism endpoints do not "
                    "match the node signatures"
                )


def _resolve_corr_name(cname: CorrName, theory: Theory, side: str) -> Symbol:
    if cname.origin is None:
        candidates = theory.signature.by_local_name(cname.name)
    else:
        candidates = theory.signature.by_qualified(cname.origin, cname.name)
    if not candidates:
        raise UnresolvedCorrespondence(cname.display, side, f"theory {theory.name!r}")
    if len(candidates) > 1:
        kinds = ", ".join(c.kind.value for c in candidates)
        raise UnresolvedCorrespondence(
            cname.display, side, f"ambiguous in {theory.name!r} (kinds: {kinds})"
        )
    return candidates[0]


def _expr_display(expr: OntologyExpr) -> str:
    if isinstance(expr, Ref):
        return expr.display
    if isinstance(expr, And):
        return "_and_".join(_expr_display(op) for op in expr.operands)
    if isinstance(expr, Combine):
        return "combine_" + "_".join(expr.alignments)
    if isinstance(expr, Then):
        return _expr_display(expr.base) + "_then"
    return "fragment"


@dataclass(frozen=True)
class ResolvedCorrespondence:
    alignment: str
    left_node: str
    right_node: str
    left: Symbol
    right: Symbol
    relation: Relation


@dataclass(frozen=True)
class AlignmentResolution:
    """The flattened sides of a list of alignments, keyed by diagram node id
    in first-seen order; each alignment's (left, right) node ids; and every
    correspondence resolved to symbols, in document order."""

    theories: dict[str, Theory]
    sides: dict[str, tuple[str, str]]
    rows: tuple[ResolvedCorrespondence, ...]


def resolve_alignments(alignments: list[AlignmentDef], env: Env) -> AlignmentResolution:
    """Flatten all sides and resolve every correspondence to symbols."""
    theories: dict[str, Theory] = {}
    sides: dict[str, tuple[str, str]] = {}
    rows: list[ResolvedCorrespondence] = []
    logic_ids: set[str] = set()
    for a in alignments:
        # a side may itself be a combine; one that needs `a` is a cycle
        if a.name in env._flattening:
            raise DolkitError(f"combine cycle through {a.name!r}")
        env._flattening.add(a.name)
        try:
            left_id, left_t = env.alignment_side(a.left)
            right_id, right_t = env.alignment_side(a.right)
        finally:
            env._flattening.discard(a.name)
        theories.setdefault(left_id, left_t)
        theories.setdefault(right_id, right_t)
        sides[a.name] = (left_id, right_id)
        logic_ids.update({left_t.logic_id, right_t.logic_id})
        if len(logic_ids) > 1:
            raise HeterogeneousAlignment(
                f"alignment {a.name!r} relates theories in different logics: "
                + ", ".join(sorted(logic_ids))
            )
        for corr in a.correspondences:
            ls = _resolve_corr_name(corr.left, left_t, "left")
            rs = _resolve_corr_name(corr.right, right_t, "right")
            if ls.kind != rs.kind or ls.arity != rs.arity:
                raise KindMismatch(
                    f"{a.name}: {ls!r} and {rs!r} have different kinds"
                )
            rows.append(ResolvedCorrespondence(a.name, left_id, right_id, ls, rs, corr.relation))
    return AlignmentResolution(theories, sides, tuple(rows))


def build_diagram(alignments: list[AlignmentDef], resolution: AlignmentResolution) -> Diagram:
    """One node per distinct aligned theory plus one bridge node per
    alignment holding a symbol for each equivalence correspondence, with
    morphisms into both sides. Subsumption rows contribute no bridge symbols."""
    theories = resolution.theories
    nodes: list[tuple[str, Signature]] = [
        (node_id, t.signature) for node_id, t in theories.items()
    ]
    equivalences: dict[str, list[ResolvedCorrespondence]] = {}
    for r in resolution.rows:
        if r.relation is Relation.EQUIVALENT:
            equivalences.setdefault(r.alignment, []).append(r)
    logic_id = nodes[0][1].logic_id if nodes else "SimpleDL"
    edges: list[DiagramEdge] = []
    for a in alignments:
        bridge_symbols: dict[Symbol, tuple[Symbol, Symbol]] = {}
        for r in equivalences.get(a.name, ()):
            kind, arity = r.left.kind, r.left.arity
            name = fresh_name(
                r.left.name, lambda n: Symbol(a.name, n, kind, arity) in bridge_symbols
            )
            bridge_symbols[Symbol(a.name, name, kind, arity)] = (r.left, r.right)
        bridge_sig = Signature(logic_id, frozenset(bridge_symbols))
        nodes.append((a.name, bridge_sig))
        for pick, side_id in enumerate(resolution.sides[a.name]):
            mapping = {b: pair[pick] for b, pair in bridge_symbols.items()}
            edges.append(
                DiagramEdge(
                    a.name,
                    side_id,
                    SignatureMorphism(bridge_sig, theories[side_id].signature, mapping),
                )
            )
    return Diagram(tuple(nodes), tuple(edges))


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def colimit(d: Diagram) -> tuple[Signature, dict[str, SignatureMorphism]]:
    """Colimit of a same-logic signature diagram.

    The colimit signature is the quotient of the disjoint union of node
    symbols by the equivalence closure of all edge-induced identifications;
    the returned injections commute with every diagram edge.
    """
    sigs = dict(d.nodes)
    logic_ids = {sig.logic_id for _, sig in d.nodes}
    if len(logic_ids) > 1:
        raise HeterogeneousAlignment(
            "colimit over nodes in different logics: " + ", ".join(sorted(logic_ids))
        )
    logic_id = next(iter(logic_ids)) if logic_ids else "SimpleDL"
    uf = _UnionFind()
    items: list[tuple[str, Symbol]] = [
        (node_id, sym)
        for node_id, sig in d.nodes
        for sym in sorted(sig.symbols, key=Symbol.sort_key)
    ]
    for item in items:
        uf.find(item)
    for e in d.edges:
        for sym in sorted(e.morphism.source.symbols, key=Symbol.sort_key):
            uf.union((e.source, sym), (e.target, e.morphism.apply(sym)))
    classes: dict[object, list[tuple[str, Symbol]]] = {}
    for item in items:
        classes.setdefault(uf.find(item), []).append(item)
    # name representatives deterministically; members keep diagram order
    node_order = {node_id: i for i, (node_id, _) in enumerate(d.nodes)}
    taken: set[tuple[str, Kind, int]] = set()
    rep_of: dict[object, Symbol] = {}
    for root in sorted(classes, key=lambda r: min((node_order[n], s.sort_key()) for n, s in classes[r])):
        members = sorted(classes[root], key=lambda m: (node_order[m[0]], m[1].sort_key()))
        kinds = {(s.kind, s.arity) for _, s in members}
        if len(kinds) > 1:
            named = ", ".join(repr(s) for _, s in members)
            raise KindMismatch(f"merged symbols have different kinds: {named}")
        kind, arity = next(iter(kinds))
        locals_ = sorted({s.name for _, s in members})
        origin = next(s.origin for _, s in members if s.name == locals_[0])

        def key(name: str) -> tuple[str, Kind, int]:
            return Symbol(origin, name, kind, arity).qualified, kind, arity

        local = fresh_name("__".join(locals_), lambda n: key(n) in taken)
        taken.add(key(local))
        rep_of[root] = Symbol(origin, local, kind, arity)
    colimit_sig = Signature(logic_id, frozenset(rep_of.values()))
    injections: dict[str, SignatureMorphism] = {}
    for node_id, sig in d.nodes:
        mapping = {sym: rep_of[uf.find((node_id, sym))] for sym in sig.symbols}
        injections[node_id] = SignatureMorphism(sig, colimit_sig, mapping)
    return colimit_sig, injections


def _subsumption_sentence(
    logic_id: str, left: Symbol, right: Symbol, label: str
) -> Sentence:
    """The kind-appropriate subsumption: SubClassOf for classes,
    SubPropertyOf for object properties, implication for predicates."""
    if logic_id == "SimpleDL":
        if left.kind is Kind.CLASS:
            ast = simpledl.SubClassOf(
                simpledl.ClsName(left.origin, left.name),
                simpledl.ClsName(right.origin, right.name),
            )
        elif left.kind is Kind.OBJECT_PROPERTY:
            ast = simpledl.SubPropertyOf(
                simpledl.PropName(left.origin, left.name),
                simpledl.PropName(right.origin, right.name),
            )
        else:
            raise KindMismatch(
                f"subsumption between {left.kind.value} symbols is not expressible"
            )
        return Sentence(logic_id, ast, label, Role.AXIOM)
    if logic_id == "Prop":
        ast = prop.PBin(
            "impl", prop.PVar(left.origin, left.name), prop.PVar(right.origin, right.name)
        )
        return Sentence(logic_id, ast, label, Role.AXIOM)
    if logic_id == "FOL":
        variables = [f"X{i}" for i in range(1, left.arity + 1)]
        args = tuple(fol.FVar(v) for v in variables)
        body = fol.FBin(
            "impl",
            fol.FAtom(left.origin, left.name, args),
            fol.FAtom(right.origin, right.name, args),
        )
        return Sentence(logic_id, fol.forall(variables, body), label, Role.AXIOM)
    raise KindMismatch(f"subsumption not supported in logic {logic_id}")


@dataclass(frozen=True)
class CombineResult:
    theory: Theory
    diagram: Diagram
    injections: dict[str, SignatureMorphism]

    def merged_classes(self) -> list[tuple[Symbol, list[tuple[str, Symbol]]]]:
        """Equivalence classes of the combination, largest first; each entry
        is (representative, [(node_id, member), ...])."""
        classes: dict[Symbol, list[tuple[str, Symbol]]] = {}
        for node_id, sig in self.diagram.nodes:
            inj = self.injections[node_id]
            for sym in sorted(sig.symbols, key=Symbol.sort_key):
                classes.setdefault(inj.apply(sym), []).append((node_id, sym))
        return sorted(
            classes.items(), key=lambda kv: (-len(kv[1]), kv[0].sort_key())
        )


def combine_details(alignment_names: list[str], env: Env, name: str = "combine") -> CombineResult:
    """Colimit-based combination of the theories the named alignments relate:
    every node's sentences translate along its injection, and each
    subsumption correspondence adds one generated sentence."""
    if not alignment_names:
        raise EmptyCombine("combine needs at least one alignment")
    defs = env.document.definitions()
    alignments: list[AlignmentDef] = []
    for a_name in alignment_names:
        item = defs.get(a_name)
        if not isinstance(item, AlignmentDef):
            raise UnresolvedIri(f"{a_name!r} is not a declared alignment")
        alignments.append(item)
    resolution = resolve_alignments(alignments, env)
    diagram = build_diagram(alignments, resolution)
    colimit_sig, injections = colimit(diagram)
    groups: list[tuple[Sentence, ...]] = []
    for node_id, t in resolution.theories.items():
        inj = injections[node_id]
        groups.append(tuple(translate_sentence(inj, s) for s in t.sentences))
    generated: list[Sentence] = []
    counter: dict[str, int] = {}
    for r in resolution.rows:
        if r.relation is not Relation.LEFT_SUBSUMED:
            continue
        counter[r.alignment] = counter.get(r.alignment, 0) + 1
        label = f"{r.alignment}_sub_{counter[r.alignment]}"
        left_img = injections[r.left_node].apply(r.left)
        right_img = injections[r.right_node].apply(r.right)
        generated.append(
            _subsumption_sentence(colimit_sig.logic_id, left_img, right_img, label)
        )
    groups.append(tuple(generated))
    theory = Theory(name, colimit_sig, _merge_sentences(groups))
    return CombineResult(theory, diagram, injections)


def combine(alignment_names: list[str], env: Env, name: str = "combine") -> Theory:
    return combine_details(alignment_names, env, name).theory


# -- proof obligations ---------------------------------------------------------------


@dataclass(frozen=True)
class ProofObligation:
    name: str
    theory: Theory
    conjecture: Sentence

    def __post_init__(self) -> None:
        missing = symbols_of(self.conjecture) - self.theory.signature.symbols
        if missing:
            names = ", ".join(repr(m) for m in sorted(missing, key=Symbol.sort_key))
            raise NewSymbolInConjecture(
                f"obligation {self.name!r} conjecture uses new symbols: {names}"
            )


def extract_obligations(doc: DolDocument, env: Env) -> list[ProofObligation]:
    """Each `ontology N = Base then { fragment }` whose fragment introduces no
    new symbols yields one obligation per fragment sentence (named N, or N_k
    when the fragment has several)."""
    obligations: list[ProofObligation] = []
    for item in doc.ontology_defs():
        if not isinstance(item.expr, Then):
            continue
        flat = env.flat_definition(item)
        if flat.base is None:
            continue
        for k, s in enumerate(flat.conjectures, 1):
            ob_name = item.name if len(flat.conjectures) == 1 else f"{item.name}_{k}"
            obligations.append(ProofObligation(ob_name, flat.base, s.with_label(ob_name)))
    return obligations


# -- development graph ---------------------------------------------------------------


class LinkType(Enum):
    IMPORT = "Import"
    ALIGNMENT_SIDE = "AlignmentSide"
    COMBINE_INJECTION = "CombineInjection"
    OBLIGATION_OF = "ObligationOf"


@dataclass(frozen=True)
class DevLink:
    source: str
    target: str
    type: LinkType


@dataclass(frozen=True)
class DevGraph:
    nodes: tuple[str, ...]
    links: tuple[DevLink, ...]


def dev_graph(doc: DolDocument, env: Env) -> DevGraph:
    nodes: list[str] = []
    links: list[DevLink] = []

    def add_node(node_id: str) -> str:
        if node_id not in nodes:
            nodes.append(node_id)
        return node_id

    def ref_node(expr: Ref) -> str:
        if expr.iri is not None:
            return add_node(env.node_id_for_iri(expr.iri))
        return add_node(expr.written)

    def operand_nodes(expr: OntologyExpr) -> list[str]:
        if isinstance(expr, Ref):
            return [ref_node(expr)]
        if isinstance(expr, And):
            out: list[str] = []
            for op in expr.operands:
                out.extend(operand_nodes(op))
            return out
        return []

    for item in doc.items:
        if isinstance(item, OntologyDef):
            add_node(item.name)
            expr = item.expr
            if isinstance(expr, Then):
                cq = env.flat_definition(item).base is not None
                link_type = LinkType.OBLIGATION_OF if cq else LinkType.IMPORT
                for base_node in operand_nodes(expr.base):
                    if cq:
                        links.append(DevLink(item.name, base_node, link_type))
                    else:
                        links.append(DevLink(base_node, item.name, link_type))
            elif isinstance(expr, And):
                for op_node in operand_nodes(expr):
                    if op_node != item.name:
                        links.append(DevLink(op_node, item.name, LinkType.IMPORT))
            elif isinstance(expr, Combine):
                defs = doc.definitions()
                seen: list[str] = []
                for a_name in expr.alignments:
                    a = defs[a_name]
                    assert isinstance(a, AlignmentDef)
                    for side in (a.left, a.right):
                        if isinstance(side, Ref):
                            side_node = ref_node(side)
                            if side_node not in seen:
                                seen.append(side_node)
                                links.append(
                                    DevLink(side_node, item.name, LinkType.COMBINE_INJECTION)
                                )
            elif isinstance(expr, Ref) and expr.iri is None:
                links.append(DevLink(ref_node(expr), item.name, LinkType.IMPORT))
            # a def that just names a file is itself that file's node
        elif isinstance(item, AlignmentDef):
            add_node(item.name)
            for side in (item.left, item.right):
                if isinstance(side, Ref):
                    links.append(DevLink(ref_node(side), item.name, LinkType.ALIGNMENT_SIDE))
    return DevGraph(tuple(nodes), tuple(links))


def graph_to_dot(graph: DevGraph) -> str:
    lines = ["digraph dolkit {"]
    for node in graph.nodes:
        lines.append(f'    "{node}";')
    for link in graph.links:
        lines.append(f'    "{link.source}" -> "{link.target}" [label="{link.type.value}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dict(graph: DevGraph) -> dict:
    return {
        "nodes": [{"id": n} for n in graph.nodes],
        "links": [
            {"source": l.source, "target": l.target, "type": l.type.value}
            for l in graph.links
        ],
    }
