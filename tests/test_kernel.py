"""Kernel: symbols, signatures, morphisms, theories, and the category laws."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dolkit.dolparse import Basic, DolDocument
from dolkit.errors import InvalidTheory, KindClash, MismatchedEndpoints, SymbolNotInSource
from dolkit.kernel import (
    Kind,
    Role,
    Sentence,
    Signature,
    SignatureMorphism,
    Symbol,
    Theory,
    compose,
    identity,
    sentence_key,
    signature_union,
    symbols_of,
    translate_sentence,
    validate_theory,
)
from dolkit.logics import (
    FOL,
    PROP,
    SIMPLE_DL,
    fol,
    parse_dl_frames,
    parse_fof_formula,
    parse_prop,
    prop,
    simpledl,
)
from dolkit.logics.simpledl import ClsName, SubClassOf
from dolkit.mappings import get_mapping, translate_along
from dolkit.structure import Env, flatten_definition


def psym(name: str) -> Symbol:
    return Symbol("", name, Kind.PROP_VAR, 0)


def psig(*names: str) -> Signature:
    return Signature("Prop", frozenset(psym(n) for n in names))


class TestIdentity:
    def test_single_class(self):
        sig = Signature("SimpleDL", frozenset([Symbol("", "C", Kind.CLASS)]))
        m = identity(sig)
        assert m.source == sig and m.target == sig
        assert m.apply(Symbol("", "C", Kind.CLASS)) == Symbol("", "C", Kind.CLASS)

    def test_empty_signature(self):
        m = identity(Signature("Prop"))
        assert m.mapping == {}

    def test_fixture_signature_fixed_pointwise(self, alignments_doc, repo):
        env = Env(alignments_doc, repo)
        dolce = env.load_iri("http://www.loa-cnr.it/ontologies/DOLCE-Lite.owl")
        m = identity(dolce.signature)
        assert all(m.apply(s) == s for s in dolce.signature.symbols)


class TestCompose:
    def test_left_identity(self):
        src, tgt = psig("a"), psig("b")
        m = SignatureMorphism(src, tgt, {psym("a"): psym("b")})
        assert compose(identity(src), m) == m

    def test_pointwise(self):
        a, b, c = psig("a"), psig("b"), psig("c")
        m = SignatureMorphism(a, b, {psym("a"): psym("b")})
        n = SignatureMorphism(b, c, {psym("b"): psym("c")})
        assert compose(m, n).mapping == {psym("a"): psym("c")}

    def test_mismatched_endpoints(self):
        a, b = psig("a"), psig("b")
        m = SignatureMorphism(a, b, {psym("a"): psym("b")})
        with pytest.raises(MismatchedEndpoints):
            compose(m, m)

    def test_alignment_induced_then_identity(self, alignments_env):
        # the endurant -> Presential bridge morphism composed with the
        # identity keeps the image intact
        from dolkit.structure import build_diagram, resolve_alignments

        doc = alignments_env.document
        d2g = next(a for a in doc.alignment_defs() if a.name == "DolceLite2GFO")
        diagram = build_diagram([d2g], resolve_alignments([d2g], alignments_env))
        to_gfo = next(e for e in diagram.edges if e.target == "gfo.owl")
        composed = compose(to_gfo.morphism, identity(to_gfo.morphism.target))
        assert composed == to_gfo.morphism
        bridge_endurant = next(
            s for s in to_gfo.morphism.source.symbols if s.name == "endurant"
        )
        assert composed.apply(bridge_endurant).name == "Presential"


class TestTranslateSentence:
    def test_identity_is_noop(self):
        ast = parse_prop("p and q")
        s = Sentence("Prop", ast, "s")
        sig = psig("p", "q")
        assert translate_sentence(identity(sig), s) == s

    def test_dl_substitution(self):
        asts, _ = parse_dl_frames("Class: endurant SubClassOf: endurant")
        s = Sentence("SimpleDL", asts[0], "ax")
        old = Symbol("", "endurant", Kind.CLASS)
        new = Symbol("", "Presential", Kind.CLASS)
        sig_a = Signature("SimpleDL", frozenset([old]))
        sig_b = Signature("SimpleDL", frozenset([new]))
        out = translate_sentence(SignatureMorphism(sig_a, sig_b, {old: new}), s)
        assert out.ast == SubClassOf(ClsName("", "Presential"), ClsName("", "Presential"))
        assert out.label == "ax" and out.role is Role.AXIOM

    def test_prop_collapse(self):
        s = Sentence("Prop", parse_prop("p and q"))
        m = SignatureMorphism(
            psig("p", "q"), psig("r"), {psym("p"): psym("r"), psym("q"): psym("r")}
        )
        assert translate_sentence(m, s).ast == parse_prop("r and r")

    def test_symbol_without_image(self):
        fol_ast = parse_fof_formula("![X]: (p(X) => q(X, c))")
        [dl_ast] = parse_dl_frames("Individual: i Types: r some C")[0]
        cases = [
            ("Prop", parse_prop("p and q"), psym("q")),
            ("FOL", fol_ast, Symbol("", "q", Kind.PREDICATE, 2)),
            ("FOL", fol_ast, Symbol("", "c", Kind.INDIVIDUAL)),
            ("SimpleDL", dl_ast, Symbol("", "C", Kind.CLASS)),
            ("SimpleDL", dl_ast, Symbol("", "r", Kind.OBJECT_PROPERTY)),
            ("SimpleDL", dl_ast, Symbol("", "i", Kind.INDIVIDUAL)),
        ]
        for logic_id, ast, missing in cases:
            s = Sentence(logic_id, ast)
            assert missing in symbols_of(s)
            m = identity(Signature(logic_id, symbols_of(s) - {missing}))
            with pytest.raises(SymbolNotInSource) as raised:
                translate_sentence(m, s)
            assert str(raised.value) == (
                f"{missing!r} occurs in the sentence but not in the morphism"
            )

    def test_first_missing_symbol_in_ast_order_is_named(self):
        s = Sentence("Prop", parse_prop("b and (a or c)"))
        with pytest.raises(SymbolNotInSource, match="^b:PropVar "):
            translate_sentence(identity(psig("c")), s)


def test_name_node_tables_list_exactly_the_name_nodes():
    """A node type with `origin` and `name` fields names a symbol; one left
    out of its logic's table would be skipped by symbol collection and
    renaming alike."""
    for module, logic in ((fol, FOL), (prop, PROP), (simpledl, SIMPLE_DL)):
        named = {
            cls
            for cls in vars(module).values()
            if isinstance(cls, type)
            and cls.__module__ == module.__name__
            and {"origin", "name"} <= set(getattr(cls, "_fields", ()))
        }
        assert named and set(logic.name_nodes) == named, module.__name__


# One name pool for every kind, so one spelling names symbols of several
# kinds, origins and arities.
_NAMES = st.sampled_from(["a", "b", "C"])
_ORIGINS = st.sampled_from(["", "http://x/", "http://y/"])
_PROP = st.recursive(
    st.builds(prop.PVar, _ORIGINS, _NAMES) | st.just(prop.PTrue()),
    lambda sub: st.builds(prop.PNot, sub)
    | st.builds(prop.PBin, st.sampled_from(["and", "iff"]), sub, sub),
    max_leaves=12,
)
_TERM = st.builds(fol.FConst, _ORIGINS, _NAMES) | st.builds(fol.FVar, st.just("X"))
_FOL = st.recursive(
    st.builds(fol.FAtom, _ORIGINS, _NAMES, st.lists(_TERM, max_size=3).map(tuple)),
    lambda sub: st.builds(fol.FNot, sub)
    | st.builds(fol.FBin, st.just("or"), sub, sub)
    | st.builds(fol.FQuant, st.just("forall"), st.just("X"), sub),
    max_leaves=8,
)
_CLS = st.recursive(
    st.builds(simpledl.ClsName, _ORIGINS, _NAMES),
    lambda sub: st.builds(simpledl.ClsAnd, sub, sub)
    | st.builds(simpledl.ClsSome, st.builds(simpledl.PropName, _ORIGINS, _NAMES), sub),
    max_leaves=6,
)
_DL = st.builds(simpledl.SubClassOf, _CLS, _CLS) | st.builds(
    simpledl.ClassAssertion, _CLS, st.builds(simpledl.IndName, _ORIGINS, _NAMES)
)
_THEORIES = st.one_of(
    *(
        st.lists(asts.map(lambda ast, logic_id=logic_id: Sentence(logic_id, ast)), max_size=6)
        for logic_id, asts in (("Prop", _PROP), ("FOL", _FOL), ("SimpleDL", _DL))
    )
)


class TestSymbolsOf:
    def test_dl_assertion(self):
        asts, _ = parse_dl_frames("Individual: Chris Types: Father", origin="f1")
        syms = symbols_of(Sentence("SimpleDL", asts[0]))
        assert syms == frozenset(
            {Symbol("f1", "Chris", Kind.INDIVIDUAL), Symbol("f1", "Father", Kind.CLASS)}
        )

    def test_prop_constant_has_no_symbols(self):
        assert symbols_of(Sentence("Prop", parse_prop("true"))) == frozenset()

    def test_fol_predicate_arity(self):
        ast = parse_fof_formula("![X]: parent_of(X, X)")
        assert symbols_of(Sentence("FOL", ast)) == frozenset(
            {Symbol("", "parent_of", Kind.PREDICATE, 2)}
        )


    @settings(max_examples=200, deadline=None)
    @given(_THEORIES)
    def test_one_walk_equals_the_union_of_walks(self, sentences):
        assert symbols_of(*sentences) == frozenset().union(*map(symbols_of, sentences))


def _subnodes(ast):
    """Every node in `ast`, found by walking the tuples that nodes are."""
    todo = [ast]
    while todo:
        item = todo.pop()
        if not isinstance(item, str):
            if type(item) is not tuple:
                yield item
            todo.extend(item)


class TestNodes:
    @settings(max_examples=150, deadline=None)
    @given(_THEORIES)
    def test_equality_and_hash_agree_with_sentence_key(self, sentences):
        nodes = [n for s in sentences for n in _subnodes(s.ast)]
        keys = [sentence_key(Sentence(sentences[0].logic_id, n)) for n in nodes]
        for a, key_a in zip(nodes, keys):
            assert a  # a node is true even without fields
            for b, key_b in zip(nodes, keys):
                assert (a == b) is (key_a == key_b) and (a != b) is (key_a != key_b)
                if a == b:
                    assert hash(a) == hash(b)

    def test_nodes_of_different_types_never_compare_equal(self):
        p, f = simpledl.PropName("", "r"), simpledl.ClsName("", "C")
        assert simpledl.ClsSome(p, f) != simpledl.ClsOnly(p, f)
        assert not simpledl.ClsSome(p, f) == simpledl.ClsOnly(p, f)
        assert fol.FTrue() != fol.FFalse() != prop.PTrue() != fol.FTrue()
        assert len({fol.FTrue(), fol.FFalse()}) == 2

    def test_nodes_without_fields_are_true(self):
        assert all((fol.FTrue(), fol.FFalse(), prop.PTrue(), prop.PFalse()))

    def test_basic_ignores_its_position(self):
        a, b = Basic("OWL", "Class: A", 1, 2), Basic("OWL", "Class: A", 7, 9)
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != Basic("OWL", "Class: B", 1, 2)

    def test_nodes_refuse_assignment(self):
        for n in (fol.FAtom("", "p"), Basic("OWL", "Class: A"), DolDocument((), ())):
            field = n._fields[-1]
            with pytest.raises(AttributeError):
                setattr(n, field, getattr(n, field))
            with pytest.raises(AttributeError):
                n.extra = 1


class TestSignatureUnion:
    def test_neutral_element(self):
        sig = psig("p", "q")
        assert signature_union(sig, Signature("Prop")) == sig

    def test_idempotent_overlap(self):
        a = Signature("SimpleDL", frozenset([Symbol("", "C", Kind.CLASS)]))
        b = Signature(
            "SimpleDL",
            frozenset([Symbol("", "C", Kind.CLASS), Symbol("", "D", Kind.CLASS)]),
        )
        assert signature_union(a, b).symbols == b.symbols

    def test_kind_clash(self):
        a = Signature("SimpleDL", frozenset([Symbol("", "C", Kind.CLASS)]))
        b = Signature("SimpleDL", frozenset([Symbol("", "C", Kind.INDIVIDUAL)]))
        with pytest.raises(KindClash):
            signature_union(a, b)

    def test_set_laws_on_generated_signatures(self):
        rng = random.Random(7)
        pool = [f"s{i}" for i in range(8)]
        for _ in range(100):
            a = psig(*rng.sample(pool, rng.randint(0, 5)))
            b = psig(*rng.sample(pool, rng.randint(0, 5)))
            c = psig(*rng.sample(pool, rng.randint(0, 5)))
            assert signature_union(a, b) == signature_union(b, a)
            assert signature_union(signature_union(a, b), c) == signature_union(
                a, signature_union(b, c)
            )
            assert signature_union(a, a) == a


def _random_morphism(rng, src: Signature, tgt_names: list[str]) -> SignatureMorphism:
    tgt_syms = [psym(n) for n in tgt_names]
    mapping = {s: rng.choice(tgt_syms) for s in src.symbols}
    image = frozenset(mapping.values()) | frozenset(tgt_syms)
    return SignatureMorphism(src, Signature("Prop", image), mapping)


class TestCategoryLaws:
    def test_identity_associativity_and_translation_commute(self):
        rng = random.Random(11)
        for _ in range(200):
            a_names = [f"a{i}" for i in range(rng.randint(1, 5))]
            src = psig(*a_names)
            m = _random_morphism(rng, src, [f"b{i}" for i in range(rng.randint(1, 4))])
            n = _random_morphism(
                rng, m.target, [f"c{i}" for i in range(rng.randint(1, 4))]
            )
            p = _random_morphism(
                rng, n.target, [f"d{i}" for i in range(rng.randint(1, 4))]
            )
            assert compose(identity(src), m) == m
            assert compose(m, identity(m.target)) == m
            assert compose(compose(m, n), p) == compose(m, compose(n, p))
            from conftest import gen_prop_ast

            ast = gen_prop_ast(rng, a_names, 3)
            s = Sentence("Prop", ast)
            translated = translate_sentence(m, s)
            assert symbols_of(translated) == frozenset(
                m.apply(x) for x in symbols_of(s)
            )

    def test_translation_commutes_on_fixture_sentences(self, family_env, alignments_env):
        """Under an injective renaming the image's symbols are the symbols'
        images, and renaming back gives the original sentence."""
        theories = []
        for env in (family_env, alignments_env):
            for item in env.document.ontology_defs():
                t = flatten_definition(item, env)
                theories += [t, translate_along([get_mapping("dl2fol")], t)]
        assert {t.logic_id for t in theories} == {"SimpleDL", "FOL"}
        for t in theories:
            there = {
                s: Symbol(s.origin, s.name + "_r", s.kind, s.arity) for s in t.signature.symbols
            }
            target = Signature(t.logic_id, frozenset(there.values()))
            m = SignatureMorphism(t.signature, target, there)
            back = SignatureMorphism(target, t.signature, {v: k for k, v in there.items()})
            for s in t.sentences:
                translated = translate_sentence(m, s)
                assert symbols_of(translated) == frozenset(m.apply(x) for x in symbols_of(s))
                assert translate_sentence(back, translated) == s


class TestTheoryValidation:
    def test_valid_theory_passes(self):
        s = Sentence("Prop", parse_prop("p impl q"), "ax1")
        t = Theory("t", psig("p", "q"), (s,))
        validate_theory(t)

    def test_symbol_outside_signature(self):
        s = Sentence("Prop", parse_prop("p impl q"), "ax1")
        with pytest.raises(InvalidTheory):
            validate_theory(Theory("t", psig("p"), (s,)))

    def test_duplicate_labels(self):
        a = Sentence("Prop", parse_prop("p"), "ax")
        b = Sentence("Prop", parse_prop("q"), "ax")
        with pytest.raises(InvalidTheory):
            validate_theory(Theory("t", psig("p", "q"), (a, b)))

    def test_flattened_fixture_theories_validate(self, family_doc, repo):
        env = Env(family_doc, repo)
        for item in family_doc.ontology_defs():
            from dolkit.structure import flatten_definition

            validate_theory(flatten_definition(item, env))
