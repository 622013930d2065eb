"""Manchester-subset parser and printer."""

import pytest
from hypothesis import given, settings, strategies as st

from dolkit.errors import ParseError, UndeclaredPrefix, UnknownConstruct
from dolkit.kernel import Kind
from dolkit.logics import parse_dl_frame, parse_dl_frames, print_dl_sentence
from dolkit.logics.simpledl import (
    ClassAssertion,
    ClsAnd,
    ClsName,
    ClsNot,
    ClsOnly,
    ClsOr,
    ClsSome,
    DisjointClasses,
    EquivalentClasses,
    IndName,
    InverseProperties,
    PropertyAssertion,
    PropName,
    SimpleDlLogic,
    SubClassOf,
    SubPropertyOf,
    TransitiveProperty,
)

from conftest import FIXTURES


def test_facts_assertion():
    assert parse_dl_frame("Individual: Dora Facts: child_of Chris", origin="f1") == [
        PropertyAssertion(
            PropName("f1", "child_of"), IndName("f1", "Dora"), IndName("f1", "Chris")
        )
    ]


def test_negated_type():
    assert parse_dl_frame("Individual: Chris Types: not Female", origin="f1") == [
        ClassAssertion(ClsNot(ClsName("f1", "Female")), IndName("f1", "Chris"))
    ]


def test_minimal_frame():
    assert parse_dl_frame("Class: A SubClassOf: B") == [
        SubClassOf(ClsName("", "A"), ClsName("", "B"))
    ]


def test_expression_precedence():
    [ast] = parse_dl_frame("Class: F EquivalentTo: Male and parent_of some Person or X")
    assert ast == EquivalentClasses(
        ClsName("", "F"),
        ClsOr(
            ClsAnd(ClsName("", "Male"), ClsSome(PropName("", "parent_of"), ClsName("", "Person"))),
            ClsName("", "X"),
        ),
    )


def test_only_restriction_and_parens():
    [ast] = parse_dl_frame("Class: A SubClassOf: p only (B or C)")
    assert ast == SubClassOf(
        ClsName("", "A"), ClsOnly(PropName("", "p"), ClsOr(ClsName("", "B"), ClsName("", "C")))
    )


def test_comma_lists_make_one_sentence_each():
    sentences = parse_dl_frame(
        "Individual: Amy Types: Female Facts: parent_of Berta, parent_of Chris"
    )
    assert len(sentences) == 3


def test_declarations_contribute_symbols():
    sentences, declared = parse_dl_frames("Class: Lonely")
    assert sentences == []
    assert declared == frozenset({__import__('dolkit').kernel.Symbol("", "Lonely", Kind.CLASS)})


def test_symbol_kinds_stay_in_the_dl_vocabulary(family_env):
    t = family_env.load_iri("https://example.org/family/familyRelations")
    kinds = {s.kind for s in t.signature.symbols}
    assert kinds <= {Kind.CLASS, Kind.INDIVIDUAL, Kind.OBJECT_PROPERTY}


class TestUnknownConstructs:
    @pytest.mark.parametrize(
        "text",
        [
            "Class: A DisjointUnionOf: B, C",
            "ObjectProperty: p Domain: A",
            "ObjectProperty: p Characteristics: Functional",
            "Class: A SubClassOf: p min 2 B",
            "DataProperty: age",
            "Individual: i SameAs: j",
        ],
    )
    def test_recognized_but_unsupported(self, text):
        with pytest.raises(UnknownConstruct):
            parse_dl_frame(text)

    def test_plain_garbage_is_a_syntax_error(self):
        with pytest.raises(ParseError):
            parse_dl_frame("Klass: A")


def test_prefix_resolution_and_iri_names():
    prefixes = {"f1": "http://x/"}
    [ast] = parse_dl_frame("Individual: <http://x/Chris> Types: f1:Father", prefixes=prefixes)
    assert ast == ClassAssertion(
        ClsName("http://x/", "Father"), IndName("http://x/", "Chris")
    )


def test_undeclared_prefix():
    with pytest.raises(UndeclaredPrefix):
        parse_dl_frame("Individual: f9:Chris Types: Father")


def test_round_trip_of_fixture_sentences():
    logic = SimpleDlLogic()
    for path in [
        FIXTURES / "family" / "familyRelations.omn",
        FIXTURES / "family" / "scenario.omn",
        FIXTURES / "dolce" / "DOLCE-Lite.owl",
        FIXTURES / "bfo" / "1.1.omn",
        FIXTURES / "gfo" / "gfo.owl",
    ]:
        sentences, _ = parse_dl_frames(path.read_text())
        for ast in sentences:
            printed = print_dl_sentence(ast)
            assert parse_dl_frame(printed) == [ast], printed


def test_round_trip_with_prefix_compaction():
    prefixes = {"f1": "http://x/"}
    [ast] = parse_dl_frame("Class: f1:A SubClassOf: f1:B and not f1:C", prefixes=prefixes)
    printed = print_dl_sentence(ast, prefixes)
    assert printed == "Class: f1:A SubClassOf: f1:B and not f1:C"
    assert parse_dl_frame(printed, prefixes=prefixes) == [ast]


def _gen_expr(rng, depth):
    if depth <= 0 or rng.random() < 0.35:
        return ClsName("", rng.choice(["A", "B", "C", "D"]))
    roll = rng.random()
    if roll < 0.2:
        return ClsNot(_gen_expr(rng, depth - 1))
    if roll < 0.4:
        return ClsSome(PropName("", rng.choice(["p", "q"])), _gen_expr(rng, depth - 1))
    if roll < 0.5:
        return ClsOnly(PropName("", rng.choice(["p", "q"])), _gen_expr(rng, depth - 1))
    ctor = ClsAnd if roll < 0.75 else ClsOr
    return ctor(_gen_expr(rng, depth - 1), _gen_expr(rng, depth - 1))


def test_round_trip_on_generated_sentences():
    import random

    rng = random.Random(31)
    for _ in range(300):
        roll = rng.random()
        if roll < 0.25:
            ast = SubClassOf(ClsName("", "S"), _gen_expr(rng, 3))
        elif roll < 0.4:
            ast = EquivalentClasses(ClsName("", "S"), _gen_expr(rng, 3))
        elif roll < 0.5:
            ast = DisjointClasses(ClsName("", "S"), _gen_expr(rng, 3))
        elif roll < 0.65:
            ast = ClassAssertion(_gen_expr(rng, 2), IndName("", "i"))
        elif roll < 0.75:
            ast = PropertyAssertion(PropName("", "p"), IndName("", "i"), IndName("", "j"))
        elif roll < 0.85:
            ast = SubPropertyOf(PropName("", "p"), PropName("", "q"))
        elif roll < 0.95:
            ast = InverseProperties(PropName("", "p"), PropName("", "q"))
        else:
            ast = TransitiveProperty(PropName("", "p"))
        printed = print_dl_sentence(ast)
        assert parse_dl_frame(printed) == [ast], printed


_DL_PREFIXES = {"f": "http://f.org/"}
# bare, compacted to `f:`, and printed as a full IRI
_ORIGINS = st.sampled_from(["", "http://f.org/", "http://g.org#"])
_LOCALS = st.sampled_from(["A", "Person", "has_part", "x1"])
# names that neither a bare name nor `f:local` reads back, so they print as
# full IRIs; each is what parsing such an IRI gives
_IRI_ONLY = st.one_of(
    st.tuples(st.just("http://f.org/"), st.sampled_from(["#", "a#b", "x/y"])),
    st.tuples(st.just(""), st.sampled_from(["#", "not", "some", "min"])),
)


def _named(node_type):
    return st.one_of(
        st.builds(node_type, _ORIGINS, _LOCALS),
        _IRI_ONLY.map(lambda name: node_type(*name)),
    )


_EXPRS = st.recursive(
    _named(ClsName),
    lambda sub: st.one_of(
        st.builds(ClsNot, sub),
        st.builds(ClsAnd, sub, sub),
        st.builds(ClsOr, sub, sub),
        st.builds(ClsSome, _named(PropName), sub),
        st.builds(ClsOnly, _named(PropName), sub),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.builds(SubClassOf, _named(ClsName), _EXPRS),
        st.builds(EquivalentClasses, _named(ClsName), _EXPRS),
        st.builds(DisjointClasses, _named(ClsName), _EXPRS),
        st.builds(ClassAssertion, _EXPRS, _named(IndName)),
        st.builds(PropertyAssertion, _named(PropName), _named(IndName), _named(IndName)),
        st.builds(SubPropertyOf, _named(PropName), _named(PropName)),
        st.builds(InverseProperties, _named(PropName), _named(PropName)),
        st.builds(TransitiveProperty, _named(PropName)),
    )
)
def test_print_then_parse_is_identity(ast):
    printed = print_dl_sentence(ast, _DL_PREFIXES)
    assert parse_dl_frame(printed, prefixes=_DL_PREFIXES) == [ast], printed


def test_a_local_part_that_is_not_a_name_prints_as_a_full_iri():
    prefixes = {"f": "https://example.org/f/"}
    logic = SimpleDlLogic()
    t = logic.parse_theory("Class: f:A SubClassOf: <https://example.org/f/#>", "t", prefixes=prefixes)
    [s] = t.sentences
    assert s.ast.sup == ClsName("https://example.org/f/", "#")
    text = logic.print_sentence(s.ast, prefixes)
    assert text == "Class: f:A SubClassOf: <https://example.org/f/#>"
    assert parse_dl_frame(text, prefixes=prefixes) == [s.ast]


def test_theory_printing_includes_declarations():
    logic = SimpleDlLogic()
    t = logic.parse_theory("Class: Lonely Class: A SubClassOf: B", "t")
    text = logic.print_theory(t)
    reparsed = logic.parse_theory(text, "t")
    assert reparsed.signature == t.signature
    assert [s.ast for s in reparsed.sentences] == [s.ast for s in t.sentences]


def test_theory_of_a_very_long_intersection():
    # 3,000 conjuncts nest 3,000 deep: symbol collection must not recurse
    text = "Class: A SubClassOf: " + " and ".join(f"C{i}" for i in range(3000))
    t = SimpleDlLogic().parse_theory(text, "t")
    assert len(t.sentences) == 1
    assert len(t.signature.symbols) == 3001


_ANY = "expected a class expression (expected a class expression)"

_ERRORS = [
    ("(B and C", ParseError, "1:30: unexpected end of input (expected RPAR)", 1, 30),
    ("(B C)", ParseError, "1:25: found 'C' (expected RPAR)", 1, 25),
    ("B and", ParseError, f"1:27: {_ANY}", 1, 27),
    ("B or ", ParseError, f"1:27: {_ANY}", 1, 27),
    ("B and ,", ParseError, f"1:28: {_ANY}", 1, 28),
    ("not", ParseError, f"1:25: {_ANY}", 1, 25),
    ("()", ParseError, f"1:23: {_ANY}", 1, 23),
    ("and B", ParseError, "1:26: keyword 'and' cannot start an expression (expected class name)", 1, 26),
    ("some B", ParseError, "1:27: keyword 'some' cannot start an expression (expected class name)", 1, 27),
    ("B and or C", ParseError, "1:31: keyword 'or' cannot start an expression (expected class name)", 1, 31),
    ("p some", ParseError, f"1:28: {_ANY}", 1, 28),
    ("p only not", ParseError, f"1:32: {_ANY}", 1, 32),
    ("p some (", ParseError, f"1:30: {_ANY}", 1, 30),
    ("p some some B", ParseError, "1:34: keyword 'some' cannot start an expression (expected class name)", 1, 34),
    ("p min 1 C", UnknownConstruct, "1:24: 'min' restrictions are outside the supported fragment", 1, 24),
    ("p some B that C", UnknownConstruct, "1:31: 'that' restrictions are outside the supported fragment", 1, 31),
    ("not min", UnknownConstruct, "1:26: 'min' is outside the supported fragment", 1, 26),
    ("B C", ParseError, "1:24: found 'C' (expected Class: | Individual: | ObjectProperty:)", 1, 24),
    ("(p some B))", ParseError, "1:32: expected a frame (expected Class: | Individual: | ObjectProperty:)", 1, 32),
    ("x:B", UndeclaredPrefix, "1:22: prefix 'x' is not declared", None, None),
]


@pytest.mark.parametrize("expr, error, message, line, col", _ERRORS)
def test_parse_error_messages_and_positions(expr, error, message, line, col):
    with pytest.raises(error) as exc:
        parse_dl_frame("Class: A SubClassOf: " + expr)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert (getattr(exc.value, "line", None), getattr(exc.value, "col", None)) == (line, col)
