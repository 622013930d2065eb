"""FOL fragment: TPTP FOF output, the reparse oracle, and name sanitization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dolkit.errors import ParseError, UnknownConstruct
from dolkit.kernel import Role
from dolkit.logics import (
    parse_fof_document,
    parse_fof_formula,
    print_tptp,
    sanitize_tptp_name,
)
from dolkit.logics.fol import (
    FAtom,
    FBin,
    FConst,
    FFalse,
    FNot,
    FolLogic,
    FQuant,
    FTrue,
    FVar,
    forall,
    print_fol,
)


class TestPrintTptp:
    def test_quantified_implication(self):
        ast = forall(
            ["X"],
            FBin(
                "impl",
                FAtom("", "female", (FVar("X"),)),
                FNot(FAtom("", "male", (FVar("X"),))),
            ),
        )
        assert (
            print_tptp(ast, "ax1", "axiom")
            == "fof(ax1, axiom, ![X]: (female(X) => ~male(X)))."
        )

    def test_ground_conjecture(self):
        ast = FAtom("", "female", (FConst("", "berta"),))
        assert print_tptp(ast, "c", "conjecture") == "fof(c, conjecture, female(berta))."

    def test_nullary_predicates(self):
        ast = FBin("or", FAtom("", "p"), FNot(FAtom("", "p")))
        assert print_tptp(ast, "t", "axiom") == "fof(t, axiom, (p | ~p))."

    def test_output_reparses_to_the_same_ast(self):
        # the TPTP parser is the independent syntax oracle for the printer
        for ast in (
            forall(["X", "Y"], FBin("and", FAtom("", "p", (FVar("X"), FVar("Y"))), FTrue())),
            FQuant("exists", "Z", FAtom("", "q", (FVar("Z"), FConst("", "a")))),
            FNot(FNot(FAtom("", "r"))),
        ):
            text = print_tptp(ast, "f", "axiom")
            [(name, role, parsed)] = parse_fof_document(text)
            assert (name, role, parsed) == ("f", Role.AXIOM, ast)


def _gen_term(rng, bound):
    if bound and rng.random() < 0.6:
        return FVar(rng.choice(bound))
    return FConst("", rng.choice(["a", "b", "c"]))


def _gen_fol(rng, depth, bound):
    if depth <= 0 or rng.random() < 0.25:
        arity = rng.randint(0, 2)
        if arity and not bound and rng.random() < 0.5:
            bound = []
        name = rng.choice(["p", "q", "r"]) + str(arity)
        return FAtom("", name, tuple(_gen_term(rng, bound) for _ in range(arity)))
    roll = rng.random()
    if roll < 0.2:
        return FNot(_gen_fol(rng, depth - 1, bound))
    if roll < 0.45:
        var = f"V{len(bound)}"
        quant = rng.choice(["forall", "exists"])
        return FQuant(quant, var, _gen_fol(rng, depth - 1, bound + [var]))
    op = rng.choice(["and", "or", "impl", "iff"])
    return FBin(op, _gen_fol(rng, depth - 1, bound), _gen_fol(rng, depth - 1, bound))


def test_round_trip_on_generated_asts():
    rng = random.Random(5)
    for _ in range(300):
        ast = _gen_fol(rng, rng.randint(0, 4), [])
        text = print_tptp(ast, "g", "axiom")
        [(_, _, parsed)] = parse_fof_document(text)
        assert parsed == ast, text


_VARS = ["X", "Y", "Z1"]
_TERMS = st.one_of(
    st.builds(FVar, st.sampled_from(_VARS)),
    st.builds(FConst, st.just(""), st.sampled_from(["a", "b", "c_2"])),
)
_ATOMS = st.one_of(
    st.builds(FAtom, st.just(""), st.sampled_from(["p", "q", "likes"]), st.tuples(*[_TERMS] * 2)),
    st.builds(FAtom, st.just(""), st.sampled_from(["p", "r"]), st.just(())),
    st.just(FTrue()),
    st.just(FFalse()),
)
_FORMULAS = st.recursive(
    _ATOMS,
    lambda sub: st.one_of(
        st.builds(FNot, sub),
        st.builds(FBin, st.sampled_from(["and", "or", "impl", "iff"]), sub, sub),
        st.builds(FQuant, st.sampled_from(["forall", "exists"]), st.sampled_from(_VARS), sub),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_FORMULAS)
def test_print_then_parse_is_identity(ast):
    # closed over every variable, so that the parser finds each one bound;
    # inner quantifiers may shadow
    closed = forall(_VARS, ast)
    assert parse_fof_formula(print_fol(closed)) == closed


class TestSanitize:
    def test_plain_lower_words_pass_through(self):
        for name in ("female", "parent_of", "fooBar", "p2"):
            assert sanitize_tptp_name(name) == name

    def test_output_is_always_a_lower_word(self):
        import re

        lower_word = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
        for name in ("Female", "9lives", "_x", "a-b", "f1:Chris", "q_trap", "ü", ""):
            if name:
                assert lower_word.match(sanitize_tptp_name(name)), name

    def test_injective_over_generated_names(self):
        rng = random.Random(17)
        alphabet = "abcXY_09:-."
        names = {"Female", "female", "parent_of", "parent__of", "q_x", "x"}
        while len(names) < 4000:
            names.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10))))
        sanitized = {}
        for name in sorted(names):
            out = sanitize_tptp_name(name)
            assert out not in sanitized, f"{name!r} collides with {sanitized.get(out)!r}"
            sanitized[out] = name


class TestParsing:
    def test_function_terms_rejected(self):
        with pytest.raises(UnknownConstruct):
            parse_fof_formula("p(f(a))")

    def test_equality_off_by_default(self):
        with pytest.raises(UnknownConstruct):
            parse_fof_formula("a = b")

    def test_unbound_variable(self):
        with pytest.raises(ParseError):
            parse_fof_formula("p(X)")

    def test_roles(self):
        doc = parse_fof_document(
            "fof(a1, axiom, p).\nfof(h, hypothesis, q).\nfof(c, conjecture, p)."
        )
        assert [role for _, role, _ in doc] == [Role.AXIOM, Role.AXIOM, Role.CONJECTURE]

    def test_unsupported_role(self):
        with pytest.raises(UnknownConstruct):
            parse_fof_document("fof(x, plain, p).")

    def test_duplicate_names_rejected_in_theories(self):
        with pytest.raises(ParseError) as info:
            FolLogic().parse_theory("fof(a, axiom, p).\n  fof(a, axiom, q).", "t")
        assert (info.value.line, info.value.col) == (2, 7)

    def test_comments_ignored(self):
        [(name, _, _)] = parse_fof_document("% header\nfof(a, axiom, p). % tail\n")
        assert name == "a"


_ANY = "expected a formula (expected atom | ~ | ! | ? | ()"

_ERRORS = [
    (parse_fof_formula, "(p & q", ParseError, "1:7: unexpected end of input (expected ))", 1, 7),
    (parse_fof_formula, "(p q)", ParseError, "1:4: found 'q' (expected ))", 1, 4),
    (parse_fof_formula, "p & q)", ParseError, "1:6: trailing input ')' (expected end of formula)", 1, 6),
    (parse_fof_formula, "p &", ParseError, f"1:4: {_ANY}", 1, 4),
    (parse_fof_formula, "p <=> ", ParseError, f"1:7: {_ANY}", 1, 7),
    (parse_fof_formula, "p | | q", ParseError, f"1:5: {_ANY}", 1, 5),
    (parse_fof_formula, "& p", ParseError, f"1:1: {_ANY}", 1, 1),
    (parse_fof_formula, "~", ParseError, f"1:2: {_ANY}", 1, 2),
    (parse_fof_formula, "()", ParseError, f"1:2: {_ANY}", 1, 2),
    (parse_fof_formula, "p\n  & (q | )", ParseError, f"2:10: {_ANY}", 2, 10),
    (parse_fof_formula, "![X: p(X)", ParseError, "1:4: found ':' (expected ])", 1, 4),
    (parse_fof_formula, "![X] p(X)", ParseError, "1:6: found 'p' (expected :)", 1, 6),
    (parse_fof_formula, "![X,]: p(X)", ParseError, "1:5: found ']' (expected variable)", 1, 5),
    (parse_fof_formula, "(![X]: p(X)) & q(X)", ParseError, "1:18: unbound variable 'X'", 1, 18),
    (parse_fof_formula, "![X]: p(X) & q(X)", ParseError, "1:16: unbound variable 'X'", 1, 16),
    (parse_fof_formula, "![X]: ![Y]: r(X,Y) & s(Y)", ParseError, "1:24: unbound variable 'Y'", 1, 24),
    (parse_fof_formula, "p(a,)", ParseError, "1:5: found ')' (expected term)", 1, 5),
    (parse_fof_formula, "p(f(a))", UnknownConstruct, "1:3: function terms are not supported", 1, 3),
    (parse_fof_formula, "a != b", UnknownConstruct, "1:3: equality atoms are not enabled", 1, 3),
    (parse_fof_formula, "p ~ q", ParseError, "1:3: trailing input '~' (expected end of formula)", 1, 3),
    (parse_fof_formula, "p $ q", ParseError, "1:3: unexpected character '$'", 1, 3),
    (parse_fof_document, "fof(a, axiom, (p).", ParseError, "1:18: found '.' (expected ))", 1, 18),
    (parse_fof_document, "fof(a, axiom, p q).", ParseError, "1:17: found 'q' (expected ))", 1, 17),
    (parse_fof_document, "fof(a, axiom, p & ).", ParseError, f"1:19: {_ANY}", 1, 19),
]


@pytest.mark.parametrize("parse, text, error, message, line, col", _ERRORS)
def test_parse_error_messages_and_positions(parse, text, error, message, line, col):
    with pytest.raises(error) as exc:
        parse(text)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert (exc.value.line, exc.value.col) == (line, col)
