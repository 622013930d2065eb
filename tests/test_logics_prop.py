"""Propositional parser and printer."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dolkit.errors import ParseError, UndeclaredPrefix
from dolkit.logics import parse_prop, print_prop
from dolkit.logics.prop import PBin, PFalse, PNot, PropLogic, PTrue, PVar

from conftest import gen_prop_ast


def test_and_not():
    assert parse_prop("p and not q") == PBin("and", PVar("", "p"), PNot(PVar("", "q")))


def test_constant():
    assert parse_prop("true") == PTrue()


def test_malformed():
    with pytest.raises(ParseError):
        parse_prop("p and or")


def test_precedence_chain():
    # not > and > or > impl > iff
    ast = parse_prop("not p and q or r impl s iff t")
    assert ast == PBin(
        "iff",
        PBin(
            "impl",
            PBin("or", PBin("and", PNot(PVar("", "p")), PVar("", "q")), PVar("", "r")),
            PVar("", "s"),
        ),
        PVar("", "t"),
    )


def test_impl_right_associative():
    assert parse_prop("p impl q impl r") == PBin(
        "impl", PVar("", "p"), PBin("impl", PVar("", "q"), PVar("", "r"))
    )


def test_parens_override():
    assert parse_prop("(p or q) and r") == PBin(
        "and", PBin("or", PVar("", "p"), PVar("", "q")), PVar("", "r")
    )


def test_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_prop("p and\n  (q or)")
    assert exc.value.line == 2


def test_prefixed_atom_resolves_origin():
    ast = parse_prop("f1:p and q", origin="doc", prefixes={"f1": "http://x/"})
    assert ast == PBin("and", PVar("http://x/", "p"), PVar("doc", "q"))


def test_undeclared_prefix():
    with pytest.raises(UndeclaredPrefix):
        parse_prop("f1:p", prefixes={})


def test_round_trip_on_generated_asts():
    rng = random.Random(23)
    variables = [f"v{i}" for i in range(6)]
    for _ in range(400):
        ast = gen_prop_ast(rng, variables, rng.randint(0, 5))
        assert parse_prop(print_prop(ast)) == ast


_PREFIXES = {"a": "http://a/", "b2": "http://b#"}
_NAMES = st.sampled_from(["p", "q", "r1", "x_2", "andy", "note", "iffy"])
_LEAVES = st.one_of(
    st.builds(PVar, st.just(""), _NAMES),
    st.builds(PVar, st.sampled_from(sorted(_PREFIXES.values())), _NAMES),
    st.just(PTrue()),
    st.just(PFalse()),
)
_ASTS = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(PNot, sub),
        st.builds(PBin, st.sampled_from(["and", "or", "impl", "iff"]), sub, sub),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_ASTS)
def test_print_then_parse_is_identity(ast):
    # prefixed atoms print as `a:p` and must resolve back to their origin
    assert parse_prop(print_prop(ast, _PREFIXES), prefixes=_PREFIXES) == ast


def test_theory_parsing_lines_and_comments():
    text = "%% header comment\np and q\n\nnot r  %% trailing\n"
    t = PropLogic().parse_theory(text, "doc")
    assert [s.label for s in t.sentences] == ["doc_1", "doc_2"]
    assert len(t.signature.symbols) == 3


def test_theory_of_a_very_long_conjunction():
    # 3,000 conjuncts nest 3,000 deep: symbol collection must not recurse
    t = PropLogic().parse_theory(" and ".join(f"x{i}" for i in range(3000)), "doc")
    assert len(t.sentences) == 1
    assert len(t.signature.symbols) == 3000


# Messages and positions recorded before the parser was rewritten; each row is
# (text, keyword arguments, error type, str(exc), line, col). UndeclaredPrefix
# is not a ParseError and carries its position only in the message.
_ERRORS = [
    ("p and or", {}, ParseError, "1:7: keyword 'or' cannot start a formula (expected atom)", 1, 7),
    ("and p", {}, ParseError, "1:1: keyword 'and' cannot start a formula (expected atom)", 1, 1),
    ("p q", {}, ParseError, "1:3: trailing input 'q' (expected end of sentence)", 1, 3),
    ("(p or q", {}, ParseError, "1:8: unexpected end of input (expected RPAR)", 1, 8),
    ("p )", {}, ParseError, "1:3: trailing input ')' (expected end of sentence)", 1, 3),
    ("p $ q", {}, ParseError, "1:3: unexpected character '$'", 1, 3),
    ("(p q)", {}, ParseError, "1:4: found 'q' (expected RPAR)", 1, 4),
    ("f1:p", {"prefixes": {}}, UndeclaredPrefix, "1:1: prefix 'f1' is not declared", None, None),
    (
        "f1:p and f2:q",
        {"prefixes": {"f1": "http://x/"}},
        UndeclaredPrefix,
        "1:10: prefix 'f2' is not declared",
        None,
        None,
    ),
    ("", {}, ParseError, "1:1: expected a formula (expected atom | not | ()", 1, 1),
    ("not", {}, ParseError, "1:4: expected a formula (expected atom | not | ()", 1, 4),
    ("p impl", {}, ParseError, "1:7: expected a formula (expected atom | not | ()", 1, 7),
    ("()", {}, ParseError, "1:2: expected a formula (expected atom | not | ()", 1, 2),
    ("true false", {}, ParseError, "1:6: trailing input 'false' (expected end of sentence)", 1, 6),
    ("p or\n  (q and )", {}, ParseError, "2:10: expected a formula (expected atom | not | ()", 2, 10),
    ("p and $", {"start_line": 3, "start_col": 5}, ParseError, "3:11: unexpected character '$'", 3, 11),
    (
        "q\n or or",
        {"start_line": 3, "start_col": 5},
        ParseError,
        "4:5: keyword 'or' cannot start a formula (expected atom)",
        4,
        5,
    ),
]


@pytest.mark.parametrize("text, kwargs, error, message, line, col", _ERRORS)
def test_parse_error_messages_and_positions(text, kwargs, error, message, line, col):
    with pytest.raises(error) as exc:
        parse_prop(text, **kwargs)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert (getattr(exc.value, "line", None), getattr(exc.value, "col", None)) == (line, col)


def test_theory_error_position_counts_indent_before_a_comment():
    # the bad line is indented and cut short by a comment: EOF sits after `r`
    text = "p\n  %% c\n   q and (r  %% tail\nz\n"
    with pytest.raises(ParseError) as exc:
        PropLogic().parse_theory(text, "doc")
    assert str(exc.value) == "3:12: unexpected end of input (expected RPAR)"
    assert (exc.value.line, exc.value.col) == (3, 12)
