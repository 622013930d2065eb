"""Propositional parser and printer."""

import random

import pytest

from dolkit.errors import ParseError, UndeclaredPrefix
from dolkit.logics import parse_prop, print_prop
from dolkit.logics.prop import PBin, PNot, PropLogic, PTrue, PVar

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
