"""Formulas nested 3,000 deep: every AST walk prints, translates, merges and
proves them without exhausting the recursion limit, and the text parsers read
deeply nested text.

Deep ASTs are compared through `sentence_key` or their printed text, since a
dataclass's own `==` recurses."""

import pytest

from dolkit.kernel import Role, Sentence, sentence_key
from dolkit.logics import (
    parse_dl_frame,
    parse_fof_formula,
    print_dl_sentence,
    print_fol,
    print_prop,
)
from dolkit.logics.fol import FAtom, FBin, FConst, FNot
from dolkit.logics.prop import PBin, PNot, PVar, parse_prop
from dolkit.logics.simpledl import (
    ClassAssertion,
    ClsAnd,
    ClsName,
    ClsNot,
    ClsSome,
    IndName,
    PropName,
    SubClassOf,
)
from dolkit.mappings import get_mapping
from dolkit.prove import prove_fol_internal, prove_prop
from dolkit.prove.status import ProofStatus
from dolkit.structure import _merge_sentences

DEPTH = 3000
NAMES = [f"x{i}" for i in range(DEPTH)]


def chain(leaf, join):
    """`leaf(x0) join leaf(x1) join ...`, nested to the left."""
    ast = leaf(NAMES[0])
    for name in NAMES[1:]:
        ast = join(ast, leaf(name))
    return ast


def prop_chain():
    return chain(lambda n: PVar("", n), lambda a, b: PBin("and", a, b))


def fol_chain(*args):
    return chain(lambda n: FAtom("", n, args), lambda a, b: FBin("and", a, b))


def key(logic_id, ast):
    return sentence_key(Sentence(logic_id, ast))


def print_prop_case():
    return print_prop(prop_chain()), " and ".join(NAMES)


def print_fol_case():
    return print_fol(fol_chain()), "(" * (DEPTH - 1) + "x0" + "".join(f" & {n})" for n in NAMES[1:])


def print_dl_case():
    ast = SubClassOf(ClsName("", "C"), chain(lambda n: ClsName("", n), ClsAnd))
    return print_dl_sentence(ast), "Class: C SubClassOf: " + " and ".join(NAMES)


def prop2fol_case():
    image = get_mapping("prop2fol").map_sentence(Sentence("Prop", prop_chain()))
    return sentence_key(image), key("FOL", fol_chain())


def fol2prop_case():
    image = get_mapping("fol2prop").map_sentence(Sentence("FOL", fol_chain()))
    return sentence_key(image), key("Prop", prop_chain())


def dl2fol_case():
    ast = ClassAssertion(chain(lambda n: ClsName("", n), ClsAnd), IndName("", "i"))
    image = get_mapping("dl2fol").map_sentence(Sentence("SimpleDL", ast))
    return sentence_key(image), key("FOL", fol_chain(FConst("", "i")))


def merge_case():
    twins = [Sentence("Prop", prop_chain(), label) for label in ("a", "b")]
    return [s.label for s in _merge_sentences([tuple(twins)])], ["a"]


def prove_fol_case():
    axiom = Sentence("FOL", fol_chain(), "big")
    verdict = prove_fol_internal([axiom], Sentence("FOL", FAtom("", "x0"), role=Role.CONJECTURE), 10)
    return (verdict.status, verdict.used_axioms), (ProofStatus.THM, ("big",))


def wide_clause_case():
    """The 3,000-literal axiom subsumes the 3,001-literal one, and `x0 | q`
    does not follow: the search saturates."""
    wide = chain(lambda n: FAtom("", n), lambda a, b: FBin("or", a, b))
    q = FAtom("", "q")
    axioms = [
        Sentence("FOL", ast, label)
        for ast, label in ((wide, "a"), (FBin("or", wide, q), "b"), (FNot(q), "c"))
    ]
    conjecture = Sentence("FOL", FBin("or", FAtom("", "x0"), q), role=Role.CONJECTURE)
    return prove_fol_internal(axioms, conjecture, 60).status, ProofStatus.CSA


def prove_prop_case():
    axiom = Sentence("Prop", prop_chain(), "big")
    verdict = prove_prop([axiom], Sentence("Prop", PVar("", "x0"), role=Role.CONJECTURE), 10)
    return (verdict.status, verdict.used_axioms), (ProofStatus.THM, ("big",))


@pytest.mark.parametrize(
    "case",
    [
        print_prop_case,
        print_fol_case,
        print_dl_case,
        prop2fol_case,
        fol2prop_case,
        dl2fol_case,
        merge_case,
        prove_fol_case,
        wide_clause_case,
        prove_prop_case,
    ],
    ids=lambda case: case.__name__.removesuffix("_case"),
)
def test_a_deep_formula(case):
    got, expected = case()
    assert got == expected


def wrap(ast, n, outer):
    """`ast` inside `n` applications of `outer`."""
    for _ in range(n):
        ast = outer(ast)
    return ast


def right_chain(names, leaf, join):
    """`leaf(names[0]) join (leaf(names[1]) join ...)`, nested to the right."""
    ast = leaf(names[-1])
    for name in reversed(names[:-1]):
        ast = join(leaf(name), ast)
    return ast


def parse_dl(text):
    [sentence] = parse_dl_frame("Class: A SubClassOf: " + text)
    return sentence


def print_dl(sentence):
    return print_dl_sentence(sentence).removeprefix("Class: A SubClassOf: ")


def dl_sub(expr):
    return SubClassOf(ClsName("", "A"), expr)


FOL_P, PROP_P, DL_B = FAtom("", "p"), PVar("", "p"), ClsName("", "B")
TEXT_CASES = {
    # id: (logic, text, parse, print, expected AST)
    "fol_parens": ("FOL", "(" * 5000 + "p" + ")" * 5000, parse_fof_formula, print_fol, FOL_P),
    "fol_negations": ("FOL", "~" * 1000 + "p", parse_fof_formula, print_fol, wrap(FOL_P, 1000, FNot)),
    "fol_impl_chain": (
        "FOL",
        " => ".join(NAMES[:1000]),
        parse_fof_formula,
        print_fol,
        right_chain(NAMES[:1000], lambda n: FAtom("", n), lambda a, b: FBin("impl", a, b)),
    ),
    "fol_iff_chain": (
        "FOL",
        " <=> ".join(NAMES[:1000]),
        parse_fof_formula,
        print_fol,
        right_chain(NAMES[:1000], lambda n: FAtom("", n), lambda a, b: FBin("iff", a, b)),
    ),
    "prop_impl_chain": (
        "Prop",
        " impl ".join(NAMES),
        parse_prop,
        print_prop,
        right_chain(NAMES, lambda n: PVar("", n), lambda a, b: PBin("impl", a, b)),
    ),
    "prop_negations": ("Prop", "not " * 1000 + "p", parse_prop, print_prop, wrap(PROP_P, 1000, PNot)),
    "prop_parens": ("Prop", "(" * 5000 + "p" + ")" * 5000, parse_prop, print_prop, PROP_P),
    "dl_negations": ("SimpleDL", "not " * 1000 + "B", parse_dl, print_dl, dl_sub(wrap(DL_B, 1000, ClsNot))),
    "dl_restrictions": (
        "SimpleDL",
        "p some " * 1000 + "B",
        parse_dl,
        print_dl,
        dl_sub(wrap(DL_B, 1000, lambda filler: ClsSome(PropName("", "p"), filler))),
    ),
    "dl_parens": ("SimpleDL", "(" * 5000 + "B" + ")" * 5000, parse_dl, print_dl, dl_sub(DL_B)),
}


@pytest.mark.parametrize("case", TEXT_CASES)
def test_deep_text_parses_and_prints_back(case):
    logic_id, text, parse, print_, expected = TEXT_CASES[case]
    ast = parse(text)
    assert key(logic_id, ast) == key(logic_id, expected)
    assert key(logic_id, parse(print_(ast))) == key(logic_id, expected)
