"""Internal resolution prover: the family conjectures, saturation, timeout
behavior, refutation tracing, search identity, and the subsumption index
against its brute-force oracle."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from dolkit.errors import UnsupportedFeature
from dolkit.kernel import Sentence, run
from dolkit.logics import parse_fof_formula
from dolkit.logics.fol import FAtom, FBin, FFalse, FNot, FTrue, FVar
from dolkit.mappings import get_mapping, translate_along
from dolkit.prove import GRACE_SECONDS, prove_fol_internal
from dolkit.prove import fol_prover
from dolkit.prove.fol_prover import (
    _apply_lits,
    _Clausifier,
    _input_clauses,
    _Saturation,
    _subsumes,
)
from dolkit.prove.status import ProofStatus

from conftest import tt_entails


def F(text: str, label: str | None = None) -> Sentence:
    return Sentence("FOL", parse_fof_formula(text), label)


@pytest.fixture(scope="module")
def family_fol(request):
    """The CQbase background translated to first-order form."""
    from dolkit.dolparse import RepoConfig, parse_document
    from dolkit.structure import Env, extract_obligations
    from conftest import FIXTURES

    repo = RepoConfig.from_file(FIXTURES / "repo.json")
    doc = parse_document((FIXTURES / "family.dol").read_text())
    env = Env(doc, repo)
    obligations = extract_obligations(doc, env)
    mapping = get_mapping("dl2fol")
    background = translate_along([mapping], obligations[0].theory)
    conjectures = {
        ob.name: mapping.map_sentence(ob.conjecture) for ob in obligations
    }
    return background, conjectures


def test_chris_is_a_father(family_fol):
    background, conjectures = family_fol
    attempt = prove_fol_internal(background.sentences, conjectures["chrisFather"], 10)
    assert attempt.status is ProofStatus.THM
    assert attempt.used_axioms  # the refutation traces back to real axioms


def test_chris_is_not_female(family_fol):
    background, conjectures = family_fol
    attempt = prove_fol_internal(background.sentences, conjectures["chrisFemale"], 10)
    assert attempt.status is ProofStatus.THM


def test_saturation_gives_countersatisfiable():
    attempt = prove_fol_internal([F("![X]: p(X)", "ax")], F("q(a)"), 5)
    assert attempt.status is ProofStatus.CSA


def test_free_variable_is_unsupported_even_where_it_folds_away():
    # the parser rejects free variables; a caller can still build one
    free = Sentence("FOL", FBin("or", FTrue(), FAtom("", "p", (FVar("X"),))))
    with pytest.raises(UnsupportedFeature, match="unbound variable 'X'"):
        prove_fol_internal([free], F("q"), 5)


# an infinite saturation: every element has a successor and the relation is
# transitive, so clause terms grow without bound
ENDLESS = [
    F("![X]: ?[Y]: bigger(Y, X)", "succ"),
    F("![X,Y,Z]: ((bigger(X,Y) & bigger(Y,Z)) => bigger(X,Z))", "trans"),
    F("bigger(b, a)", "seed"),
]


def test_hard_instance_times_out_within_grace():
    start = time.monotonic()
    attempt = prove_fol_internal(ENDLESS, F("q(a)"), 1)
    assert attempt.status is ProofStatus.TMO
    assert time.monotonic() - start <= 1 + GRACE_SECONDS


def test_hard_instance_stops_at_the_clause_cap(monkeypatch):
    monkeypatch.setattr(fol_prover, "DEFAULT_CLAUSE_CAP", 50)
    attempt = prove_fol_internal(ENDLESS, F("q(a)"), 60)
    assert (attempt.status, attempt.output) == (
        ProofStatus.TMO, "search stopped at the clause cap"
    )


def test_used_axioms_exclude_untouched_facts():
    axioms = [
        F("p(a)", "needed"),
        F("![X]: (p(X) => r(X))", "rule"),
        F("q(b)", "noise"),
    ]
    attempt = prove_fol_internal(axioms, F("r(a)"), 5)
    assert attempt.status is ProofStatus.THM
    assert attempt.used_axioms == ("needed", "rule")


def test_existential_conjecture_needs_witness():
    attempt = prove_fol_internal([F("p(a)", "fact")], F("?[X]: p(X)"), 5)
    assert attempt.status is ProofStatus.THM


def test_forall_conjecture_over_single_fact_is_csa():
    attempt = prove_fol_internal([F("p(a)", "fact")], F("![X]: p(X)"), 5)
    assert attempt.status is ProofStatus.CSA


def test_iff_chain_clausification_times_out_within_grace():
    # a left-nested iff chain has an exponentially large CNF; at 6 atoms it
    # can finish (CSA) inside the second, at 8 it cannot
    text = "a0"
    for i in range(1, 8):
        text = f"({text} <=> a{i})"
    start = time.monotonic()
    attempt = prove_fol_internal([], F(text), 1)
    assert attempt.status is ProofStatus.TMO
    assert time.monotonic() - start <= 1 + GRACE_SECONDS


# -- search identity -------------------------------------------------------------
#
# Status, used axioms and processed-clause counts of the given-clause search,
# recorded before its subsumption, partner and selection indexes existed. The
# indexes must make the same picks and derive the same clauses.


def _chain(n: int) -> list[Sentence]:
    axioms = [F(f"less(c{i}, c{i + 1})", f"link{i}") for i in range(n)]
    axioms.append(F("![X,Y,Z]: ((less(X,Y) & less(Y,Z)) => less(X,Z))", "trans"))
    axioms.append(F("![X]: (less(X,X) => bad)", "irrefl"))
    return axioms


SEARCH_GOLDEN = [
    (
        [F("![X]: p(X)", "ax")], F("q(a)"),
        ProofStatus.CSA, None, "saturated with 2 processed clauses",
    ),
    (
        [F("p(a)", "needed"), F("![X]: (p(X) => r(X))", "rule"), F("q(b)", "noise")],
        F("r(a)"),
        ProofStatus.THM, ("needed", "rule"), "refutation found after 5 processed clauses",
    ),
    (
        [F("p(a)", "fact")], F("?[X]: p(X)"),
        ProofStatus.THM, ("fact",), "refutation found after 2 processed clauses",
    ),
    (
        [F("p(a)", "fact")], F("![X]: p(X)"),
        ProofStatus.CSA, None, "saturated with 2 processed clauses",
    ),
    (
        _chain(12), F("less(c0, c12)"),
        ProofStatus.THM,
        ("link0", "link1", "link10", "link11", "link2", "link3", "link4", "link5",
         "link6", "link7", "link8", "link9", "trans"),
        "refutation found after 107 processed clauses",
    ),
]


@pytest.mark.parametrize("axioms, conjecture, status, used, output", SEARCH_GOLDEN)
def test_search_identity(axioms, conjecture, status, used, output):
    attempt = prove_fol_internal(axioms, conjecture, 10)
    assert (attempt.status, attempt.used_axioms, attempt.output) == (status, used, output)


FAMILY_GOLDEN = {
    "chrisFather": (
        ("genealogy_1", "genealogy_4", "scenario_5", "scenario_6", "scenario_7"), 38,
    ),
    "doraChildChris": (("genealogy_7", "scenario_6"), 56),
    "chrisFemale": (("genealogy_3", "scenario_5"), 18),
    "amyOlderDora": (("genealogy_6", "genealogy_8", "scenario_3", "scenario_6"), 74),
}


@pytest.mark.parametrize("name", FAMILY_GOLDEN)
def test_family_search_identity(family_fol, name):
    background, conjectures = family_fol
    attempt = prove_fol_internal(background.sentences, conjectures[name], 10)
    used, processed = FAMILY_GOLDEN[name]
    assert attempt.status is ProofStatus.THM
    assert attempt.used_axioms == used
    assert attempt.output == f"refutation found after {processed} processed clauses"


def test_family_search_identity_through_prove_all(family_env, family_doc):
    from dolkit.prove.orchestrate import AttemptConfig, prove_all
    from dolkit.structure import extract_obligations

    obligations = extract_obligations(family_doc, family_env)
    attempts = prove_all(obligations, AttemptConfig(timeout_seconds=10, workers=1))
    assert {a.obligation: (a.used_axioms, a.output) for a in attempts} == {
        name: (used, f"refutation found after {processed} processed clauses")
        for name, (used, processed) in FAMILY_GOLDEN.items()
    }


# -- subsumption index vs brute force ----------------------------------------------
#
# The brute-force scan over every processed and queued clause is the oracle for
# the indexed forward-subsumption query.

_PREDS = [("", "p", 1), ("", "q", 2), ("", "r", 1), ("", "s", 0)]
_CONSTANTS = [("f", ("", name), ()) for name in "ab"]
_terms = st.recursive(
    st.sampled_from([("v", f"X{i}") for i in range(3)] + _CONSTANTS),
    lambda inner: st.one_of(
        st.builds(lambda a: ("f", ("", "g"), (a,)), inner),
        st.builds(lambda a, b: ("f", ("", "h"), (a, b)), inner, inner),
    ),
    max_leaves=3,
)
_literals = st.builds(
    lambda sign, pred, args: (sign, pred, args[: pred[2]]),
    st.booleans(), st.sampled_from(_PREDS), st.tuples(_terms, _terms),
)
_clauses = st.lists(_literals, min_size=1, max_size=3)
# ground or over fresh variables, so that applying it never chains
_substitutions = st.fixed_dictionaries(
    {f"X{i}": st.sampled_from(_CONSTANTS + [("v", "Y0"), ("v", "Y1")]) for i in range(3)}
)


@settings(max_examples=200, deadline=None)
@given(
    stored=st.lists(_clauses, min_size=1, max_size=8),
    to_process=st.integers(0, 8),
    data=st.data(),
)
def test_indexed_subsumption_matches_brute_force(stored, to_process, data):
    sat = _Saturation(time.monotonic() + 600)
    for lits in stored:
        clause = sat.add(lits, (), None)
        if clause is not None:
            sat.push(clause)
    for _ in range(min(to_process, sat.queued)):
        picked = sat.pick()
        if not sat.subsumed(picked, processed_only=True):
            sat.process(picked)
    queued = [c for c in sat.clauses.values() if c.queued]
    retained = sat.processed + queued
    for _ in range(4):
        lits = data.draw(_clauses)
        if retained and data.draw(st.booleans()):  # an instance of a retained clause, plus extras
            old = data.draw(st.sampled_from(retained))
            lits = _apply_lits(old.lits, data.draw(_substitutions)) + lits[1:]
        query = sat.add(lits, (), None)
        if query is None:
            continue
        query.mask = sat.features(query.lits)
        assert sat.subsumed(query, processed_only=True) == any(
            _subsumes(old, query) for old in sat.processed
        )
        assert sat.subsumed(query, processed_only=False) == any(
            _subsumes(old, query) for old in retained
        )


_QUANTIFIER_FREE = st.recursive(
    st.one_of(
        st.builds(FAtom, st.just(""), st.sampled_from(["p", "q", "r"]), st.just(())),
        st.just(FTrue()),
        st.just(FFalse()),
    ),
    lambda sub: st.one_of(
        st.builds(FNot, sub),
        st.builds(FBin, st.sampled_from(["and", "or", "impl", "iff"]), sub, sub),
    ),
    max_leaves=25,
)


def _fold(ast) -> bool | None:
    """The truth constant `ast` folds to, or None: a connective folds when an
    operand is absorbing or when its operands fold."""
    if isinstance(ast, (FTrue, FFalse)):
        return isinstance(ast, FTrue)
    if isinstance(ast, FNot):
        body = _fold(ast.body)
        return None if body is None else not body
    if not isinstance(ast, FBin):
        return None
    left, right = _fold(ast.left), _fold(ast.right)
    if ast.op == "iff":
        return None if None in (left, right) else left == right
    if ast.op == "impl":
        left = None if left is None else not left
    absorbing = ast.op == "or" or ast.op == "impl"  # True absorbs a disjunction
    if absorbing in (left, right):
        return absorbing
    return None if None in (left, right) else not absorbing


@settings(max_examples=400, deadline=None)
@given(_QUANTIFIER_FREE, st.booleans())
def test_one_pass_clauses_against_the_truth_table(ast, positive):
    clauses = run(_Clausifier(time.monotonic() + 600).walk(ast, positive, {}, ()))
    assert all(not pred[1].startswith("$") for c in clauses for _, pred, _ in c)
    folded = _fold(ast if positive else FNot(ast))
    assert (clauses == []) == (folded is True)
    assert (clauses == [frozenset()]) == (folded is False)
    cnf = FTrue()
    for clause in clauses:
        disjunction = FFalse()
        for sign, (origin, name, _), _ in clause:
            lit = FAtom(origin, name)
            disjunction = FBin("or", disjunction, lit if sign else FNot(lit))
        cnf = FBin("and", cnf, disjunction)
    to_prop = get_mapping("fol2prop").map_sentence
    target = to_prop(Sentence("FOL", ast if positive else FNot(ast))).ast
    image = to_prop(Sentence("FOL", cnf)).ast
    assert tt_entails([image], target) and tt_entails([target], image)


def test_folded_parts_give_back_their_numbers():
    # each folded quantifier drew a Skolem number; kept, they would make r(sk3)
    axioms = [
        F("(?[Y]: q(Y)) | $true", "folds"),
        F("(![Y]: q(Y)) <=> $true", "half_folds"),
        F("?[Z]: r(Z)", "kept"),
    ]
    sat = _Saturation(time.monotonic() + 600)
    clauses = _input_clauses(sat, axioms, F("s"))
    assert [(c.lits, c.label) for c in clauses] == [
        (((True, ("", "q", 1), (("v", "X0"),)),), "half_folds"),
        (((True, ("", "r", 1), (("f", ("", "sk1"), ()),)),), "kept"),
        (((False, ("", "s", 0), ()),), None),
    ]
