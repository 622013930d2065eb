"""Internal resolution prover: the family conjectures, saturation, timeout
behavior, refutation tracing, search identity, and the subsumption index
against its brute-force oracle."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from dolkit.errors import UnsupportedFeature
from dolkit.kernel import Sentence
from dolkit.logics import parse_fof_formula
from dolkit.mappings import get_mapping, translate_theory
from dolkit.prove import GRACE_SECONDS, prove_fol_internal
from dolkit.prove.fol_prover import DEFAULT_CLAUSE_CAP, _apply_lits, _Saturation, _subsumes
from dolkit.prove.status import ProofStatus


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
    background, _ = translate_theory(mapping, obligations[0].theory)
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


def test_equality_is_unsupported():
    eq = Sentence("FOL", parse_fof_formula("a = b", allow_equality=True))
    with pytest.raises(UnsupportedFeature):
        prove_fol_internal([eq], F("p"), 5)


def test_hard_instance_times_out_within_grace():
    # an infinite saturation: every element has a successor and the relation
    # is transitive, so clause terms grow without bound
    axioms = [
        F("![X]: ?[Y]: bigger(Y, X)", "succ"),
        F("![X,Y,Z]: ((bigger(X,Y) & bigger(Y,Z)) => bigger(X,Z))", "trans"),
        F("bigger(b, a)", "seed"),
    ]
    attempt = prove_fol_internal(axioms, F("q(a)"), 1)
    assert attempt.status is ProofStatus.TMO
    assert attempt.wall_time <= 1 + GRACE_SECONDS


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
    # a left-nested iff chain has an exponentially large CNF
    text = "a0"
    for i in range(1, 6):
        text = f"({text} <=> a{i})"
    attempt = prove_fol_internal([], F(text), 1)
    assert attempt.status is ProofStatus.TMO
    assert attempt.wall_time <= 1 + GRACE_SECONDS


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
        ("genealogy_1", "genealogy_4", "scenario_5", "scenario_6", "scenario_7"), 51,
    ),
    "doraChildChris": (("genealogy_7", "scenario_6"), 63),
    "chrisFemale": (("genealogy_3", "scenario_5"), 31),
    "amyOlderDora": (("genealogy_6", "genealogy_8", "scenario_3", "scenario_6"), 86),
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
    sat = _Saturation(time.monotonic() + 600, DEFAULT_CLAUSE_CAP)
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
