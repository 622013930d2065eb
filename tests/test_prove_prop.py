"""CDCL prover against the truth-table oracle, plus its timeout, search and
large-input tests."""

import random
import time

from hypothesis import given, settings, strategies as st

from dolkit.kernel import Kind, Role, Sentence, Signature, Symbol, Theory
from dolkit.logics import parse_prop, prop
from dolkit.prove import BUILTIN_PROVERS, GRACE_SECONDS, AttemptConfig, prove_all, prove_prop
from dolkit.prove.status import ProofStatus
from dolkit.structure import ProofObligation

from conftest import gen_prop_theory, tt_entails


def S(text: str, label: str | None = None) -> Sentence:
    return Sentence("Prop", parse_prop(text), label)


def test_modus_ponens_is_a_theorem():
    attempt = prove_prop([S("p", "a1"), S("p impl q", "a2")], S("q"), 5)
    assert attempt.status is ProofStatus.THM
    assert set(attempt.used_axioms) <= {"a1", "a2"}


def test_unconstrained_atom_is_countersatisfiable():
    attempt = prove_prop([], S("p"), 5)
    assert attempt.status is ProofStatus.CSA


def test_zero_budget_times_out():
    attempt = prove_prop([S("p")], S("p"), 0)
    assert attempt.status is ProofStatus.TMO


def test_tautology_without_axioms():
    assert prove_prop([], S("p or not p"), 5).status is ProofStatus.THM


def test_contradictory_axioms_prove_anything():
    attempt = prove_prop([S("p", "a"), S("not p", "b")], S("q"), 5)
    assert attempt.status is ProofStatus.THM


def test_agreement_with_truth_table_oracle():
    rng = random.Random(303)
    start = time.monotonic()
    for _ in range(150):
        axioms, conjecture = gen_prop_theory(rng)
        expected = tt_entails([a.ast for a in axioms], conjecture.ast)
        attempt = prove_prop(axioms, conjecture, 10)
        assert attempt.status is not ProofStatus.TMO
        assert (attempt.status is ProofStatus.THM) == expected
    assert time.monotonic() - start < 20


def test_used_axioms_subset_of_provided():
    axioms = [S("p", "a1"), S("q", "a2"), S("p impl r", "a3")]
    attempt = prove_prop(axioms, S("r"), 5)
    assert attempt.status is ProofStatus.THM
    assert set(attempt.used_axioms) <= {"a1", "a2", "a3"}


def test_flat_instance_gets_a_verdict():
    # 1,500 clauses `a_i or b_i` nest nowhere, yet once overran the recursion
    # limit in the search (a RecursionError, ERR NestingTooDeep in prove_all)
    names = [f"{side}{i}" for i in range(1500) for side in "ab"]
    axioms = tuple(
        Sentence("Prop", parse_prop(f"a{i} or b{i}"), f"c{i}", Role.AXIOM) for i in range(1500)
    )
    conjecture = Sentence("Prop", parse_prop("a0"), "goal", Role.CONJECTURE)
    assert prove_prop(axioms, conjecture, 10).status is ProofStatus.CSA

    symbols = frozenset(Symbol("", n, Kind.PROP_VAR, 0) for n in names)
    theory = Theory("flat", Signature("Prop", symbols), axioms)
    config = AttemptConfig(provers=(BUILTIN_PROVERS["internal-prop"],), timeout_seconds=10)
    [attempt] = prove_all([ProofObligation("goal", theory, conjecture)], config)
    assert attempt.status is ProofStatus.CSA


def pigeonhole(pigeons: int, holes: int) -> list[Sentence]:
    """Every pigeon sits in a hole and no hole holds two: unsatisfiable
    exactly when there are more pigeons than holes."""
    texts = [" or ".join(f"p{i}_{j}" for j in range(holes)) for i in range(pigeons)]
    texts += [
        f"not p{i}_{j} or not p{k}_{j}"
        for j in range(holes)
        for i in range(pigeons)
        for k in range(i + 1, pigeons)
    ]
    return [Sentence("Prop", parse_prop(t), f"php{n}", Role.AXIOM) for n, t in enumerate(texts)]


def test_small_pigeonhole_is_a_theorem():
    # about 140 conflicts, a sixth of them backjumping past more than one level
    attempt = prove_prop(pigeonhole(6, 5), S("false"), 30)
    assert attempt.status is ProofStatus.THM


def test_hard_pigeonhole_times_out_within_grace():
    axioms = pigeonhole(10, 9)
    start = time.monotonic()
    attempt = prove_prop(axioms, S("false"), 1)
    assert attempt.status is ProofStatus.TMO
    assert time.monotonic() - start <= 1 + GRACE_SECONDS


# -- prover versus truth table on generated theories ------------------------------

_VARIABLES = [prop.PVar("", f"v{i}") for i in range(6)]


def _binary(op: str):
    return lambda inner: st.builds(prop.PBin, st.just(op), inner, inner)


_iff_heavy = st.recursive(
    st.sampled_from(_VARIABLES + [prop.PTrue(), prop.PFalse()]),
    lambda inner: st.one_of(
        _binary("iff")(inner),
        _binary("iff")(inner),
        _binary("and")(inner),
        _binary("or")(inner),
        _binary("impl")(inner),
        st.builds(prop.PNot, inner),
    ),
    max_leaves=8,
)


def _sentences(asts: list) -> list[Sentence]:
    return [Sentence("Prop", ast, f"ax{i}", Role.AXIOM) for i, ast in enumerate(asts)]


_iff_theories = st.tuples(st.lists(_iff_heavy, max_size=6).map(_sentences), _iff_heavy)


@st.composite
def _contradictory_theories(draw):
    formula = draw(_iff_heavy)
    asts = draw(st.lists(_iff_heavy, max_size=4)) + [formula, prop.PNot(formula)]
    return _sentences(draw(st.permutations(asts))), draw(_iff_heavy)


def _literal(var: int, positive: bool):
    atom = prop.PVar("", f"x{var}")
    return atom if positive else prop.PNot(atom)


@st.composite
def _random_3sat(draw):
    """Uniform random 3-SAT at clause ratio 4.26 with a conjecture that is
    `false` or a literal; about a quarter of these are theorems."""
    n = draw(st.integers(3, 12))
    asts = []
    for _ in range(round(4.26 * n)):
        vs = draw(st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True))
        a, b, c = (_literal(v, draw(st.booleans())) for v in vs)
        asts.append(prop.PBin("or", prop.PBin("or", a, b), c))
    conjecture = draw(st.one_of(
        st.just(prop.PFalse()),
        st.builds(_literal, st.integers(1, n), st.booleans()),
    ))
    return _sentences(asts), conjecture


@settings(max_examples=300, deadline=None)
@given(st.one_of(_iff_theories, _contradictory_theories(), _random_3sat()))
def test_prover_agrees_with_truth_table(theory):
    axioms, conjecture_ast = theory
    expected = tt_entails([a.ast for a in axioms], conjecture_ast)
    attempt = prove_prop(axioms, Sentence("Prop", conjecture_ast, "goal", Role.CONJECTURE), 10)
    assert attempt.status is (ProofStatus.THM if expected else ProofStatus.CSA)
