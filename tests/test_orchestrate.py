"""finalize_status semantics and prove_all orchestration."""

import random

import pytest

from dolkit.kernel import Role, Sentence, Signature, Theory, symbols_of
from dolkit.logics import parse_prop
from dolkit.prove import (
    BUILTIN_PROVERS,
    AttemptConfig,
    ManualAxioms,
    ProverKind,
    ProverSpec,
    finalize_status,
    prove_all,
    prove_prop,
)
from dolkit.prove import orchestrate
from dolkit.prove.status import ProofStatus
from dolkit.select import Selection, SineParams, sine_select
from dolkit.structure import ProofObligation, extract_obligations

STRICT = Selection((), True)
FULL = Selection((), False)


class TestFinalizeStatus:
    def test_csa_under_strict_subset_becomes_csas(self):
        assert finalize_status(ProofStatus.CSA, STRICT) is ProofStatus.CSAS

    def test_thm_survives_strict_subset(self):
        assert finalize_status(ProofStatus.THM, STRICT) is ProofStatus.THM

    def test_csa_with_full_theory_stays(self):
        assert finalize_status(ProofStatus.CSA, FULL) is ProofStatus.CSA

    def test_total_and_idempotent(self):
        for status in ProofStatus:
            for selection in (STRICT, FULL):
                once = finalize_status(status, selection)
                assert finalize_status(once, selection) is once


def prop_obligations(axioms: list[str], conjectures: list[str]) -> list[ProofObligation]:
    sentences = [
        Sentence("Prop", parse_prop(t), f"ax{i + 1}", Role.AXIOM)
        for i, t in enumerate(axioms)
    ]
    symbols = frozenset()
    for text in axioms + conjectures:
        symbols |= symbols_of(Sentence("Prop", parse_prop(text)))
    theory = Theory("bg", Signature("Prop", symbols), tuple(sentences))
    return [
        ProofObligation(
            f"goal{i + 1}",
            theory,
            Sentence("Prop", parse_prop(c), f"goal{i + 1}", Role.CONJECTURE),
        )
        for i, c in enumerate(conjectures)
    ]


class TestProveAll:
    def test_family_pipeline_defaults(self, family_doc, family_env):
        obligations = extract_obligations(family_doc, family_env)
        attempts = prove_all(obligations, AttemptConfig(timeout_seconds=10))
        assert [a.obligation for a in attempts] == [
            "chrisFather",
            "doraChildChris",
            "chrisFemale",
            "amyOlderDora",
        ]
        assert all(a.status is ProofStatus.THM for a in attempts)
        assert all(a.prover == "internal-fol" for a in attempts)

    def test_two_provers_share_one_selection_object(self):
        obligations = prop_obligations(["p", "p impl q"], ["q"])
        provers = (
            ProverSpec("internal-fol", ProverKind.INTERNAL_FOL),
            ProverSpec("internal-prop", ProverKind.INTERNAL_PROP),
        )
        attempts = prove_all(
            obligations, AttemptConfig(provers=provers, timeout_seconds=5)
        )
        assert [a.prover for a in attempts] == ["internal-fol", "internal-prop"]
        assert attempts[0].selection is attempts[1].selection
        assert all(a.status is ProofStatus.THM for a in attempts)

    def test_selection_shared_across_obligations_of_one_theory(self):
        obligations = prop_obligations(["p", "q"], ["p", "q"])
        attempts = prove_all(
            obligations,
            AttemptConfig(timeout_seconds=5, selection=SineParams(1.0, 0, 0)),
        )
        assert attempts[0].selection is attempts[1].selection

    def test_empty_obligations(self):
        assert prove_all([], AttemptConfig(timeout_seconds=5)) == []

    def test_manual_selection_drives_csas(self):
        obligations = prop_obligations(["p impl q", "p"], ["q"])
        attempts = prove_all(
            obligations,
            AttemptConfig(timeout_seconds=5, selection=ManualAxioms(("ax1",))),
        )
        assert attempts[0].status is ProofStatus.CSAS
        assert attempts[0].provided_axioms == ("ax1",)

    def test_attempt_independence_across_worker_counts(self, family_doc, family_env):
        obligations = extract_obligations(family_doc, family_env)
        serial = prove_all(obligations, AttemptConfig(timeout_seconds=10, workers=1))
        parallel = prove_all(obligations, AttemptConfig(timeout_seconds=10, workers=4))
        key = lambda a: (a.obligation, a.prover, a.status.value)
        assert sorted(map(key, serial)) == sorted(map(key, parallel))

    def test_wall_time_within_grace(self, family_doc, family_env):
        obligations = extract_obligations(family_doc, family_env)
        attempts = prove_all(obligations, AttemptConfig(timeout_seconds=10))
        assert all(a.wall_time <= 10 + 1 for a in attempts)

    def test_used_axioms_subset_of_provided(self, family_doc, family_env):
        obligations = extract_obligations(family_doc, family_env)
        attempts = prove_all(obligations, AttemptConfig(timeout_seconds=10))
        for a in attempts:
            assert a.status is ProofStatus.THM
            assert set(a.used_axioms) <= set(a.provided_axioms)

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            AttemptConfig(timeout_seconds=0)

    def test_prop_obligations_translate_for_the_fol_prover(self):
        obligations = prop_obligations(["p impl q", "p"], ["q"])
        attempts = prove_all(obligations, AttemptConfig(timeout_seconds=5))
        assert attempts[0].prover == "internal-fol"
        assert attempts[0].status is ProofStatus.THM

    def test_per_attempt_errors_become_err_without_aborting_the_run(self):
        from dolkit.kernel import Kind, Signature, Symbol
        from dolkit.logics import parse_fof_formula
        from dolkit.logics.fol import FAtom, FBin, FTrue, FVar

        symbols = frozenset({Symbol("", "a", Kind.INDIVIDUAL), Symbol("", "p", Kind.PREDICATE, 1)})
        # the parser rejects free variables; a caller can still build one
        free = FBin("or", FTrue(), FAtom("", "p", (FVar("X"),)))
        theory = Theory("bg", Signature("FOL", symbols), (Sentence("FOL", free, "free", Role.AXIOM),))
        broken = ProofObligation(
            "broken",
            theory,
            Sentence("FOL", parse_fof_formula("p(a)"), "broken", Role.CONJECTURE),
        )
        fine = prop_obligations(["p"], ["p"])[0]
        attempts = prove_all([broken, fine], AttemptConfig(timeout_seconds=5))
        assert [a.status for a in attempts] == [ProofStatus.ERR, ProofStatus.THM]
        assert "UnsupportedFeature" in attempts[0].output

    def test_a_very_deep_formula_is_decided(self):
        from dolkit.kernel import Kind, Symbol
        from dolkit.logics.prop import PBin, PVar

        # a 3,000-conjunct left-deep `and` once overran the recursion limit
        names = [f"x{i}" for i in range(3000)]
        deep = PVar("", names[0])
        for name in names[1:]:
            deep = PBin("and", deep, PVar("", name))
        symbols = frozenset(Symbol("", n, Kind.PROP_VAR, 0) for n in names)
        theory = Theory("bg", Signature("Prop", symbols), (Sentence("Prop", deep, "big", Role.AXIOM),))
        ob = ProofObligation("goal", theory, Sentence("Prop", PVar("", "x0"), "goal", Role.CONJECTURE))
        provers = tuple(BUILTIN_PROVERS.values())
        attempts = prove_all([ob], AttemptConfig(provers=provers, timeout_seconds=5))
        assert [(a.prover, a.status, a.used_axioms) for a in attempts] == [
            ("internal-fol", ProofStatus.THM, ("big",)),
            ("internal-prop", ProofStatus.THM, ("big",)),
        ]

    def test_recursion_error_becomes_err(self, monkeypatch):
        # the prover's term walks still recurse
        def too_deep(*args):
            raise RecursionError

        monkeypatch.setattr(orchestrate, "prove_prop", too_deep)
        ob = prop_obligations(["p"], ["p"])[0]
        config = AttemptConfig(provers=(BUILTIN_PROVERS["internal-prop"],), timeout_seconds=5)
        [attempt] = prove_all([ob], config)
        assert attempt.status is ProofStatus.ERR
        assert attempt.output == "NestingTooDeep: input nests deeper than the recursion limit"


class TestMonotonicityEmpirically:
    def test_thm_under_subset_implies_thm_under_full(self):
        rng = random.Random(404)
        checked = 0
        for _ in range(200):
            n_vars = rng.randint(2, 6)
            names = [f"v{i}" for i in range(n_vars)]
            texts = []
            for _ in range(rng.randint(2, 8)):
                picks = rng.sample(names, rng.randint(1, 2))
                texts.append(" or ".join(picks) if rng.random() < 0.5 else " and ".join(picks))
            conjecture = rng.choice(names)
            obligations = prop_obligations(texts, [conjecture])
            theory = obligations[0].theory
            selection = sine_select(
                theory, obligations[0].conjecture, SineParams(1.0, 1, 0)
            )
            if not selection.strict_subset:
                continue
            subset_attempt = prove_prop(
                list(selection.chosen), obligations[0].conjecture, 5
            )
            if subset_attempt.status is ProofStatus.THM:
                full_attempt = prove_prop(
                    list(theory.axioms), obligations[0].conjecture, 5
                )
                assert full_attempt.status is ProofStatus.THM
                checked += 1
        assert checked >= 5
