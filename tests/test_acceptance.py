"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Everything here is
fixture- and property-based and finishes in well under a minute.
"""

import functools
import json
import random
import time

from dolkit.cli import main
from dolkit.dolparse import parse_document
from dolkit.kernel import (
    Role,
    Sentence,
    Symbol,
    compose,
    identity,
    symbols_of,
    translate_sentence,
)
from dolkit.mappings import get_mapping
from dolkit.prove import AttemptConfig, finalize_status, prove_all, prove_prop
from dolkit.prove.fol_prover import prove_fol_internal
from dolkit.prove.status import ProofStatus
from dolkit.select import SineParams, sine_select
from dolkit.structure import build_diagram, colimit, resolve_alignments

from conftest import FIXTURES, gen_prop_ast, gen_prop_theory, tt_entails
from test_kernel import _random_morphism, psig
from test_select import brute_force_sine, prop_theory, random_theory
from test_structure import closure_oracle, colimit_partition


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}")
                raise
            print(f"PASS criterion {number}: {description}")

        return wrapper

    return decorate


@criterion(1, "DOL corpus round-trip with 9/12/8 correspondences")
def test_corpus_round_trip():
    family = parse_document((FIXTURES / "family.dol").read_text())
    alignments = parse_document((FIXTURES / "alignments.dol").read_text())
    assert len(family.ontology_defs()) == 7
    parsed = alignments.alignment_defs()
    assert len(parsed) == 3
    assert [len(a.correspondences) for a in parsed] == [9, 12, 8]


@criterion(2, "combination equals the equivalence-closure oracle, cocone exact")
def test_combination_oracle(alignments_doc, alignments_env):
    defs = alignments_doc.alignment_defs()
    diagram = build_diagram(defs, resolve_alignments(defs, alignments_env))
    _, injections = colimit(diagram)
    items = [(n, s) for n, sig in diagram.nodes for s in sig.symbols]
    pairs = [
        ((e.source, s), (e.target, e.morphism.apply(s)))
        for e in diagram.edges
        for s in e.morphism.source.symbols
    ]
    assert colimit_partition(diagram, injections) == closure_oracle(items, pairs)

    from dolkit.kernel import Kind

    dolce = "http://www.loa-cnr.it/ontologies/"
    bfo = "http://www.ifomis.org/bfo/"
    gfo = "http://www.onto-med.de/ontologies/"
    endurant_class = {
        injections["DOLCE-Lite.owl"].apply(Symbol(dolce, "endurant", Kind.CLASS)),
        injections["1.1"].apply(Symbol(bfo, "IndependentContinuant", Kind.CLASS)),
        injections["gfo.owl"].apply(Symbol(gfo, "Presential", Kind.CLASS)),
    }
    assert len(endurant_class) == 1
    occurrent_class = {
        injections["DOLCE-Lite.owl"].apply(Symbol(dolce, "perdurant", Kind.CLASS)),
        injections["1.1"].apply(Symbol(bfo, "Occurrent", Kind.CLASS)),
        injections["gfo.owl"].apply(Symbol(gfo, "Occurrent", Kind.CLASS)),
    }
    assert len(occurrent_class) == 1

    for edge in diagram.edges:
        for sym in edge.morphism.source.symbols:
            assert injections[edge.target].apply(edge.morphism.apply(sym)) == injections[
                edge.source
            ].apply(sym)


@criterion(3, "competency-question pipeline: 4 obligations, 4 THM via cmd_prove")
def test_competency_question_pipeline(capsys):
    code = main(
        [
            "--repo",
            str(FIXTURES),
            "prove",
            str(FIXTURES / "family.dol"),
            "--timeout",
            "10",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    attempts = json.loads(out)["attempts"]
    assert [a["obligation"] for a in attempts] == [
        "chrisFather",
        "doraChildChris",
        "chrisFemale",
        "amyOlderDora",
    ]
    assert all(a["status"] == "THM" for a in attempts)
    assert all(a["wall_time"] <= 10 for a in attempts)
    chris = attempts[0]
    assert chris["obligation"] == "chrisFather" and chris["status"] == "THM"


@criterion(4, "SInE-dropped axiom yields CSAS, kept axiom yields THM")
def test_csas_semantics():
    theory = prop_theory("p impl q", "p", conjecture="q")
    [conjecture] = theory.conjectures
    from dolkit.structure import ProofObligation

    obligation = ProofObligation("goal", theory, conjecture)

    shallow = sine_select(theory, conjecture, SineParams(1.0, 1, 0))
    assert [s.label for s in shallow.chosen] == ["ax1"] and shallow.strict_subset
    [dropped_attempt] = prove_all(
        [obligation], AttemptConfig(timeout_seconds=5, selection=shallow)
    )
    assert dropped_attempt.status is ProofStatus.CSAS

    deep = sine_select(theory, conjecture, SineParams(1.0, 2, 0))
    assert [s.label for s in deep.chosen] == ["ax1", "ax2"] and not deep.strict_subset
    [kept_attempt] = prove_all(
        [obligation], AttemptConfig(timeout_seconds=5, selection=deep)
    )
    assert kept_attempt.status is ProofStatus.THM

    # a strict subset that still proves stays THM by monotonicity
    padded = prop_theory("p impl q", "p", "r", conjecture="q")
    [padded_conjecture] = padded.conjectures
    padded_selection = sine_select(padded, padded_conjecture, SineParams(1.0, 0, 0))
    assert padded_selection.strict_subset
    raw = prove_prop(list(padded_selection.chosen), padded_conjecture, 5)
    assert raw.status is ProofStatus.THM
    assert finalize_status(raw.status, padded_selection) is ProofStatus.THM


@criterion(5, "prove_prop agrees with the truth table on 500 instances in <10s")
def test_propositional_soundness():
    rng = random.Random(1234)
    start = time.monotonic()
    for _ in range(500):
        axioms, conjecture = gen_prop_theory(rng, max_vars=12, max_axioms=15)
        expected = tt_entails([a.ast for a in axioms], conjecture.ast)
        attempt = prove_prop(axioms, conjecture, 10)
        assert attempt.status is not ProofStatus.TMO
        assert (attempt.status is ProofStatus.THM) == expected
    assert time.monotonic() - start < 10


@criterion(6, "sine_select equals brute force on 100 theories; monotone parameters")
def test_sine_correctness():
    rng = random.Random(4321)
    for _ in range(100):
        theory = random_theory(rng)
        [conjecture] = theory.conjectures
        params = SineParams(
            tolerance=rng.choice([1.0, 1.5, 2.0, 3.0]),
            depth=rng.choice([0, 1, 2, 4]),
            generality_threshold=rng.choice([0, 1, 3]),
        )
        selection = sine_select(theory, conjecture, params)
        assert selection.chosen == brute_force_sine(
            theory, symbols_of(conjecture), params
        )
        base = set(selection.chosen)
        assert base <= set(
            sine_select(
                theory,
                conjecture,
                SineParams(params.tolerance + 1, params.depth, params.generality_threshold),
            ).chosen
        )
        assert base <= set(
            sine_select(
                theory,
                conjecture,
                SineParams(params.tolerance, 0, params.generality_threshold),
            ).chosen
        )
        assert base <= set(
            sine_select(
                theory,
                conjecture,
                SineParams(params.tolerance, params.depth, params.generality_threshold + 1),
            ).chosen
        )


@criterion(7, "category laws and translation commutation on 200 generated triples")
def test_category_laws():
    rng = random.Random(5678)
    for _ in range(200):
        names = [f"a{i}" for i in range(rng.randint(1, 5))]
        src = psig(*names)
        m = _random_morphism(rng, src, [f"b{i}" for i in range(rng.randint(1, 4))])
        n = _random_morphism(rng, m.target, [f"c{i}" for i in range(rng.randint(1, 4))])
        p = _random_morphism(rng, n.target, [f"d{i}" for i in range(rng.randint(1, 4))])
        assert compose(identity(src), m) == m
        assert compose(m, identity(m.target)) == m
        assert compose(compose(m, n), p) == compose(m, compose(n, p))
        sentence = Sentence("Prop", gen_prop_ast(rng, names, 3))
        assert symbols_of(translate_sentence(m, sentence)) == frozenset(
            m.apply(x) for x in symbols_of(sentence)
        )


@criterion(8, "prop2fol faithfulness on 100 entailment instances, <5% exclusions")
def test_translation_faithfulness():
    rng = random.Random(8765)
    prop2fol = get_mapping("prop2fol")
    excluded = 0
    for _ in range(100):
        n_vars = rng.randint(1, 8)
        variables = [f"v{i}" for i in range(n_vars)]
        axioms = [
            Sentence("Prop", gen_prop_ast(rng, variables, 3), f"ax{i}", Role.AXIOM)
            for i in range(rng.randint(0, 8))
        ]
        conjecture = Sentence("Prop", gen_prop_ast(rng, variables, 3), "c", Role.CONJECTURE)
        expected = tt_entails([a.ast for a in axioms], conjecture.ast)
        attempt = prove_fol_internal(
            [prop2fol.map_sentence(a) for a in axioms],
            prop2fol.map_sentence(conjecture),
            5,
        )
        if attempt.status is ProofStatus.TMO:
            excluded += 1
            continue
        assert (attempt.status is ProofStatus.THM) == expected
    print(f"  (faithfulness exclusions: {excluded}/100)")
    assert excluded < 5


@criterion(9, "hard instance at --timeout 1 returns TMO with wall_time <= 2s")
def test_timeout_contract(capsys, tmp_path):
    doc = tmp_path / "hard.dol"
    doc.write_text(
        "logic TPTP\n"
        "ontology hardbase = {\n"
        "  fof(succ, axiom, ![X]: ?[Y]: bigger(Y, X)).\n"
        "  fof(trans, axiom, ![X,Y,Z]: ((bigger(X,Y) & bigger(Y,Z)) => bigger(X,Z))).\n"
        "  fof(seed, axiom, bigger(b, a)).\n"
        "  fof(mention, axiom, (q(a) | ~q(a))).\n"
        "}\n"
        "ontology hardgoal = hardbase then { fof(goal, conjecture, q(a)). }\n"
    )
    code = main(["prove", str(doc), "--timeout", "1"])
    out = capsys.readouterr().out
    assert code == 2
    [attempt] = json.loads(out)["attempts"]
    assert attempt["status"] == "TMO"
    assert attempt["wall_time"] <= 2.0
