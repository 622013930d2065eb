"""Axiom selection: occurrence counts, the SInE trigger closure against a
brute-force oracle, and parameter monotonicity."""

import random

import pytest

from dolkit.errors import UnknownAxiomName
from dolkit.kernel import Kind, Role, Sentence, Signature, Symbol, Theory, symbols_of
from dolkit.logics import parse_prop
from dolkit.logics.simpledl import (
    ClassAssertion,
    ClsAnd,
    ClsName,
    ClsNot,
    ClsSome,
    IndName,
    PropertyAssertion,
    PropName,
    SubClassOf,
    TransitiveProperty,
)
from dolkit.select import SineParams, manual_select, occurrences, sine_select


def prop_theory(*texts: str, conjecture: str | None = None) -> Theory:
    sentences = [
        Sentence("Prop", parse_prop(t), f"ax{i + 1}", Role.AXIOM) for i, t in enumerate(texts)
    ]
    if conjecture is not None:
        sentences.append(Sentence("Prop", parse_prop(conjecture), "goal", Role.CONJECTURE))
    symbols = frozenset()
    for s in sentences:
        symbols |= symbols_of(s)
    return Theory("t", Signature("Prop", symbols), tuple(sentences))


def sym(name: str) -> Symbol:
    return Symbol("", name, Kind.PROP_VAR, 0)


class TestOccurrences:
    def test_counts_per_sentence(self):
        t = prop_theory("c and a", "c and b")
        occ = occurrences(t)
        assert occ[sym("c")] == 2 and occ[sym("a")] == 1 and occ[sym("b")] == 1

    def test_empty_theory(self):
        assert occurrences(prop_theory()) == {}

    def test_presence_not_multiplicity(self):
        occ = occurrences(prop_theory("p and p"))
        assert occ[sym("p")] == 1

    def test_conjectures_do_not_count(self):
        t = prop_theory("p", conjecture="p and q")
        occ = occurrences(t)
        assert occ == {sym("p"): 1}


class TestSineSelect:
    def test_spec_trigger_example(self):
        # occ(rare)=1, occ(common)=2; at tolerance 1 and depth 1 only the
        # rare-symbol axiom is selected
        t = prop_theory("rare and common", "common", conjecture="rare")
        conjecture = t.conjectures[0]
        sel = sine_select(t, conjecture, SineParams(1.0, 1, 0))
        assert [s.label for s in sel.chosen] == ["ax1"]
        assert sel.strict_subset

    def test_no_shared_symbols_selects_only_symbol_free_axioms(self):
        t = prop_theory("true", "p and q", conjecture="z or not z")
        sel = sine_select(t, t.conjectures[0], SineParams(1.0, 0, 0))
        assert [s.label for s in sel.chosen] == ["ax1"]

    def test_depth_zero_reaches_the_reachable_closure(self):
        t = prop_theory("a and b", "b and c", "c and d", "unrelated", conjecture="a")
        sel = sine_select(t, t.conjectures[0], SineParams(10.0, 0, 0))
        assert [s.label for s in sel.chosen] == ["ax1", "ax2", "ax3"]

    def test_chosen_never_contains_the_conjecture(self):
        t = prop_theory("p", conjecture="p")
        sel = sine_select(t, t.conjectures[0], SineParams(1.0, 0, 0))
        assert all(s.role is Role.AXIOM for s in sel.chosen)

    def test_tolerance_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            SineParams(0.5, 0, 0)


def brute_force_sine(t: Theory, seed: frozenset, p: SineParams):
    """Independent re-statement of the trigger-closure definition: recompute
    every round from scratch, no incremental bookkeeping."""
    axioms = t.axioms
    occ = occurrences(t)

    def triggered(known: frozenset, axiom) -> bool:
        syms = symbols_of(axiom)
        if not syms:
            return True
        least = min(occ[s] for s in syms)
        for s in known:
            if s in syms and (
                occ[s] <= p.generality_threshold or occ[s] <= p.tolerance * least
            ):
                return True
        return False

    def round_k(k: int) -> tuple[frozenset, frozenset]:
        if k == 0:
            base = frozenset(a for a in axioms if not symbols_of(a))
            return seed, base
        known, chosen = round_k(k - 1)
        new_chosen = frozenset(a for a in axioms if triggered(known, a)) | chosen
        new_known = known
        for a in new_chosen:
            new_known |= symbols_of(a)
        return new_known, new_chosen

    k = 0
    while True:
        known, chosen = round_k(k)
        if p.depth and k >= p.depth:
            break
        next_known, next_chosen = round_k(k + 1)
        if next_chosen == chosen and next_known == known:
            break
        k += 1
    _, chosen = round_k(k)
    return tuple(a for a in axioms if a in chosen)


def random_theory(rng: random.Random) -> Theory:
    n_syms = rng.randint(2, 8)
    names = [f"s{i}" for i in range(n_syms)]
    texts = []
    for _ in range(rng.randint(1, 20)):
        picks = rng.sample(names, rng.randint(1, min(3, n_syms)))
        texts.append(" and ".join(picks))
    conjecture = " or ".join(rng.sample(names, rng.randint(1, min(2, n_syms))))
    return prop_theory(*texts, conjecture=conjecture)


def random_dl_theory(rng: random.Random) -> Theory:
    """Classes, properties and individuals, so that symbols of every DL kind
    trigger axioms."""
    classes = [ClsName("", f"C{i}") for i in range(rng.randint(2, 6))]
    props = [PropName("", f"p{i}") for i in range(rng.randint(1, 3))]
    inds = [IndName("", f"i{i}") for i in range(rng.randint(1, 4))]

    def expr(depth: int):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            return rng.choice(classes)
        if roll < 0.6:
            return ClsSome(rng.choice(props), expr(depth - 1))
        if roll < 0.7:
            return ClsNot(expr(depth - 1))
        return ClsAnd(expr(depth - 1), expr(depth - 1))

    def sentence():
        roll = rng.random()
        if roll < 0.5:
            return SubClassOf(rng.choice(classes), expr(2))
        if roll < 0.7:
            return ClassAssertion(expr(1), rng.choice(inds))
        if roll < 0.9:
            return PropertyAssertion(rng.choice(props), rng.choice(inds), rng.choice(inds))
        return TransitiveProperty(rng.choice(props))

    sentences = [
        Sentence("SimpleDL", sentence(), f"ax{i + 1}") for i in range(rng.randint(1, 20))
    ]
    sentences.append(Sentence("SimpleDL", sentence(), "goal", Role.CONJECTURE))
    symbols = frozenset().union(*map(symbols_of, sentences))
    return Theory("t", Signature("SimpleDL", symbols), tuple(sentences))


class TestSineOracle:
    def test_matches_brute_force_on_generated_theories(self):
        for make_theory, seed in ((random_theory, 101), (random_dl_theory, 103)):
            rng = random.Random(seed)
            for _ in range(100):
                t = make_theory(rng)
                conjecture = t.conjectures[0]
                params = SineParams(
                    tolerance=rng.choice([1.0, 1.5, 2.0, 4.0]),
                    depth=rng.choice([0, 1, 2, 3]),
                    generality_threshold=rng.choice([0, 1, 2]),
                )
                sel = sine_select(t, conjecture, params)
                expected = brute_force_sine(t, symbols_of(conjecture), params)
                assert sel.chosen == expected
                assert sel.strict_subset == (len(sel.chosen) < len(t.axioms))

    def test_parameter_monotonicity(self):
        rng = random.Random(202)
        for _ in range(100):
            t = random_theory(rng)
            conjecture = t.conjectures[0]
            tol = rng.choice([1.0, 1.5, 2.0])
            depth = rng.choice([1, 2, 3])
            gen = rng.choice([0, 1])
            base = set(sine_select(t, conjecture, SineParams(tol, depth, gen)).chosen)
            assert base <= set(
                sine_select(t, conjecture, SineParams(tol + 1.0, depth, gen)).chosen
            )
            assert base <= set(
                sine_select(t, conjecture, SineParams(tol, depth + 1, gen)).chosen
            )
            assert base <= set(
                sine_select(t, conjecture, SineParams(tol, 0, gen)).chosen
            )
            assert base <= set(
                sine_select(t, conjecture, SineParams(tol, depth, gen + 2)).chosen
            )


class TestManualSelect:
    def test_all_labels_is_not_strict(self):
        t = prop_theory("p", "q")
        sel = manual_select(t, ["ax1", "ax2"])
        assert not sel.strict_subset and len(sel.chosen) == 2

    def test_empty_selection_is_strict(self):
        t = prop_theory("p")
        sel = manual_select(t, [])
        assert sel.chosen == () and sel.strict_subset

    def test_unknown_name(self):
        with pytest.raises(UnknownAxiomName):
            manual_select(prop_theory("p"), ["nope"])

    def test_theory_order_preserved(self):
        t = prop_theory("p", "q", "r")
        sel = manual_select(t, ["ax3", "ax1"])
        assert [s.label for s in sel.chosen] == ["ax1", "ax3"]
