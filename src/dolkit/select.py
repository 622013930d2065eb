"""Axiom selection for proof attempts: manual by-name selection and a
prover-independent SInE heuristic.

SInE triggering: a symbol s triggers an axiom A when s occurs in A and either
occ(s) <= generality_threshold or occ(s) <= tolerance * min occurrence count
over A's symbols, where occ counts the axiom sentences a symbol appears in
(per-sentence presence, not occurrence multiplicity). Selection starts from
the conjecture's symbols and closes under triggering, bounded by the round
depth (0 = run to fixpoint). Symbol-free axioms are always selected.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnknownAxiomName
from .kernel import Sentence, Symbol, Theory, symbols_of


@dataclass(frozen=True)
class SineParams:
    tolerance: float = 1.0
    depth: int = 0
    generality_threshold: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.tolerance):
            raise ValueError("tolerance must be finite")
        if self.tolerance < 1:
            raise ValueError("tolerance must be >= 1")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if self.generality_threshold < 0:
            raise ValueError("generality threshold must be non-negative")


@dataclass(frozen=True)
class Selection:
    chosen: tuple[Sentence, ...]
    strict_subset: bool

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label or "" for s in self.chosen)


def full_selection(t: Theory) -> Selection:
    return Selection(t.axioms, False)


def occurrences(t: Theory) -> dict[Symbol, int]:
    """occ(s) = number of axiom sentences of t in which s occurs at least once."""
    return _count([symbols_of(a) for a in t.axioms])


def _count(axiom_symbols: list[frozenset[Symbol]]) -> dict[Symbol, int]:
    return dict(Counter(sym for syms in axiom_symbols for sym in syms))


def sine_select_from_symbols(
    t: Theory, seed: frozenset[Symbol], p: SineParams
) -> Selection:
    """SInE closure seeded with an arbitrary symbol set (the union of the
    selected conjectures' symbols when one configuration covers several)."""
    axioms = t.axioms
    axiom_symbols = [symbols_of(a) for a in axioms]
    occ = _count(axiom_symbols)
    tolerance = Fraction(p.tolerance).limit_denominator(10**6)

    # The trigger relation is fixed, so it is built once: symbol -> the
    # axioms it triggers. An axiom a symbol triggers is chosen in the round
    # after the symbol becomes known, so each round needs only the symbols
    # the previous round added.
    triggered: dict[Symbol, list[int]] = {}
    for i, syms in enumerate(axiom_symbols):
        bound = tolerance * min((occ[s] for s in syms), default=0)
        for sym in syms:
            if occ[sym] <= p.generality_threshold or occ[sym] <= bound:
                triggered.setdefault(sym, []).append(i)

    chosen_idx: set[int] = {i for i, syms in enumerate(axiom_symbols) if not syms}
    known: set[Symbol] = set(seed)
    frontier: set[Symbol] = set(seed)
    rounds = 0
    while True:
        rounds += 1
        newly = {
            i for sym in frontier for i in triggered.get(sym, ()) if i not in chosen_idx
        }
        if not newly:
            break
        chosen_idx |= newly
        frontier = set().union(*(axiom_symbols[i] for i in newly)) - known
        known |= frontier
        if p.depth and rounds >= p.depth:
            break
    chosen = tuple(a for i, a in enumerate(axioms) if i in chosen_idx)
    return Selection(chosen, len(chosen) < len(axioms))


def sine_select(t: Theory, conjecture: Sentence, p: SineParams) -> Selection:
    return sine_select_from_symbols(t, symbols_of(conjecture), p)


def manual_select(t: Theory, names: list[str]) -> Selection:
    wanted = set(names)
    known = {a.label for a in t.axioms if a.label is not None}
    for name in names:
        if name not in known:
            raise UnknownAxiomName(name)
    chosen = tuple(a for a in t.axioms if a.label in wanted)
    return Selection(chosen, len(chosen) < len(t.axioms))
