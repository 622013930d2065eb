"""Proof-attempt orchestration: one attempt per (obligation, prover), run on
a bounded worker pool, with per-theory axiom selection shared across every
attempt the configuration spawns and statuses refined through finalize_status.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from ..errors import DolkitError, NestingTooDeep
from ..kernel import Sentence, Theory, symbols_of
from ..logics import print_tptp
from ..mappings import find_path, translate_along
from ..select import (
    Selection,
    SineParams,
    full_selection,
    manual_select,
    sine_select_from_symbols,
)
from ..structure import ProofObligation
from .external import ProverKind, ProverSpec, prove_external
from .fol_prover import prove_fol_internal
from .prop_prover import prove_prop
from .status import ProofAttempt, ProofStatus, Verdict, finalize_status

DEFAULT_PROVER = ProverSpec("internal-fol", ProverKind.INTERNAL_FOL)
# the built-in provers by id; any other prover is an external TPTP command
BUILTIN_PROVERS = {
    p.id: p for p in (DEFAULT_PROVER, ProverSpec("internal-prop", ProverKind.INTERNAL_PROP))
}


@dataclass(frozen=True)
class ManualAxioms:
    names: tuple[str, ...]


SelectionSpec = Union[Selection, SineParams, ManualAxioms, None]


@dataclass(frozen=True)
class AttemptConfig:
    provers: tuple[ProverSpec, ...] = ()
    timeout_seconds: int = 10
    selection: SelectionSpec = None
    workers: int | None = None
    temp_dir: str | None = None  # when set, TPTP problem files are written and kept here
    prefixes: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        if self.timeout_seconds < 1:
            raise ValueError("timeout must be at least one second")


_TARGET_LOGIC = {
    ProverKind.INTERNAL_PROP: "Prop",
    ProverKind.INTERNAL_FOL: "FOL",
    ProverKind.EXTERNAL_TPTP: "FOL",
}


def _selection_for(
    theory: Theory, conjectures: list[Sentence], spec: SelectionSpec
) -> Selection:
    if spec is None:
        return full_selection(theory)
    if isinstance(spec, Selection):
        return spec
    if isinstance(spec, SineParams):
        return sine_select_from_symbols(theory, symbols_of(*conjectures), spec)
    if isinstance(spec, ManualAxioms):
        return manual_select(theory, list(spec.names))
    raise TypeError(f"not a selection spec: {spec!r}")


def _translated_problem(
    theory: Theory, selection: Selection, conjecture: Sentence, target_logic: str
) -> tuple[list[Sentence], Sentence]:
    """Selected axioms plus the conjecture, carried into the prover's logic
    along faithful translations; each axiom keeps its label."""
    if theory.logic_id == target_logic:
        return list(selection.chosen), conjecture
    problem = Theory(theory.name, theory.signature, (*selection.chosen, conjecture))
    *axioms, conj = translate_along(find_path(theory.logic_id, target_logic), problem).sentences
    return axioms, conj


def _tptp_problem(
    axioms: Sequence[Sentence], conjecture: Sentence, prefixes: Mapping[str, str] | None
) -> str:
    lines = []
    for i, axiom in enumerate(axioms, 1):
        lines.append(print_tptp(axiom, axiom.label or f"ax{i}", "axiom", prefixes))
    lines.append(print_tptp(conjecture, conjecture.label or "goal", "conjecture", prefixes))
    return "\n".join(lines) + "\n"


def run_attempt(
    obligation: ProofObligation,
    prover: ProverSpec,
    selection: Selection,
    config: AttemptConfig,
) -> ProofAttempt:
    """One attempt; its wall time spans translation and proof, and an error
    on the way becomes an ERR attempt."""
    start = time.monotonic()
    try:
        axioms, conjecture = _translated_problem(
            obligation.theory, selection, obligation.conjecture, _TARGET_LOGIC[prover.kind]
        )
        # the provers are module attributes looked up per call, so that a
        # caller may rebind them (the benchmark's tracer does)
        if prover.kind is ProverKind.INTERNAL_PROP:
            verdict = prove_prop(axioms, conjecture, config.timeout_seconds)
        elif prover.kind is ProverKind.INTERNAL_FOL:
            verdict = prove_fol_internal(axioms, conjecture, config.timeout_seconds)
        else:
            text = _tptp_problem(axioms, conjecture, config.prefixes)
            verdict = prove_external(
                text,
                prover,
                config.timeout_seconds,
                workdir=config.temp_dir,
                problem_name=obligation.name,
            )
    except (DolkitError, RecursionError) as e:
        error = e if isinstance(e, DolkitError) else NestingTooDeep()
        verdict = Verdict(ProofStatus.ERR, f"{type(error).__name__}: {error}")
    return ProofAttempt(
        obligation=obligation.name,
        prover=prover.id,
        status=finalize_status(verdict.status, selection),
        wall_time=time.monotonic() - start,
        output=verdict.output,
        used_axioms=verdict.used_axioms,
        timeout_seconds=config.timeout_seconds,
        provided_axioms=selection.labels,
        selection=selection,
    )


def prove_all(
    obligations: Sequence[ProofObligation], config: AttemptConfig
) -> list[ProofAttempt]:
    """One attempt per (obligation, prover); attempts run concurrently, errors
    become ERR statuses, and results come back ordered by (obligation, prover
    id). The default prover is the internal first-order one."""
    provers = config.provers or (DEFAULT_PROVER,)
    # one Selection object per background theory, shared by its obligations
    selections: dict[int, Selection] = {}
    groups: dict[int, list[ProofObligation]] = {}
    for ob in obligations:
        groups.setdefault(id(ob.theory), []).append(ob)
    for key, group in groups.items():
        selections[key] = _selection_for(
            group[0].theory, [ob.conjecture for ob in group], config.selection
        )
    # tasks are built in result order: obligations as given, provers by id
    tasks = [
        (ob, prover)
        for ob in obligations
        for prover in sorted(provers, key=lambda p: p.id)
    ]
    workers = config.workers or os.cpu_count() or 1

    def run(task):
        ob, prover = task
        return run_attempt(ob, prover, selections[id(ob.theory)], config)

    if len(tasks) <= 1 or workers == 1:
        return [run(t) for t in tasks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, tasks))
