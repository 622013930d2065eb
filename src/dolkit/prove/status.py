"""SZS proof statuses, the CSAS refinement, a prover's verdict, and the
attempt record."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..select import Selection


class ProofStatus(Enum):
    THM = "THM"
    CSA = "CSA"
    TMO = "TMO"
    CSAS = "CSAS"
    UNK = "UNK"
    ERR = "ERR"


def finalize_status(raw: ProofStatus, selection: Selection) -> ProofStatus:
    """CSA under a strict axiom subset weakens to CSAS (the dropped axiom
    might have enabled a proof); THM stands regardless, by monotonicity of
    entailment."""
    if raw is ProofStatus.CSA and selection.strict_subset:
        return ProofStatus.CSAS
    return raw


@dataclass(frozen=True)
class Verdict:
    """What a prover returns: its raw status, a one-line report, and for a
    THM the labels of the axioms the proof used."""

    status: ProofStatus
    output: str
    used_axioms: tuple[str, ...] | None = None


@dataclass
class ProofAttempt:
    obligation: str
    prover: str
    status: ProofStatus
    wall_time: float
    output: str
    used_axioms: tuple[str, ...] | None
    timeout_seconds: float
    provided_axioms: tuple[str, ...]
    selection: Selection  # one shared object per configuration


def attempt_to_dict(attempt: ProofAttempt) -> dict:
    return {
        "obligation": attempt.obligation,
        "prover": attempt.prover,
        "status": attempt.status.value,
        "wall_time": round(attempt.wall_time, 6),
        "used_axioms": list(attempt.used_axioms) if attempt.used_axioms is not None else None,
        "config": {
            "timeout": attempt.timeout_seconds,
            "provided_axioms": list(attempt.provided_axioms),
            "strict_subset": attempt.selection.strict_subset,
        },
        "output": attempt.output,
    }
