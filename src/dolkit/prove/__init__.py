"""Proof-attempt machinery: internal provers, external TPTP subprocesses,
SZS statuses, and parallel orchestration."""

from .external import (
    GRACE_SECONDS,
    ProverKind,
    ProverSpec,
    parse_szs_status,
    prove_external,
)
from .fol_prover import prove_fol_internal
from .orchestrate import (
    BUILTIN_PROVERS,
    DEFAULT_PROVER,
    AttemptConfig,
    ManualAxioms,
    prove_all,
    run_attempt,
)
from .prop_prover import prove_prop
from .status import ProofAttempt, ProofStatus, Verdict, attempt_to_dict, finalize_status

__all__ = [
    "GRACE_SECONDS",
    "ProverKind",
    "ProverSpec",
    "parse_szs_status",
    "prove_external",
    "prove_fol_internal",
    "prove_prop",
    "BUILTIN_PROVERS",
    "DEFAULT_PROVER",
    "AttemptConfig",
    "ManualAxioms",
    "prove_all",
    "run_attempt",
    "ProofAttempt",
    "ProofStatus",
    "Verdict",
    "attempt_to_dict",
    "finalize_status",
]
