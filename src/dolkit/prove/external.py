"""External TPTP prover subprocesses: file handoff, timeout enforcement,
and SZS status-line parsing."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .status import ProofStatus, Verdict

GRACE_SECONDS = 1.0

_SZS_LINE = re.compile(r"SZS status\s+(\w+)")

_SZS_MAP = {
    "Theorem": ProofStatus.THM,
    "CounterSatisfiable": ProofStatus.CSA,
    "Timeout": ProofStatus.TMO,
    "ResourceOut": ProofStatus.TMO,
}


class ProverKind(Enum):
    INTERNAL_PROP = "InternalProp"
    INTERNAL_FOL = "InternalFol"
    EXTERNAL_TPTP = "ExternalTptp"


@dataclass(frozen=True)
class ProverSpec:
    id: str
    kind: ProverKind
    command: tuple[str, ...] = ()  # argv template; {file} and {timeout} placeholders

    def __post_init__(self) -> None:
        if self.kind is ProverKind.EXTERNAL_TPTP and not self.command:
            raise ValueError(f"external prover {self.id!r} needs a command template")


def parse_szs_status(output: str) -> ProofStatus | None:
    """First SZS status line wins; None when no such line exists."""
    m = _SZS_LINE.search(output)
    if m is None:
        return None
    return _SZS_MAP.get(m.group(1), ProofStatus.UNK)


def prove_external(
    theory_tptp_text: str,
    prover: ProverSpec,
    timeout_seconds: float,
    workdir: str | Path | None = None,
    problem_name: str = "problem",
) -> Verdict:
    """Run an external prover on a TPTP problem file. The file is written
    to `workdir` and kept there, or, without one, to a temporary file that
    is removed afterwards."""
    import subprocess
    import tempfile

    if workdir is not None:
        Path(workdir).mkdir(parents=True, exist_ok=True)
    fd, raw_path = tempfile.mkstemp(
        prefix=f"{problem_name}_", suffix=".p", dir=str(workdir) if workdir else None
    )
    os.close(fd)
    path = Path(raw_path)
    path.write_text(theory_tptp_text, encoding="utf-8")
    argv = [
        token.replace("{file}", str(path)).replace("{timeout}", str(int(timeout_seconds)))
        for token in prover.command
    ]
    try:
        completed = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=timeout_seconds + GRACE_SECONDS,
        )
        output = completed.stdout + completed.stderr
        status = parse_szs_status(output)
        if status is None:
            status = ProofStatus.ERR if completed.returncode != 0 else ProofStatus.UNK
    except subprocess.TimeoutExpired as e:
        collected = [
            part.decode("utf-8", "replace") if isinstance(part, bytes) else (part or "")
            for part in (e.stdout, e.stderr)
        ]
        output = "".join(collected) + "\n[killed at timeout + grace]"
        status = ProofStatus.TMO
    except OSError as e:
        output = f"spawn failure: {e}"
        status = ProofStatus.ERR
    finally:
        if workdir is None:
            path.unlink(missing_ok=True)
    return Verdict(status, output)
