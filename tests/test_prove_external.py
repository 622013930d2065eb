"""External prover harness, exercised with stub executables that emit canned
SZS output."""

import stat
import time
from pathlib import Path

import pytest

from dolkit.prove import GRACE_SECONDS, ProverKind, ProverSpec, parse_szs_status, prove_external
from dolkit.prove.status import ProofStatus

TPTP = "fof(ax1, axiom, p).\nfof(goal, conjecture, p).\n"


def make_stub(tmp_path: Path, name: str, body: str) -> str:
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def run(tmp_path, body, timeout=5, **kwargs):
    exe = make_stub(tmp_path, "stub.sh", body)
    spec = ProverSpec("stub", ProverKind.EXTERNAL_TPTP, (exe, "{file}", "{timeout}"))
    return prove_external(TPTP, spec, timeout, workdir=tmp_path, **kwargs)


class TestSzsParsing:
    def test_status_map(self):
        assert parse_szs_status("% SZS status Theorem for x") is ProofStatus.THM
        assert parse_szs_status("SZS status CounterSatisfiable") is ProofStatus.CSA
        assert parse_szs_status("SZS status Timeout") is ProofStatus.TMO
        assert parse_szs_status("SZS status ResourceOut") is ProofStatus.TMO
        assert parse_szs_status("SZS status GaveUp") is ProofStatus.UNK
        assert parse_szs_status("no status here") is None

    def test_first_line_wins(self):
        text = "SZS status CounterSatisfiable\nSZS status Theorem\n"
        assert parse_szs_status(text) is ProofStatus.CSA


class TestSubprocessHandling:
    def test_theorem(self, tmp_path):
        attempt = run(tmp_path, 'echo "SZS status Theorem"')
        assert attempt.status is ProofStatus.THM

    def test_countersatisfiable(self, tmp_path):
        attempt = run(tmp_path, 'echo "SZS status CounterSatisfiable"')
        assert attempt.status is ProofStatus.CSA

    def test_szs_on_stderr_counts(self, tmp_path):
        attempt = run(tmp_path, 'echo "SZS status Theorem" >&2')
        assert attempt.status is ProofStatus.THM

    def test_unknown_without_szs_but_clean_exit(self, tmp_path):
        attempt = run(tmp_path, 'echo "all fine"')
        assert attempt.status is ProofStatus.UNK

    def test_nonzero_exit_without_szs_is_error(self, tmp_path):
        attempt = run(tmp_path, "exit 3")
        assert attempt.status is ProofStatus.ERR

    def test_missing_executable(self, tmp_path):
        spec = ProverSpec(
            "ghost", ProverKind.EXTERNAL_TPTP, ("/no/such/prover", "{file}")
        )
        attempt = prove_external(TPTP, spec, 5, workdir=tmp_path)
        assert attempt.status is ProofStatus.ERR
        assert "spawn failure" in attempt.output

    def test_overrunning_process_is_killed(self, tmp_path):
        start = time.monotonic()
        attempt = run(tmp_path, "sleep 30", timeout=1)
        assert attempt.status is ProofStatus.TMO
        assert time.monotonic() - start <= 1 + GRACE_SECONDS + 0.5

    def test_problem_file_receives_the_tptp_text(self, tmp_path):
        attempt = run(tmp_path, 'cat "$1"; echo "SZS status Theorem"')
        assert "fof(ax1, axiom, p)." in attempt.output

    def test_keep_file(self, tmp_path):
        run(tmp_path, 'echo "SZS status Theorem"', keep_file=True)
        kept = list(tmp_path.glob("problem_*.p"))
        assert kept and TPTP == kept[0].read_text()

    def test_command_template_requires_tokens(self):
        with pytest.raises(ValueError):
            ProverSpec("bad", ProverKind.EXTERNAL_TPTP, ())
