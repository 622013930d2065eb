"""Byte-for-byte CLI output on the fixture corpus, against files recorded
from a known-good build: `analyze`, `combine` (stdout and stderr), `graph`
in both formats, `logics`, and `prove` JSON with the wall times removed.

A refactoring must leave every one of these unchanged. When an output change
is intended, re-record with `PYTHONPATH=src python tests/test_golden.py` and
review the diff of `tests/fixtures/golden/`.
"""

import contextlib
import io
import json

import pytest

from dolkit.cli import main

from conftest import FIXTURES

GOLDEN = FIXTURES / "golden"
REPO = str(FIXTURES)
FAMILY = str(FIXTURES / "family.dol")
ALIGNMENTS = str(FIXTURES / "alignments.dol")

# golden file stem -> argv; each case records stdout and stderr
CASES = {
    "analyze-family": ["--repo", REPO, "analyze", FAMILY],
    "analyze-alignments": ["--repo", REPO, "analyze", ALIGNMENTS],
    "combine-space": ["--repo", REPO, "combine", ALIGNMENTS, "--ontology", "Space"],
    "graph-family-dot": ["--repo", REPO, "graph", FAMILY, "--format", "dot"],
    "graph-family-json": ["--repo", REPO, "graph", FAMILY, "--format", "json"],
    "graph-alignments-dot": ["--repo", REPO, "graph", ALIGNMENTS, "--format", "dot"],
    "graph-alignments-json": ["--repo", REPO, "graph", ALIGNMENTS, "--format", "json"],
    "logics": ["logics"],
    "prove-family": ["--repo", REPO, "prove", FAMILY, "--workers", "1"],
}


def _without_wall_time(out: str) -> str:
    report = json.loads(out)
    for attempt in report["attempts"]:
        del attempt["wall_time"]
    return json.dumps(report, indent=2) + "\n"


def outputs(stem: str) -> tuple[str, str]:
    """(stdout, stderr) of one case; `prove` keeps only its JSON, without
    wall times, since its stderr lines carry timings."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(CASES[stem])
    assert code == 0, (stem, err.getvalue())
    if stem.startswith("prove-"):
        return _without_wall_time(out.getvalue()), ""
    return out.getvalue(), err.getvalue()


@pytest.mark.parametrize("stem", sorted(CASES))
def test_output_matches_golden(stem):
    out, err = outputs(stem)
    assert out == (GOLDEN / f"{stem}.out").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{stem}.err").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem in CASES:
        out, err = outputs(stem)
        (GOLDEN / f"{stem}.out").write_text(out, encoding="utf-8")
        (GOLDEN / f"{stem}.err").write_text(err, encoding="utf-8")
