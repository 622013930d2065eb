"""Closed-loop benchmark of `dolkit prove` and `dolkit combine`.

One client runs real CLI jobs in this process through `dolkit.cli.main`,
with stdout captured and stderr discarded, on documents generated from the
seed. Each document gets one combine job and one prove job; every verdict
is checked against the workload's oracle, every prove stdout against the
shipped attempts schema, and every exit code against the verdicts.

    python3 bench/run.py --workload cq-chain --seed 1 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics; `--trace 1` runs every job both
untraced and traced and reports per-layer metrics from the traced runs and
the tracing overhead from the difference. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema

from workloads import WORKERS, WORKLOADS, make_doc, write_doc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = SRC / "dolkit" / "schemas" / "attempts.schema.json"
FAMILY_TBOX = ROOT / "tests" / "fixtures" / "family" / "familyRelations.omn"
WORK = ROOT / ".bench_work"

TAIL_PERCENTILE = 75  # prove_s.tail; runs make at least MIN_PROVE_JOBS jobs
MIN_PROVE_JOBS = 40  # so that ten samples lie beyond the tail percentile
COUNT_WINDOW = 16  # documents whose counts must repeat across runs of a seed
SETUP_EVERY = 4  # documents between set-up samples, which spreads them over the run
MIN_SETUP_SAMPLES = 7
WALL_CAP_S = 140.0  # stop early rather than overrun the 180 s limit


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    decided: int = 0
    unsound: int = 0
    gate_errors: list[str] = field(default_factory=list)


def run_cli(main, argv: list[str]) -> tuple[int, str, float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def check_prove(code: int, stdout: str, expected: dict[str, bool], validator, tally: Tally) -> None:
    tally.attempted += len(expected)
    try:
        report = json.loads(stdout)
        validator.validate(report)
    except (ValueError, jsonschema.ValidationError) as e:
        tally.failed += len(expected)
        tally.gate_errors.append(f"prove stdout invalid: {type(e).__name__}: {str(e)[:200]}")
        return
    statuses = {a["obligation"]: a["status"] for a in report["attempts"]}
    if set(statuses) != set(expected) or len(report["attempts"]) != len(expected):
        tally.failed += len(expected)
        tally.gate_errors.append(f"attempts {sorted(statuses)} do not match obligations {sorted(expected)}")
        return
    want_code = 0 if all(s == "THM" for s in statuses.values()) else 2
    if code != want_code:
        tally.gate_errors.append(f"exit code {code}, expected {want_code} for {statuses}")
    for name, status in statuses.items():
        entailed = expected[name]
        if status == "ERR":
            tally.failed += 1
        elif (entailed and status == "CSA") or (not entailed and status == "THM"):
            tally.unsound += 1
            tally.gate_errors.append(f"unsound verdict {status} on {name} (entailed={entailed})")
        elif (entailed and status == "THM") or (not entailed and status in ("CSA", "CSAS")):
            tally.decided += 1


def check_combine(code: int, stdout: str, doc, tally: Tally) -> None:
    tally.attempted += 1
    problem = f"combine exit code {code}" if code != 0 else doc.check_combine(stdout)
    if problem:
        tally.failed += 1
        tally.gate_errors.append(problem)


def time_setup() -> float:
    """Wall time of one fresh interpreter running `dolkit logics`."""
    env = {k: v for k, v in os.environ.items() if k != "DOLKIT_REPO"}
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "dolkit", "logics"], env=env, cwd=ROOT,
                          capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or b"logic" not in proc.stdout:
        raise RuntimeError(f"`dolkit logics` failed: {proc.stderr.decode()[:300]}")
    return elapsed


def host_loop() -> float:
    """Seconds for a fixed pure-Python loop: a probe of the host's speed,
    reported beside the metrics to tell host noise from program change."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="document sizes; smoke is the smallest, for checking the harness")
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    for required in (SRC / "dolkit" / "cli.py", SCHEMA, FAMILY_TBOX):
        if not required.is_file():
            print(f"error: {required.relative_to(ROOT)} is missing; run from a dolkit checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("DOLKIT_REPO", None)
    from dolkit.cli import main as dolkit_main

    traced = bool(args.trace)
    if traced:
        from tracer import Tracer, layer_metrics, summarize_job
    validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text(encoding="utf-8")))
    tbox = FAMILY_TBOX.read_text(encoding="utf-8")
    setup_times: list[float] = []
    if not traced:
        time_setup()  # warms the bytecode and file caches; not a sample

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    prove_times: list[float] = []
    combine_times: list[float] = []
    untraced_total = traced_total = 0.0
    job_spans, window_spans = [], []
    tracer = Tracer() if traced else None

    def run_document(index: int, warm: bool) -> None:
        """Run one document's combine and prove jobs (untraced, and traced
        too under --trace 1) and gate their outputs. A warm-up document is
        run but not recorded."""
        nonlocal untraced_total, traced_total
        doc = make_doc(args.workload, args.seed, index, args.scale, tbox)
        path = str(write_doc(doc, work / f"doc{index}"))
        passes = [False, True] if traced else [False]
        if index % 2:
            passes.reverse()  # alternate which pass runs first
        for kind, argv in (
            ("combine", ["combine", "--ontology", doc.combine_ontology, path]),
            ("prove", ["prove", *doc.prove_args, path]),
        ):
            for with_trace in passes:
                if with_trace:
                    (code, out, elapsed), spans = tracer.job(lambda: run_cli(dolkit_main, argv))
                else:
                    code, out, elapsed = run_cli(dolkit_main, argv)
                if warm:
                    continue
                if kind == "prove":
                    check_prove(code, out, doc.expected, validator, tally)
                else:
                    check_combine(code, out, doc, tally)
                if with_trace:
                    traced_total += elapsed
                    job_spans.append(summarize_job(spans))
                    if index < COUNT_WINDOW:
                        window_spans.append(job_spans[-1])
                else:
                    untraced_total += elapsed
                    (prove_times if kind == "prove" else combine_times).append(elapsed)
        shutil.rmtree(work / f"doc{index}", ignore_errors=True)

    started = time.perf_counter()
    host = [host_loop()]
    index = 0
    try:
        run_document(0, warm=True)  # fills caches and finishes lazy imports
        while True:
            run_document(index, warm=False)
            if not traced and index % SETUP_EVERY == 0:
                setup_times.append(time_setup())
            index += 1
            enough = index >= (COUNT_WINDOW if traced else MIN_PROVE_JOBS)
            if untraced_total + traced_total >= args.seconds and enough:
                break
            if time.perf_counter() - started > WALL_CAP_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if traced:
        metrics = layer_metrics(job_spans, window_spans, WORKERS[args.workload])
        per_job = max(len(job_spans), 1)
        metrics["trace.overhead_s"] = ((traced_total - untraced_total) / per_job, "s")
        metrics["trace.overhead_share"] = (
            (traced_total - untraced_total) / untraced_total if untraced_total else 0.0, "ratio")
    else:
        while len(setup_times) < MIN_SETUP_SAMPLES:
            setup_times.append(time_setup())
        attempts = tally.attempted - len(combine_times)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "prove_s.p50": (statistics.median(prove_times), "s"),
            "prove_s.tail": (percentile(prove_times, TAIL_PERCENTILE), "s"),
            "combine_s.p50": (statistics.median(combine_times), "s"),
            "obligations_per_s": (tally.decided / sum(prove_times), "1/s"),
            "decided_share": (tally.decided / attempts, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    host.append(host_loop())
    info = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale, "trace": args.trace,
        "documents": index, "prove_jobs": len(prove_times), "combine_jobs": len(combine_times),
        "traced_jobs": len(job_spans), "tail_percentile": TAIL_PERCENTILE,
        "workers": WORKERS[args.workload], "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "host_loop_s": [round(h, 4) for h in host], "unsound": tally.unsound,
        "gate_errors": tally.gate_errors[:5],
    }
    print(json.dumps({"info": info}))
    correct = not tally.gate_errors
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
