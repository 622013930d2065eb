"""Smoke check of the benchmark harness.

For every workload, runs `run.py` untraced and traced and asserts that the
result is correct and names every metric of BENCHMARK.json with its unit.
It then repeats the traced run with the same seed and asserts that the
counts later changes may cite repeat exactly.

    python3 bench/smoke.py                            # smallest sizes
    python3 bench/smoke.py --scale full --seconds 30  # full sizes
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATABLE = (
    "prove.fol.processed_clauses",
    "mappings.infra_axioms",
    "select.selected_ratio",
    "structure.resolve_alignments.calls",
    "select.sine.calls",
    "structure.load_iri.calls",
)


def run(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=("full", "smoke"), default="smoke")
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from the generators")
    problems = []
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            result = run(workload, args.seed, args.seconds, trace, args.scale)
            results[trace] = result
            metrics = result["metrics"]
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: not correct")
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != declared[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
        again = run(workload, args.seed, args.seconds, 1, args.scale)["metrics"]
        for name in REPEATABLE:
            first = results[1]["metrics"][name]["value"]
            if again[name]["value"] != first:
                problems.append(f"{workload}: {name} {first} then {again[name]['value']}")
        print(f"{workload}: " + ", ".join(f"{n}={results[1]['metrics'][n]['value']:.6g}" for n in REPEATABLE),
              flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
