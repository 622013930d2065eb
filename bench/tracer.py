"""Outside-in tracing of dolkit's layers.

For the duration of one job, `Tracer.job()` rebinds public layer functions
in the modules that call them (`dolkit.cli`, `dolkit.structure`,
`dolkit.prove.orchestrate`) to wrappers that record a span per call: name,
start, end, parent span and the job it belongs to, plus a few counts read
from arguments and results; then it restores the originals. Nothing under
`src/` changes. Spans stay in memory until the run ends.

Attempts run on `prove_all`'s worker threads; a span opened on a thread
with no open span of its own takes the innermost open span of the job's
own thread (that `prove_all` call) as its parent.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import dolkit.cli as cli_mod
import dolkit.prove.orchestrate as orchestrate_mod
import dolkit.structure as structure_mod

ROOT = "cli.main"


_PROCESSED = re.compile(r"(\d+) processed clauses")


def _prop_info(args: tuple, result: Any) -> dict:
    return {"status": result.status.value}


def _fol_info(args: tuple, result: Any) -> dict:
    m = _PROCESSED.search(result.output)
    return {"status": result.status.value, "processed": int(m.group(1)) if m else None}


def _attempt_info(args: tuple, result: Any) -> dict:
    selection = args[2]
    return {"infra": len(result.provided_axioms) - len(selection.chosen)}


def _sine_info(args: tuple, result: Any) -> dict:
    return {"chosen": len(result.chosen), "available": len(args[0].axioms)}


# (module, attribute, span name, info from (args, result))
TARGETS: list[tuple[Any, str, str, Callable[[tuple, Any], dict] | None]] = [
    (cli_mod, "parse_document", "dolparse.parse_document", None),
    (cli_mod, "extract_obligations", "structure.extract_obligations", None),
    (cli_mod, "combine_details", "structure.combine_details", None),
    (cli_mod, "prove_all", "prove.prove_all", None),
    (structure_mod.Env, "load_iri", "structure.load_iri", None),
    (structure_mod, "flatten", "structure.flatten", None),
    (structure_mod, "combine_details", "structure.combine_details", None),
    (structure_mod, "resolve_alignments", "structure.resolve_alignments", None),
    (structure_mod, "build_diagram", "structure.build_diagram", None),
    (structure_mod, "colimit", "structure.colimit", None),
    (structure_mod, "translate_along", "mappings.translate_along", None),
    (orchestrate_mod, "run_attempt", "prove.run_attempt", _attempt_info),
    (orchestrate_mod, "sine_select_from_symbols", "select.sine", _sine_info),
    (orchestrate_mod, "translate_along", "mappings.translate_along", None),
    (orchestrate_mod, "prove_fol_internal", "prove.fol", _fol_info),
    (orchestrate_mod, "prove_prop", "prove.prop", _prop_info),
]
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


@dataclass
class Span:
    job: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job: int | None = None
        self._job_stack: list[Span] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        above = stack[-1] if stack else (self._job_stack[-1] if self._job_stack else None)
        span = Span(self._job, next(self._ids), above.id if above else None, name, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if info is not None:
                span.info = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _install(self) -> None:
        for owner, attr, name, info in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def job(self, fn: Callable[[], Any]) -> tuple[Any, list[Span]]:
        """Run one job traced, under a root span; returns its result and
        its spans, which share one job id."""
        self._job = next(self._ids)
        self._job_stack = self._stack()
        self._install()
        try:
            root = self._open(ROOT)
            try:
                result = fn()
            finally:
                self._close(root)
        finally:
            self._uninstall()
            self._job = None
        spans, self.spans = self.spans, []
        return result, spans


# -- aggregation -------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


@dataclass
class JobSpans:
    """Per-span-name totals for one job."""

    total: dict[str, float]  # outermost spans only, so recursion counts once
    self_time: dict[str, float]  # span minus the part its children cover
    calls: dict[str, int]
    spans: list[Span]


def summarize_job(spans: list[Span]) -> JobSpans:
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        kids = [(c.start, c.end) for c in children.get(s.id, ())]
        self_time[s.name] = self_time.get(s.name, 0.0) + (s.end - s.start) - _covered(kids, s.start, s.end)
        calls[s.name] = calls.get(s.name, 0) + 1
        up, nested = s.parent, False
        while up is not None:
            if by_id[up].name == s.name:
                nested = True
                break
            up = by_id[up].parent
        if not nested:
            total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
    return JobSpans(total, self_time, calls, spans)


def layer_metrics(
    jobs: list[JobSpans], window: list[JobSpans], workers: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: times are seconds per job over `jobs`; counts and
    ratios come from `window`, a fixed prefix of the jobs, so that they
    repeat exactly across runs of one seed. Counts are per job, except
    resolve_alignments calls (per combine_details call), processed clauses
    (per THM attempt) and infrastructure axioms (per attempt)."""
    n = max(len(jobs), 1)
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = (sum(j.total.get(name, 0.0) for j in jobs) / n, "s")
        out[f"{name}.self_s"] = (sum(j.self_time.get(name, 0.0) for j in jobs) / n, "s")
    out["cli.self.s"] = (sum(j.self_time.get(ROOT, 0.0) for j in jobs) / n, "s")
    attempts = sum(j.total.get("prove.run_attempt", 0.0) for j in jobs)
    prove_all = sum(j.total.get("prove.prove_all", 0.0) for j in jobs)
    out["prove.parallel_efficiency"] = (attempts / (prove_all * workers) if prove_all else 0.0, "ratio")

    w = max(len(window), 1)
    spans = [s for j in window for s in j.spans]

    def calls(name: str) -> int:
        return sum(j.calls.get(name, 0) for j in window)

    out["select.sine.calls"] = (calls("select.sine") / w, "count")
    out["structure.load_iri.calls"] = (calls("structure.load_iri") / w, "count")
    combines = calls("structure.combine_details")
    out["structure.resolve_alignments.calls"] = (
        calls("structure.resolve_alignments") / combines if combines else 0.0,
        "count",
    )
    fol = [s for s in spans if s.name == "prove.fol"]
    thm = [s.info["processed"] for s in fol if s.info.get("status") == "THM"]
    out["prove.fol.processed_clauses"] = (sum(thm) / len(thm) if thm else 0.0, "count")
    out["prove.fol.tmo"] = (sum(s.info.get("status") == "TMO" for s in fol) / w, "count")
    prop = [s for s in spans if s.name == "prove.prop"]
    out["prove.prop.tmo"] = (sum(s.info.get("status") == "TMO" for s in prop) / w, "count")
    runs = [s.info["infra"] for s in spans if s.name == "prove.run_attempt" and s.info]
    out["mappings.infra_axioms"] = (sum(runs) / len(runs) if runs else 0.0, "count")
    sine = [s.info for s in spans if s.name == "select.sine" and s.info]
    available = sum(i["available"] for i in sine)
    out["select.selected_ratio"] = (
        sum(i["chosen"] for i in sine) / available if available else 0.0,
        "ratio",
    )
    return out
