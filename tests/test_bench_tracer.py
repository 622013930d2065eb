"""The benchmark's tracer (`bench/tracer.py`) still sees the prover layers.

It rebinds `run_attempt` and the internal provers as attributes of
`dolkit.prove.orchestrate` and reads the status, the processed-clause count
and the infrastructure-axiom count from what they return; a change that
hides a call from it, or changes what it reads, empties its per-layer
metrics without failing the benchmark itself.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from dolkit.dolparse import RepoConfig, parse_document
from dolkit.prove import BUILTIN_PROVERS, AttemptConfig, prove_all
from dolkit.structure import Env, extract_obligations

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def traced_prove_all(tracer_module, obligations, prover_id):
    config = AttemptConfig(
        provers=(BUILTIN_PROVERS[prover_id],), timeout_seconds=10, workers=1
    )
    attempts, spans = tracer_module.Tracer().job(lambda: prove_all(obligations, config))
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    return attempts, by_name


def test_fol_spans(tracer_module, family_doc, family_env):
    obligations = [ob for ob in extract_obligations(family_doc, family_env) if ob.name == "chrisFather"]
    [attempt], spans = traced_prove_all(tracer_module, obligations, "internal-fol")
    [run] = spans["prove.run_attempt"]
    [fol] = spans["prove.fol"]
    assert fol.parent == run.id
    assert fol.info == {"status": "THM", "processed": 51}
    infra = len(attempt.provided_axioms) - len(attempt.selection.chosen)
    assert infra > 0 and run.info == {"infra": infra}
    assert "prove.prop" not in spans


def test_prop_spans(tracer_module):
    doc = parse_document(
        "logic Prop\nontology B = { p\n p impl q }\nontology Q = B then { q }\n"
    )
    obligations = extract_obligations(doc, Env(doc, RepoConfig()))
    [attempt], spans = traced_prove_all(tracer_module, obligations, "internal-prop")
    [run] = spans["prove.run_attempt"]
    [prop] = spans["prove.prop"]
    assert prop.parent == run.id
    assert prop.info == {"status": "THM"} and attempt.status.value == "THM"
    assert run.info == {"infra": 0}
    assert "prove.fol" not in spans
