"""Seeded workload generators.

A workload turns (seed, document index) into one generated document with
its input files, one `dolkit prove` job and one `dolkit combine` job, and
the verdict each obligation must get. Document i depends only on the seed,
the workload name and i, so any prefix of a run's documents repeats exactly
across runs of the same seed. Sizes are fixed per document index (the mix
repeats in every block of documents); the seed picks the instances.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracles import FamilyModel, Hierarchy, satisfiable


@dataclass
class Doc:
    files: dict[str, str]  # relative path -> text; "doc.dol" is the document
    expected: dict[str, bool]  # obligation name -> entailed
    combine_ontology: str
    check_combine: Callable[[str], str | None]  # stdout -> error or None
    prove_args: list[str]


WORKLOADS = ("cq-chain", "prop-3sat", "align-sine")
WORKERS = {"cq-chain": 2, "prop-3sat": 1, "align-sine": 1}


def _doc_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _prefix_block(prefixes: dict[str, str]) -> str:
    rows = "".join(f"    {p}: <{iri}>\n" for p, iri in prefixes.items())
    return f"%prefix(\n{rows})%\n"


# -- cq-chain ------------------------------------------------------------------------

FAMILY_IRI = "https://example.org/family/"
LIGHT_SHAPES = ("father", "mother", "not_female", "child_of")


@dataclass(frozen=True)
class CqChainSize:
    reach_n: int  # chain length of the documents within reach
    beyond_n: int  # chain length of the one document per block beyond reach
    block: int  # documents per block; the last one is beyond reach
    timeout: int


CQ_CHAIN = {
    "full": CqChainSize(reach_n=6, beyond_n=16, block=8, timeout=2),
    "smoke": CqChainSize(reach_n=4, beyond_n=6, block=2, timeout=2),
}


def _light_cq(shape: str, n: int, rng: random.Random) -> tuple[str, Callable[[FamilyModel], bool]]:
    if shape == "father":
        i = rng.randrange(0, n - 1, 2)
        return f"Individual: f:P{i} Types: f:Father", lambda m: m.has_type(i, "Father")
    if shape == "mother":
        i = rng.randrange(1, n - 1, 2)
        return f"Individual: f:P{i} Types: f:Mother", lambda m: m.has_type(i, "Mother")
    if shape == "not_female":
        i = rng.randrange(0, n, 2)
        return f"Individual: f:P{i} Types: not f:Female", lambda m: m.has_type(i, "not Female")
    i = rng.randrange(0, n - 1)
    return (
        f"Individual: f:P{i + 1} Facts: f:child_of f:P{i}",
        lambda m: m.has_fact("child_of", i + 1, i),
    )


def _older_cq(n: int, k: int, rng: random.Random) -> tuple[str, Callable[[FamilyModel], bool]]:
    i = rng.randrange(0, n - k)
    return (
        f"Individual: f:P{i} Facts: f:older_than f:P{i + k}",
        lambda m: m.has_fact("older_than", i, i + k),
    )


def cq_chain_doc(seed: int, index: int, scale: str, tbox: str) -> Doc:
    """Family TBox plus a chain ABox; two entailed CQs proved with
    `--workers 2`. One document per block is sized beyond today's reach."""
    size = CQ_CHAIN[scale]
    rng = _doc_rng("cq-chain", seed, index)
    if index % size.block == size.block - 1:
        n = size.beyond_n
        cqs = [_older_cq(n, 2, rng), _older_cq(n, 3, rng)]
    else:
        n = size.reach_n
        shape = LIGHT_SHAPES[index % len(LIGHT_SHAPES)]
        cqs = [_light_cq(shape, n, rng), _older_cq(n, 2 if n <= 6 else 1, rng)]
    model = FamilyModel(n)
    abox = []
    for i in range(n):
        frame = f"Individual: P{i}\n    Types: {'Male' if i % 2 == 0 else 'Female'}\n"
        if i + 1 < n:
            frame += f"    Facts: parent_of P{i + 1}\n"
        abox.append(frame)
    text = _prefix_block({"f": FAMILY_IRI}) + (
        "logic OWL\n"
        f"ontology TBox = <{FAMILY_IRI}familyRelations>\n"
        f"ontology ABox = <{FAMILY_IRI}chain>\n"
        "alignment TBoxABox : TBox to ABox =\n"
        "  Male = Male, Female = Female, parent_of = parent_of\n"
        "ontology Family = combine TBoxABox\n"
        "ontology Base = TBox and ABox\n"
    )
    expected = {}
    for k, (cq, entailed) in enumerate(cqs, 1):
        if not entailed(model):
            raise AssertionError(f"generated CQ is not entailed: {cq}")
        text += f"ontology Q{k} = Base then {{ {cq} }}\n"
        expected[f"Q{k}"] = True
    abox_lines = set()
    for i in range(n):
        abox_lines.add(f"Individual: f:P{i} Types: f:{'Male' if i % 2 == 0 else 'Female'}")
        if i + 1 < n:
            abox_lines.add(f"Individual: f:P{i} Facts: f:parent_of f:P{i + 1}")

    def check_combine(out: str) -> str | None:
        lines = out.splitlines()
        got = {line for line in lines if line.startswith("Individual:")}
        if got != abox_lines:
            return f"combined ABox differs: missing {sorted(abox_lines - got)[:3]}, extra {sorted(got - abox_lines)[:3]}"
        if len(lines) != FamilyModel.TBOX_SENTENCES + len(abox_lines):
            return f"combined theory has {len(lines)} lines, expected {FamilyModel.TBOX_SENTENCES + len(abox_lines)}"
        return None

    return Doc(
        files={
            "family/familyRelations.omn": tbox,
            "family/chain.omn": "".join(abox),
            "repo.json": json.dumps({FAMILY_IRI: {"path": "family", "default_logic": "SimpleDL"}}),
            "doc.dol": text,
        },
        expected=expected,
        combine_ontology="Family",
        check_combine=check_combine,
        prove_args=["--prover", "internal-fol", "--workers", str(WORKERS["cq-chain"]),
                    "--timeout", str(size.timeout)],
    )


# -- prop-3sat -----------------------------------------------------------------------

SAT_IRI = "https://example.org/sat/"


@dataclass(frozen=True)
class Prop3SatSize:
    n_cycle: tuple[int, ...]  # variables per instance, cycled within a document
    instances: int  # instances (obligations) per document
    timeout: int


PROP_3SAT = {
    "full": Prop3SatSize(n_cycle=(30, 34, 38), instances=9, timeout=30),
    "smoke": Prop3SatSize(n_cycle=(10, 12), instances=2, timeout=30),
}
CLAUSE_RATIO = 4.26


def random_3sat(n: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Uniform random 3-SAT at the clause ratio, mentioning variable 1."""
    m = round(CLAUSE_RATIO * n)
    while True:
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(m)
        ]
        if any(abs(lit) == 1 for c in clauses for lit in c):
            return clauses


def _clause_text(clause: tuple[int, ...]) -> str:
    return " or ".join(f"{'not ' if lit < 0 else ''}x{abs(lit)}" for lit in clause)


_PROP_LITERAL = re.compile(r"^(not )?s:x(\d+)$")


def _parse_clause(line: str) -> tuple[int, ...] | None:
    lits = []
    for part in line.split(" or "):
        m = _PROP_LITERAL.match(part.strip())
        if m is None:
            return None
        lits.append(-int(m.group(2)) if m.group(1) else int(m.group(2)))
    return tuple(lits)


def prop_3sat_doc(seed: int, index: int, scale: str) -> Doc:
    """Random 3-SAT instances, each its own .prop file with the CQ
    `s:x1 and not s:x1` (entailed exactly when the instance is unsatisfiable)."""
    size = PROP_3SAT[scale]
    rng = _doc_rng("prop-3sat", seed, index)
    files: dict[str, str] = {
        "repo.json": json.dumps({SAT_IRI: {"path": "sat", "default_logic": "Prop"}}),
    }
    text = _prefix_block({"s": SAT_IRI}) + "logic Prop\n"
    expected = {}
    instances = []
    for k in range(1, size.instances + 1):
        clauses = random_3sat(size.n_cycle[(k - 1) % len(size.n_cycle)], rng)
        instances.append(clauses)
        files[f"sat/i{k}.prop"] = "".join(_clause_text(c) + "\n" for c in clauses)
        text += f"ontology B{k} = <{SAT_IRI}i{k}>\n"
        text += f"ontology Q{k} = B{k} then {{ s:x1 and not s:x1 }}\n"
        expected[f"Q{k}"] = not satisfiable(clauses)
    first, second = instances[0], instances[1]
    shared = sorted(
        {abs(lit) for c in first for lit in c} & {abs(lit) for c in second for lit in c}
    )
    text += "alignment Link : B1 to B2 =\n  " + ", ".join(f"x{v} = x{v}" for v in shared) + "\n"
    text += "ontology Joint = combine Link\n"
    files["doc.dol"] = text
    want = set(first) | set(second)

    def check_combine(out: str) -> str | None:
        got = [_parse_clause(line) for line in out.splitlines()]
        if None in got:
            return "combined theory has a line that is not a clause"
        if len(got) != len(want) or set(got) != want:
            return f"combined theory has {len(set(got))} distinct clauses, expected {len(want)}"
        return None

    return Doc(
        files=files,
        expected=expected,
        combine_ontology="Joint",
        check_combine=check_combine,
        prove_args=["--prover", "internal-prop", "--workers", str(WORKERS["prop-3sat"]),
                    "--timeout", str(size.timeout)],
    )


# -- align-sine ----------------------------------------------------------------------


@dataclass(frozen=True)
class AlignSineSize:
    ontologies: int  # K hierarchies in an alignment chain
    classes: int  # C classes per hierarchy
    cqs: int  # competency questions per document
    timeout: int


ALIGN_SINE = {
    "full": AlignSineSize(ontologies=4, classes=160, cqs=3, timeout=10),
    "smoke": AlignSineSize(ontologies=2, classes=12, cqs=3, timeout=10),
}
SINE = "1.2,0,0"
HUBS = 16  # every class hangs below one of the first sixteen, so hierarchies stay shallow
EQ_SHARE = 4  # one class in four gets a same-name `=` row
SUB_SHARE = 20  # one `<` row per twenty classes


def _onto_iri(k: int) -> str:
    return f"https://example.org/o{k}/"


_DL_SUBCLASS = re.compile(r"^Class: o(\d+):C(\d+) SubClassOf: o(\d+):C(\d+)$")


def align_sine_doc(seed: int, index: int, scale: str) -> Doc:
    """K class hierarchies aligned in a chain and combined; CQs ask for
    subsumptions between classes of the first hierarchy."""
    size = ALIGN_SINE[scale]
    rng = _doc_rng("align-sine", seed, index)
    K, C = size.ontologies, size.classes
    model = Hierarchy()
    files: dict[str, str] = {
        "repo.json": json.dumps(
            {_onto_iri(k): {"path": "onto", "default_logic": "SimpleDL"} for k in range(K)}
        ),
    }
    for k in range(K):
        frames = ["Class: C0\n"]
        for i in range(1, C):
            parent = rng.randrange(min(i, HUBS))
            frames.append(f"Class: C{i}\n    SubClassOf: C{parent}\n")
            model.subclass((k, i), (k, parent))
        files[f"onto/o{k}.omn"] = "".join(frames)
    text = _prefix_block({f"o{k}": _onto_iri(k) for k in range(K)}) + "logic OWL\n"
    for k in range(K):
        text += f"ontology O{k} = <{_onto_iri(k)}o{k}>\n"
    for k in range(1, K):
        rows = []
        for i in sorted(rng.sample(range(C), C // EQ_SHARE)):
            rows.append(f"C{i} = C{i}")
            model.merge((k - 1, i), (k, i))
        for _ in range(max(1, C // SUB_SHARE)):
            x, y = rng.randrange(C), rng.randrange(C)
            rows.append(f"C{x} < C{y}")
            model.subclass((k - 1, x), (k, y))
        text += f"alignment A{k} : O{k - 1} to O{k} =\n  " + ",\n  ".join(rows) + "\n"
    text += "ontology Space = combine " + ", ".join(f"A{k}" for k in range(1, K)) + "\n"
    expected = {}
    for j in range(1, size.cqs + 1):
        if j % 3:  # two in three ask for an ancestor; every class but C0 has one
            x = rng.randrange(1, C)
            anc = model.ancestors((0, x))
            y = rng.choice([y for y in range(C) if y != x and model.find((0, y)) in anc])
        else:
            x, y = rng.sample(range(C), 2)
        text += f"ontology Q{j} = Space then {{ Class: o0:C{x} SubClassOf: o0:C{y} }}\n"
        expected[f"Q{j}"] = model.entails((0, x), (0, y))
    files["doc.dol"] = text
    want = model.edges()

    def check_combine(out: str) -> str | None:
        got = set()
        for line in out.splitlines():
            m = _DL_SUBCLASS.match(line)
            if m is None:
                return f"unexpected line in combined theory: {line!r}"
            a, i, b, j = map(int, m.groups())
            got.add((model.find((a, i)), model.find((b, j))))
        if got != want:
            return f"combined hierarchy has {len(got)} edges, expected {len(want)}"
        return None

    return Doc(
        files=files,
        expected=expected,
        combine_ontology="Space",
        check_combine=check_combine,
        prove_args=["--sine", SINE, "--workers", str(WORKERS["align-sine"]),
                    "--timeout", str(size.timeout)],
    )




def make_doc(workload: str, seed: int, index: int, scale: str, tbox: str) -> Doc:
    if workload == "cq-chain":
        return cq_chain_doc(seed, index, scale, tbox)
    if workload == "prop-3sat":
        return prop_3sat_doc(seed, index, scale)
    return align_sine_doc(seed, index, scale)


def write_doc(doc: Doc, directory: Path) -> Path:
    for rel, text in doc.files.items():
        path = directory / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return directory / "doc.dol"
