"""Command-line interface: analyze, prove, combine, graph, logics.

Exit codes: 0 success (for `prove`: every attempt THM), 1 analysis or
resolution error (machine-readable error JSON on stdout), 2 some attempt not
THM, 64 usage errors. The repository root comes from --repo, then the
DOLKIT_REPO environment variable, then a repo.json next to the input file.
"""

from __future__ import annotations

import json
import os
import shlex
import sys
from pathlib import Path

import click

from .dolparse import Combine, DolDocument, OntologyDef, RepoConfig, parse_document
from .errors import DolkitError, NestingTooDeep, NotACombine
from .kernel import get_logic
from .mappings import CATEGORIES, registry_lines
from .structure import (
    Env,
    combine_details,
    dev_graph,
    extract_obligations,
    flatten_definition,
    graph_to_dict,
    graph_to_dot,
    validate_document,
)


def _echo(message: str, err: bool = False, nl: bool = True) -> None:
    # name the stream: for a stream it looks up itself, click caches a wrapper
    # that keeps the stream alive, so each buffer that an in-process caller
    # redirects output to would stay in memory for the life of the process
    click.echo(message, nl=nl, file=sys.stderr if err else sys.stdout)


def _repo_config(repo_path: str | None, input_file: str | None) -> RepoConfig:
    path = repo_path or os.environ.get("DOLKIT_REPO")
    if path:
        p = Path(path)
        if p.is_dir():
            p = p / "repo.json"
        return RepoConfig.from_file(p)
    if input_file is not None:
        candidate = Path(input_file).parent / "repo.json"
        if candidate.is_file():
            return RepoConfig.from_file(candidate)
    return RepoConfig()


def _load(file: str, repo_path: str | None) -> tuple[DolDocument, Env]:
    text = Path(file).read_text(encoding="utf-8")
    doc = parse_document(text)
    return doc, Env(doc, _repo_config(repo_path, file))


def build_analysis_report(doc: DolDocument, env: Env) -> dict:
    """Per named ontology: logic, symbols, sentences; plus alignments,
    obligations, and the development graph. Output ordering is deterministic."""
    validate_document(doc, env)
    ontologies = []
    for item in doc.ontology_defs():
        t = flatten_definition(item, env)
        logic = get_logic(t.logic_id)
        ontologies.append(
            {
                "name": item.name,
                "logic": t.logic_id,
                "symbols": [
                    {
                        "name": s.name,
                        "kind": s.kind.value,
                        "arity": s.arity,
                        "origin": s.origin,
                    }
                    for s in t.signature.sorted_symbols()
                ],
                "sentences": [
                    {
                        "label": s.label,
                        "role": s.role.value,
                        "text": logic.print_sentence(s.ast, env.prefixes),
                    }
                    for s in t.sentences
                ],
            }
        )
    alignments = [
        {
            "name": a.name,
            "left": a.left.display if hasattr(a.left, "display") else "",
            "right": a.right.display if hasattr(a.right, "display") else "",
            "correspondences": [
                {
                    "left": c.left.display,
                    "right": c.right.display,
                    "relation": c.relation.value,
                }
                for c in a.correspondences
            ],
        }
        for a in doc.alignment_defs()
    ]
    obligations = [
        {
            "name": ob.name,
            "base": ob.theory.name,
            "conjecture": get_logic(ob.conjecture.logic_id).print_sentence(
                ob.conjecture.ast, env.prefixes
            ),
        }
        for ob in extract_obligations(doc, env)
    ]
    graph = graph_to_dict(dev_graph(doc, env))
    return {
        "ontologies": ontologies,
        "alignments": alignments,
        "obligations": obligations,
        "graph": graph,
    }


@click.group()
@click.option(
    "--repo",
    "repo_path",
    default=None,
    help="Repository root (a directory with repo.json, or a repo.json path).",
)
@click.pass_context
def cli(ctx: click.Context, repo_path: str | None) -> None:
    """dolkit: analyze, combine, and prove DOL-subset documents."""
    ctx.obj = repo_path


@cli.command("analyze")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def cmd_analyze(repo_path: str | None, file: str) -> int:
    doc, env = _load(file, repo_path)
    report = build_analysis_report(doc, env)
    _echo(json.dumps(report, indent=2))
    _echo(
        f"analyzed {len(report['ontologies'])} ontologies, "
        f"{len(report['alignments'])} alignments, "
        f"{len(report['obligations'])} obligations",
        err=True,
    )
    return 0


def prove_all(obligations, config):
    """`orchestrate.prove_all`, whose prover stack only `prove` loads."""
    from .prove.orchestrate import prove_all

    return prove_all(obligations, config)


def _parse_prover(value: str):
    from .prove import BUILTIN_PROVERS, ProverKind, ProverSpec

    if value in BUILTIN_PROVERS:
        return BUILTIN_PROVERS[value]
    if "=" in value:
        prover_id, command = value.split("=", 1)
        tokens = tuple(shlex.split(command))
        if not prover_id or not tokens:
            raise click.UsageError(f"bad external prover spec {value!r}")
        return ProverSpec(prover_id, ProverKind.EXTERNAL_TPTP, tokens)
    raise click.UsageError(
        f"unknown prover {value!r} (use {', '.join(BUILTIN_PROVERS)}, or id=command)"
    )


@cli.command("prove")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--prover", "provers", multiple=True, help="Prover id, repeatable.")
@click.option(
    "--timeout",
    default=10,
    show_default=True,
    type=click.IntRange(min=1),
    help="Per-attempt timeout (s).",
)
@click.option("--theorem", "theorems", multiple=True, help="Prove only this obligation.")
@click.option("--axioms", default=None, help="Comma-separated axiom labels.")
@click.option("--sine", default=None, help="SInE parameters TOLERANCE,DEPTH,GENERALITY.")
@click.option("--keep-temp", is_flag=True, help="Keep generated TPTP files.")
@click.option(
    "--workers",
    default=None,
    type=click.IntRange(min=0),
    help="Concurrent attempt bound (0: one per CPU).",
)
@click.pass_obj
def cmd_prove(
    repo_path: str | None,
    file: str,
    provers: tuple[str, ...],
    timeout: int,
    theorems: tuple[str, ...],
    axioms: str | None,
    sine: str | None,
    keep_temp: bool,
    workers: int | None,
) -> int:
    from .prove import AttemptConfig, ManualAxioms, attempt_to_dict
    from .select import SineParams

    if axioms is not None and sine is not None:
        raise click.UsageError("--axioms and --sine are mutually exclusive")
    selection = None
    if axioms is not None:
        selection = ManualAxioms(tuple(n.strip() for n in axioms.split(",") if n.strip()))
    elif sine is not None:
        try:
            tol, depth, gen = (part.strip() for part in sine.split(","))
            selection = SineParams(float(tol), int(depth), int(gen))
        except ValueError as e:
            raise click.UsageError(f"bad --sine value {sine!r}: {e}") from None
    doc, env = _load(file, repo_path)
    obligations = extract_obligations(doc, env)
    if theorems:
        by_name = {ob.name: ob for ob in obligations}
        missing = [n for n in theorems if n not in by_name]
        if missing:
            raise DolkitError(f"no such theorem(s): {', '.join(missing)}")
        obligations = [by_name[n] for n in theorems]
    if not obligations:
        _echo(f"no obligations in {file}", err=True)
    temp_dir = None
    if keep_temp:
        import tempfile

        temp_dir = tempfile.mkdtemp(prefix="dolkit_")
        _echo(f"TPTP files kept under {temp_dir}", err=True)
    config = AttemptConfig(
        provers=tuple(_parse_prover(p) for p in provers),
        timeout_seconds=timeout,
        selection=selection,
        workers=workers,
        temp_dir=temp_dir,
        prefixes=env.prefixes,
    )
    attempts = prove_all(obligations, config)
    _echo(json.dumps({"attempts": [attempt_to_dict(a) for a in attempts]}, indent=2))
    for a in attempts:
        _echo(f"{a.obligation}: {a.status.value} ({a.prover}, {a.wall_time:.2f}s)", err=True)
    return 0 if all(a.status.value == "THM" for a in attempts) else 2


@cli.command("combine")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--ontology", "name", required=True, help="Name of a combine definition.")
@click.option("--out", "out_path", default=None, help="Write the theory here instead of stdout.")
@click.pass_obj
def cmd_combine(repo_path: str | None, file: str, name: str, out_path: str | None) -> int:
    doc, env = _load(file, repo_path)
    item = doc.definitions().get(name)
    if item is None:
        raise DolkitError(f"no definition named {name!r}")
    if not isinstance(item, OntologyDef) or not isinstance(item.expr, Combine):
        raise NotACombine(f"{name!r} is not a combine definition")
    result = combine_details(list(item.expr.alignments), env, name)
    text = get_logic(result.theory.logic_id).print_theory(result.theory, env.prefixes)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        _echo(f"wrote {out_path}", err=True)
    else:
        _echo(text, nl=False)
    _echo("merged symbol classes:", err=True)
    for rep, members in result.merged_classes():
        if len(members) < 2:
            continue
        parts = ", ".join(f"{node}:{sym.name}" for node, sym in members)
        _echo(f"  {rep.name} <- {parts}", err=True)
    return 0


@cli.command("graph")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["dot", "json"]),
    default="dot",
    show_default=True,
)
@click.pass_obj
def cmd_graph(repo_path: str | None, file: str, fmt: str) -> int:
    doc, env = _load(file, repo_path)
    graph = dev_graph(doc, env)
    if fmt == "dot":
        _echo(graph_to_dot(graph), nl=False)
    else:
        _echo(json.dumps(graph_to_dict(graph), indent=2))
    return 0


@cli.command("logics")
@click.option("--category", type=click.Choice(sorted(CATEGORIES)), default=None)
def cmd_logics(category: str | None) -> int:
    for cat in [category] if category else CATEGORIES:
        for line in registry_lines(cat):
            _echo(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the CLI and return its exit code (no process exit)."""
    try:
        code = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as e:
        _echo(f"usage error: {e.format_message()}", err=True)
        return 64
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.exceptions.Abort:
        return 130
    except (DolkitError, RecursionError) as e:
        error = e if isinstance(e, DolkitError) else NestingTooDeep()
        _echo(json.dumps({"error": {"type": type(error).__name__, "message": str(error)}}, indent=2))
        _echo(f"error: {error}", err=True)
        return 1
    except OSError as e:
        _echo(json.dumps({"error": {"type": "IoError", "message": str(e)}}, indent=2))
        return 1
    return code if isinstance(code, int) else 0


def entry() -> None:
    sys.exit(main())
