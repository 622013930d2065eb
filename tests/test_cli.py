"""CLI commands, exit-code contract, and JSON schema validation."""

import json
from importlib import resources
from pathlib import Path

import jsonschema

from dolkit.cli import main

from conftest import FIXTURES


def schema(name: str) -> dict:
    return json.loads(
        resources.files("dolkit").joinpath(f"schemas/{name}").read_text()
    )


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAMILY = str(FIXTURES / "family.dol")
ALIGNMENTS = str(FIXTURES / "alignments.dol")
REPO = str(FIXTURES)


class TestAnalyze:
    def test_family_report(self, capsys):
        code, out, err = run(capsys, "--repo", REPO, "analyze", FAMILY)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("analysis.schema.json"))
        assert [o["name"] for o in report["ontologies"]] == [
            "scenario",
            "genealogy",
            "CQbase",
            "chrisFather",
            "doraChildChris",
            "chrisFemale",
            "amyOlderDora",
        ]
        assert [ob["name"] for ob in report["obligations"]] == [
            "chrisFather",
            "doraChildChris",
            "chrisFemale",
            "amyOlderDora",
        ]
        assert all(ob["base"] == "CQbase" for ob in report["obligations"])

    def test_alignment_report(self, capsys):
        code, out, _ = run(capsys, "--repo", REPO, "analyze", ALIGNMENTS)
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, schema("analysis.schema.json"))
        assert [a["name"] for a in report["alignments"]] == [
            "DolceLite2BFO",
            "DolceLite2GFO",
            "BFO2GFO",
        ]
        assert [len(a["correspondences"]) for a in report["alignments"]] == [9, 12, 8]
        assert any(o["name"] == "Space" for o in report["ontologies"])

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "--repo", REPO, "analyze", FAMILY)
        _, second, _ = run(capsys, "--repo", REPO, "analyze", FAMILY)
        assert first == second

    def test_deterministic_across_processes_and_hash_seeds(self):
        import os
        import subprocess
        import sys

        def run_once(seed: str) -> bytes:
            env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"}
            if "PYTHONPATH" in os.environ:  # dolkit may run from a checkout
                env["PYTHONPATH"] = os.environ["PYTHONPATH"]
            return subprocess.run(
                [sys.executable, "-m", "dolkit", "--repo", REPO, "analyze", FAMILY],
                capture_output=True,
                env=env,
                check=True,
            ).stdout

        assert run_once("1") == run_once("4242")

    def test_parse_failure_gives_error_json_and_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.dol"
        bad.write_text("ontology = broken")
        code, out, _ = run(capsys, "analyze", str(bad))
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["type"] == "ParseError"

    def test_deeply_nested_fragment_gives_error_json_and_exit_1(self, capsys, tmp_path):
        deep = tmp_path / "deep.dol"
        deep.write_text(
            "logic TPTP\nontology X = { fof(a, axiom, " + "(" * 1200 + "p" + ")" * 1200 + "). }\n"
        )
        code, out, err = run(capsys, "analyze", str(deep))
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "NestingTooDeep",
            "message": "input nests deeper than the recursion limit",
        }
        assert "Traceback" not in err

    def test_empty_file_fails(self, capsys, tmp_path):
        empty = tmp_path / "empty.dol"
        empty.write_text("")
        code, out, _ = run(capsys, "analyze", str(empty))
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_report_counts_match_the_underlying_theories(self, capsys):
        from dolkit.dolparse import RepoConfig, parse_document
        from dolkit.structure import Env, flatten_definition

        _, out, _ = run(capsys, "--repo", REPO, "analyze", FAMILY)
        report = json.loads(out)
        doc = parse_document(Path(FAMILY).read_text())
        env = Env(doc, RepoConfig.from_file(Path(REPO) / "repo.json"))
        for entry in report["ontologies"]:
            item = next(i for i in doc.ontology_defs() if i.name == entry["name"])
            theory = flatten_definition(item, env)
            assert len(entry["symbols"]) == len(theory.signature.symbols)
            assert len(entry["sentences"]) == len(theory.sentences)

    def test_unresolved_correspondence_fails_analysis(self, capsys, tmp_path):
        doc = tmp_path / "bad_alignment.dol"
        doc.write_text(
            "%prefix( dolce: <http://www.loa-cnr.it/ontologies/> "
            "gfo: <http://www.onto-med.de/ontologies/> )%\n"
            "logic OWL\n"
            "alignment Bad : dolce:DOLCE-Lite.owl to gfo:gfo.owl = ghost = Entity end\n"
        )
        code, out, _ = run(capsys, "--repo", REPO, "analyze", str(doc))
        assert code == 1
        assert json.loads(out)["error"]["type"] == "UnresolvedCorrespondence"

    def test_dolkit_repo_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("DOLKIT_REPO", REPO)
        code, out, _ = run(capsys, "analyze", FAMILY)
        assert code == 0
        assert len(json.loads(out)["obligations"]) == 4

    def test_repo_flag_overrides_env_var(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("DOLKIT_REPO", str(tmp_path))  # empty, would fail
        code, _, _ = run(capsys, "--repo", REPO, "analyze", FAMILY)
        assert code == 0


class TestProve:
    def test_family_defaults_all_thm(self, capsys):
        code, out, _ = run(capsys, "--repo", REPO, "prove", FAMILY, "--timeout", "10")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema("attempts.schema.json"))
        assert [a["status"] for a in payload["attempts"]] == ["THM"] * 4

    def test_single_theorem_filter(self, capsys):
        code, out, _ = run(
            capsys,
            "--repo", REPO,
            "prove", FAMILY,
            "--theorem", "chrisFather",
            "--timeout", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert [a["obligation"] for a in payload["attempts"]] == ["chrisFather"]

    def test_unknown_theorem_is_an_analysis_error(self, capsys):
        code, out, _ = run(capsys, "--repo", REPO, "prove", FAMILY, "--theorem", "nope")
        assert code == 1
        assert "nope" in json.loads(out)["error"]["message"]

    def test_axioms_and_sine_conflict(self, capsys):
        code, _, err = run(
            capsys,
            "--repo", REPO,
            "prove", FAMILY,
            "--axioms", "a",
            "--sine", "1,1,0",
        )
        assert code == 64
        assert "mutually exclusive" in err

    def test_sine_flag_parses(self, capsys):
        code, out, _ = run(
            capsys, "--repo", REPO, "prove", FAMILY, "--sine", "2.0,0,0"
        )
        assert code == 0
        payload = json.loads(out)
        assert all(a["status"] == "THM" for a in payload["attempts"])

    def test_manual_axioms_yield_non_thm_exit(self, capsys):
        # restricting to a single scenario fact starves the conjectures
        code, out, _ = run(
            capsys,
            "--repo", REPO,
            "prove", FAMILY,
            "--theorem", "chrisFather",
            "--axioms", "scenario_1",
            "--timeout", "5",
        )
        assert code == 2
        [attempt] = json.loads(out)["attempts"]
        assert attempt["status"] == "CSAS"
        assert attempt["config"]["strict_subset"] is True

    def test_external_prover_stub(self, capsys, tmp_path):
        import stat

        stub = tmp_path / "prover.sh"
        stub.write_text("#!/bin/sh\necho 'SZS status Theorem'\n")
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        code, out, _ = run(
            capsys,
            "--repo", REPO,
            "prove", FAMILY,
            "--theorem", "chrisFather",
            "--prover", f"stub={stub} {{file}} {{timeout}}",
        )
        assert code == 0
        [attempt] = json.loads(out)["attempts"]
        assert attempt["prover"] == "stub" and attempt["status"] == "THM"

    def test_unknown_prover_is_usage_error(self, capsys):
        code, _, err = run(capsys, "--repo", REPO, "prove", FAMILY, "--prover", "vampire")
        assert code == 64
        assert "unknown prover 'vampire' (use internal-fol, internal-prop, or id=command)" in err

    def test_keep_temp_retains_tptp_files(self, capsys, tmp_path, monkeypatch):
        import stat
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        stub = tmp_path / "prover.sh"
        stub.write_text("#!/bin/sh\necho 'SZS status Theorem'\n")
        stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
        code, _, err = run(
            capsys,
            "--repo", REPO,
            "prove", FAMILY,
            "--theorem", "chrisFather",
            "--prover", f"stub={stub} {{file}} {{timeout}}",
            "--keep-temp",
        )
        assert code == 0
        assert "TPTP files kept under" in err
        kept_dirs = list(tmp_path.glob("dolkit_*"))
        assert kept_dirs and list(kept_dirs[0].glob("chrisFather_*.p"))


class TestCombine:
    def test_space_output_parses_as_simpledl(self, capsys):
        code, out, err = run(
            capsys, "--repo", REPO, "combine", ALIGNMENTS, "--ontology", "Space"
        )
        assert code == 0
        from dolkit.dolparse import parse_document
        from dolkit.logics.simpledl import SimpleDlLogic

        prefixes = parse_document(Path(ALIGNMENTS).read_text()).prefix_map
        theory = SimpleDlLogic().parse_theory(out, "Space", prefixes=prefixes)
        assert len(theory.sentences) > 10
        assert "merged symbol classes:" in err
        assert "IndependentContinuant__Presential__endurant" in err

    def test_not_a_combine(self, capsys):
        code, out, _ = run(
            capsys, "--repo", REPO, "combine", FAMILY, "--ontology", "CQbase"
        )
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotACombine"

    def test_missing_definition(self, capsys):
        code, _, _ = run(
            capsys, "--repo", REPO, "combine", FAMILY, "--ontology", "Nope"
        )
        assert code == 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "space.omn"
        code, _, _ = run(
            capsys,
            "--repo", REPO,
            "combine", ALIGNMENTS,
            "--ontology", "Space",
            "--out", str(target),
        )
        assert code == 0 and target.is_file()


class TestGraph:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "--repo", REPO, "graph", ALIGNMENTS, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count('[label="CombineInjection"]') == 3

    def test_json_output_validates(self, capsys):
        code, out, _ = run(capsys, "--repo", REPO, "graph", FAMILY, "--format", "json")
        assert code == 0
        jsonschema.validate(json.loads(out), schema("graph.schema.json"))

    def test_unknown_format_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "graph", FAMILY, "--format", "svg")
        assert code == 64


class TestLogics:
    def test_full_listing(self, capsys):
        code, out, _ = run(capsys, "logics")
        assert code == 0
        lines = out.splitlines()
        assert "Logic FOL" in lines
        assert any(l.startswith("Mapping dl2fol SimpleDL->FOL") for l in lines)

    def test_category_filter(self, capsys):
        code, out, _ = run(capsys, "logics", "--category", "Mapping")
        assert code == 0
        assert all(l.startswith("Mapping ") for l in out.splitlines())
        assert len(out.splitlines()) == 3

    def test_invalid_category(self, capsys):
        code, _, _ = run(capsys, "logics", "--category", "Nonsense")
        assert code == 64


class TestExitCodeContract:
    def test_contract_over_fixture_corpus(self, capsys, tmp_path):
        # (argv, expected exit code) pairs covering 0, 1, 2, and 64
        bad = tmp_path / "broken.dol"
        bad.write_text("logic OWL\nontology X = combine Ghost")
        cases = [
            (["--repo", REPO, "analyze", FAMILY], 0),
            (["--repo", REPO, "analyze", ALIGNMENTS], 0),
            (["analyze", str(bad)], 1),
            (["--repo", REPO, "prove", FAMILY], 0),
            (
                ["--repo", REPO, "prove", FAMILY, "--theorem", "chrisFather",
                 "--axioms", "scenario_1"],
                2,
            ),
            (["--repo", REPO, "prove", FAMILY, "--axioms", "a", "--sine", "1,0,0"], 64),
            (["--repo", REPO, "graph", FAMILY, "--format", "json"], 0),
            (["logics", "--category", "Logic"], 0),
        ]
        for argv, expected in cases:
            code, _, _ = run(capsys, *argv)
            assert code == expected, argv


class TestInProcess:
    def test_redirected_streams_are_released(self):
        # callers such as the benchmark run main() many times in one process,
        # each time into fresh buffers; none of them may outlive its run
        import contextlib
        import gc
        import io
        import weakref

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["--repo", REPO, "combine", ALIGNMENTS, "--ontology", "Space"]) == 0
        assert out.getvalue() and err.getvalue()
        refs = [weakref.ref(out), weakref.ref(err)]
        del out, err
        gc.collect()
        assert [r() for r in refs] == [None, None]
