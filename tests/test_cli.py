"""CLI commands, exit-code contract, and JSON schema validation."""

import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from dolkit import cli
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

    def test_deeply_nested_fragment_is_analyzed(self, capsys, tmp_path):
        deep = tmp_path / "deep.dol"
        deep.write_text(
            "logic TPTP\nontology X = { fof(a, axiom, " + "(" * 1200 + "p" + ")" * 1200 + "). }\n"
        )
        code, out, err = run(capsys, "analyze", str(deep))
        assert code == 0
        [ontology] = json.loads(out)["ontologies"]
        assert ontology["sentences"] == [{"label": "a", "role": "Axiom", "text": "p"}]
        assert "Traceback" not in err

    def test_recursion_error_gives_error_json_and_exit_1(self, capsys, monkeypatch):
        # the prover's term walks still recurse
        def too_deep(*args):
            raise RecursionError

        monkeypatch.setattr(cli, "build_analysis_report", too_deep)
        code, out, err = run(capsys, "analyze", FAMILY)
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "NestingTooDeep",
            "message": "input nests deeper than the recursion limit",
        }
        assert "Traceback" not in err

    def test_definition_cycle_gives_error_json_and_exit_1(self, capsys, tmp_path):
        doc = tmp_path / "cycle.dol"
        doc.write_text("logic Propositional\nontology A = B and { p }\nontology B = A and { q }\n")
        code, out, _ = run(capsys, "analyze", str(doc))
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "DolkitError",
            "message": "import cycle through 'A'",
        }

    def test_combine_cycle_through_an_alignment_side_gives_error_json(self, capsys, tmp_path):
        doc = tmp_path / "combine_cycle.dol"
        doc.write_text(
            "logic OWL\n"
            "ontology O = { Class: A }\n"
            "alignment Al : combine Al to O = A = A\n"
            "ontology C = combine Al\n"
        )
        code, out, _ = run(capsys, "analyze", str(doc))
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "DolkitError",
            "message": "combine cycle through 'Al'",
        }

    def test_nested_combine_as_an_alignment_side(self, capsys, tmp_path):
        doc = tmp_path / "nested_combine.dol"
        doc.write_text(
            "logic OWL\n"
            "ontology O = { Class: A }\n"
            "ontology P = { Class: B }\n"
            "alignment Al : O to P = A = B\n"
            "alignment Bl : combine Al to O = A__B = A\n"
            "ontology C = combine Bl\n"
        )
        code, _, _ = run(capsys, "analyze", str(doc))
        assert code == 0
        code, out, _ = run(capsys, "combine", str(doc), "--ontology", "C")
        assert code == 0
        assert out == "Class: A__A__B\n"

    def test_combine_of_an_alignment_and_one_whose_side_combines_it(self, capsys, tmp_path):
        # Bl's side needs Al again, but Al's own sides are O and P: no cycle
        doc = tmp_path / "combine_both.dol"
        doc.write_text(
            "logic OWL\n"
            "ontology O = { Class: A }\n"
            "ontology P = { Class: B }\n"
            "alignment Al : O to P = A = B\n"
            "alignment Bl : combine Al to O = A__B = A\n"
            "ontology C = combine Al, Bl\n"
        )
        code, out, _ = run(capsys, "combine", str(doc), "--ontology", "C")
        assert code == 0
        assert out == "Class: A__A__B__B\n"

    @pytest.mark.parametrize(
        "language, fragment, position",
        [
            ("Propositional", "{ p and }", "4:21"),
            ("Propositional", "{ p\n  q and }", "5:8"),  # later lines start at column 1
            ("TPTP", "{ fof(a, axiom, p &). }", "4:33"),
            ("TPTP", "{ fof(a, axiom, p).\n  fof(b, axiom, q).\n  fof(a, axiom, r). }", "6:7"),
            ("OWL", "{ Class: A SubClassOf: }", "4:37"),
            ("OWL", "{ Class: x:A }", "4:23"),
        ],
    )
    def test_fragment_error_gives_its_document_position(
        self, capsys, tmp_path, language, fragment, position
    ):
        doc = tmp_path / "bad_fragment.dol"
        doc.write_text(f"logic {language}\n\n\nontology A = {fragment}\n")
        code, out, _ = run(capsys, "analyze", str(doc))
        assert code == 1
        assert json.loads(out)["error"]["message"].startswith(position + ": ")

    def _prefix_iri_document(self, tmp_path, frame: str) -> str:
        doc = tmp_path / "prefix_iri.dol"
        doc.write_text(
            "%prefix( f: <https://example.org/f/> )%\nlogic OWL\n"
            f"ontology T = {{ Class: f:Person\n  {frame} }}\n"
        )
        return str(doc)

    def test_prefix_iri_as_frame_subject_is_a_parse_error(self, capsys, tmp_path):
        doc = self._prefix_iri_document(tmp_path, "Individual: <https://example.org/f/>  Types: f:Person")
        code, out, err = run(capsys, "analyze", doc)
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "ParseError",
            "message": "4:15: IRI <https://example.org/f/> has no local name",
        }
        assert "Traceback" not in err

    def test_prefix_iri_in_class_expression_is_a_parse_error(self, capsys, tmp_path):
        doc = self._prefix_iri_document(tmp_path, "Individual: f:ann  Types: <https://example.org/f/>")
        code, out, err = run(capsys, "analyze", doc)
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "ParseError",
            "message": "4:29: IRI <https://example.org/f/> has no local name",
        }
        assert "Traceback" not in err

    def test_a_3000_conjunct_axiom_is_analyzed_and_proved(self, capsys, tmp_path):
        doc = tmp_path / "deep.dol"
        conjunction = " and ".join(f"x{i}" for i in range(3000))
        doc.write_text(f"logic Prop\nontology B = {{ {conjunction} }}\nontology Q = B then {{ x0 }}\n")
        code, _, _ = run(capsys, "analyze", str(doc))
        assert code == 0
        for prover in ("internal-prop", "internal-fol"):
            code, out, _ = run(capsys, "prove", "--prover", prover, str(doc))
            assert code == 0
            assert [a["status"] for a in json.loads(out)["attempts"]] == ["THM"]

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

    def test_then_from_an_owl_file_to_tptp_is_a_fol_extension(self, capsys, tmp_path):
        doc = tmp_path / "owl_then_tptp.dol"
        doc.write_text(
            "logic OWL\n"
            "ontology T = <https://example.org/family/scenario>\n"
            "logic TPTP\n"
            "ontology E = T then { fof(x, axiom, foo). }\n"
        )
        code, out, _ = run(capsys, "--repo", REPO, "analyze", str(doc))
        assert code == 0
        report = json.loads(out)
        assert [(o["name"], o["logic"]) for o in report["ontologies"]] == [
            ("T", "SimpleDL"), ("E", "FOL"),
        ]
        assert report["obligations"] == []

    @pytest.mark.parametrize(
        "fragment, position",
        [
            ("{ fof(e, axiom, a = b). }", "2:32"),
            ("<https://example.org/t/e.p>", "1:17"),  # the file's own position
        ],
    )
    def test_an_equality_atom_is_rejected_at_its_position(
        self, capsys, tmp_path, fragment, position
    ):
        (tmp_path / "repo.json").write_text('{"https://example.org/t/": "t"}')
        (tmp_path / "t").mkdir()
        (tmp_path / "t" / "e.p").write_text("fof(e, axiom, a != b).\n")
        doc = tmp_path / "equality.dol"
        doc.write_text(f"logic TPTP\nontology A = {fragment}\n")
        code, out, _ = run(capsys, "analyze", str(doc))
        assert code == 1
        assert json.loads(out)["error"] == {
            "type": "UnknownConstruct",
            "message": f"{position}: equality atoms are not enabled",
        }

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

    def test_a_tptp_neq_predicate_is_not_captured_by_dl2fol(self, capsys, tmp_path):
        # OWL makes no unique-name assumption, so dl2fol adds no facts over
        # the scenario's individuals that a user's own `neq` could read
        doc = tmp_path / "neq.dol"
        doc.write_text(
            "logic OWL\n"
            "ontology scenario = <https://example.org/family/scenario>\n"
            "logic TPTP\n"
            "ontology R = { fof(u, axiom, ![X,Y]: ~neq(X,Y)). fof(p, axiom, q). }\n"
            "ontology B = scenario and R\n"
            "ontology Q = B then { fof(c, conjecture, ~q). }\n"
        )
        code, out, _ = run(capsys, "--repo", REPO, "prove", str(doc))
        assert code == 2
        [attempt] = json.loads(out)["attempts"]
        assert attempt["status"] == "CSA"
        assert attempt["used_axioms"] is None
        assert attempt["config"]["provided_axioms"] == [
            *(f"scenario_{i}" for i in range(1, 8)), "u", "p",
        ]

    def test_then_from_propositional_to_tptp_gives_one_obligation(self, capsys, tmp_path):
        doc = tmp_path / "prop_then_tptp.dol"
        doc.write_text(
            "logic Propositional\n"
            "ontology P = { p\n p impl q }\n"
            "logic TPTP\n"
            "ontology Q = P then { fof(c, conjecture, q). }\n"
        )
        code, out, _ = run(capsys, "analyze", str(doc))
        assert code == 0
        assert json.loads(out)["obligations"] == [{"name": "Q", "base": "P", "conjecture": "q"}]
        code, out, _ = run(capsys, "prove", str(doc))
        assert code == 0
        [attempt] = json.loads(out)["attempts"]
        assert attempt["status"] == "THM"
        assert attempt["used_axioms"] == ["P_1", "P_2"]

    def test_cqs_in_another_logic_share_one_selection_of_their_base(self, capsys, tmp_path):
        # the base is translated once, so both obligations have one background
        # theory and SInE selects once for the union of their symbols
        doc = tmp_path / "shared_base.dol"
        doc.write_text(
            "logic Propositional\n"
            "ontology P = { p\n p impl q\n r\n r impl s }\n"
            "logic TPTP\n"
            "ontology Q = P then { fof(c, conjecture, q). }\n"
            "ontology S = P then { fof(c, conjecture, s). }\n"
        )
        code, out, _ = run(capsys, "prove", "--sine", "1.0,0,0", str(doc))
        assert code == 0
        attempts = json.loads(out)["attempts"]
        assert [(a["obligation"], a["status"]) for a in attempts] == [("Q", "THM"), ("S", "THM")]
        for a in attempts:
            assert a["config"]["provided_axioms"] == ["P_1", "P_2", "P_3", "P_4"]

    def test_no_obligations_is_said_on_stderr(self, capsys, tmp_path):
        doc = tmp_path / "no_cq.dol"
        doc.write_text("logic OWL\nontology T = { Class: Person }\nontology E = T then { Class: Other }\n")
        code, out, err = run(capsys, "prove", str(doc))
        assert code == 0
        assert json.loads(out) == {"attempts": []}
        assert err == f"no obligations in {doc}\n"

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

    @pytest.mark.parametrize("category", ["Logic", "Mapping", "OntologyLanguage", "Serialization"])
    def test_category_is_its_lines_of_the_full_listing(self, capsys, category):
        _, full, _ = run(capsys, "logics")
        code, out, _ = run(capsys, "logics", "--category", category)
        assert code == 0
        expected = [l for l in full.splitlines() if l.split()[0] == category]
        assert expected and out.splitlines() == expected

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
            (["--repo", REPO, "prove", FAMILY, "--timeout", "0"], 64),
            (["--repo", REPO, "prove", FAMILY, "--timeout", "-5"], 64),
            (["--repo", REPO, "prove", FAMILY, "--workers", "-1"], 64),
            (["--repo", REPO, "prove", FAMILY, "--sine", "nan,0,0"], 64),
            (["--repo", REPO, "prove", FAMILY, "--sine", "inf,0,0"], 64),
            (["--repo", REPO, "graph", FAMILY, "--format", "json"], 0),
            (["logics", "--category", "Logic"], 0),
        ]
        for argv, expected in cases:
            code, _, _ = run(capsys, *argv)
            assert code == expected, argv


class TestStartup:
    def test_only_prove_loads_the_prover_stack(self):
        # a fresh interpreter; modules it loaded before dolkit (`site` may
        # import tempfile) do not count
        import os
        import subprocess
        import sys

        script = f"""
import contextlib, io, json, sys
before = set(sys.modules)
from dolkit.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["logics"]), main(["--repo", {REPO!r}, "analyze", {FAMILY!r}])]
    loaded = sorted(set(sys.modules) - before)
    main(["--repo", {REPO!r}, "prove", {FAMILY!r}, "--theorem", "chrisFather"])
print(json.dumps({{"codes": codes, "loaded": loaded, "after_prove": sorted(sys.modules)}}))
"""
        env = {"PATH": "/usr/bin:/bin"}
        if "PYTHONPATH" in os.environ:  # dolkit may run from a checkout
            env["PYTHONPATH"] = os.environ["PYTHONPATH"]
        result = json.loads(
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, env=env, check=True
            ).stdout
        )
        prover_stack = {"dolkit.prove", "dolkit.select", "subprocess", "tempfile", "concurrent.futures"}
        assert result["codes"] == [0, 0]
        assert "dolkit.cli" in result["loaded"]
        assert prover_stack.isdisjoint(result["loaded"])
        assert {"dolkit.prove", "dolkit.select"} <= set(result["after_prove"])


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
