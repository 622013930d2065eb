"""Registry, concrete mappings, path search, and translation faithfulness."""

import random

import pytest

from dolkit.errors import LogicMismatch, NoPath
from dolkit.kernel import Kind, Role, Sentence, Signature, Symbol, Theory, validate_theory
from dolkit.logics import parse_fof_formula, parse_prop, print_fol
from dolkit.logics.simpledl import SimpleDlLogic
from dolkit.mappings import (
    EXTENSION_LOGICS,
    LANGUAGES,
    SERIALIZATIONS,
    Accuracy,
    Direction,
    MappingMeta,
    common_target,
    find_path,
    get_mapping,
    registry_lines,
    translate_along,
)
from dolkit.prove.fol_prover import prove_fol_internal
from dolkit.prove.status import ProofStatus

from conftest import gen_prop_ast, tt_entails


class TestRegistry:
    def test_logics_listing(self):
        assert registry_lines("Logic") == ["Logic FOL", "Logic Prop", "Logic SimpleDL"]

    def test_mappings_listing(self):
        assert [line.split()[1] for line in registry_lines("Mapping")] == [
            "dl2fol",
            "fol2prop",
            "prop2fol",
        ]

    def test_builtin_serializations(self):
        ids = [line.split()[1] for line in registry_lines("Serialization")]
        assert ids == ["manchester", "prop-text", "tptp-fof"]


class TestAccuracyMetadata:
    def test_declared_accuracies(self):
        assert get_mapping("prop2fol").meta.accuracy == {
            Accuracy.SUBLOGIC, Accuracy.EMBEDDING, Accuracy.FAITHFUL
        }
        assert get_mapping("dl2fol").meta.accuracy == {Accuracy.EMBEDDING, Accuracy.FAITHFUL}
        assert get_mapping("fol2prop").meta.accuracy == frozenset()

    def test_every_translation_is_faithful(self):
        # find_path routes every translation, so this makes every route faithful
        mappings = [get_mapping(line.split()[1]) for line in registry_lines("Mapping")]
        translations = [m for m in mappings if m.meta.direction is Direction.TRANSLATION]
        assert [m.meta.id for m in translations] == ["dl2fol", "prop2fol"]
        assert all(Accuracy.FAITHFUL in m.meta.accuracy for m in translations)


class TestFindPath:
    def test_dl_to_fol_faithful(self):
        assert [m.meta.id for m in find_path("SimpleDL", "FOL")] == ["dl2fol"]

    def test_reflexive(self):
        assert find_path("FOL", "FOL") == []

    def test_no_inverse_registered(self):
        with pytest.raises(NoPath):
            find_path("FOL", "SimpleDL")

    def test_projection_is_never_routed(self):
        assert "fol2prop" in [line.split()[1] for line in registry_lines("Mapping")]
        with pytest.raises(NoPath, match="^no mapping path from FOL to Prop$"):
            find_path("FOL", "Prop")


class TestCommonTarget:
    def test_prop_and_dl_meet_in_fol(self):
        assert common_target("Prop", "SimpleDL") == "FOL"
        assert common_target("Prop", "SimpleDL", "FOL") == "FOL"

    def test_same_logic(self):
        assert common_target("FOL", "FOL") == "FOL"
        assert common_target("Prop") == "Prop"

    def test_dl_and_fol(self):
        assert common_target("SimpleDL", "FOL") == "FOL"


def _prop_theory(texts: list[str]) -> Theory:
    sentences = tuple(
        Sentence("Prop", parse_prop(t), f"ax{i + 1}", Role.AXIOM) for i, t in enumerate(texts)
    )
    symbols = frozenset().union(
        *(
            frozenset(
                Symbol("", v.name, Kind.PROP_VAR)
                for v in _prop_vars(s.ast)
            )
            for s in sentences
        )
    )
    return Theory("t", Signature("Prop", symbols), sentences)


def _prop_vars(ast):
    from dolkit.logics import prop as P

    out = []
    stack = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, P.PVar):
            out.append(node)
        elif isinstance(node, P.PNot):
            stack.append(node.body)
        elif isinstance(node, P.PBin):
            stack.extend([node.left, node.right])
    return out


class TestTranslateTheory:
    def test_prop_to_fol_nullary_encoding(self):
        t = _prop_theory(["p", "p impl q"])
        ft = translate_along([get_mapping("prop2fol")], t)
        assert ft.logic_id == "FOL"
        assert {(s.name, s.arity) for s in ft.signature.symbols} == {("p", 0), ("q", 0)}
        assert [print_fol(s.ast) for s in ft.sentences] == ["p", "(p => q)"]

    def test_dl_to_fol_standard_translation(self):
        from dolkit.kernel import validate_theory

        logic = SimpleDlLogic()
        t = logic.parse_theory("Class: Female SubClassOf: not Male", "t")
        ft = translate_along([get_mapping("dl2fol")], t)
        [s] = ft.sentences
        assert print_fol(s.ast) == "![X]: (q_Female(X) => ~q_Male(X))"
        validate_theory(ft)  # sentence images stay inside the mapped signature

    def test_dl_to_fol_restrictions_and_characteristics(self):
        from dolkit.kernel import validate_theory

        logic = SimpleDlLogic()
        t = logic.parse_theory(
            "Class: A SubClassOf: p some B "
            "Class: C SubClassOf: p only D "
            "ObjectProperty: p Characteristics: Transitive "
            "ObjectProperty: q InverseOf: p "
            "ObjectProperty: q SubPropertyOf: p",
            "t",
        )
        ft = translate_along([get_mapping("dl2fol")], t)
        texts = [print_fol(s.ast) for s in ft.sentences]
        assert "![X]: (q_A(X) => ?[Y]: (p(X, Y) & q_B(Y)))" in texts
        assert "![X]: (q_C(X) => ![Y]: (p(X, Y) => q_D(Y)))" in texts
        assert "![X]: ![Y]: ![Z]: ((p(X, Y) & p(Y, Z)) => p(X, Z))" in texts
        assert "![X]: ![Y]: (q(X, Y) <=> p(Y, X))" in texts
        assert "![X]: ![Y]: (q(X, Y) => p(X, Y))" in texts
        validate_theory(ft)

    def test_fol_to_prop_projection_drops_quantified(self):
        sentences = (
            Sentence("FOL", parse_fof_formula("(p & q)"), "ax1", Role.AXIOM),
            Sentence("FOL", parse_fof_formula("![X]: r(X)"), "ax2", Role.AXIOM),
        )
        symbols = frozenset(
            {
                Symbol("", "p", Kind.PREDICATE, 0),
                Symbol("", "q", Kind.PREDICATE, 0),
                Symbol("", "r", Kind.PREDICATE, 1),
            }
        )
        t = Theory("t", Signature("FOL", symbols), sentences)
        pt = translate_along([get_mapping("fol2prop")], t)
        assert [s.label for s in pt.sentences] == ["ax1"]
        assert pt.sentences[0].ast == parse_prop("p and q")
        assert {s.name for s in pt.signature.symbols} == {"p", "q"}

    def test_logic_mismatch(self):
        t = _prop_theory(["p"])
        with pytest.raises(LogicMismatch):
            translate_along([get_mapping("dl2fol")], t)

    def test_lifted_tautology_prints_as_tptp(self):
        from dolkit.logics import print_tptp

        lifted = get_mapping("prop2fol").map_sentence(
            Sentence("Prop", parse_prop("p or not p"), "t", Role.AXIOM)
        )
        assert print_tptp(lifted, "t", "axiom") == "fof(t, axiom, (p | ~p))."

    def test_scenario_symbols_are_exactly_the_images(self, family_env):
        base = family_env.load_iri("https://example.org/family/familyRelations")
        scenario = family_env.load_iri("https://example.org/family/scenario")
        from dolkit.kernel import signature_union

        sig = signature_union(base.signature, scenario.signature)
        t = Theory("cq", sig, base.sentences + scenario.sentences)
        ft = translate_along([get_mapping("dl2fol")], t)
        expected = set()
        for s in sig.symbols:
            if s.kind is Kind.CLASS:
                expected.add(Symbol(s.origin, s.name, Kind.PREDICATE, 1))
            elif s.kind is Kind.OBJECT_PROPERTY:
                expected.add(Symbol(s.origin, s.name, Kind.PREDICATE, 2))
            else:
                expected.add(s)
        assert ft.signature.symbols == frozenset(expected)


class TestDl2FolInfrastructure:
    """dl2fol makes no unique-name assumption: it adds no `neq` facts and no
    `neq` symbol, whatever the number of individuals."""

    def test_neq_facts_cover_ordered_pairs(self):
        logic = SimpleDlLogic()
        t = logic.parse_theory(
            "Individual: a Types: C Individual: b Types: C Individual: c Types: C", "t"
        )
        ft = translate_along([get_mapping("dl2fol")], t)
        # 3 individuals, 6 ordered pairs, and not one fact among them
        assert [s.label for s in ft.sentences] == [s.label for s in t.sentences]
        assert all(s.name != "neq" for s in ft.signature.symbols)

    def test_no_infrastructure_below_two_individuals(self):
        logic = SimpleDlLogic()
        t = logic.parse_theory("Individual: a Types: C", "t")
        ft = translate_along([get_mapping("dl2fol")], t)
        assert all(not (s.label or "").startswith("neq_") for s in ft.sentences)
        assert len(ft.sentences) == len(t.sentences)
        assert all(s.name != "neq" for s in ft.signature.symbols)


class TestProp2FolFaithfulness:
    def test_truth_table_agrees_with_fol_prover_on_translations(self):
        rng = random.Random(29)
        prop2fol = get_mapping("prop2fol")
        timeouts = 0
        for _ in range(40):
            n_vars = rng.randint(1, 8)
            variables = [f"v{i}" for i in range(n_vars)]
            axioms = [
                Sentence("Prop", gen_prop_ast(rng, variables, 3), f"ax{i}", Role.AXIOM)
                for i in range(rng.randint(0, 6))
            ]
            conjecture = Sentence("Prop", gen_prop_ast(rng, variables, 3), "c", Role.CONJECTURE)
            expected = tt_entails([a.ast for a in axioms], conjecture.ast)
            fol_axioms = [prop2fol.map_sentence(a) for a in axioms]
            fol_conj = prop2fol.map_sentence(conjecture)
            attempt = prove_fol_internal(fol_axioms, fol_conj, 5)
            if attempt.status is ProofStatus.TMO:
                timeouts += 1
                continue
            assert (attempt.status is ProofStatus.THM) == expected
        assert timeouts <= 2


class TestTranslateTheoryLabels:
    """A mapping adds no sentence of its own: the image of a theory is the
    images of its sentences, in order and under their source labels, and a
    projection leaves out the sentences it has no image for."""

    def check(self, mapping_id, t, dropped_labels=()):
        out = translate_along([get_mapping(mapping_id)], t)
        validate_theory(out)
        assert [s.label for s in out.sentences] == [
            s.label for s in t.sentences if s.label not in dropped_labels
        ]
        return out

    def test_every_source_label_is_kept_in_order(self, family_env, alignments_env):
        from dolkit.logics.fol import FolLogic
        from dolkit.logics.prop import PropLogic
        from dolkit.structure import flatten_definition

        dl_theories = [
            flatten_definition(item, env)
            for env in (family_env, alignments_env)
            for item in env.document.ontology_defs()
        ]
        assert dl_theories and {t.logic_id for t in dl_theories} == {"SimpleDL"}
        for t in dl_theories:
            fol_image = self.check("dl2fol", t)
            # every dl2fol image has a variable or a constant, so fol2prop drops it
            self.check("fol2prop", fol_image, [s.label for s in fol_image.sentences])
        prop_theory = PropLogic().parse_theory("p\np impl q\nnot (q and r)\n", "P")
        self.check("fol2prop", self.check("prop2fol", prop_theory))
        fol_theory = FolLogic().parse_theory(
            "fof(a, axiom, p). fof(b, axiom, ![X]: q(X)). fof(c, axiom, (p => r)). "
            "fof(d, axiom, s(k)). fof(e, conjecture, ~r).",
            "F",
        )
        self.check("fol2prop", fol_theory, ["b", "d"])

    def test_source_labels_colliding_with_neq_facts(self):
        # labels of the shape the removed unique-name facts had pass through as they are
        logic = SimpleDlLogic()
        source = logic.parse_theory("Individual: a Types: C\nIndividual: b Types: C\n", "t")
        labels = ["neq_1", "neq_1_2"]
        source = Theory(
            "t",
            source.signature,
            tuple(s.with_label(l) for s, l in zip(source.sentences, labels)),
        )
        out = self.check("dl2fol", source)
        assert [s.label for s in out.sentences] == ["neq_1", "neq_1_2"]


# find_path over every ordered pair of distinct registered logics, as a
# search over all simple paths of translations gives it for the built-in
# mappings. Absent pairs: NoPath.
FIND_PATH_TABLE = {("Prop", "FOL"): "prop2fol", ("SimpleDL", "FOL"): "dl2fol"}

# The accuracies every mapping on each route declares, by value. Exact and
# WeaklyExact are no longer Accuracy members, so no route may carry them.
ROUTE_ACCURACIES = {
    ("Prop", "FOL"): {"Sublogic", "Embedding", "Faithful"},
    ("SimpleDL", "FOL"): {"Embedding", "Faithful"},
}


class TestFindPathTable:
    # The ids are those of the accuracy find_path once took as a requirement.
    @pytest.mark.parametrize("translations_only", [False, True])
    @pytest.mark.parametrize(
        "accuracy",
        [None, "Sublogic", "Embedding", "Faithful", "Exact", "WeaklyExact"],
        ids=[
            "None",
            "Accuracy.SUBLOGIC",
            "Accuracy.EMBEDDING",
            "Accuracy.FAITHFUL",
            "Accuracy.EXACT",
            "Accuracy.WEAKLY_EXACT",
        ],
    )
    def test_every_pair(self, accuracy, translations_only, monkeypatch):
        """Every pair gets its table route, whether or not the registry is cut
        down to its translations first (projections are never routed), and
        each route declares `accuracy` exactly as ROUTE_ACCURACIES says."""
        import dolkit.mappings as mappings

        if translations_only:
            monkeypatch.setattr(
                mappings,
                "_MAPPINGS",
                {
                    i: m
                    for i, m in mappings._MAPPINGS.items()
                    if m.meta.direction is Direction.TRANSLATION
                },
            )
            assert sorted(mappings._MAPPINGS) == ["dl2fol", "prop2fol"]
        logic_ids = ["FOL", "Prop", "SimpleDL"]
        for a in logic_ids:
            for b in logic_ids:
                if a == b:
                    assert find_path(a, b) == []
                elif (a, b) in FIND_PATH_TABLE:
                    path = find_path(a, b)
                    assert " ".join(m.meta.id for m in path) == FIND_PATH_TABLE[a, b]
                    if accuracy is not None:
                        declared = all(
                            accuracy in {x.value for x in m.meta.accuracy} for m in path
                        )
                        assert declared == (accuracy in ROUTE_ACCURACIES[a, b])
                else:
                    with pytest.raises(NoPath, match=f"^no mapping path from {a} to {b}$"):
                        find_path(a, b)

    def test_ties_break_like_exhaustive_search(self, monkeypatch):
        """On random mapping graphs, the path equals the minimum of
        (length, mapping ids) over all simple paths of translations, whatever
        accuracy the translations declare."""
        import dolkit.mappings as mappings
        from dolkit.mappings import LogicMapping

        def all_simple_paths(start, goal, edges):
            out = []

            def walk(at, seen, acc):
                if at == goal:
                    out.append(list(acc))
                    return
                for e in edges:
                    if e.meta.source_logic == at and e.meta.target_logic not in seen:
                        walk(e.meta.target_logic, seen | {e.meta.target_logic}, acc + [e])

            walk(start, {start}, [])
            return out

        rng = random.Random(7)
        logic_ids = ["FOL", "Prop", "SimpleDL"]
        for _ in range(200):
            fake = {}
            for _ in range(rng.randint(0, 7)):
                src, dst = rng.sample(logic_ids, 2)
                m = LogicMapping()
                m.meta = MappingMeta(
                    "".join(rng.choice("abc") for _ in range(2)) + str(len(fake)),
                    src,
                    dst,
                    rng.choice(list(Direction)),
                    frozenset(rng.sample(list(Accuracy), rng.randint(0, 2))),
                )
                fake[m.meta.id] = m
            monkeypatch.setattr(mappings, "_MAPPINGS", fake)
            for a in logic_ids:
                for b in logic_ids:
                    if a == b:
                        continue
                    edges = [
                        fake[i]
                        for i in sorted(fake)
                        if fake[i].meta.direction is Direction.TRANSLATION
                    ]
                    paths = all_simple_paths(a, b, edges)
                    if not paths:
                        with pytest.raises(NoPath):
                            find_path(a, b)
                        continue
                    best = min(paths, key=lambda p: (len(p), tuple(m.meta.id for m in p)))
                    assert find_path(a, b) == best


class TestExtensions:
    def test_extension_lookups(self):
        probe_order = (".omn", ".owl", ".p", ".fof", ".prop")
        assert tuple(EXTENSION_LOGICS) == probe_order
        assert [EXTENSION_LOGICS[e] for e in probe_order] == [
            "SimpleDL", "SimpleDL", "FOL", "FOL", "Prop",
        ]
        assert ".dol" not in EXTENSION_LOGICS and "" not in EXTENSION_LOGICS
        assert EXTENSION_LOGICS == {
            ext: LANGUAGES[language] for language, exts in SERIALIZATIONS.values() for ext in exts
        }

    def test_default_logic_probes_its_extensions_first(self, tmp_path):
        from dolkit.dolparse import RepoConfig, RepoEntry, resolve_reference
        from dolkit.errors import RepoIoError

        repo = RepoConfig((("http://x/", RepoEntry(tmp_path, "FOL")),))
        with pytest.raises(RepoIoError) as e:
            resolve_reference("http://x/thing", repo)
        tried = str(e.value).split("tried: ")[1].rstrip(")").split(", ")
        assert [t.removeprefix(str(tmp_path / "thing")) for t in tried] == [
            ".p", ".fof", ".omn", ".owl", ".prop",
        ]
