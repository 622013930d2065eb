"""Flattening, alignment diagrams, colimits, combination, obligations, and
the development graph. The colimit is checked against a brute-force
equivalence-closure oracle that merges pairwise until fixpoint."""

import random

import pytest

from dolkit.dolparse import RepoConfig, parse_document
from dolkit.errors import (
    DolkitError,
    EmptyCombine,
    KindMismatch,
    NewSymbolInConjecture,
    UnresolvedCorrespondence,
)
from dolkit.kernel import (
    Kind,
    Role,
    Signature,
    SignatureMorphism,
    Symbol,
    validate_theory,
)
from dolkit.structure import (
    Diagram,
    DiagramEdge,
    Env,
    LinkType,
    build_diagram,
    colimit,
    combine,
    combine_details,
    dev_graph,
    extract_obligations,
    flatten,
    flatten_definition,
    graph_to_dict,
    graph_to_dot,
    resolve_alignments,
)


def closure_oracle(items, pairs):
    """Brute-force equivalence closure: merge blocks sharing a pair endpoint
    until nothing changes."""
    blocks = [{item} for item in items]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            block_a = next(blk for blk in blocks if a in blk)
            block_b = next(blk for blk in blocks if b in blk)
            if block_a is not block_b:
                blocks.remove(block_b)
                block_a |= block_b
                changed = True
    return {frozenset(b) for b in blocks}


def colimit_partition(diagram, injections):
    classes = {}
    for node_id, sig in diagram.nodes:
        inj = injections[node_id]
        for sym in sig.symbols:
            classes.setdefault(inj.apply(sym), set()).add((node_id, sym))
    return {frozenset(v) for v in classes.values()}


class TestFlatten:
    def test_cq_base_unions_genealogy_and_scenario(self, family_doc, family_env):
        cq = next(i for i in family_doc.ontology_defs() if i.name == "CQbase")
        t = flatten_definition(cq, family_env)
        genealogy = family_env.load_iri(
            "https://example.org/family/familyRelations"
        )
        scenario = family_env.load_iri(
            "https://example.org/family/scenario"
        )
        assert t.signature.symbols == genealogy.signature.symbols | scenario.signature.symbols
        asts = [s.ast for s in t.sentences]
        assert all(s.ast in asts for s in genealogy.sentences)
        assert all(s.ast in asts for s in scenario.sentences)
        validate_theory(t)

    def test_and_is_idempotent(self, family_env):
        from dolkit.dolparse import And, Ref

        once = flatten(Ref("genealogy"), family_env)
        twice = flatten(And((Ref("genealogy"), Ref("genealogy"))), family_env, "twice")
        assert twice.signature == once.signature
        assert [s.ast for s in twice.sentences] == [s.ast for s in once.sentences]

    def test_and_commutes_up_to_sentence_order(self, family_env):
        from dolkit.dolparse import And, Ref

        ab = flatten(And((Ref("genealogy"), Ref("scenario"))), family_env, "ab")
        ba = flatten(And((Ref("scenario"), Ref("genealogy"))), family_env, "ba")
        assert ab.signature == ba.signature
        assert {(s.ast, s.role) for s in ab.sentences} == {(s.ast, s.role) for s in ba.sentences}

    def test_local_names_resolve_in_document_without_file_io(self):
        # the empty repo config would fail any file lookup, so success shows
        # the reference resolved against the earlier definition
        doc = parse_document(
            "logic OWL\n"
            "ontology scenario = { Individual: i Types: A }\n"
            "ontology wrapper = scenario\n"
        )
        env = Env(doc, RepoConfig())
        wrapper = flatten_definition(
            next(i for i in doc.ontology_defs() if i.name == "wrapper"), env
        )
        assert len(wrapper.sentences) == 1

    def test_heterogeneous_union_lands_in_fol(self, tmp_path):
        from dolkit.dolparse import RepoEntry

        (tmp_path / "bits.prop").write_text("p and q\n")
        (tmp_path / "things.omn").write_text("Class: A SubClassOf: B\n")
        doc = parse_document(
            "logic Propositional\n"
            "ontology bits = <http://x/bits>\n"
            "logic OWL\n"
            "ontology things = <http://x/things>\n"
            "ontology both = bits and things\n"
        )
        env = Env(doc, RepoConfig((("http://x/", RepoEntry(tmp_path)),)))
        both = flatten_definition(next(i for i in doc.ontology_defs() if i.name == "both"), env)
        assert both.logic_id == "FOL"
        from dolkit.logics import print_fol

        texts = [print_fol(s.ast, {"x": "http://x/"}) for s in both.sentences]
        assert "(q_x_03a_p & q_x_03a_q)" in texts
        assert "![X]: (q_x_03a_A(X) => q_x_03a_B(X))" in texts
        names = {(s.name, s.kind, s.arity) for s in both.signature.symbols}
        assert ("p", Kind.PREDICATE, 0) in names and ("A", Kind.PREDICATE, 1) in names
        validate_theory(both)

    @pytest.mark.parametrize(
        "text",
        [
            "logic Propositional\nontology A = B and { p }\nontology B = A and { q }\n",
            # A needs B, B combines Al, and Al needs A as a side
            "logic Propositional\nontology A = B and { p }\nontology B = combine Al\n"
            "alignment Al : A to { q } = p = q\n",
        ],
        ids=["plain", "through_combine"],
    )
    def test_definition_cycle_is_named(self, text):
        doc = parse_document(text)
        env = Env(doc, RepoConfig())
        with pytest.raises(DolkitError, match="^import cycle through 'A'$"):
            flatten_definition(doc.definitions()["A"], env)
        # the failed attempt leaves nothing half-flattened behind
        with pytest.raises(DolkitError, match="^import cycle through 'B'$"):
            flatten_definition(doc.definitions()["B"], env)


class TestBuildDiagram:
    def test_three_alignments_make_six_nodes(self, alignments_doc, alignments_env):
        defs = alignments_doc.alignment_defs()
        d = build_diagram(defs, resolve_alignments(defs, alignments_env))
        node_ids = [n for n, _ in d.nodes]
        assert node_ids == [
            "DOLCE-Lite.owl",
            "1.1",
            "gfo.owl",
            "DolceLite2BFO",
            "DolceLite2GFO",
            "BFO2GFO",
        ]
        sigs = d.node_map()
        assert len(sigs["DolceLite2BFO"].symbols) == 9
        assert len(sigs["DolceLite2GFO"].symbols) == 7  # '=' rows only
        assert len(sigs["BFO2GFO"].symbols) == 7
        assert len(d.edges) == 6

    def test_bridge_without_equivalences_is_empty(self, repo, tmp_path):
        doc = parse_document(
            "%prefix( dolce: <http://www.loa-cnr.it/ontologies/> gfo: <http://www.onto-med.de/ontologies/> )%\n"
            "logic OWL\n"
            "alignment OnlySub : dolce:DOLCE-Lite.owl to gfo:gfo.owl = part < abstract_has_part end\n"
        )
        env = Env(doc, repo)
        defs = doc.alignment_defs()
        d = build_diagram(defs, resolve_alignments(defs, env))
        assert d.node_map()["OnlySub"].symbols == frozenset()

    def test_kind_mismatch(self, repo):
        doc = parse_document(
            "%prefix( dolce: <http://www.loa-cnr.it/ontologies/> gfo: <http://www.onto-med.de/ontologies/> )%\n"
            "logic OWL\n"
            "alignment Bad : dolce:DOLCE-Lite.owl to gfo:gfo.owl = endurant = necessary_for end\n"
        )
        with pytest.raises(KindMismatch):
            defs = doc.alignment_defs()
            build_diagram(defs, resolve_alignments(defs, Env(doc, repo)))

    def test_unresolved_correspondence(self, repo):
        doc = parse_document(
            "%prefix( dolce: <http://www.loa-cnr.it/ontologies/> gfo: <http://www.onto-med.de/ontologies/> )%\n"
            "logic OWL\n"
            "alignment Bad : dolce:DOLCE-Lite.owl to gfo:gfo.owl = nonesuch = Entity end\n"
        )
        with pytest.raises(UnresolvedCorrespondence):
            defs = doc.alignment_defs()
            build_diagram(defs, resolve_alignments(defs, Env(doc, repo)))

    def test_sides_in_different_logics_are_rejected(self, tmp_path):
        from dolkit.dolparse import RepoEntry
        from dolkit.errors import HeterogeneousAlignment

        (tmp_path / "a.omn").write_text("Class: A")
        (tmp_path / "b.prop").write_text("p")
        doc = parse_document(
            "logic OWL\nalignment X : <http://x/a> to <http://x/b> = A = p end"
        )
        env = Env(doc, RepoConfig((("http://x/", RepoEntry(tmp_path)),)))
        with pytest.raises(HeterogeneousAlignment):
            defs = doc.alignment_defs()
            build_diagram(defs, resolve_alignments(defs, env))

    def test_union_expression_as_alignment_side(self, repo):
        doc = parse_document(
            "%prefix( dolce: <http://www.loa-cnr.it/ontologies/> "
            "bfo: <http://www.ifomis.org/bfo/> gfo: <http://www.onto-med.de/ontologies/> )%\n"
            "logic OWL\n"
            "alignment Wide : dolce:DOLCE-Lite.owl and bfo:1.1 to gfo:gfo.owl =\n"
            "  endurant = Presential, IndependentContinuant = Presential end\n"
        )
        env = Env(doc, repo)
        defs = doc.alignment_defs()
        d = build_diagram(defs, resolve_alignments(defs, env))
        node_ids = [n for n, _ in d.nodes]
        union_node = "dolce:DOLCE-Lite.owl_and_bfo:1.1"
        assert union_node in node_ids
        _, inj = colimit(d)
        # both left symbols merge with the same right symbol
        reps = {
            inj[union_node].apply(s)
            for s in d.node_map()[union_node].symbols
            if s.name in ("endurant", "IndependentContinuant")
        }
        assert len(reps) == 1


class TestColimit:
    def test_single_node_identity(self):
        sig = Signature(
            "SimpleDL", frozenset({Symbol("o", "A", Kind.CLASS), Symbol("o", "B", Kind.CLASS)})
        )
        d = Diagram((("n", sig),), ())
        out_sig, inj = colimit(d)
        assert out_sig == sig
        assert all(inj["n"].apply(s) == s for s in sig.symbols)

    def test_merged_class_representatives(self, alignments_doc, alignments_env):
        defs = alignments_doc.alignment_defs()
        d = build_diagram(defs, resolve_alignments(defs, alignments_env))
        _, inj = colimit(d)
        dolce = "http://www.loa-cnr.it/ontologies/"
        bfo = "http://www.ifomis.org/bfo/"
        gfo = "http://www.onto-med.de/ontologies/"
        endurant = inj["DOLCE-Lite.owl"].apply(Symbol(dolce, "endurant", Kind.CLASS))
        independent = inj["1.1"].apply(Symbol(bfo, "IndependentContinuant", Kind.CLASS))
        presential = inj["gfo.owl"].apply(Symbol(gfo, "Presential", Kind.CLASS))
        assert endurant == independent == presential
        perdurant = inj["DOLCE-Lite.owl"].apply(Symbol(dolce, "perdurant", Kind.CLASS))
        occ_bfo = inj["1.1"].apply(Symbol(bfo, "Occurrent", Kind.CLASS))
        occ_gfo = inj["gfo.owl"].apply(Symbol(gfo, "Occurrent", Kind.CLASS))
        assert perdurant == occ_bfo == occ_gfo

    def test_partition_matches_closure_oracle(self, alignments_doc, alignments_env):
        defs = alignments_doc.alignment_defs()
        d = build_diagram(defs, resolve_alignments(defs, alignments_env))
        _, inj = colimit(d)
        items = [(n, s) for n, sig in d.nodes for s in sig.symbols]
        pairs = [
            ((e.source, s), (e.target, e.morphism.apply(s)))
            for e in d.edges
            for s in e.morphism.source.symbols
        ]
        assert colimit_partition(d, inj) == closure_oracle(items, pairs)

    def test_cocone_equations_exact(self, alignments_doc, alignments_env):
        defs = alignments_doc.alignment_defs()
        d = build_diagram(defs, resolve_alignments(defs, alignments_env))
        _, inj = colimit(d)
        for e in d.edges:
            for s in e.morphism.source.symbols:
                assert inj[e.target].apply(e.morphism.apply(s)) == inj[e.source].apply(s)

    def test_random_small_diagrams_match_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            n_nodes = rng.randint(1, 4)
            nodes = []
            for n in range(n_nodes):
                size = rng.randint(1, 3)
                syms = frozenset(
                    Symbol(f"o{n}", f"s{i}", Kind.CLASS) for i in range(size)
                )
                nodes.append((f"n{n}", Signature("SimpleDL", syms)))
            edges = []
            for _ in range(rng.randint(0, 3)):
                src_id, src_sig = rng.choice(nodes)
                tgt_id, tgt_sig = rng.choice(nodes)
                tgt_syms = sorted(tgt_sig.symbols, key=Symbol.sort_key)
                mapping = {s: rng.choice(tgt_syms) for s in src_sig.symbols}
                edges.append(
                    DiagramEdge(src_id, tgt_id, SignatureMorphism(src_sig, tgt_sig, mapping))
                )
            d = Diagram(tuple(nodes), tuple(edges))
            _, inj = colimit(d)
            items = [(n, s) for n, sig in d.nodes for s in sig.symbols]
            pairs = [
                ((e.source, s), (e.target, e.morphism.apply(s)))
                for e in d.edges
                for s in e.morphism.source.symbols
            ]
            assert colimit_partition(d, inj) == closure_oracle(items, pairs)
            for e in d.edges:
                for s in e.morphism.source.symbols:
                    assert inj[e.target].apply(e.morphism.apply(s)) == inj[e.source].apply(s)


class TestCombine:
    def test_space_contains_sentences_from_all_three(self, alignments_env):
        space = combine(["BFO2GFO", "DolceLite2GFO", "DolceLite2BFO"], alignments_env, "Space")
        validate_theory(space)
        labels = {s.label for s in space.sentences}
        assert any(l and l.startswith("DOLCE-Lite.owl") for l in labels)
        assert any(l and l.startswith("1.1") for l in labels)
        assert any(l and l.startswith("gfo.owl") for l in labels)

    def test_permutation_invariance_of_partitions(self, alignments_doc, repo):
        def partition(order):
            env = Env(alignments_doc, repo)
            result = combine_details(list(order), env, "Space")
            return {
                frozenset(members)
                for _, members in result.merged_classes()
            }

        base = partition(["BFO2GFO", "DolceLite2GFO", "DolceLite2BFO"])
        assert base == partition(["DolceLite2BFO", "BFO2GFO", "DolceLite2GFO"])
        assert base == partition(["DolceLite2GFO", "DolceLite2BFO", "BFO2GFO"])

    def test_subsumption_rows_generate_sentences(self, repo):
        doc = parse_document(
            "%prefix( dolce: <http://www.loa-cnr.it/ontologies/> gfo: <http://www.onto-med.de/ontologies/> )%\n"
            "logic OWL\n"
            "alignment OnlySub : dolce:DOLCE-Lite.owl to gfo:gfo.owl =\n"
            "  part < abstract_has_part, endurant < Individual end\n"
        )
        env = Env(doc, repo)
        t = combine(["OnlySub"], env, "out")
        generated = [s for s in t.sentences if s.label and s.label.startswith("OnlySub_sub_")]
        assert len(generated) == 2
        from dolkit.logics.simpledl import SubClassOf, SubPropertyOf

        kinds = {type(s.ast) for s in generated}
        assert kinds == {SubClassOf, SubPropertyOf}
        validate_theory(t)

    def test_empty_combine(self, alignments_env):
        with pytest.raises(EmptyCombine):
            combine([], alignments_env)


class TestExtractObligations:
    def test_family_document_yields_four(self, family_doc, family_env):
        obs = extract_obligations(family_doc, family_env)
        assert [o.name for o in obs] == [
            "chrisFather",
            "doraChildChris",
            "chrisFemale",
            "amyOlderDora",
        ]
        assert all(o.conjecture.role is Role.CONJECTURE for o in obs)
        assert all(o.theory is obs[0].theory for o in obs)

    def test_document_without_then(self, alignments_doc, alignments_env):
        assert extract_obligations(alignments_doc, alignments_env) == []

    def test_multi_sentence_fragment_numbers_obligations(self, repo, tmp_path):
        from dolkit.dolparse import RepoEntry

        (tmp_path / "base.omn").write_text(
            "Class: A Class: B Individual: i Types: A\n"
        )
        doc = parse_document(
            "%prefix( x: <http://x/> )%\n"
            "logic OWL\n"
            "ontology base = <http://x/base>\n"
            "ontology both = base then { Individual: x:i Types: x:A Types: x:B }\n"
        )
        env = Env(doc, RepoConfig((("http://x/", RepoEntry(tmp_path)),)))
        obs = extract_obligations(doc, env)
        assert [o.name for o in obs] == ["both_1", "both_2"]
        assert obs[0].theory is obs[1].theory

    def test_new_symbols_mean_extension_not_obligation(self, repo, tmp_path):
        from dolkit.dolparse import RepoEntry

        (tmp_path / "base.omn").write_text("Class: A\n")
        doc = parse_document(
            "logic OWL\n"
            "ontology base = <http://x/base>\n"
            "ontology ext = base then { Class: Fresh SubClassOf: A }\n"
        )
        env = Env(doc, RepoConfig((("http://x/", RepoEntry(tmp_path)),)))
        assert extract_obligations(doc, env) == []
        ext = flatten_definition(next(i for i in doc.ontology_defs() if i.name == "ext"), env)
        assert all(s.role is Role.AXIOM for s in ext.sentences)

    def test_conjecture_with_foreign_symbols_is_rejected(self):
        from dolkit.kernel import Role, Sentence, Signature, Symbol, Theory
        from dolkit.logics import parse_prop
        from dolkit.structure import ProofObligation

        theory = Theory(
            "bg", Signature("Prop", frozenset({Symbol("", "p", Kind.PROP_VAR)})), ()
        )
        stray = Sentence("Prop", parse_prop("q"), "goal", Role.CONJECTURE)
        with pytest.raises(NewSymbolInConjecture):
            ProofObligation("goal", theory, stray)


class TestValidateDocument:
    def test_correspondences_validated_without_a_combine(self, repo):
        from dolkit.structure import validate_document

        doc = parse_document(
            "%prefix( dolce: <http://www.loa-cnr.it/ontologies/> gfo: <http://www.onto-med.de/ontologies/> )%\n"
            "logic OWL\n"
            "alignment Bad : dolce:DOLCE-Lite.owl to gfo:gfo.owl = nonesuch = Entity end\n"
        )
        with pytest.raises(UnresolvedCorrespondence):
            validate_document(doc, Env(doc, repo))


class TestDevGraph:
    def test_space_gets_three_injections(self, alignments_doc, alignments_env):
        g = dev_graph(alignments_doc, alignments_env)
        injections = [l for l in g.links if l.type is LinkType.COMBINE_INJECTION]
        assert {l.source for l in injections} == {"DOLCE-Lite.owl", "1.1", "gfo.owl"}
        assert all(l.target == "Space" for l in injections)
        sides = [l for l in g.links if l.type is LinkType.ALIGNMENT_SIDE]
        assert len(sides) == 6

    def test_empty_document(self, repo):
        from dolkit.dolparse import DolDocument

        doc = DolDocument((), ())  # empty files do not parse; the value exists
        g = dev_graph(doc, Env(doc, repo))
        assert g.nodes == () and g.links == ()

    def test_family_graph_links(self, family_doc, family_env):
        g = dev_graph(family_doc, family_env)
        imports = {(l.source, l.target) for l in g.links if l.type is LinkType.IMPORT}
        assert ("genealogy", "CQbase") in imports
        assert ("scenario", "CQbase") in imports
        obligations = [l for l in g.links if l.type is LinkType.OBLIGATION_OF]
        assert len(obligations) == 4
        assert all(l.target == "CQbase" for l in obligations)

    def test_dot_export_shape(self, family_doc, family_env):
        dot = graph_to_dot(dev_graph(family_doc, family_env))
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")
        assert '"chrisFather" -> "CQbase" [label="ObligationOf"];' in dot

    def test_json_export_shape(self, family_doc, family_env):
        data = graph_to_dict(dev_graph(family_doc, family_env))
        assert set(data) == {"nodes", "links"}
        assert {n["id"] for n in data["nodes"]} >= {"CQbase", "chrisFather"}


class TestFreshNames:
    """Each place that makes a name unique appends `_2`, `_3`, ... to the
    wanted name until it is free; the exact names are part of the output."""

    @pytest.fixture()
    def two_x_repo(self, tmp_path):
        from dolkit.dolparse import RepoEntry

        entries = []
        for part in ("a", "b", "c"):
            (tmp_path / part).mkdir()
            (tmp_path / part / "x.omn").write_text("Class: C\n")
            entries.append((f"http://{part}/", RepoEntry(tmp_path / part)))
        return RepoConfig(tuple(entries))

    def test_iris_with_the_same_last_segment(self, two_x_repo):
        doc = parse_document(
            "logic OWL\n"
            "alignment AB : <http://a/x> to <http://b/x> = C = C end\n"
            "alignment BC : <http://b/x> to <http://c/x> = C = C end\n"
            "ontology Both = combine AB, BC\n"
        )
        env = Env(doc, two_x_repo)
        result = combine_details(["AB", "BC"], env, "Both")
        assert [n for n, _ in result.diagram.nodes] == ["x", "x_2", "x_3", "AB", "BC"]
        assert env.node_id_for_iri("http://b/x") == "x_2"
        assert dev_graph(doc, env).nodes == ("AB", "x", "x_2", "BC", "x_3", "Both")

    def test_inline_sides_with_the_same_display_name(self):
        doc = parse_document(
            "logic FOL\n"
            "alignment X : { fof(l, axiom, p). } to { fof(r, axiom, q). } = p = q end\n"
        )
        result = combine_details(["X"], Env(doc, RepoConfig()))
        assert [n for n, _ in result.diagram.nodes] == ["fragment", "fragment_2", "X"]

    def test_inline_side_next_to_a_definition_of_its_display_name(self):
        doc = parse_document(
            "logic FOL\n"
            "ontology fragment = { fof(l, axiom, p). }\n"
            "alignment X : fragment to { fof(r, axiom, q). } = p = q end\n"
        )
        result = combine_details(["X"], Env(doc, RepoConfig()))
        assert [n for n, _ in result.diagram.nodes] == ["fragment", "fragment_2", "X"]
        assert sorted(s.name for s in result.theory.signature.symbols) == ["p__q"]

    def test_merged_labels(self):
        doc = parse_document(
            "logic FOL\n"
            "ontology U = { fof(a, axiom, p). } and { fof(a, axiom, q). }"
            " and { fof(a_2, axiom, r). }\n"
        )
        env = Env(doc, RepoConfig())
        u = flatten_definition(doc.ontology_defs()[0], env)
        assert [s.label for s in u.sentences] == ["a", "a_2", "a_2_2"]
        validate_theory(u)

    def test_equivalence_rows_sharing_a_left_local_name(self, two_x_repo):
        doc = parse_document(
            "%prefix( a: <http://a/> b: <http://b/> c: <http://c/> )%\n"
            "logic OWL\n"
            "alignment X : a:x and b:x to c:x = a:C = c:C, b:C = c:C end\n"
        )
        result = combine_details(["X"], Env(doc, two_x_repo))
        bridge = result.diagram.node_map()["X"]
        assert sorted(s.name for s in bridge.symbols) == ["C", "C_2"]
        assert sorted(s.name for s in result.theory.signature.symbols) == ["C__C_2"]

    def test_equivalence_rows_sharing_a_left_symbol(self):
        doc = parse_document(
            "logic FOL\n"
            "alignment X : { fof(l, axiom, p). } to { fof(r, axiom, q & s & t). } =\n"
            "  p = q, p = s, p = t end\n"
        )
        result = combine_details(["X"], Env(doc, RepoConfig()))
        bridge = result.diagram.node_map()["X"]
        assert sorted(s.name for s in bridge.symbols) == ["p", "p_2", "p_3"]
        assert sorted(s.name for s in result.theory.signature.symbols) == [
            "p__p_2__p_3__q__s__t"
        ]

    def test_colliding_colimit_representatives(self):
        a = Symbol("o", "A", Kind.CLASS)
        a2 = Symbol("o", "A_2", Kind.CLASS)
        nodes = (
            ("n1", Signature("SimpleDL", frozenset({a}))),
            ("n2", Signature("SimpleDL", frozenset({a}))),
            ("n3", Signature("SimpleDL", frozenset({a, a2}))),
        )
        sig, inj = colimit(Diagram(nodes, ()))
        assert sorted(s.name for s in sig.symbols) == ["A", "A_2", "A_2_2", "A_3"]
        assert [inj[n].apply(a).name for n, _ in nodes] == ["A", "A_2", "A_3"]
        assert inj["n3"].apply(a2).name == "A_2_2"
