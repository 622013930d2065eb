"""DOL document parsing, printing, and reference resolution."""

import pytest

from dolkit.dolparse import (
    And,
    Combine,
    Ref,
    Relation,
    RepoConfig,
    Then,
    parse_document,
    print_document,
    resolve_reference,
)
from dolkit.errors import (
    DuplicateName,
    ParseError,
    RepoIoError,
    UndeclaredPrefix,
    UnknownLogic,
    UnresolvedIri,
)


class TestCorpusDocuments:
    def test_alignment_listing_counts(self, alignments_doc):
        logic_decls = [i for i in alignments_doc.items if type(i).__name__ == "LogicDecl"]
        assert len(logic_decls) == 1
        alignments = alignments_doc.alignment_defs()
        assert [(a.name, len(a.correspondences)) for a in alignments] == [
            ("DolceLite2BFO", 9),
            ("DolceLite2GFO", 12),
            ("BFO2GFO", 8),
        ]

    def test_cq_base_is_a_union(self, family_doc):
        cq = next(i for i in family_doc.ontology_defs() if i.name == "CQbase")
        assert cq.expr == And((Ref("genealogy"), Ref("scenario")))

    def test_then_fragments(self, family_doc):
        chris = next(i for i in family_doc.ontology_defs() if i.name == "chrisFather")
        assert isinstance(chris.expr, Then)
        assert chris.expr.base == Ref("CQbase")
        assert "f1:Chris" in chris.expr.extension.text

    def test_space_combine(self, alignments_doc):
        space = next(i for i in alignments_doc.ontology_defs() if i.name == "Space")
        assert space.expr == Combine(("BFO2GFO", "DolceLite2GFO", "DolceLite2BFO"))


class TestGrammarErrors:
    def test_trailing_comma(self):
        with pytest.raises(ParseError):
            parse_document("logic OWL\nalignment A : x to y = a = b\nontology X = combine A,")

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            parse_document("logic OWL ontology X = {Class: A} ontology X = {Class: B}")

    def test_undeclared_prefix(self):
        for text, message in [
            ("logic OWL\nontology X = f9:thing", "2:14: prefix 'f9' is not declared"),
            ("logic OWL\nalignment A : x to y = f8:a = b", "2:24: prefix 'f8' is not declared"),
        ]:
            with pytest.raises(UndeclaredPrefix, match=f"^{message}$"):
                parse_document(text)

    def test_unknown_logic(self):
        with pytest.raises(UnknownLogic):
            parse_document("logic KIF")

    def test_fragment_before_logic_declaration(self):
        with pytest.raises(UnknownLogic):
            parse_document("ontology X = {Class: A}")

    def test_then_requires_basic_fragment(self):
        with pytest.raises(ParseError):
            parse_document("logic OWL\nontology X = A then B")

    def test_combine_of_unknown_alignment(self):
        with pytest.raises(UnresolvedIri):
            parse_document("logic OWL\nontology X = combine Nope")

    def test_combine_of_unknown_alignment_as_an_alignment_side(self):
        # the same check, at parse time, as for an ontology definition
        message = "^combine references undeclared alignment\\(s\\): Zz$"
        with pytest.raises(UnresolvedIri, match=message):
            parse_document("logic OWL\nontology O = { Class: A }\nontology X = combine Zz")
        with pytest.raises(UnresolvedIri, match=message):
            parse_document(
                "logic OWL\nontology O = { Class: A }\nalignment Al : combine Zz to O = A = A"
            )

    def test_unbalanced_fragment(self):
        with pytest.raises(ParseError):
            parse_document("logic OWL\nontology X = { Class: {A }")

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_document("logic OWL\nontology = x")
        assert exc.value.line == 2

    def test_empty_input_is_a_syntax_error(self):
        with pytest.raises(ParseError):
            parse_document("")
        with pytest.raises(ParseError):
            parse_document("%% nothing but a comment\n")

    def test_alignment_named_twice_in_one_combine(self):
        text = (
            "logic FOL\n"
            "alignment X : { fof(l, axiom, p). } to { fof(r, axiom, q). } = p = q end\n"
            "ontology C = combine X, X\n"
        )
        with pytest.raises(DuplicateName, match="'X'"):
            parse_document(text)


class TestTokenPositions:
    """Token positions and messages of the document scanner, which the error
    contract and `Basic` diagnostics report."""

    def test_basic_after_multi_line_text(self):
        doc = parse_document("logic FOL\n%% note {\n\nontology A =\n   { fof(a, axiom, p). }\n")
        basic = doc.ontology_defs()[0].expr
        assert (basic.text, basic.line, basic.col) == (" fof(a, axiom, p). ", 5, 4)

    def test_first_token_after_a_multi_line_fragment(self):
        with pytest.raises(ParseError) as exc:
            parse_document("logic FOL\nontology A = {\n  fof(a, axiom, p).\n}  then B")
        assert (exc.value.line, exc.value.col) == (4, 4)
        assert str(exc.value) == "4:4: a `then` extension must be a basic fragment in braces"

    def test_nested_braces_are_kept_verbatim(self):
        doc = parse_document("logic FOL\nontology A = { a {b {c}}\n d }\n")
        basic = doc.ontology_defs()[0].expr
        assert (basic.text, basic.line, basic.col) == (" a {b {c}}\n d ", 2, 14)

    def test_unbalanced_brace(self):
        with pytest.raises(ParseError) as exc:
            parse_document("logic OWL\nontology X = { Class: {A }")
        assert (str(exc.value), exc.value.line, exc.value.col) == (
            "2:14: unbalanced '{' in basic fragment", 2, 14,
        )

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse_document("logic OWL\nontology X = {\n}\n  ! ")
        assert (str(exc.value), exc.value.line, exc.value.col) == (
            "4:3: unexpected character '!'", 4, 3,
        )


class TestNormalization:
    def test_gt_swaps_to_lt(self):
        doc = parse_document("logic OWL\nalignment A : x to y = a > b end")
        [corr] = doc.alignment_defs()[0].correspondences
        assert corr.relation is Relation.LEFT_SUBSUMED
        assert (corr.left.name, corr.right.name) == ("b", "a")

    def test_end_is_optional(self):
        with_end = parse_document("logic OWL\nontology A = {Class: X} end")
        without = parse_document("logic OWL\nontology A = {Class: X}")
        assert with_end == without


class TestPrinting:
    def test_parse_print_parse_fixpoint(self, family_doc, alignments_doc):
        for doc in (family_doc, alignments_doc):
            assert parse_document(print_document(doc)) == doc

    def test_printed_correspondences_compact_prefixes(self, alignments_doc):
        printed = print_document(alignments_doc)
        assert "dolce:DOLCE-Lite.owl" in printed
        assert "endurant = IndependentContinuant" in printed


class TestResolveReference:
    def test_fixture_round_trip(self, repo):
        text, logic_id, origin = resolve_reference(
            "https://example.org/family/familyRelations", repo
        )
        assert logic_id == "SimpleDL"
        assert origin == "https://example.org/family/"
        assert "parent_of" in text

    def test_extension_probing_without_suffix(self, repo):
        # bfo:1.1 has no usable extension; the directory probe finds 1.1.omn
        text, logic_id, _ = resolve_reference("http://www.ifomis.org/bfo/1.1", repo)
        assert logic_id == "SimpleDL" and "IndependentContinuant" in text

    def test_owl_extension_maps_to_simpledl(self, repo):
        _, logic_id, origin = resolve_reference(
            "http://www.loa-cnr.it/ontologies/DOLCE-Lite.owl", repo
        )
        assert logic_id == "SimpleDL"
        assert origin == "http://www.loa-cnr.it/ontologies/"

    def test_unmapped_iri(self, repo):
        with pytest.raises(UnresolvedIri):
            resolve_reference("http://elsewhere.example/x", repo)

    def test_longest_prefix_wins(self, tmp_path):
        from dolkit.dolparse import RepoEntry

        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "thing.prop").write_text("p\n")
        repo = RepoConfig(
            (
                ("http://x/", RepoEntry(tmp_path / "a")),
                ("http://x/deep/", RepoEntry(tmp_path / "b")),
            )
        )
        _, logic_id, origin = resolve_reference("http://x/deep/thing", repo)
        assert origin == "http://x/deep/" and logic_id == "Prop"

    def test_missing_file(self, repo):
        with pytest.raises(RepoIoError):
            resolve_reference("http://www.ifomis.org/bfo/NoSuchThing", repo)

    def test_nested_dol_rejected(self, tmp_path):
        from dolkit.dolparse import RepoEntry

        (tmp_path / "doc.dol").write_text("logic OWL")
        repo = RepoConfig((("http://x/", RepoEntry(tmp_path)),))
        with pytest.raises(UnknownLogic):
            resolve_reference("http://x/doc.dol", repo)

    def test_default_logic_steers_probing(self, tmp_path):
        from dolkit.dolparse import RepoEntry

        (tmp_path / "thing.prop").write_text("p\n")
        (tmp_path / "thing.omn").write_text("Class: A\n")
        repo = RepoConfig((("http://x/", RepoEntry(tmp_path, "Prop")),))
        _, logic_id, _ = resolve_reference("http://x/thing", repo)
        assert logic_id == "Prop"
