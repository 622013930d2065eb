"""The shared scanner: every token's position, for each parser's master regex."""

from hypothesis import given, settings, strategies as st

from dolkit import dolparse
from dolkit.logics import fol, prop, simpledl
from dolkit.logics._scan import scan

# Spellings that each scan as one token of their master regex, and as
# skipped pieces when `skipped` is set. A separator always follows a piece,
# so no two pieces merge into one token; a comment runs to the next newline.
_MASTERS = {
    "Prop": (prop._TOKENS, {}, ["p", "not", "and", "f1:q", "(", ")"], "%% note"),
    "FOL": (fol._TOKENS, {}, ["fof", "X", "=>", "<=>", "!=", "$true", "(", ",", "~", "."], "% c"),
    "SimpleDL": (
        simpledl._TOKENS,
        {},
        ["Class", ":", "Father", "<http://x/a>", "ex:b-c", "(", ")", ","],
        "# c",
    ),
    "DOL": (
        dolparse._MASTER,
        {"BASIC": dolparse._basic_end},
        ["logic", "%prefix(", ")%", "<http://x/>", "=", "x:y/z", "{ p }", "{a\n {b}\n}", ":"],
        "%% c",
    ),
}
_SEPARATORS = [" ", "  ", "\t", "\n", " \n\n  ", "\r\n"]


@st.composite
def _scan_inputs(draw):
    logic = draw(st.sampled_from(sorted(_MASTERS)))
    master, token_end, words, comment = _MASTERS[logic]
    pieces = draw(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(words), st.just(comment)),
                st.sampled_from(_SEPARATORS),
            ),
            max_size=30,
        )
    )
    lead = draw(st.sampled_from(["", " ", "\n  "]))
    start_line = draw(st.integers(1, 50))
    start_col = draw(st.integers(1, 40))
    return master, token_end, comment, lead, pieces, start_line, start_col


def _position(text: str, pos: int, start_line: int, start_col: int) -> tuple[int, int]:
    newlines = text.count("\n", 0, pos)
    if not newlines:
        return start_line, start_col + pos
    return start_line + newlines, pos - text.rfind("\n", 0, pos)


@settings(max_examples=400, deadline=None)
@given(_scan_inputs())
def test_token_positions(case):
    master, token_end, comment, lead, pieces, start_line, start_col = case
    text, expected = lead, []
    for piece, sep in pieces:
        if piece == comment:
            sep = "\n" + sep  # a comment swallows the rest of its line
        else:
            expected.append((piece, *_position(text, len(text), start_line, start_col)))
        text += piece + sep
    expected.append(("", *_position(text, len(text), start_line, start_col)))
    toks = scan(text, master, start_line=start_line, start_col=start_col, token_end=token_end)
    assert [(t.text, t.line, t.col) for t in toks] == expected
