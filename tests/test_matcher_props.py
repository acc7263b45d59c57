"""Property tests for the bracket matcher and the span invariants built on it."""

from hypothesis import given, strategies as st

from wikivec.ingest.anchors import extract_anchors
from wikivec.ingest.textify import mask_markup, matching_close

import oracles

MARKERS = [("[[", "]]"), ("{{", "}}"), ("{|", "|}")]

# Bracket-heavy text: markers dominate, with a few letters, pipes, colons and
# link-ish words so anchors, file links and tables all occur.
bracket_text = st.lists(
    st.sampled_from(["[", "]", "{", "}", "|", "[[", "]]", "{{", "}}", "{|", "|}",
                     "a", "b", " ", ":", "#", "File:", "x"]),
    max_size=40,
).map("".join)


# Per pair, text over that pair's own characters, so markers nest and touch often.
marked_text = st.sampled_from(MARKERS).flatmap(
    lambda marks: st.tuples(st.just(marks), st.text(alphabet=sorted(set("".join(marks) + " x")),
                                                   max_size=40)))


@given(marked_text, st.integers(min_value=0, max_value=40))
def test_matching_close_agrees_with_stepping_reference(case, start):
    marks, text = case
    start = min(start, len(text))
    assert matching_close(text, start, *marks) == oracles.matching_close(text, start, *marks)


@given(marked_text)
def test_matching_close_from_every_opener(case):
    marks, text = case
    start = text.find(marks[0])
    while start >= 0:
        assert (matching_close(text, start, *marks)
                == oracles.matching_close(text, start, *marks))
        start = text.find(marks[0], start + 1)


@given(bracket_text)
def test_mask_markup_preserves_length(text):
    assert len(mask_markup(text)) == len(text)


@given(bracket_text)
def test_anchor_spans_in_bounds_ascending_and_disjoint(text):
    end_of_last = 0
    for anchor in extract_anchors(text):
        assert 0 <= anchor.start < anchor.end <= len(text)
        assert anchor.start >= end_of_last
        end_of_last = anchor.end
