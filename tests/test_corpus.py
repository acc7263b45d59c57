"""Rendering pages into corpus lines and compiling whole dump files."""

import pytest

from wikivec.ingest.anchors import AnchorSpan, apply_title_heuristic, extract_anchors
from wikivec.ingest.corpus import build_corpus, parse_concept, render_line, resolve_targets
from wikivec.ingest.dump import PageRecord
from wikivec.ingest.redirects import RedirectMap

from conftest import (FIXTURE_DUMP, FIXTURE_KEPT_FACTS, GOLDEN_ANCHOR_STATS,
                      GOLDEN_STANDARD)


def test_parse_concept():
    assert parse_concept("wiki_42") == 42
    assert parse_concept("wiki_") is None
    assert parse_concept("wiki_4x") is None
    assert parse_concept("Wiki_4") is None
    assert parse_concept("river") is None


@pytest.mark.parametrize("token, page", [
    ("wiki_12", 12),
    ("wiki_٣", None),  # ARABIC-INDIC DIGIT THREE: a digit, but not ASCII
    ("wiki_²", None),  # SUPERSCRIPT TWO: isdigit() is true, int() fails
    ("wiki_", None),
    ("wiki_-1", None),
])
def test_parse_concept_takes_only_ascii_digits(token, page):
    assert parse_concept(token) == page


def _render(page, anchors, redirects, kept, mode):
    return " ".join(render_line(page, anchors, resolve_targets(anchors, redirects, kept), mode))


def _simple_setup():
    body = "Alpha links [[Beta]] and [[Gamma]] here."
    page = PageRecord(1, "Alpha", 0, None, body)
    redirects = RedirectMap(mapping={"Alpha": 1, "Beta": 2, "Gamma": 3})
    return page, extract_anchors(body), redirects


def test_render_standard_mode():
    page, anchors, redirects = _simple_setup()
    line = _render(page, anchors, redirects, kept={1, 2}, mode="standard")
    # Gamma is not kept, so its surface words stay.
    assert line == "alpha links wiki_2 and gamma here"


def test_render_anchors_only_mode():
    page, anchors, redirects = _simple_setup()
    line = _render(page, anchors, redirects, kept={1, 2}, mode="anchors_only")
    assert line == "wiki_2"


def test_render_heuristic_mode_replaces_title_mentions():
    page, anchors, redirects = _simple_setup()
    combined = apply_title_heuristic(page, anchors)
    line = _render(page, combined, redirects, kept={1, 2}, mode="heuristic")
    assert line == "wiki_1 links wiki_2 and gamma here"


def test_render_unresolved_anchor_keeps_surface():
    body = "see [[Unknown Target|that thing]] now"
    page = PageRecord(5, "Host", 0, None, body)
    line = _render(page, extract_anchors(body), RedirectMap(), kept={5}, mode="standard")
    assert line == "see that thing now"


def test_render_rejects_unknown_mode():
    page, anchors, redirects = _simple_setup()
    with pytest.raises(ValueError, match="unknown mode"):
        _render(page, anchors, redirects, kept={1}, mode="fancy")


def test_anchor_inside_masked_region_still_emits():
    # Anchors are walked from their spans, so markup masking around them
    # cannot swallow a linked concept.
    body = "{{Infobox|capital=[[Beta]]}} tail"
    page = PageRecord(1, "Alpha", 0, None, body)
    line = _render(page, extract_anchors(body), RedirectMap(mapping={"Beta": 2}),
                   kept={1, 2}, mode="standard")
    assert line == "wiki_2 tail"


def test_build_corpus_standard_matches_golden(tmp_path):
    out = tmp_path / "corpus.txt"
    stats_tsv = tmp_path / "anchors.tsv"
    stats = build_corpus(FIXTURE_DUMP, out, mode="standard", anchor_stats_path=stats_tsv)
    assert out.read_bytes() == GOLDEN_STANDARD.read_bytes()
    assert stats_tsv.read_bytes() == GOLDEN_ANCHOR_STATS.read_bytes()
    assert stats.pages_seen == 25
    assert stats.pages_kept == 6
    assert stats.anchors_explicit == 22
    assert stats.anchors_heuristic == 0
    assert stats.tokens_emitted == 200
    assert stats.redirect_cycles == 1


def test_build_corpus_mode_token_counts(tmp_path):
    counts = {}
    for mode in ("standard", "heuristic", "anchors_only"):
        out = tmp_path / f"{mode}.txt"
        build_corpus(FIXTURE_DUMP, out, mode=mode)
        counts[mode] = [len(line.split()) for line in out.read_text().splitlines()]
    for i, (_, std, concepts, _) in enumerate(FIXTURE_KEPT_FACTS):
        assert counts["standard"][i] == std
        assert counts["anchors_only"][i] == concepts
        assert counts["anchors_only"][i] <= counts["standard"][i] <= counts["heuristic"][i]


def test_build_corpus_heuristic_anchor_tally(tmp_path):
    stats = build_corpus(FIXTURE_DUMP, tmp_path / "h.txt", mode="heuristic")
    assert stats.anchors_heuristic == sum(m for *_, m in FIXTURE_KEPT_FACTS)
    assert stats.anchors_explicit == 22


def test_build_corpus_parallel_same_lines(tmp_path):
    # Any worker count gives the same bytes, anchor statistics and stats; the
    # fixture's 6 kept pages split unevenly over 4 workers.
    for mode in ("standard", "heuristic", "anchors_only"):
        outputs = {}
        for workers in (1, 2, 4):
            out = tmp_path / f"{mode}.{workers}.txt"
            tsv = tmp_path / f"{mode}.{workers}.tsv"
            stats = build_corpus(FIXTURE_DUMP, out, mode=mode, workers=workers,
                                 anchor_stats_path=tsv)
            outputs[workers] = (out.read_bytes(), tsv.read_bytes(), stats)
        assert outputs[2] == outputs[1] and outputs[4] == outputs[1]
    assert not list(tmp_path.glob("*.part*"))


def test_build_corpus_rejects_zero_workers(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        build_corpus(FIXTURE_DUMP, tmp_path / "x.txt", workers=0)


def test_build_corpus_rejects_bad_mode(tmp_path):
    with pytest.raises(ValueError, match="unknown mode"):
        build_corpus(FIXTURE_DUMP, tmp_path / "x.txt", mode="everything")


def test_build_corpus_accepts_hyphenated_mode_alias(tmp_path):
    out = tmp_path / "a.txt"
    build_corpus(FIXTURE_DUMP, out, mode="anchors-only")
    assert out.read_text().splitlines()[0] == "wiki_2 wiki_3 wiki_1 wiki_3"


def test_render_overlapping_spans_do_not_duplicate_text():
    # Two spans covering the same region: the second starts before the first
    # ends, and the walker must not re-read those characters.
    body = "alpha beta gamma"
    page = PageRecord(1, "T", 0, None, body)
    spans = [AnchorSpan("X", "beta", 6, 10), AnchorSpan("Y", "eta g", 7, 12)]
    line = _render(page, spans, RedirectMap(mapping={"X": 2, "Y": 3}),
                   kept={2, 3}, mode="standard")
    assert line == "alpha wiki_2 wiki_3 amma"
