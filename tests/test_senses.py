"""Most-frequent-sense index: winners, tie rule, normalisation, file errors."""

import pytest

from conftest import GOLDEN_ANCHOR_STATS, sense_index
from oracles import most_frequent_sense
from wikivec.evaluation.senses import SenseIndex, load_sense_index


def test_highest_count_wins():
    index = sense_index([("java", 1, 1), ("java", 1, 1), ("java", 2, 1)])
    assert index.lookup("java") == 1
    assert index.mapping["java"] == (1, 2)


def test_tie_goes_to_smaller_page_id():
    index = sense_index([("mercury", 9, 1), ("mercury", 4, 1)])
    assert index.lookup("mercury") == 4


def test_lookup_normalises_case_and_spacing():
    index = sense_index([("new york", 7, 1)])
    assert index.lookup("New   York") == 7
    assert index.lookup(" new york ") == 7
    assert index.lookup("boston") is None
    assert "new york" in index and "boston" not in index


def test_load_normalises_surfaces_before_counting():
    # "Java", "java" and " JAVA " are one surface form.
    index = sense_index([("Java", 3, 1), ("java", 3, 1), (" JAVA ", 8, 1)])
    assert len(index) == 1
    assert index.mapping["java"] == (3, 2)


def test_load_aggregates_repeated_rows(tmp_path):
    path = tmp_path / "split.tsv"
    path.write_text("java\t1\t2\njava\t2\t2\njava\t1\t1\n", encoding="utf-8")
    index = load_sense_index(path)
    assert index.mapping["java"] == (1, 3)


def test_load_errors_carry_line_numbers(tmp_path):
    bad_fields = tmp_path / "fields.tsv"
    bad_fields.write_text("a\t1\t2\nb\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_sense_index(bad_fields)

    bad_int = tmp_path / "int.tsv"
    bad_int.write_text("a\tone\t2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1: bad integer"):
        load_sense_index(bad_int)


def test_load_rejects_blank_surfaces(tmp_path):
    # A blank surface would map "" to a page, and so a blank dataset term.
    path = tmp_path / "blank.tsv"
    path.write_text("paris\t1\t3\n  \t1\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="blank.tsv: line 2: blank surface"):
        load_sense_index(path)


def test_fixture_stats_match_brute_force_oracle():
    index = load_sense_index(GOLDEN_ANCHOR_STATS)
    counts = {}
    with open(GOLDEN_ANCHOR_STATS, encoding="utf-8") as handle:
        for line in handle:
            surface, page_id, n = line.rstrip("\n").split("\t")
            counts[(surface, int(page_id))] = counts.get((surface, int(page_id)), 0) + int(n)
    want = most_frequent_sense(counts)
    got = {surface: entry[0] for surface, entry in index.mapping.items()}
    assert got == want
    # The fixture's one genuine tie: "learning" links once each to pages 4
    # and 5, so the smaller id must win.
    assert index.lookup("learning") == 4


def test_empty_index():
    index = SenseIndex()
    assert len(index) == 0
    assert index.lookup("anything") is None
