"""Phrase similarity: loaders, sense routing, rho computation, common subsets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA, sense_index
from oracles import dot, spearman_fraction
from wikivec.evaluation import similarity
from wikivec.evaluation.senses import SenseIndex
from wikivec.evaluation.similarity import (
    SimilarityDataset,
    SimilarityReport,
    common_subset_eval,
    eval_similarity,
    load_similarity_pairs,
    map_surface,
)
from wikivec.evaluation.stats import spearman
from wikivec.linkgraph import LinkGraph
from wikivec.vectors import VectorSet

EMPTY_SENSES = SenseIndex()


def _dataset(*rows):
    """A dataset from ``(surface_a, surface_b, human)`` rows."""
    a, b, human = zip(*rows) if rows else ((), (), ())
    return SimilarityDataset(list(a), list(b), np.array(human, dtype=np.float64))


def test_load_tab_separated():
    pairs = load_similarity_pairs(DATA / "sim_tab.tsv")
    assert len(pairs) == 4
    assert (pairs.surface_a[0], pairs.surface_b[0], pairs.human[0]) == ("Paris", "France", 7.5)
    assert pairs.surface_a[1] == "machine learning"
    assert pairs.human.dtype == np.float64


def test_load_comma_separated():
    pairs = load_similarity_pairs(DATA / "sim_comma.csv")
    assert pairs.surface_a == ["paris", "car"]
    assert pairs.surface_b == ["france", "automobile"]
    assert pairs.human.tolist() == [7.5, 8.94]


def test_load_errors_carry_line_numbers(tmp_path):
    with pytest.raises(ValueError, match="line 2"):
        load_similarity_pairs(DATA / "sim_bad.csv")
    with pytest.raises(ValueError, match="bad score"):
        load_similarity_pairs(DATA / "sim_bad_score.csv")
    for value in ("nan", "inf", "-Infinity"):
        nonfinite = tmp_path / "nonfinite.csv"
        nonfinite.write_text(f"tiger,cat,7.35\nparis,france,{value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="nonfinite.csv: line 2: non-finite score"):
            load_similarity_pairs(nonfinite)


@pytest.mark.parametrize("row", [",wiki_2,1.0", "paris, ,1.0", "paris\t\u3000\t2.0"])
def test_load_rejects_blank_terms(tmp_path, row):
    path = tmp_path / "blank.csv"
    path.write_text(f"tiger,cat,7.35\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="blank.csv: line 2: blank term"):
        load_similarity_pairs(path)


def test_map_surface_routes_through_senses():
    senses = sense_index([("paris", 1, 1), ("machine learning", 5, 1)])
    assert map_surface(senses, "Paris") == "wiki_1"
    assert map_surface(senses, "Machine   Learning") == "wiki_5"
    assert map_surface(senses, "Rare Phrase") == "rare phrase"


def _lookup_then_normalise(sense_index, surface):
    """``map_surface`` as two steps: the index's own lookup, then the plain word."""
    page_id = sense_index.lookup(surface)
    if page_id is not None:
        return f"wiki_{page_id}"
    return " ".join(surface.split()).lower()


phrase_words = st.lists(st.text(alphabet="abzAZéÉİßΣς", min_size=1, max_size=4),
                        min_size=1, max_size=3)


@st.composite
def surface_variants(draw, words):
    """``words`` joined by any whitespace, padded, in any case."""
    gaps = [draw(st.sampled_from(["", " ", "  ", "\t", "\n", " \t ", "\u3000"]))
            for _ in range(len(words) + 1)]
    gaps[1:-1] = [gap or " " for gap in gaps[1:-1]]
    text = gaps[0] + "".join(word + gap for word, gap in zip(words, gaps[1:]))
    return draw(st.sampled_from([str, str.upper, str.lower, str.title, str.swapcase]))(text)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.lists(st.tuples(phrase_words, st.integers(0, 30)), max_size=5),
       phrase_words)
def test_map_surface_matches_lookup_then_normalise(data, entries, stranger):
    senses = sense_index((" ".join(words), page, 1) for words, page in entries)
    for words in [*(words for words, _ in entries), stranger]:
        surface = data.draw(surface_variants(words))
        assert map_surface(senses, surface) == _lookup_then_normalise(senses, surface)


def _diagonal_set(tokens, scores):
    """Vectors in distinct planes: cosine(t_i, t_j) is controlled exactly.

    Each token i gets (cos a_i, sin a_i) in its own 2-plane shared with a
    reference axis, so cosine to the reference token equals cos a_i.
    """
    n = len(tokens)
    dim = n + 1
    matrix = np.zeros((n + 1, dim))
    matrix[0, 0] = 1.0  # reference token
    for i, s in enumerate(scores, start=1):
        angle = math.acos(s)
        matrix[i, 0] = math.cos(angle)
        matrix[i, i] = math.sin(angle)
    return VectorSet(["ref"] + list(tokens), matrix)


def test_eval_similarity_matches_hand_spearman():
    # Pair ("ref", t_i) has cosine exactly scores[i]; humans rate in a
    # different order, so rho is the hand value for that permutation.
    tokens = ["a", "b", "c", "d"]
    cosines = [0.9, 0.1, 0.5, 0.3]
    human = [8.0, 3.0, 4.0, 6.0]
    vset = _diagonal_set(tokens, cosines)
    pairs = _dataset(*(("ref", t, h) for t, h in zip(tokens, human)))
    report = eval_similarity(vset, pairs, EMPTY_SENSES, dataset="hand")
    assert report.dataset == "hand"
    assert (report.pairs_total, report.not_found, report.found) == (4, 0, 4)
    assert report.rho == pytest.approx(spearman(cosines, human), abs=1e-12)
    # ranks: cosines -> [4,1,3,2]; human -> [4,1,2,3]; rho = 0.8
    assert report.rho == pytest.approx(0.8, abs=1e-12)


def test_eval_similarity_counts_missing_pairs():
    vset = _diagonal_set(["a", "b", "c"], [0.9, 0.5, 0.1])
    pairs = _dataset(("ref", "a", 9.0), ("ref", "zzz", 5.0), ("ref", "b", 4.0),
                     ("ref", "c", 1.0))
    report = eval_similarity(vset, pairs, EMPTY_SENSES)
    assert (report.pairs_total, report.not_found, report.found) == (4, 1, 3)
    assert report.rho == pytest.approx(1.0, abs=1e-12)


def test_eval_similarity_rho_none_below_two_found():
    vset = _diagonal_set(["a"], [0.5])
    pairs = _dataset(("ref", "a", 5.0), ("ref", "xx", 2.0))
    report = eval_similarity(vset, pairs, EMPTY_SENSES)
    assert report.found == 1
    assert report.rho is None


def test_eval_similarity_scorer_route():
    # Out-links 1 -> {2, 5} and 2 -> {1, 5} share page 5; pages 3 and 4 share
    # no neighbour on either side, so Paris-France outscores Tiger-Cat.
    graph = LinkGraph.from_links([1, 2, 3, 4, 5], {1: [2, 5], 2: [1, 5], 3: [5], 4: [1]})
    senses = sense_index([("paris", 1, 1), ("france", 2, 1), ("tiger", 3, 1), ("cat", 4, 1),
                          ("paper", 9, 1)])
    pairs = _dataset(("Paris", "France", 9.0), ("Tiger", "Cat", 5.0),
                     ("book", "paper", 4.0))  # no concept, no graph page: not found
    report = eval_similarity(None, pairs, senses, scorer=graph)
    assert (report.pairs_total, report.not_found) == (3, 1)
    assert report.rho == pytest.approx(1.0, abs=1e-12)


def test_eval_similarity_needs_vectors_or_scorer():
    with pytest.raises(ValueError, match="scorer"):
        eval_similarity(None, _dataset(), EMPTY_SENSES)


def test_common_subset_keeps_only_shared_pairs():
    big = _diagonal_set(["a", "b", "c"], [0.9, 0.5, 0.1])
    small = _diagonal_set(["a", "b"], [0.2, 0.8])
    pairs = _dataset(("ref", "a", 9.0), ("ref", "b", 5.0),
                     ("ref", "c", 1.0))  # missing from `small`: dropped
    report = common_subset_eval({"big": big, "small": small},
                                {"ds": pairs}, EMPTY_SENSES)
    assert report.set_names == ["big", "small"]
    assert len(report.rows) == 1
    name, n_shared, scores = report.rows[0]
    assert (name, n_shared) == ("ds", 2)
    assert scores["big"] == pytest.approx(1.0, abs=1e-12)
    assert scores["small"] == pytest.approx(-1.0, abs=1e-12)
    assert report.averages() == pytest.approx({"big": 1.0, "small": -1.0})


def test_common_subset_skips_datasets_without_enough_shared_pairs():
    big = _diagonal_set(["a", "b"], [0.9, 0.5])
    tiny = _diagonal_set(["a"], [0.9])
    pairs = _dataset(("ref", "a", 9.0), ("ref", "b", 5.0))
    report = common_subset_eval({"big": big, "tiny": tiny}, {"ds": pairs},
                                EMPTY_SENSES)
    assert report.rows == []
    assert report.skipped == ["ds"]
    assert report.averages() == {}


def test_report_found_property():
    report = SimilarityReport(dataset="x", pairs_total=10, not_found=3, rho=0.5)
    assert report.found == 7


def _counting_map_surface(monkeypatch):
    """Replace ``map_surface`` with a wrapper that records each surface it maps."""
    seen = []
    real = similarity.map_surface

    def counted(sense_index, surface):
        seen.append(surface)
        return real(sense_index, surface)

    monkeypatch.setattr(similarity, "map_surface", counted)
    return seen


def test_each_distinct_surface_is_mapped_once_per_dataset(monkeypatch):
    seen = _counting_map_surface(monkeypatch)
    vset = _diagonal_set(["a", "b", "c"], [0.9, 0.5, 0.1])
    small = _diagonal_set(["a", "b"], [0.2, 0.8])
    pairs = _dataset(("ref", "a", 9.0), ("a", "ref", 8.0), ("ref", "b", 5.0),
                     ("b", "c", 4.0), ("ref", "a", 7.0), ("ref", "zzz", 1.0))
    distinct = {"ref", "a", "b", "c", "zzz"}

    eval_similarity(vset, pairs, EMPTY_SENSES)
    assert sorted(seen) == sorted(distinct)

    seen.clear()
    eval_similarity(None, pairs, EMPTY_SENSES, scorer=LinkGraph.from_links([1], {}))
    assert sorted(seen) == sorted(distinct)

    # One mapping per dataset, shared by every set.
    seen.clear()
    common_subset_eval({"big": vset, "small": small, "again": vset},
                       {"one": pairs, "two": pairs}, EMPTY_SENSES)
    assert sorted(seen) == sorted([*distinct, *distinct])


def _oracle_cosine(u, v):
    return dot(u, v) / (math.sqrt(dot(u, u)) * math.sqrt(dot(v, v)))


@pytest.mark.parametrize("dim", [3, 5, 7, 13, 16, 300])
def test_equal_pairs_score_bit_equal_and_rho_matches_the_oracle(dim):
    # Few tokens fill many pair slots, so most cosines are repeats; a repeat
    # scored one ulp apart would split a tie and move rho.
    rng = np.random.default_rng(dim)
    tokens = [f"t{i}" for i in range(8)]
    matrix = rng.normal(size=(len(tokens), dim))
    vset = VectorSet(tokens, matrix)
    first = rng.integers(0, len(tokens), size=600)
    second = (first + rng.integers(1, len(tokens), size=600)) % len(tokens)
    human = rng.integers(0, 5, size=600).astype(float)

    scores = vset.pair_cosines(first, second)
    swapped = vset.pair_cosines(second, first)
    assert np.array_equal(scores, swapped)
    by_pair = {}
    for a, b, score in zip(first.tolist(), second.tolist(), scores.tolist()):
        assert by_pair.setdefault((min(a, b), max(a, b)), score) == score
    assert vset.pair_cosines(first[:1], second[:1])[0] == scores[0]

    pairs = _dataset(*((tokens[a], tokens[b], h)
                       for a, b, h in zip(first.tolist(), second.tolist(), human)))
    report = eval_similarity(vset, pairs, EMPTY_SENSES)
    want = spearman_fraction([_oracle_cosine(matrix[a].tolist(), matrix[b].tolist())
                              for a, b in zip(first.tolist(), second.tolist())],
                             human.tolist())
    assert report.found == 600
    assert report.rho == pytest.approx(want, abs=1e-12)

    shared = common_subset_eval({"x": vset, "y": vset}, {"ds": pairs}, EMPTY_SENSES)
    assert shared.rows[0][2]["x"] == shared.rows[0][2]["y"] == report.rho
