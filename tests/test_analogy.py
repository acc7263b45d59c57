"""Analogy evaluation: loader, offset scoring, buckets, commons rescoring."""

import numpy as np
import pytest

from conftest import DATA
from oracles import analogy_predictions
from wikivec.evaluation.analogy import (
    AnalogyQuestion,
    AnalogyReport,
    eval_analogy,
    eval_analogy_commons,
    load_analogy_questions,
)
from wikivec import vectors
from wikivec.vectors import VectorSet


def test_loader_reads_sections_and_lowercases():
    questions = load_analogy_questions(DATA / "questions_fixture.txt")
    assert [q.section for q in questions] == ["capital-country", "capital-country",
                                              "plural"]
    assert questions[0].tokens == ("paris", "france", "berlin", "germany")
    # Mixed-case rows come out lowercased.
    assert questions[1].tokens == ("athens", "greece", "oslo", "norway")


def test_loader_rejects_wrong_token_count():
    with pytest.raises(ValueError, match="line 2"):
        load_analogy_questions(DATA / "questions_bad.txt")


def _quad_set():
    # Orthogonal pairs arranged so b - a + c lands exactly on d.
    tokens = ["man", "king", "woman", "queen", "boy", "prince", "filler"]
    matrix = np.array([
        [1.0, 0.0, 0.0, 0.0],   # man
        [1.0, 1.0, 0.0, 0.0],   # king = man + royal
        [0.0, 0.0, 1.0, 0.0],   # woman
        [0.0, 1.0, 1.0, 0.0],   # queen = woman + royal
        [0.0, 0.0, 0.0, 1.0],   # boy
        [0.0, 1.0, 0.0, 1.0],   # prince = boy + royal
        [0.3, 0.3, 0.3, 0.3],
    ])
    return VectorSet(tokens, matrix)


def test_eval_analogy_counts_and_accuracy():
    vset = _quad_set()
    questions = [
        AnalogyQuestion("man", "king", "woman", "queen"),
        AnalogyQuestion("man", "king", "boy", "prince"),
        AnalogyQuestion("woman", "queen", "boy", "prince"),
        AnalogyQuestion("man", "king", "girl", "princess"),  # OOV: never found
    ]
    (report,) = eval_analogy(vset, questions, buckets=[7])
    assert (report.bucket, report.found, report.correct) == (7, 3, 3)
    assert report.accuracy == 1.0


def test_bucket_cap_limits_found_and_candidates():
    vset = _quad_set()
    questions = [
        AnalogyQuestion("man", "king", "woman", "queen"),   # rows 0..3
        AnalogyQuestion("man", "king", "boy", "prince"),    # needs rows 4, 5
    ]
    reports = eval_analogy(vset, questions, buckets=[4, 6])
    assert [(r.bucket, r.found, r.correct) for r in reports] == [(4, 1, 1), (6, 2, 2)]


def test_correctness_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    tokens = [f"w{i}" for i in range(12)]
    for _ in range(30):
        matrix = rng.normal(size=(12, 4))
        vset = VectorSet(tokens, matrix)
        questions = []
        for _ in range(8):
            a, b, c, d = rng.choice(12, size=4, replace=False)
            questions.append(AnalogyQuestion(tokens[a], tokens[b], tokens[c], tokens[d]))
        (report,) = eval_analogy(vset, questions, buckets=[12])
        want = analogy_predictions(tokens, matrix.tolist(),
                                   [q.tokens for q in questions])
        assert report.found == sum(f for f, _ in want)
        assert report.correct == sum(c for _, c in want)


def test_eval_analogy_matches_oracle_across_tiles_and_caps(monkeypatch):
    monkeypatch.setattr(vectors, "_TILE", 4)
    rng = np.random.default_rng(29)
    tokens = [f"w{i}" for i in range(30)]
    for _ in range(10):
        matrix = rng.normal(size=(30, 5))
        matrix[rng.choice(30, size=3, replace=False)] = 0.0
        vset = VectorSet(tokens, matrix)
        questions = [AnalogyQuestion(*(tokens[i] for i in rng.choice(30, 4, replace=False)))
                     for _ in range(40)]
        caps = [5, 13, 30, 99]
        for cap, report in zip(caps, eval_analogy(vset, questions, caps)):
            want = analogy_predictions(tokens[:cap], matrix[:cap].tolist(),
                                       [q.tokens for q in questions])
            assert (report.found, report.correct) == (sum(f for f, _ in want),
                                                      sum(c for _, c in want))


def test_analogy_query_agrees_with_eval_analogy_question_by_question(monkeypatch):
    monkeypatch.setattr(vectors, "_TILE", 3)
    rng = np.random.default_rng(31)
    tokens = [f"w{i}" for i in range(20)]
    for _ in range(15):
        vset = VectorSet(tokens, rng.normal(size=(20, 3)))
        a, b, c = (tokens[i] for i in rng.choice(20, 3, replace=False))
        # One question per candidate d: exactly the predicted one is correct.
        answer = vset.analogy_query(a, b, c)
        for d in tokens:
            if d in (a, b, c):
                continue
            (report,) = eval_analogy(vset, [AnalogyQuestion(a, b, c, d)], [20])
            assert report.correct == (d == answer)


def test_each_set_is_normalised_once_across_buckets(monkeypatch):
    normalised, calls = [], []
    unit_matrix = VectorSet.unit_matrix

    def counting(vset):
        calls.append(vset)
        if vset._unit is None:
            normalised.append(vset)
        return unit_matrix(vset)
    monkeypatch.setattr(VectorSet, "unit_matrix", counting)
    questions = [AnalogyQuestion("man", "king", "woman", "queen"),
                 AnalogyQuestion("man", "king", "boy", "prince")]
    vset = _quad_set()
    eval_analogy(vset, questions, [4, 6, 7])
    assert len(calls) == 3 and normalised == [vset]
    sets = [_quad_set(), _quad_set()]
    calls.clear()
    normalised.clear()
    eval_analogy_commons(sets, questions, [4, 6, 7])
    assert len(calls) == 6 and normalised == sets


def test_prediction_tie_breaks_toward_earlier_token():
    # Two identical candidate rows: the earlier one is the prediction, so the
    # question is correct only when its d is the earlier row.
    matrix = np.array([
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 1.0],
        [2.0, 1.0],   # first of two identical candidates
        [2.0, 1.0],
    ])
    tokens = ["a", "b", "c", "d_first", "d_second"]
    vset = VectorSet(tokens, matrix)
    hit = eval_analogy(vset, [AnalogyQuestion("a", "b", "c", "d_first")], [5])[0]
    miss = eval_analogy(vset, [AnalogyQuestion("a", "b", "c", "d_second")], [5])[0]
    assert (hit.found, hit.correct) == (1, 1)
    assert (miss.found, miss.correct) == (1, 0)


def test_zero_offset_is_found_but_incorrect():
    # b - a + c == 0 has no direction; the question still counts as found.
    matrix = np.array([
        [1.0, 0.0],
        [2.0, 0.0],
        [-1.0, 0.0],
        [0.5, 0.5],
    ])
    vset = VectorSet(["a", "b", "c", "d"], matrix)
    (report,) = eval_analogy(vset, [AnalogyQuestion("a", "b", "c", "d")], [4])
    assert (report.found, report.correct) == (1, 0)


def test_all_candidates_masked_is_found_but_incorrect():
    # Only a, b, c and one zero row in the cap: nothing can be predicted.
    matrix = np.array([
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 1.0],
        [0.0, 0.0],
    ])
    vset = VectorSet(["a", "b", "c", "d"], matrix)
    (report,) = eval_analogy(vset, [AnalogyQuestion("a", "b", "c", "d")], [4])
    assert (report.found, report.correct) == (1, 0)


def test_accuracy_none_when_nothing_found():
    vset = _quad_set()
    (report,) = eval_analogy(vset, [AnalogyQuestion("x", "y", "z", "w")], [7])
    assert (report.found, report.correct) == (0, 0)
    assert report.accuracy is None
    assert AnalogyReport(bucket=1, found=4, correct=3).accuracy == 0.75


def test_eval_analogy_requires_positive_caps():
    with pytest.raises(ValueError, match="caps"):
        eval_analogy(_quad_set(), [], [0])


def test_commons_scores_shared_questions_only():
    big = _quad_set()
    # The small set lacks "boy"/"prince", so only the first question is shared.
    small = VectorSet(
        ["man", "king", "woman", "queen"],
        big.matrix[:4].copy(),
    )
    questions = [
        AnalogyQuestion("man", "king", "woman", "queen"),
        AnalogyQuestion("man", "king", "boy", "prince"),
    ]
    big_reports, small_reports = eval_analogy_commons([big, small], questions, [7])
    assert (big_reports[0].found, big_reports[0].correct) == (1, 1)
    assert (small_reports[0].found, small_reports[0].correct) == (1, 1)
    # Commons found can never exceed a single set's own found count.
    (solo,) = eval_analogy(big, questions, [7])
    assert big_reports[0].found <= solo.found


def test_commons_empty_input():
    assert eval_analogy_commons([], [], [3]) == []
