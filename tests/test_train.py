"""Trainer unit tests: gradients against finite differences, the per-center kernel
against a pure-Python oracle, window building, schedules, determinism."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import center_block_update, fd_gradients, log_sigmoid, neg_pair_loss
from wikivec.embedding.model import EmbeddingModel, TrainingConfig, init_model
from wikivec.embedding.train import (
    _keep_probabilities,
    _line_contexts,
    _train_center,
    pair_loss,
    sgd_step,
    train,
)
from wikivec.embedding.vocab import Vocabulary, build_vocab


def _model(n_tokens=6, dim=5, seed=0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary([f"t{i}" for i in range(n_tokens)],
                       np.arange(n_tokens, 0, -1) * 3)
    cfg = TrainingConfig(dim=dim, min_count=1)
    return EmbeddingModel(vocab,
                          rng.normal(scale=0.5, size=(n_tokens, dim)),
                          rng.normal(scale=0.5, size=(n_tokens, dim)),
                          cfg)


def test_pair_loss_matches_pure_python_oracle():
    model = _model(seed=11)
    for negatives in ([2], [2, 3], [2, 2, 4]):
        got = pair_loss(model, 0, 1, negatives)
        want = neg_pair_loss(model.input_vectors[0].tolist(),
                             model.output_vectors[1].tolist(),
                             [model.output_vectors[n].tolist() for n in negatives])
        assert got == pytest.approx(want, abs=1e-12)


def _analytic_gradients(model, center, context, negatives, lr=1e-3):
    """Recover dL/dparam rows from one sgd_step via g = -delta / lr."""
    inp0 = model.input_vectors.copy()
    out0 = model.output_vectors.copy()
    sgd_step(model, center, context, negatives, lr)
    g_center = -(model.input_vectors[center] - inp0[center]) / lr
    g_out = {}
    for row in {context, *negatives}:
        g_out[row] = -(model.output_vectors[row] - out0[row]) / lr
    model.input_vectors[:] = inp0
    model.output_vectors[:] = out0
    return g_center, g_out


def _relative_error(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(np.linalg.norm(want), 1e-12)
    return np.linalg.norm(got - want) / scale


def test_sgd_step_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    for case in range(10):
        model = _model(n_tokens=6, dim=5, seed=100 + case)
        center = int(rng.integers(0, 6))
        context = int((center + 1 + rng.integers(0, 5)) % 6)
        k = int(rng.integers(1, 6))
        negatives = [int(n) for n in rng.integers(0, 6, size=k) if int(n) != context]
        if not negatives:
            negatives = [(context + 1) % 6]
        g_center, g_out = _analytic_gradients(model, center, context, negatives)
        fd_center, fd_out = fd_gradients(model.input_vectors.tolist(),
                                         model.output_vectors.tolist(),
                                         center, context, negatives)
        assert _relative_error(g_center, fd_center) < 1e-4
        for row, fd_row in fd_out.items():
            assert _relative_error(g_out[row], fd_row) < 1e-4


def test_sgd_step_handles_duplicate_negative_rows():
    # Duplicates must accumulate: the delta equals -lr times the summed gradient.
    model = _model(seed=5)
    negatives = [3, 3, 3]
    g_center, g_out = _analytic_gradients(model, 0, 1, negatives)
    fd_center, fd_out = fd_gradients(model.input_vectors.tolist(),
                                     model.output_vectors.tolist(),
                                     0, 1, negatives)
    assert _relative_error(g_center, fd_center) < 1e-4
    assert _relative_error(g_out[3], fd_out[3]) < 1e-4


def test_sgd_step_returns_pre_update_loss():
    model = _model(seed=7)
    before = pair_loss(model, 2, 4, [0, 5])
    reported = sgd_step(model, 2, 4, [0, 5], lr=0.05)
    assert reported == pytest.approx(before, abs=1e-12)


def test_sgd_step_decreases_loss_when_repeated():
    model = _model(seed=3)
    losses = [sgd_step(model, 1, 2, [4, 5], lr=0.1) for _ in range(100)]
    assert losses[-1] < losses[0]
    assert losses[-1] < 0.1


def test_sgd_step_argument_validation():
    model = _model()
    with pytest.raises(ValueError, match="differ"):
        sgd_step(model, 2, 2, [0], lr=0.1)
    for lr in (0.0, float("nan"), float("inf")):
        before = (model.input_vectors.copy(), model.output_vectors.copy())
        with pytest.raises(ValueError, match="lr"):
            sgd_step(model, 0, 1, [2], lr=lr)
        assert np.array_equal(model.input_vectors, before[0])
        assert np.array_equal(model.output_vectors, before[1])


# Blocks of pairs for one center (center 0): context first, then negatives.
BLOCK_CASES = {
    # Row 1 is the context of two pairs, and row 3 a negative of both.
    "repeated context": ([[1, 3, 4], [1, 2, 3], [5, 3, 3]], None),
    # Pair 0's negative 2 is pair 1's context, and pair 1's negative 1 is pair 0's.
    "negative is another pair's context": ([[1, 2, 4], [2, 1, 5]], None),
    # Pair 0 keeps one negative; pair 1 has none left, so it is skipped whole.
    "masked negatives": ([[1, 1, 4], [2, 2, 2], [3, 4, 1]],
                         [[True, False, True], [False, False, False], [True, True, True]]),
}


def _assert_matches_oracle(model, block, center, lr, live):
    want_inp, want_out, want_scores = center_block_update(
        model.input_vectors.tolist(), model.output_vectors.tolist(), block, center, lr, live)
    scores = _train_center(model.input_vectors, model.output_vectors,
                           np.asarray(block, dtype=np.int64), center, lr,
                           None if live is None else np.asarray(live))
    np.testing.assert_allclose(scores, want_scores, rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.input_vectors, want_inp, rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.output_vectors, want_out, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_train_center_matches_block_oracle(case):
    block, live = BLOCK_CASES[case]
    model = _model(seed=31)
    before = model.output_vectors.copy()
    _assert_matches_oracle(model, block, 0, 0.3, live)
    if live is not None:
        # The skipped pair's context row 2 is touched by no live entry.
        assert np.array_equal(model.output_vectors[2], before[2])


def test_train_center_matches_block_oracle_on_random_blocks():
    rng = np.random.default_rng(17)
    for case in range(60):
        model = _model(n_tokens=7, dim=4, seed=200 + case)
        center = int(rng.integers(0, 7))
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        # Few rows, so repeats within and across pairs are common.
        block = rng.integers(0, 7, size=(m, k + 1)).tolist()
        live = (rng.random((m, k + 1)) < 0.8).tolist() if case % 2 else None
        _assert_matches_oracle(model, block, center, float(rng.uniform(0.01, 0.5)), live)


def test_sgd_step_is_the_one_row_block():
    model = _model(seed=41)
    want_inp, want_out, (want_scores,) = center_block_update(
        model.input_vectors.tolist(), model.output_vectors.tolist(), [[4, 0, 5, 0]], 2, 0.2)
    loss = sgd_step(model, 2, 4, [0, 5, 0], lr=0.2)
    np.testing.assert_allclose(model.input_vectors, want_inp, rtol=0, atol=1e-12)
    np.testing.assert_allclose(model.output_vectors, want_out, rtol=0, atol=1e-12)
    want_loss = -log_sigmoid(want_scores[0]) - sum(log_sigmoid(-s) for s in want_scores[1:])
    assert loss == pytest.approx(want_loss, abs=1e-12)


def _reference_contexts(ids, radii):
    """The per-position window loop: left part, then right part, centre ids removed."""
    n = len(ids)
    per_position = []
    for pos in range(n):
        lo = max(0, pos - radii[pos])
        hi = min(n, pos + radii[pos] + 1)
        window = ids[lo:pos] + ids[pos + 1:hi]
        per_position.append([c for c in window if c != ids[pos]])
    return per_position


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda window: st.tuples(
    st.just(window),
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, window)), min_size=1, max_size=40))))
def test_line_contexts_match_the_per_position_loop(case):
    window, positions = case
    ids = [i for i, _ in positions]
    radii = [r for _, r in positions]
    counts, contexts = _line_contexts(np.array(ids), np.array(radii), window)
    want = _reference_contexts(ids, radii)
    assert counts.tolist() == [len(c) for c in want]
    assert contexts.tolist() == [c for per_pos in want for c in per_pos]


def test_keep_probabilities():
    counts = np.array([900.0, 90.0, 10.0])
    t = 0.01
    probs = _keep_probabilities(counts, t)
    rel = counts / counts.sum()
    for i in range(3):
        ratio = t / rel[i]
        assert probs[i] == pytest.approx(min(1.0, np.sqrt(ratio) + ratio), abs=1e-15)
    # Rare tokens always survive; disabling the threshold keeps everything.
    assert probs[2] == 1.0
    assert np.all(_keep_probabilities(counts, 0.0) == 1.0)


def _tiny_corpus(tmp_path, lines=40):
    path = tmp_path / "tiny.txt"
    rng = np.random.default_rng(4)
    words = ["red", "green", "blue", "cyan", "wiki_1", "wiki_2"]
    rows = [" ".join(rng.choice(words, size=12)) for _ in range(lines)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_train_epochs_zero_is_a_no_op(tmp_path):
    corpus = _tiny_corpus(tmp_path)
    cfg = TrainingConfig(dim=8, epochs=0, min_count=1, seed=2)
    vocab = build_vocab(corpus, min_count=1)
    model = init_model(vocab, cfg)
    before = model.input_vectors.copy()
    train(corpus, model)
    assert np.array_equal(model.input_vectors, before)
    assert np.all(model.output_vectors == 0)


def test_train_single_worker_is_deterministic(tmp_path):
    corpus = _tiny_corpus(tmp_path)
    cfg = TrainingConfig(dim=8, epochs=2, window=3, negatives=3,
                         min_count=1, seed=2, subsample_t=1e-3)
    runs = []
    for _ in range(2):
        vocab = build_vocab(corpus, min_count=1)
        model = train(corpus, init_model(vocab, cfg))
        runs.append((model.input_vectors.copy(), model.output_vectors.copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    # And training actually moved the matrices.
    fresh = init_model(build_vocab(corpus, min_count=1), cfg)
    assert not np.array_equal(runs[0][0], fresh.input_vectors)


def test_train_changes_with_seed(tmp_path):
    # Same initialisation, different training seed: the trajectories diverge.
    corpus = _tiny_corpus(tmp_path)
    vocab = build_vocab(corpus, min_count=1)
    outs = []
    for seed in (1, 2):
        cfg = TrainingConfig(dim=8, epochs=1, window=3, negatives=2,
                             min_count=1, seed=seed, subsample_t=0.0)
        model = init_model(vocab, TrainingConfig(dim=8, min_count=1, seed=77))
        train(corpus, model, cfg)
        outs.append(model.input_vectors.copy())
    assert not np.array_equal(outs[0], outs[1])


def test_train_skips_out_of_vocabulary_tokens(tmp_path):
    corpus = tmp_path / "oov.txt"
    corpus.write_text("a b mystery a b\n", encoding="utf-8")
    vocab = Vocabulary(["a", "b"], np.array([2, 2]))
    cfg = TrainingConfig(dim=4, epochs=1, min_count=1, seed=0, subsample_t=0.0)
    model = train(corpus, init_model(vocab, cfg))
    assert np.isfinite(model.input_vectors).all()


def test_train_two_workers_smoke(tmp_path):
    corpus = _tiny_corpus(tmp_path, lines=60)
    # Subsampling off: at these corpus sizes the default threshold would
    # discard nearly every token and leave nothing to train on.
    cfg = TrainingConfig(dim=8, epochs=1, window=3, negatives=2,
                         min_count=1, seed=2, workers=2, subsample_t=0.0)
    vocab = build_vocab(corpus, min_count=1)
    before = init_model(vocab, cfg).input_vectors.copy()
    model = train(corpus, init_model(vocab, cfg))
    assert np.isfinite(model.input_vectors).all()
    assert np.isfinite(model.output_vectors).all()
    assert not np.array_equal(model.input_vectors, before)


def test_train_dim_mismatch_rejected(tmp_path):
    corpus = _tiny_corpus(tmp_path)
    vocab = build_vocab(corpus, min_count=1)
    model = init_model(vocab, TrainingConfig(dim=4, min_count=1))
    with pytest.raises(ValueError, match="dim"):
        train(corpus, model, TrainingConfig(dim=8, min_count=1))


def test_train_counts_trained_and_skipped_pairs(tmp_path, caplog):
    # Noise almost never draws "b", so a pair whose context is "a" keeps no negative
    # after the redraws and is skipped: "b", the center of only such pairs, never moves.
    corpus = tmp_path / "ab.txt"
    corpus.write_text("a b\n" * 5, encoding="utf-8")
    vocab = Vocabulary(["a", "b"], np.array([10**15, 1]))
    cfg = TrainingConfig(dim=4, epochs=2, window=1, negatives=2, min_count=1, seed=0,
                         subsample_t=0.0)
    model = init_model(vocab, cfg)
    before = model.input_vectors.copy()
    with caplog.at_level(logging.INFO, logger="wikivec.embedding.train"):
        train(corpus, model)
    assert "pairs trained 10, pairs skipped 10, tokens " in caplog.text
    assert np.array_equal(model.input_vectors[1], before[1])
    assert not np.array_equal(model.input_vectors[0], before[0])
