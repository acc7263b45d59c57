"""Trainer unit tests: gradients against finite differences, schedules, determinism."""

import numpy as np
import pytest

from oracles import fd_gradients, neg_pair_loss
from wikivec.embedding.model import EmbeddingModel, TrainingConfig, init_model
from wikivec.embedding.train import (
    _keep_probabilities,
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
    with pytest.raises(ValueError, match="lr"):
        sgd_step(model, 0, 1, [2], lr=0.0)


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
