"""Model initialisation: random ranges, determinism, warm starts."""

import numpy as np
import pytest

from conftest import DATA
from wikivec.embedding.model import EmbeddingModel, TrainingConfig, init_model
from wikivec.embedding.vocab import Vocabulary
from wikivec.vectors import VectorSet, load_text


def _vocab(*tokens):
    return Vocabulary(list(tokens), np.arange(len(tokens), 0, -1) * 10)


def test_config_defaults():
    cfg = TrainingConfig()
    assert (cfg.dim, cfg.window, cfg.negatives, cfg.epochs) == (300, 10, 5, 5)
    assert cfg.lr_initial == 0.025
    assert cfg.subsample_t == 1e-5
    assert (cfg.min_count, cfg.seed, cfg.workers) == (5, 1, 1)


@pytest.mark.parametrize("field,value", [
    ("dim", 0), ("window", 0), ("negatives", 0), ("epochs", -1),
    ("lr_initial", 0.0), ("subsample_t", -1e-9), ("min_count", 0), ("workers", 0),
    ("lr_initial", float("nan")), ("lr_initial", float("inf")),
    ("subsample_t", float("nan")), ("subsample_t", float("inf")),
])
def test_config_validation(field, value):
    with pytest.raises(ValueError, match=field):
        TrainingConfig(**{field: value})


def test_input_rows_bounded_by_half_over_dim():
    cfg = TrainingConfig(dim=4, seed=3)
    model = init_model(_vocab("a", "b", "c"), cfg)
    assert model.input_vectors.shape == (3, 4)
    assert np.all(np.abs(model.input_vectors) <= 0.5 / 4)
    # With only 12 draws a degenerate constant matrix would be a bug.
    assert model.input_vectors.std() > 0


def test_output_rows_start_at_zero():
    model = init_model(_vocab("a", "b"), TrainingConfig(dim=8))
    assert np.all(model.output_vectors == 0)
    assert model.output_vectors.shape == (2, 8)


def test_same_seed_same_init():
    vocab = _vocab("a", "b", "c")
    m1 = init_model(vocab, TrainingConfig(dim=16, seed=9))
    m2 = init_model(vocab, TrainingConfig(dim=16, seed=9))
    m3 = init_model(vocab, TrainingConfig(dim=16, seed=10))
    assert np.array_equal(m1.input_vectors, m2.input_vectors)
    assert not np.array_equal(m1.input_vectors, m3.input_vectors)


def test_empty_vocab_rejected():
    with pytest.raises(ValueError, match="empty"):
        init_model(Vocabulary([], np.array([], dtype=np.int64)), TrainingConfig())


def test_warm_start_copies_case_insensitively_first_wins():
    pretrained = load_text(DATA / "pretrained_fixture.txt")
    vocab = _vocab("paris", "france", "wiki_9", "river", "unseen")
    model = init_model(vocab, TrainingConfig(dim=4, seed=1), pretrained=pretrained)
    # "Paris" appears before "PARIS" in the file, so the first row wins.
    assert np.array_equal(model.input_vectors[0], [0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(model.input_vectors[1], [0.5] * 4)
    assert np.array_equal(model.input_vectors[3], [-1.0, 0.0, 1.0, 0.25])
    # Concept rows and unmatched words keep the random initialisation.
    fresh = init_model(vocab, TrainingConfig(dim=4, seed=1))
    assert np.array_equal(model.input_vectors[2], fresh.input_vectors[2])
    assert np.array_equal(model.input_vectors[4], fresh.input_vectors[4])


def test_warm_start_never_fills_concept_rows():
    pretrained = VectorSet(["wiki_9", "word"], np.ones((2, 3)))
    vocab = _vocab("wiki_9", "word")
    model = init_model(vocab, TrainingConfig(dim=3, seed=2), pretrained=pretrained)
    fresh = init_model(vocab, TrainingConfig(dim=3, seed=2))
    assert np.array_equal(model.input_vectors[0], fresh.input_vectors[0])
    assert np.array_equal(model.input_vectors[1], [1.0, 1.0, 1.0])


def test_warm_start_dimension_mismatch():
    pretrained = VectorSet(["a"], np.ones((1, 7)))
    with pytest.raises(ValueError, match="dimension"):
        init_model(_vocab("a"), TrainingConfig(dim=4), pretrained=pretrained)


def test_to_vector_set_is_a_frequency_ranked_copy():
    model = init_model(_vocab("b", "a"), TrainingConfig(dim=2, seed=5))
    vset = model.to_vector_set()
    assert list(vset.tokens) == ["b", "a"]
    assert vset.frequency_ranked
    assert np.array_equal(vset.matrix, model.input_vectors)
    vset.matrix[0, 0] = 99.0
    assert model.input_vectors[0, 0] != 99.0


def test_model_dim_property():
    model = EmbeddingModel(_vocab("a"), np.zeros((1, 6)), np.zeros((1, 6)))
    assert model.dim == 6
