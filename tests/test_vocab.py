"""Vocabulary construction and ordering."""

import numpy as np
import pytest

from wikivec.embedding.vocab import Vocabulary, build_vocab


def _write(tmp_path, text):
    path = tmp_path / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_counts_and_min_count_filter(tmp_path):
    path = _write(tmp_path, "a a a b b c\nwiki_7 wiki_7 a\n")
    vocab = build_vocab(path, min_count=2)
    assert vocab.tokens == ["a", "b", "wiki_7"]
    assert vocab.counts.tolist() == [4, 2, 2]
    assert "c" not in vocab
    assert vocab.counts[vocab.index["a"]] == 4
    assert vocab.total_tokens == 8


def test_equal_counts_order_lexicographically(tmp_path):
    path = _write(tmp_path, "beta alpha gamma beta alpha gamma\n")
    vocab = build_vocab(path, min_count=1)
    assert vocab.tokens == ["alpha", "beta", "gamma"]


def test_index_is_dense_frequency_order(tmp_path):
    path = _write(tmp_path, "x x x y y z\n")
    vocab = build_vocab(path, min_count=1)
    assert [vocab.index[t] for t in vocab.tokens] == [0, 1, 2]
    assert vocab.index["x"] == 0


def test_min_count_validation(tmp_path):
    path = _write(tmp_path, "a\n")
    with pytest.raises(ValueError, match="min_count"):
        build_vocab(path, min_count=0)


def test_empty_corpus_gives_empty_vocab(tmp_path):
    vocab = build_vocab(_write(tmp_path, ""), min_count=1)
    assert len(vocab) == 0
    assert vocab.total_tokens == 0


def test_constructor_rejects_misaligned_or_duplicate_tokens():
    with pytest.raises(ValueError, match="align"):
        Vocabulary(["a", "b"], np.array([1]))
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary(["a", "a"], np.array([2, 1]))
