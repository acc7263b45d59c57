"""Corpus vocabulary: dense indices assigned in descending frequency order."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(slots=True)
class Vocabulary:
    """Tokens with dense indices; index 0 is the most frequent token.

    Equal counts order lexicographically.  Words and concept tokens are not
    distinguished here; both are plain corpus tokens.
    """

    tokens: list[str]
    counts: np.ndarray
    index: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.tokens) != len(self.counts):
            raise ValueError("tokens and counts must align")
        self.index = {token: i for i, token in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    @property
    def total_tokens(self) -> int:
        """Total retained corpus occurrences (sum of kept frequencies)."""
        return int(self.counts.sum())


def build_vocab(corpus_path: str | Path, min_count: int = 5) -> Vocabulary:
    """Count every token in the corpus and keep those seen >= ``min_count`` times."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counter: Counter[str] = Counter()
    with open(corpus_path, "r", encoding="utf-8") as handle:
        for line in handle:
            counter.update(line.split())
    kept = [(token, n) for token, n in counter.items() if n >= min_count]
    kept.sort(key=lambda item: (-item[1], item[0]))
    tokens = [token for token, _ in kept]
    counts = np.array([n for _, n in kept], dtype=np.int64)
    return Vocabulary(tokens, counts)
