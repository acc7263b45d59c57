"""Noise distribution for negative sampling: unigram counts raised to 0.75.

Draws use a Walker/Vose alias table, so each sample costs O(1) regardless of
vocabulary size.
"""

from __future__ import annotations

import numpy as np

from wikivec.embedding.vocab import Vocabulary

NOISE_POWER = 0.75


class NoiseSampler:
    """Alias-method sampler over ``counts ** power`` probabilities."""

    def __init__(self, counts: np.ndarray, power: float = NOISE_POWER) -> None:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.size == 0:
            raise ValueError("cannot sample from an empty vocabulary")
        if np.any(counts <= 0):
            raise ValueError("counts must be positive")
        weights = counts ** power
        self.probabilities = weights / weights.sum()
        self.prob, self.alias = self._build(self.probabilities)

    @staticmethod
    def _build(probabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = probabilities.size
        scaled = probabilities * n
        prob = np.ones(n, dtype=np.float64)
        alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        # Leftovers are numerically 1.0 cells.
        return prob, alias

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` independent indices from the noise distribution."""
        cells = rng.integers(0, self.prob.size, size=size)
        accept = rng.random(size) < self.prob[cells]
        return np.where(accept, cells, self.alias[cells])


def noise_distribution(vocab: Vocabulary, power: float = NOISE_POWER) -> NoiseSampler:
    """Sampler whose probabilities are proportional to vocab counts ** ``power``."""
    return NoiseSampler(vocab.counts, power=power)
