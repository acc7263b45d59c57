"""Model container and initialisation, including warm starts from published vectors."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from wikivec.embedding.vocab import Vocabulary
from wikivec.ingest.corpus import parse_concept
from wikivec.vectors import VectorSet

log = logging.getLogger(__name__)


@dataclass(slots=True)
class TrainingConfig:
    """Hyperparameters; defaults follow the usual skip-gram settings."""

    dim: int = 300
    window: int = 10
    negatives: int = 5
    epochs: int = 5
    lr_initial: float = 0.025
    subsample_t: float = 1e-5
    min_count: int = 5
    seed: int = 1
    workers: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        # Written so that NaN fails too: every comparison with NaN is False.
        if not (math.isfinite(self.lr_initial) and self.lr_initial > 0):
            raise ValueError(f"lr_initial must be finite and > 0, got {self.lr_initial}")
        if not (math.isfinite(self.subsample_t) and self.subsample_t >= 0):
            raise ValueError(f"subsample_t must be finite and >= 0, got {self.subsample_t}")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(slots=True)
class EmbeddingModel:
    """Two matrices over one vocabulary.

    ``input_vectors`` are the embeddings published after training;
    ``output_vectors`` are the context-side weights used only by the loss.
    """

    vocab: Vocabulary
    input_vectors: np.ndarray
    output_vectors: np.ndarray
    config: TrainingConfig = field(default_factory=TrainingConfig)

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]

    def to_vector_set(self) -> VectorSet:
        """Published embeddings in vocabulary (frequency) order."""
        return VectorSet(list(self.vocab.tokens), self.input_vectors.copy(),
                         frequency_ranked=True)


def init_model(vocab: Vocabulary, config: TrainingConfig,
               pretrained: VectorSet | None = None) -> EmbeddingModel:
    """Fresh model: input rows uniform on [-0.5/dim, +0.5/dim], output rows zero.

    With ``pretrained``, rows whose token matches a published vector (exact
    surface after lowercasing) are copied verbatim; concept tokens and other
    unmatched rows keep their random initialisation.
    """
    if len(vocab) == 0:
        raise ValueError("cannot initialise a model over an empty vocabulary")
    rng = np.random.default_rng(config.seed)
    half = 0.5 / config.dim
    input_vectors = rng.uniform(-half, half, size=(len(vocab), config.dim))
    output_vectors = np.zeros((len(vocab), config.dim), dtype=np.float64)
    if pretrained is not None:
        if pretrained.dim != config.dim:
            raise ValueError(
                f"pretrained dimension {pretrained.dim} != configured dim {config.dim}")
        lowered: dict[str, int] = {}
        for i, token in enumerate(pretrained.tokens):
            lowered.setdefault(token.lower(), i)
        copied = 0
        for i, token in enumerate(vocab.tokens):
            if parse_concept(token) is not None:
                # Concept tokens never warm-start from word embeddings.
                continue
            row = lowered.get(token.lower())
            if row is not None:
                input_vectors[i] = pretrained.matrix[row]
                copied += 1
        log.info("warm start: %d/%d vocabulary rows copied from pretrained vectors",
                 copied, len(vocab))
    return EmbeddingModel(vocab, input_vectors, output_vectors, config)
