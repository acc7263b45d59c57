"""Skip-gram training with negative sampling.

The update unit is one (center, context) pair plus ``negatives`` noise rows:
maximise log sigma(u_ctx . v_center) + sum log sigma(-u_neg . v_center).  The
trainer applies that update sequentially over every surviving pair, with
per-occurrence dynamic windows, frequency subsampling, and a linear learning
rate decay down to lr/10000.

With ``workers > 1`` the corpus is sharded by line across forked workers that
update the two matrices, in anonymous shared memory, without locks (Hogwild);
racing writes are tolerated by design, so results are only reproducible at
workers = 1.
"""

from __future__ import annotations

import logging
import mmap
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import expit

from wikivec.embedding.model import EmbeddingModel, TrainingConfig
from wikivec.embedding.sampling import NoiseSampler, noise_distribution
from wikivec.workers import WorkerError, fork_map

log = logging.getLogger(__name__)

LR_FLOOR_DIVISOR = 10_000.0
_NEG_REDRAW_LIMIT = 100


class TrainingError(RuntimeError):
    """Training aborted: a worker failed or the matrices went non-finite."""


def pair_loss(model: EmbeddingModel, center: int, context: int,
              negatives: Sequence[int]) -> float:
    """Loss of one pair under the current matrices, computed without updating."""
    v = model.input_vectors[center]
    pos_score = float(model.output_vectors[context] @ v)
    neg_scores = model.output_vectors[np.asarray(list(negatives), dtype=np.int64)] @ v
    # -log sigma(x) == logaddexp(0, -x); stable for large |x|.
    return float(np.logaddexp(0.0, -pos_score) + np.logaddexp(0.0, neg_scores).sum())


def sgd_step(model: EmbeddingModel, center: int, context: int,
             negatives: Sequence[int], lr: float) -> float:
    """One gradient update; returns the pre-update loss.

    Both matrices are updated from their pre-step values.  Duplicate negative
    rows are legal and accumulate sequentially.
    """
    if center == context:
        raise ValueError("center and context must differ")
    if lr <= 0:
        raise ValueError("lr must be > 0")
    rows = np.empty(len(negatives) + 1, dtype=np.int64)
    rows[0] = context
    rows[1:] = negatives
    scores = _train_pair(model.input_vectors, model.output_vectors, rows, center, lr)
    return float(np.logaddexp(0.0, -scores[0]) + np.logaddexp(0.0, scores[1:]).sum())


def _keep_probabilities(counts: np.ndarray, subsample_t: float) -> np.ndarray:
    """Per-index survival probability for frequent-token subsampling."""
    if subsample_t <= 0:
        return np.ones(counts.size, dtype=np.float64)
    relative = counts / counts.sum()
    ratio = subsample_t / relative
    return np.minimum(1.0, np.sqrt(ratio) + ratio)


def _train_pair(inp: np.ndarray, out: np.ndarray, rows: np.ndarray,
                center: int, lr: float) -> np.ndarray:
    """sgd_step's update on ``rows`` (context, then negatives); returns the pre-update scores."""
    v = inp[center].copy()
    u_rows = out[rows]
    scores = u_rows @ v
    grad = -lr * expit(scores)
    grad[0] += lr
    for j in range(rows.size):
        out[rows[j]] += grad[j] * v
    inp[center] += u_rows.T @ grad
    return scores


def _parallel_worker(corpus_path: Path, inp: np.ndarray, out: np.ndarray,
                     index: dict[str, int], sampler: NoiseSampler, keep_prob: np.ndarray,
                     config: TrainingConfig, total_scheduled: int, progress: memoryview,
                     worker_id: int, n_workers: int) -> None:
    """Train on every corpus line with line_no % n_workers == worker_id; ``progress[0]``
    counts occurrences for the lr schedule, across workers and without a lock."""
    rng = np.random.default_rng(config.seed + worker_id)
    lr0 = config.lr_initial
    lr_min = lr0 / LR_FLOOR_DIVISOR
    k = config.negatives
    subsampling = config.subsample_t > 0
    rows = np.empty(k + 1, dtype=np.int64)
    for epoch in range(config.epochs):
        with open(corpus_path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle):
                if line_no % n_workers != worker_id:
                    continue
                ids = [index[t] for t in line.split() if t in index]
                if not ids:
                    continue
                progress[0] += len(ids)
                frac = min(1.0, progress[0] / total_scheduled)
                lr = lr0 + (lr_min - lr0) * frac
                id_arr = np.asarray(ids, dtype=np.int64)
                if subsampling:
                    id_arr = id_arr[rng.random(id_arr.size) < keep_prob[id_arr]]
                n = id_arr.size
                if n < 2:
                    continue
                radii = rng.integers(1, config.window + 1, size=n)
                for pos in range(n):
                    center = int(id_arr[pos])
                    lo = pos - radii[pos]
                    if lo < 0:
                        lo = 0
                    hi = pos + radii[pos] + 1
                    if hi > n:
                        hi = n
                    window = np.concatenate((id_arr[lo:pos], id_arr[pos + 1:hi]))
                    contexts = window[window != center]
                    m = contexts.size
                    if m == 0:
                        continue
                    negatives = sampler.draw(rng, m * k).reshape(m, k)
                    # A noise draw must not equal its pair's positive context.
                    for _ in range(_NEG_REDRAW_LIMIT):
                        bad = negatives == contexts[:, None]
                        n_bad = int(bad.sum())
                        if n_bad == 0:
                            break
                        negatives[bad] = sampler.draw(rng, n_bad)
                    for j in range(m):
                        context = int(contexts[j])
                        negs = negatives[j]
                        if (negs == context).any():
                            negs = negs[negs != context]
                            if negs.size == 0:
                                continue
                            pair_rows = np.concatenate(([context], negs))
                        else:
                            rows[0] = context
                            rows[1:] = negs
                            pair_rows = rows
                        _train_pair(inp, out, pair_rows, center, lr)
        if n_workers == 1:
            if not (np.isfinite(inp).all() and np.isfinite(out).all()):
                raise TrainingError(f"non-finite vector entries after epoch {epoch + 1}")
            log.info("epoch %d/%d done (lr now %.6f)", epoch + 1, config.epochs, lr0 +
                     (lr_min - lr0) * min(1.0, progress[0] / total_scheduled))


def train(corpus_path: str | Path, model: EmbeddingModel,
          config: TrainingConfig | None = None) -> EmbeddingModel:
    """Train ``model`` in place over the corpus file; returns the same model.

    ``epochs = 0`` is a no-op.  Corpus tokens outside the vocabulary are
    skipped silently; pairs whose context row equals the center row carry no
    negative-sampling signal and are skipped.  A worker that raises or dies
    fails the call with :class:`TrainingError` naming the worker.
    """
    if config is None:
        config = model.config
    if model.dim != config.dim:
        raise ValueError(f"model dim {model.dim} != config dim {config.dim}")
    if config.epochs == 0:
        return model
    corpus_path = Path(corpus_path)
    vocab = model.vocab
    total_scheduled = vocab.total_tokens * config.epochs
    if total_scheduled == 0:
        return model
    sampler = noise_distribution(vocab)
    keep_prob = _keep_probabilities(vocab.counts, config.subsample_t)

    # Shared mappings: what forked workers write lands in the parent's copies.
    inp, out = (np.frombuffer(mmap.mmap(-1, m.nbytes)).reshape(m.shape)
                for m in (model.input_vectors, model.output_vectors))
    inp[:], out[:] = model.input_vectors, model.output_vectors
    progress = memoryview(mmap.mmap(-1, 8)).cast("q")
    try:
        fork_map(lambda worker: _parallel_worker(corpus_path, inp, out, vocab.index, sampler,
                                                 keep_prob, config, total_scheduled, progress,
                                                 worker, config.workers), config.workers)
    except WorkerError as exc:
        raise TrainingError(str(exc)) from exc
    model.input_vectors[:] = inp
    model.output_vectors[:] = out

    if not (np.isfinite(model.input_vectors).all() and np.isfinite(model.output_vectors).all()):
        raise TrainingError("non-finite vector entries after training")
    return model
