"""Skip-gram training with negative sampling.

A (center, context) pair with ``negatives`` noise rows maximises
log sigma(u_ctx . v_center) + sum log sigma(-u_neg . v_center).  The trainer
builds a line's windows (dynamic per occurrence, after frequency subsampling)
and negatives at once, then updates one center at a time from the pre-update
rows; the learning rate decays linearly down to lr/10000.

The corpus is encoded once, before any worker starts, into one array of
in-vocabulary ids and its line bounds.  With ``workers > 1`` each forked worker
trains on the lines that start in its token range of that array, updating the
two matrices in anonymous shared memory without locks (Hogwild), so results are
only reproducible at workers = 1.
"""

from __future__ import annotations

import logging
import math
import mmap
import time
from array import array
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
    """One gradient update from the pre-step values; returns the pre-update loss.
    Duplicate negative rows are legal and accumulate."""
    if center == context:
        raise ValueError("center and context must differ")
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and > 0, got {lr}")
    block = np.array([[context, *negatives]], dtype=np.int64)
    (scores,) = _train_center(model.input_vectors, model.output_vectors, block, center, lr)
    return float(np.logaddexp(0.0, -scores[0]) + np.logaddexp(0.0, scores[1:]).sum())


def _keep_probabilities(counts: np.ndarray, subsample_t: float) -> np.ndarray:
    """Per-index survival probability for frequent-token subsampling."""
    if subsample_t <= 0:
        return np.ones(counts.size, dtype=np.float64)
    relative = counts / counts.sum()
    ratio = subsample_t / relative
    return np.minimum(1.0, np.sqrt(ratio) + ratio)


def _train_center(inp: np.ndarray, out: np.ndarray, block: np.ndarray, center: int,
                  lr: float, live: np.ndarray | None = None) -> np.ndarray:
    """Update one center and its pairs; row j of ``block`` is pair j's context, then its
    negatives.  Every pair is scored against the pre-update rows and the gradients add up;
    entries where ``live`` is False get none.  Returns the pre-update scores."""
    rows = block.ravel()
    v = inp[center]
    u = out[rows]
    scores = u @ v
    grad = -lr * expit(scores)
    grad[::block.shape[1]] += lr
    if live is not None:
        grad *= live.ravel()
    # All pairs share v, so a repeated row's update is (sum of its grads) * v; every
    # repeat computes that same sum, so whichever write lands last is the full update.
    out[rows] += ((rows[:, None] == rows) @ grad)[:, None] * v
    inp[center] += grad @ u
    return scores.reshape(block.shape)


def _line_contexts(ids: np.ndarray, radii: np.ndarray,
                   window: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-position context counts, and every position's contexts concatenated: the ids at
    most ``radii[pos]`` positions away, left ones first, those equal to the center dropped."""
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    where = np.arange(ids.size)[:, None] + offsets
    valid = (np.abs(offsets) <= radii[:, None]) & (where >= 0) & (where < ids.size)
    valid &= ids.take(where, mode="clip") != ids[:, None]
    return valid.sum(axis=1), ids[where[valid]]


def _encode(corpus_path: str | Path, index: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The corpus as int32 in-vocabulary ids, and int64 line bounds: line j is
    ``ids[bounds[j]:bounds[j + 1]]``.  Lines end at ``\\n`` only, and a line with no
    in-vocabulary token is left out."""
    ids, bounds = array("i"), [0]
    with open(corpus_path, "rb") as handle:
        for line in handle:
            ids.extend([index[t] for t in line.decode("utf-8").split() if t in index])
            if len(ids) > bounds[-1]:
                bounds.append(len(ids))
    return np.frombuffer(ids, dtype=np.int32), np.array(bounds, dtype=np.int64)


def _shard(bounds: np.ndarray, worker: int, n: int) -> np.ndarray:
    """The bounds of the lines whose first id offset lies in ``[worker * T // n,
    (worker + 1) * T // n)`` of the T ids, so n shards hold every line once, in order."""
    total = int(bounds[-1])
    lo, hi = np.searchsorted(bounds[:-1], [total * worker // n, total * (worker + 1) // n])
    return bounds[lo:hi + 1]


def _parallel_worker(ids: np.ndarray, bounds: np.ndarray, inp: np.ndarray, out: np.ndarray,
                     sampler: NoiseSampler, keep_prob: np.ndarray, config: TrainingConfig,
                     total_scheduled: int, progress: memoryview,
                     worker_id: int, n_workers: int) -> tuple[int, int]:
    """Train on the lines in this worker's token range; returns (pairs trained, pairs skipped).
    ``progress[0]`` counts occurrences for the lr schedule, across workers, without a lock."""
    rng = np.random.default_rng(config.seed + worker_id)
    lr = lr0 = config.lr_initial
    lr_min = lr0 / LR_FLOOR_DIVISOR
    k = config.negatives
    subsampling = config.subsample_t > 0
    trained = skipped = 0
    shard = _shard(bounds, worker_id, n_workers).tolist()
    for epoch in range(config.epochs):
        for first, end in zip(shard, shard[1:]):
            progress[0] += end - first
            lr = lr0 + (lr_min - lr0) * min(1.0, progress[0] / total_scheduled)
            id_arr = ids[first:end].astype(np.int64)
            if subsampling:
                id_arr = id_arr[rng.random(id_arr.size) < keep_prob[id_arr]]
            if id_arr.size < 2:
                continue
            counts, contexts = _line_contexts(
                id_arr, rng.integers(1, config.window + 1, size=id_arr.size), config.window)
            m = contexts.size
            block = np.concatenate((contexts[:, None], sampler.draw(rng, m * k).reshape(m, k)), 1)
            negatives = block[:, 1:]
            # A noise draw must not equal its pair's positive context.
            bad = negatives == contexts[:, None]
            for _ in range(_NEG_REDRAW_LIMIT):
                if not bad.any():
                    break
                negatives[bad] = sampler.draw(rng, int(bad.sum()))
                bad = negatives == contexts[:, None]
            # Negatives still equal to their context get no gradient; a pair left with
            # none is skipped whole.
            live = None
            if bad.any():
                live = np.concatenate((~bad.all(axis=1, keepdims=True), ~bad), axis=1)
            n_live = m if live is None else int(live[:, 0].sum())
            trained, skipped = trained + n_live, skipped + m - n_live
            ends = np.cumsum(counts).tolist()
            for center, start, stop in zip(id_arr.tolist(), [0, *ends], ends):
                if stop > start:
                    _train_center(inp, out, block[start:stop], center, lr,
                                  None if live is None else live[start:stop])
        if n_workers == 1:
            if not (np.isfinite(inp).all() and np.isfinite(out).all()):
                raise TrainingError(f"non-finite vector entries after epoch {epoch + 1}")
            log.info("epoch %d/%d done (lr now %.6f)", epoch + 1, config.epochs, lr)
    return trained, skipped


def train(corpus_path: str | Path, model: EmbeddingModel,
          config: TrainingConfig | None = None) -> EmbeddingModel:
    """Train ``model`` in place over the corpus file; returns the same model.

    ``epochs = 0`` is a no-op.  Corpus tokens outside the vocabulary are skipped
    silently; contexts equal to their center carry no negative-sampling signal and
    are dropped, and a pair whose every negative equals its context is skipped.  A
    worker that raises or dies fails the call with :class:`TrainingError` naming it.
    """
    if config is None:
        config = model.config
    if model.dim != config.dim:
        raise ValueError(f"model dim {model.dim} != config dim {config.dim}")
    vocab = model.vocab
    total_scheduled = vocab.total_tokens * config.epochs
    if total_scheduled == 0:
        return model
    sampler = noise_distribution(vocab)
    keep_prob = _keep_probabilities(vocab.counts, config.subsample_t)
    ids, bounds = _encode(corpus_path, vocab.index)

    # Shared mappings: what forked workers write lands in the parent's copies.
    inp, out = (np.frombuffer(mmap.mmap(-1, m.nbytes)).reshape(m.shape)
                for m in (model.input_vectors, model.output_vectors))
    inp[:], out[:] = model.input_vectors, model.output_vectors
    progress = memoryview(mmap.mmap(-1, 8)).cast("q")
    started = time.perf_counter()
    try:
        pairs = fork_map(lambda worker: _parallel_worker(
            ids, bounds, inp, out, sampler, keep_prob, config, total_scheduled, progress,
            worker, config.workers), config.workers)
    except WorkerError as exc:
        raise TrainingError(str(exc)) from exc
    trained, skipped = map(sum, zip(*pairs))
    log.info("pairs trained %d, pairs skipped %d, tokens %d, %.0f tokens/s", trained, skipped,
             total_scheduled, total_scheduled / (time.perf_counter() - started))
    model.input_vectors[:] = inp
    model.output_vectors[:] = out
    if not (np.isfinite(model.input_vectors).all() and np.isfinite(model.output_vectors).all()):
        raise TrainingError("non-finite vector entries after training")
    return model
