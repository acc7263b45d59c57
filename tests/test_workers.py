"""Forked workers: task order, the in-process path, and failing fast when a worker fails."""

import importlib
import itertools
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

import wikivec.ingest.corpus as corpus
from wikivec.embedding.model import TrainingConfig, init_model
from wikivec.embedding.vocab import build_vocab
from wikivec.ingest.corpus import build_corpus
from wikivec.workers import WorkerError, fork_map

from conftest import FIXTURE_DUMP

# wikivec.embedding re-exports train(), which shadows the submodule attribute.
train_mod = importlib.import_module("wikivec.embedding.train")

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="fork start method unavailable")


def _die():
    os._exit(9)


def _raise():
    raise RuntimeError("disk full")


# How a failing worker fails, and the message it must produce.
FAILURES = {
    "dies": (_die, r"worker 1 exited without reporting a result \(exit code 9\)"),
    "raises": (_raise, r"worker 1 raised RuntimeError: disk full \(exit code 1\)"),
}


@pytest.fixture
def deadline():
    """Fail a test that is still blocked after 20 s instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError("still blocked after 20 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@needs_fork
def test_fork_map_returns_results_in_task_order(deadline):
    def task(worker):
        time.sleep(0.2 if worker == 0 else 0.0)  # the first task finishes last
        return worker * worker, os.getpid()

    results = fork_map(task, 3)
    assert [square for square, _ in results] == [0, 1, 4]
    pids = {pid for _, pid in results}
    assert len(pids) == 3 and os.getpid() not in pids


def test_fork_map_single_worker_runs_in_process():
    seen = []
    assert fork_map(lambda worker: seen.append(worker) or os.getpid(), 1) == [os.getpid()]
    assert seen == [0]


@needs_fork
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_fork_map_failing_child_raises_worker_error(failure, deadline):
    fail, message = FAILURES[failure]

    def task(worker):
        if worker == 1:
            fail()
        time.sleep(30 if worker == 0 else 0)  # killed, not waited for
        return worker

    started = time.perf_counter()
    with pytest.raises(WorkerError, match=message):
        fork_map(task, 3)
    assert time.perf_counter() - started < 10


@needs_fork
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_failing_ingest_worker_fails_fast_and_leaves_no_parts(tmp_path, monkeypatch, failure,
                                                              deadline):
    fail, message = FAILURES[failure]
    real_pool_render = corpus._pool_render

    def pool_render(dump_path, redirects, kept, mode, worker_id, n_workers, out_path):
        if worker_id == 1:
            # Patched in this child's memory only: it fails on its second page.
            pages = itertools.count()
            real_render = corpus._render_page

            def render(*args):
                if next(pages) == 1:
                    fail()
                return real_render(*args)
            corpus._render_page = render
        return real_pool_render(dump_path, redirects, kept, mode, worker_id, n_workers,
                                out_path)

    monkeypatch.setattr(corpus, "_pool_render", pool_render)
    started = time.perf_counter()
    with pytest.raises(WorkerError, match=message):
        build_corpus(FIXTURE_DUMP, tmp_path / "corpus.txt", workers=2)
    assert time.perf_counter() - started < 10
    assert not list(tmp_path.glob("*.part*"))


@needs_fork
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_failing_training_worker_fails_fast(tmp_path, monkeypatch, failure, deadline):
    fail, message = FAILURES[failure]
    corpus_path = tmp_path / "corpus.txt"
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(30)]
    corpus_path.write_text("".join(" ".join(rng.choice(words, size=12)) + "\n"
                                   for _ in range(60)), encoding="utf-8")
    cfg = TrainingConfig(dim=8, epochs=1, window=3, negatives=2, min_count=1, seed=2,
                         workers=2, subsample_t=0.0)
    model = init_model(build_vocab(corpus_path, min_count=1), cfg)
    real_worker = train_mod._parallel_worker

    def worker(*args):
        if args[-2] == 1:
            # Patched in this child's memory only: it fails after 50 updates.
            updates = itertools.count()
            real_pair = train_mod._train_pair

            def train_pair(*pair_args):
                if next(updates) == 50:
                    fail()
                return real_pair(*pair_args)
            train_mod._train_pair = train_pair
        return real_worker(*args)

    monkeypatch.setattr(train_mod, "_parallel_worker", worker)
    started = time.perf_counter()
    with pytest.raises(train_mod.TrainingError, match=message):
        train_mod.train(corpus_path, model, cfg)
    assert time.perf_counter() - started < 10
