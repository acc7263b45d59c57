"""Timing from outside the program: wrappers around wikivec's public calls.

``Probe`` always wraps the coarse calls the CLI makes (as the names
``wikivec.cli`` looks up), which is all the untraced run needs.  With
``trace=True`` it also wraps the finer per-layer calls in their own modules
and keeps a stack of frames, so each layer gets a count, a total time and a
self time (total minus the traced calls inside it), and every call above the
fine-grained level is kept as a span (name, start, end, parent, workload,
round).  Fork-pool workers inherit the wrappers; each writes its own totals to
``<trace_dir>/child-<pid>.json`` and the parent folds them into the round.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import wikivec.cli as cli
import wikivec.evaluation.similarity as similarity
import wikivec.ingest.corpus as corpus
import wikivec.linkgraph as linkgraph
import wikivec.manifest as manifest
from wikivec.embedding.sampling import NoiseSampler
from wikivec.ingest.redirects import RedirectMap
from wikivec.vectors import VectorSet

# wikivec.embedding re-exports train(), which shadows the submodule attribute.
train_mod = importlib.import_module("wikivec.embedding.train")

# Calls that happen per page, per segment or per query: counted and timed,
# but not kept as individual spans.
FINE = {"ingest.dump.parse", "ingest.prune", "ingest.redirects.resolve",
        "ingest.textify.mask", "ingest.textify.tokenize", "ingest.anchors.extract",
        "ingest.anchors.heuristic", "ingest.corpus.render_page", "embedding.sampling.draw",
        "vectors.unit_matrix", "linkgraph.sim", "evaluation.similarity.map_surface",
        "evaluation.stats.spearman", "manifest.digest"}

# Load-and-prepare calls whose time is setup_s.
SETUP = ("embedding.vocab.build", "embedding.model.init", "vectors.load",
         "evaluation.senses.load", "evaluation.analogy.load", "evaluation.similarity.load",
         "linkgraph.load")


def rss_mb() -> float:
    """Current resident set of this process, from /proc/self/statm."""
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


class Round:
    """What one round did: time per coarse call, work counts, captured results."""

    def __init__(self) -> None:
        self.time: Counter = Counter()
        self.work: Counter = Counter()
        self.seen: dict = {}


class Probe:
    def __init__(self, workload: str, trace: bool, trace_dir: Path) -> None:
        self.workload = workload
        self.trace = trace
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.round = Round()
        self.round_no = 0
        self.stack: list[list] = []  # frames: [child time, span index or -1]
        self.agg: defaultdict = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.train_hook = None
        self._child_pid = None
        self._install_coarse()
        if trace:
            self._install_fine()

    # -- frames -------------------------------------------------------------
    def _enter(self, name: str) -> None:
        span = -1
        if name not in FINE and os.getpid() == self.pid:
            parent = next((f[1] for f in reversed(self.stack) if f[1] >= 0), -1)
            span = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent, self.workload, self.round_no])
        self.stack.append([0.0, span])

    def _exit(self, name: str, elapsed: float) -> None:
        frame = self.stack.pop()
        if self.stack:
            self.stack[-1][0] += elapsed
        entry = self.agg[name]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[0]
        if frame[1] >= 0:
            self.spans[frame[1]][2] = perf_counter()

    def timed(self, name: str, fn):
        """Run ``fn`` inside a frame named ``name`` (traced runs only)."""
        if not self.trace:
            return fn()
        self._enter(name)
        started = perf_counter()
        try:
            return fn()
        finally:
            self._exit(name, perf_counter() - started)

    def _fine(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, perf_counter() - started)
        return wrapper

    # -- coarse wrappers (always on) -------------------------------------------
    def _coarse(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.trace:
                self._enter(name)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                if self.trace:
                    self._exit(name, elapsed)
            self.round.time[name] += elapsed
            if after is not None:
                after(self.round, result, args, kwargs)
            return result
        return wrapper

    def _install_coarse(self) -> None:
        def similarity_kind(r, rep, args, kwargs):
            key = "link" if kwargs.get("scorer") is not None else "similarity"
            r.work[key + "_pairs"] += rep.found
            r.work["similarity_inputs"] += len(args[1])

        def vocab_seen(r, vocab, args, kwargs):
            r.seen["vocab"] = (len(vocab), vocab.total_tokens)

        def common_subset(r, rep, args, kwargs):
            r.work["similarity_pairs"] += sum(n for _, n, _ in rep.rows) * len(rep.set_names)
            r.work["similarity_inputs"] += sum(len(p) for p in args[1].values())

        wraps = {
            "build_corpus": ("ingest.corpus.build",
                             lambda r, stats, a, k: r.seen.__setitem__("ingest", stats)),
            "build_link_graph": ("linkgraph.build", None),
            "save_graph": ("linkgraph.save", None),
            "build_vocab": ("embedding.vocab.build", vocab_seen),
            "init_model": ("embedding.model.init", None),
            "save_text": ("vectors.save", None),
            "load_text": ("vectors.load", None),
            "eval_analogy": ("evaluation.analogy",
                             lambda r, reps, a, k: r.work.update(questions=sum(x.found for x in reps))),
            "eval_analogy_commons": ("evaluation.analogy", lambda r, reps, a, k: r.work.update(
                questions=sum(x.found for rs in reps for x in rs))),
            "common_subset_eval": ("evaluation.similarity", common_subset),
            "load_sense_index": ("evaluation.senses.load", None),
            "load_analogy_questions": ("evaluation.analogy.load", None),
            "load_similarity_pairs": ("evaluation.similarity.load", None),
        }
        for attr, (name, after) in wraps.items():
            setattr(cli, attr, self._coarse(name, getattr(cli, attr), after))
        cli.eval_similarity = self._similarity_wrapper(cli.eval_similarity, similarity_kind)
        cli.load_graph = self._load_graph_wrapper(cli.load_graph)
        cli.train_model = self._train_wrapper(cli.train_model)

    def _similarity_wrapper(self, fn, after):
        vectors = self._coarse("evaluation.similarity", fn, after)
        link = self._coarse("evaluation.similarity.link", fn, after)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return (link if kwargs.get("scorer") is not None else vectors)(*args, **kwargs)
        return wrapper

    def _load_graph_wrapper(self, fn):
        inner = self._coarse("linkgraph.load", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = rss_mb()
            graph = inner(*args, **kwargs)
            self.counts["linkgraph.load_rss_mb"] += max(0.0, rss_mb() - before)
            return graph
        return wrapper

    def _train_wrapper(self, fn):
        inner = self._coarse("embedding.train", fn)

        @functools.wraps(fn)
        def wrapper(corpus_path, model, config=None):
            config = config or model.config
            hook = self.train_hook(model, corpus_path) if self.train_hook else None
            result = inner(corpus_path, model, config)
            self.round.work["train_tokens"] += model.vocab.total_tokens * config.epochs
            if hook is not None:
                hook()
            return result
        return wrapper

    # -- fine wrappers (traced runs) -----------------------------------------
    def _install_fine(self) -> None:
        corpus.prune_page = self._fine("ingest.prune", corpus.prune_page)
        corpus.build_redirect_map = self._fine("ingest.redirects.build",
                                               corpus.build_redirect_map)
        corpus.tokenize = self._fine("ingest.textify.tokenize", corpus.tokenize)
        corpus.apply_title_heuristic = self._fine("ingest.anchors.heuristic",
                                                  corpus.apply_title_heuristic)
        corpus.extract_anchors = self._fine("ingest.anchors.extract", corpus.extract_anchors)
        linkgraph.extract_anchors = self._fine("ingest.anchors.extract",
                                               linkgraph.extract_anchors)
        corpus.scan_dump = self._fine("ingest.corpus.scan", corpus.scan_dump)
        linkgraph.scan_dump = self._fine("linkgraph.scan", linkgraph.scan_dump)
        RedirectMap.resolve = self._fine("ingest.redirects.resolve", RedirectMap.resolve)
        NoiseSampler.draw = self._fine("embedding.sampling.draw", NoiseSampler.draw)
        train_mod.noise_distribution = self._fine("embedding.sampling.build",
                                                  train_mod.noise_distribution)
        cli.link_similarity = self._fine("linkgraph.sim", cli.link_similarity)
        similarity.map_surface = self._fine("evaluation.similarity.map_surface",
                                            similarity.map_surface)
        similarity.spearman = self._fine("evaluation.stats.spearman", similarity.spearman)

        mask = self._fine("ingest.textify.mask", corpus.mask_markup)

        def mask_markup(text):
            self.counts["ingest.textify.mask_mb"] += len(text.encode("utf-8")) / 1e6
            return mask(text)
        corpus.mask_markup = mask_markup

        digest = self._fine("manifest.digest", manifest.file_digest)

        def file_digest(path):
            self.counts["manifest.digest_mb"] += os.path.getsize(path) / 1e6
            return digest(path)
        manifest.file_digest = file_digest

        unit = self._fine("vectors.unit_matrix", VectorSet.unit_matrix)
        plain_unit = VectorSet.unit_matrix

        def unit_matrix(vset):
            # Only calls that normalise count; cached hits return at once.
            return (unit if vset._unit is None else plain_unit)(vset)
        VectorSet.unit_matrix = unit_matrix

        save_text, load_text = cli.save_text, cli.load_text

        def sized_save(vset, path, *args, **kwargs):
            save_text(vset, path, *args, **kwargs)
            self.counts["vectors.save_mb"] += os.path.getsize(path) / 1e6

        def sized_load(path):
            self.counts["vectors.load_mb"] += os.path.getsize(path) / 1e6
            return load_text(path)
        cli.save_text, cli.load_text = sized_save, sized_load

        real_stream = corpus.stream_pages

        def stream_pages(handle):
            self.counts["ingest.dump.passes"] += 1
            pages = real_stream(handle)

            def timed_pages():
                while True:
                    self._enter("ingest.dump.parse")
                    started = perf_counter()
                    try:
                        page = next(pages)
                    except StopIteration:
                        return
                    finally:
                        self._exit("ingest.dump.parse", perf_counter() - started)
                    yield page
            return timed_pages()
        corpus.stream_pages = stream_pages

        # Pool entry points: workers record into their own totals and flush them.
        corpus._pool_render = self._child_root("ingest.corpus.render_page",
                                               corpus._pool_render)
        train_mod._parallel_worker = self._child_root("embedding.train.worker",
                                                      train_mod._parallel_worker)

    def _child_root(self, name: str, fn):
        wrapped = self._fine(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return wrapped(*args, **kwargs)
            if self._child_pid != os.getpid():
                self._child_pid = os.getpid()
                self.stack.clear()
                self.agg.clear()
                self.counts.clear()
            try:
                return wrapped(*args, **kwargs)
            finally:
                path = self.trace_dir / f"child-{os.getpid()}.json"
                tmp = path.with_suffix(".tmp")
                tmp.write_text(json.dumps({"agg": self.agg, "counts": self.counts}))
                os.replace(tmp, path)
        return wrapper

    # -- rounds ---------------------------------------------------------------
    def start_round(self, number: int) -> None:
        self.round = Round()
        self.round_no = number
        self.agg.clear()
        self.counts.clear()

    def finish_round(self) -> tuple[Round, dict, Counter]:
        """The round's record, plus traced totals with pool workers' folded in."""
        agg = {name: list(v) for name, v in self.agg.items()}
        counts = Counter(self.counts)
        if self.trace:
            for path in sorted(self.trace_dir.glob("child-*.json")):
                child = json.loads(path.read_text())
                path.unlink()
                for name, (n, total, own) in child["agg"].items():
                    entry = agg.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += n
                    entry[1] += total
                    entry[2] += own
                counts.update(child["counts"])
        return self.round, agg, counts
