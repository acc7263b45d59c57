"""Workload definitions: input sizes, pipeline options and the commands of one round.

Every workload runs the same pipeline (ingest, baseline build, train, the
three evaluations over the trained vectors); its inputs and options decide
which layer dominates.  ``vector-eval`` adds evaluations over two large planted
"published" vector sets, a large sense index and a large link graph.
"""

from __future__ import annotations

from pathlib import Path

_DUMP = {"topics": 8, "topic_words": 40, "common_words": 40, "fillers": 4, "discards": 2,
         "sentences": 12, "concept_links": 1, "cross_links": 0.5, "dead_links": 0.3,
         "mentions": 0.3, "markup": 0.5, "questions": 1500, "pairs": 800, "link_pairs": 800}

_SMOKE_DUMP = dict(_DUMP, topics=3, topic_words=10, common_words=10, fillers=2, discards=1,
                   sentences=4, questions=40, pairs=30, link_pairs=30)

WORKLOADS: dict[str, dict] = {
    "wiki-ingest": {
        "gen": {"dump": dict(_DUMP, topics=24, fillers=40, discards=40, discard_markup=10,
                             sentences=8, markup=3.0, questions=36000, pairs=24000,
                             link_pairs=8000)},
        "mode": "heuristic", "workers": 1,
        "train": ["--dim", "16", "--window", "1", "--negative", "1", "--epochs", "1",
                  "--min-count", "5", "--subsample", "1e-6"],
        "buckets": "50,200,100000",
        "train_checks": (),
    },
    "sgns-train": {
        "gen": {"dump": dict(_DUMP, topics=8, topic_words=15, fillers=2, sentences=18,
                             concept_links=3, markup=3.0, discards=100, discard_markup=30,
                             questions=40000, pairs=25000, link_pairs=13000)},
        "mode": "heuristic", "workers": 1,
        "train": ["--dim", "32", "--window", "2", "--negative", "5", "--epochs", "2",
                  "--min-count", "5", "--subsample", "1e-3", "--lr", "0.1"],
        "buckets": "100,300,100000",
        "train_checks": ("loss", "clusters", "analogies"),
    },
    "vector-eval": {
        "gen": {"dump": dict(_DUMP, topics=4, fillers=4, sentences=8, markup=6.0, discards=100,
                             discard_markup=30, questions=20000, pairs=20000, link_pairs=8000),
                "published": {"rows": 8000, "dim": 64, "entities": 60, "relations": 8,
                              "concepts": 2000, "graph_pages": 20000, "communities": 200,
                              "out_links": 12, "questions": 2000, "unsolvable": 300,
                              "buckets": [1000, 4000, 8000], "senses": 20000,
                              "pub_pairs": 3000}},
        "mode": "heuristic", "workers": 1,
        "train": ["--dim", "16", "--window", "2", "--negative", "2", "--epochs", "3",
                  "--min-count", "5", "--subsample", "1e-3", "--lr", "0.1"],
        "buckets": "50,200,100000",
        "train_checks": ("loss",),
    },
    "parallel-pipeline": {
        "gen": {"dump": dict(_DUMP, topics=12, fillers=20, sentences=10, markup=1.5,
                             discards=80, discard_markup=20, questions=20000, pairs=25000,
                             link_pairs=13000)},
        "mode": "standard", "workers": 2,
        "train": ["--dim", "16", "--window", "2", "--negative", "2", "--epochs", "1",
                  "--min-count", "5", "--subsample", "1e-3", "--lr", "0.1", "--workers", "2"],
        "buckets": "50,200,100000",
        "train_checks": ("loss",),
    },
}

SMOKE_PUBLISHED = {"rows": 600, "dim": 16, "entities": 10, "relations": 4, "concepts": 100,
                   "graph_pages": 400, "communities": 8, "out_links": 6, "questions": 60,
                   "unsolvable": 10, "buckets": [100, 300, 600], "senses": 150,
                   "pub_pairs": 60}


def gen_params(name: str, size: str) -> dict:
    """Generator parameters of a workload at ``size``.

    "full" is the measured size.  "warmup" is the smallest dump (plus small
    published sets), used for the untimed warm-up round.  "smoke" is the
    warm-up size too, except that a workload whose checks judge the trained
    model keeps its full dump, the smallest on which those checks hold.
    """
    full = WORKLOADS[name]["gen"]
    if size == "full":
        return full
    small = {"dump": _SMOKE_DUMP}
    if "published" in full:
        small["published"] = SMOKE_PUBLISHED
    if size == "smoke" and "clusters" in WORKLOADS[name]["train_checks"]:
        small["dump"] = full["dump"]
    return small


def commands(name: str, inputs: Path, out: Path, published_buckets: list[int] | None
             ) -> list[list[str]]:
    """The CLI invocations of one round, in order."""
    w = WORKLOADS[name]
    dump, corpus, anchors = str(inputs / "dump.xml"), str(out / "corpus.txt"), str(out / "anchors.tsv")
    graph, vec, pairs = str(out / "graph.npz"), str(out / "vectors.txt"), str(inputs / "pairs")
    cmds = [
        ["ingest", "--dump", dump, "--out", corpus, "--mode", w["mode"],
         "--workers", str(w["workers"]), "--anchor-stats", anchors],
        ["baseline", "build", "--dump", dump, "--out", graph],
        ["train", "--corpus", corpus, "--out", vec, *w["train"]],
        ["eval", "analogy", "--vectors", vec, "--questions", str(inputs / "questions.txt"),
         "--buckets", w["buckets"], "--out", str(out / "analogy")],
        ["eval", "similarity", "--vectors", vec, "--pairs", pairs, "--sense-index", anchors,
         "--out", str(out / "similarity")],
        ["eval", "similarity", "--scorer", "linkgraph", "--graph", graph,
         "--pairs", str(inputs / "link_pairs"), "--sense-index", anchors,
         "--out", str(out / "link")],
    ]
    if published_buckets is not None:
        sets = ["--vectors", str(inputs / "pub_a.txt"), "--vectors", str(inputs / "pub_b.txt")]
        pub_q = ["--questions", str(inputs / "pub_questions.txt"),
                 "--buckets", ",".join(map(str, published_buckets))]
        pub_pairs = ["--pairs", str(inputs / "pub_pairs"), "--sense-index",
                     str(inputs / "senses.tsv")]
        cmds += [
            ["eval", "analogy", *sets, *pub_q, "--out", str(out / "pub_analogy")],
            ["eval", "analogy", *sets, *pub_q, "--commons", "--out", str(out / "pub_commons")],
            ["eval", "similarity", *sets, *pub_pairs, "--common-subset",
             "--out", str(out / "pub_similarity")],
            ["eval", "similarity", "--scorer", "linkgraph", "--graph",
             str(inputs / "graph.npz"), *pub_pairs, "--out", str(out / "pub_link")],
        ]
    return cmds


def train_option(name: str, flag: str, default: str) -> str:
    opts = WORKLOADS[name]["train"]
    return opts[opts.index(flag) + 1] if flag in opts else default
