"""Run one workload in this (fresh) process: warm-up, timed rounds, checks, report.

Started by ``run.py`` with the inputs already generated; this process never
generates anything, so its peak RSS belongs to the program.  Each round runs
the workload's commands through ``wikivec.cli.main`` in-process.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import spec
import wikivec.cli as cli
from probe import SETUP, Probe


def run_round(probe: Probe, cmds: list[list[str]], out: Path) -> tuple[float, int]:
    """Run one round's commands; returns (wall seconds, failed commands)."""
    out.mkdir(parents=True, exist_ok=True)
    failed = 0
    started = perf_counter()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in cmds:
            name = "cli." + "_".join(a for a in argv[:2] if not a.startswith("-"))
            if failed or probe.timed(name, lambda: cli.main(argv)) != 0:
                failed += 1
    wall = perf_counter() - started
    if failed:
        print(sink.getvalue(), file=sys.stderr)
    return wall, failed


def end_to_end(records: list[tuple], dump_mb: float) -> dict[str, float]:
    """End-to-end metrics pooled over rounds: summed work over summed time.

    The machine this was tuned on switches between a fast and a ~1.5x slower
    state every few seconds, so per-round values are bimodal; pooled sums
    average over those switches, where a median of rounds would flip between
    the two modes.  setup_s, the one metric kept per round, is a median.
    """
    rounds = [r for _, r, _, _ in records]

    def rate(work: float, *names: str) -> float:
        return work / sum(r.time[name] for r in rounds for name in names)

    def done(key: str) -> float:
        return sum(r.work[key] for r in rounds)

    return {
        "pipeline_s": statistics.mean(rec[0] for rec in records),
        "setup_s": statistics.median(sum(r.time[name] for name in SETUP) for r in rounds),
        "ingest_mb_per_s": rate(dump_mb * len(rounds), "ingest.corpus.build"),
        "graph_build_mb_per_s": rate(dump_mb * len(rounds), "linkgraph.build", "linkgraph.save"),
        "train_tokens_per_s": rate(done("train_tokens"), "embedding.train"),
        "analogy_q_per_s": rate(done("questions"), "evaluation.analogy"),
        "similarity_pairs_per_s": rate(done("similarity_pairs"), "evaluation.similarity"),
        "linkgraph_pairs_per_s": rate(done("link_pairs"), "evaluation.similarity.link"),
    }


def per_layer(r, agg: dict, counts) -> dict[str, float]:
    def total(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    stats = r.seen["ingest"]
    return {
        "ingest.dump.passes": counts["ingest.dump.passes"],
        "ingest.dump.parse_s": total("ingest.dump.parse"),
        "ingest.prune.calls": calls("ingest.prune"),
        "ingest.prune.s": total("ingest.prune"),
        "ingest.redirects.build_s": agg.get("ingest.redirects.build", [0, 0.0, 0.0])[2],
        "ingest.redirects.resolve_per_anchor": calls("ingest.redirects.resolve")
        / (stats.anchors_explicit + stats.anchors_heuristic),
        "ingest.textify.mask_s": total("ingest.textify.mask"),
        "ingest.textify.mask_mb": counts["ingest.textify.mask_mb"],
        "ingest.textify.tokenize_s": total("ingest.textify.tokenize"),
        "ingest.anchors.extract_s": total("ingest.anchors.extract"),
        "ingest.anchors.extract_per_kept_page": calls("ingest.anchors.extract") / stats.pages_kept,
        "ingest.anchors.heuristic_s": total("ingest.anchors.heuristic"),
        "ingest.corpus.scan_s": total("ingest.corpus.scan"),
        "ingest.corpus.render_s": total("ingest.corpus.build") - total("ingest.corpus.scan"),
        "linkgraph.build_s": total("linkgraph.build"),
        "linkgraph.save_s": total("linkgraph.save"),
        "linkgraph.load_s": total("linkgraph.load"),
        "linkgraph.load_rss_mb": counts["linkgraph.load_rss_mb"],
        "linkgraph.sim_calls": calls("linkgraph.sim"),
        "linkgraph.sim_s": total("linkgraph.sim"),
        "embedding.vocab.build_s": total("embedding.vocab.build"),
        "embedding.model.init_s": total("embedding.model.init"),
        "embedding.sampling.build_s": total("embedding.sampling.build"),
        "embedding.sampling.draw_calls": calls("embedding.sampling.draw"),
        "embedding.sampling.draw_s": total("embedding.sampling.draw"),
        "embedding.train.s": total("embedding.train"),
        "embedding.train.tokens": r.work["train_tokens"],
        "vectors.save_s": total("vectors.save"),
        "vectors.save_mb": counts["vectors.save_mb"],
        "vectors.load_s": total("vectors.load"),
        "vectors.load_mb": counts["vectors.load_mb"],
        "vectors.unit_matrix_calls": calls("vectors.unit_matrix"),
        "vectors.unit_matrix_s": total("vectors.unit_matrix"),
        "evaluation.analogy.s": total("evaluation.analogy"),
        "evaluation.analogy.questions": r.work["questions"],
        "evaluation.similarity.s": total("evaluation.similarity"),
        "evaluation.similarity.map_surface_per_pair": calls("evaluation.similarity.map_surface")
        / r.work["similarity_inputs"],
        "evaluation.senses.load_s": total("evaluation.senses.load"),
        "evaluation.stats.spearman_s": total("evaluation.stats.spearman"),
        "manifest.digest_s": total("manifest.digest"),
        "manifest.digest_mb": counts["manifest.digest_mb"],
        "cli.self_s": sum(v[2] for k, v in agg.items() if k.startswith("cli.")),
    }


E2E_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "ingest_mb_per_s": "MB/s", "graph_build_mb_per_s": "MB/s",
             "train_tokens_per_s": "tok/s", "analogy_q_per_s": "q/s",
             "similarity_pairs_per_s": "pairs/s", "linkgraph_pairs_per_s": "pairs/s"}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("per_anchor", "per_kept_page", "per_pair")):
        return "ratio"
    return "count"


def layer_table(aggs: list[dict]) -> None:
    """Per-layer count, total and self time, medians over the traced rounds."""
    print(f"{'layer':40} {'count':>9} {'total_s':>9} {'self_s':>9}")
    for name in sorted({name for agg in aggs for name in agg}):
        rows = [agg.get(name, [0, 0.0, 0.0]) for agg in aggs]
        n, total, own = (statistics.median(col) for col in zip(*rows))
        print(f"{name:40} {n:9.0f} {total:9.4f} {own:9.4f}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--warmup", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)

    ledger = json.loads((args.inputs / "ledger.json").read_text())
    warm_ledger = json.loads((args.warmup / "ledger.json").read_text())
    probe = Probe(args.workload, bool(args.trace), args.work)
    checker = checks.TrainProbe()
    probe.train_hook = checker.hook

    def cmds(inputs: Path, ledger_: dict, out: Path) -> list[list[str]]:
        pub = ledger_.get("published")
        return spec.commands(args.workload, inputs, out, pub["buckets"] if pub else None)

    # Untimed warm-up on the smallest inputs: imports, first calls, allocator.
    _, warm_failed = run_round(probe, cmds(args.warmup, warm_ledger, args.work / "warm"),
                               args.work / "warm")
    checker.reset()
    round_cmds = cmds(args.inputs, ledger, args.work / "run")
    dump_mb = ledger["dump"]["dump_bytes"] / 1e6
    records = []
    failed = 0
    attempted = 0
    digests = []
    started = perf_counter()
    while True:
        gc.collect()
        probe.start_round(len(records))
        wall, round_failed = run_round(probe, round_cmds, args.work / "run")
        attempted += len(round_cmds)
        failed += round_failed
        records.append((wall,) + probe.finish_round())
        digests.append(checks.output_digests(args.work / "run"))
        elapsed = perf_counter() - started
        walls = [rec[0] for rec in records]
        if round_failed or elapsed + statistics.median(walls) > args.seconds:
            break

    problems = [f"warm-up: {warm_failed} command(s) failed"] if warm_failed else []
    if failed:
        problems.append(f"{failed} command(s) failed")
    else:
        problems += checks.run_all(args.workload, ledger, args.inputs, args.work / "run",
                                   [rec[1] for rec in records], digests, checker)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if failed:
        metrics = {}
    elif args.trace:
        values = [per_layer(r, agg, counts) for _, r, agg, counts in records]
        print(f"traced pipeline_s mean: {statistics.mean(rec[0] for rec in records):.4f}")
        layer_table([agg for _, _, agg, _ in records])
        spans_path = args.work.parent / f"trace-{args.workload}.json"
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent",
                                                     "workload", "round"],
                                          "spans": probe.spans}))
        print(f"spans: {spans_path}")
        metrics = {name: statistics.median(v[name] for v in values) for name in values[0]}
    else:
        values = [end_to_end([rec], dump_mb) for rec in records]
        metrics = end_to_end(records, dump_mb)
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics["peak_rss_mb"] = peak_kb * 1024 / 1e6
    print("per-round: " + json.dumps(values if metrics else []))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
