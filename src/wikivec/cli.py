"""Command-line plumbing for the whole pipeline.

Subcommands: ingest, train, similar, analogy, eval analogy, eval similarity,
baseline build, baseline sim, stats.  Options resolve flag > config file >
default.  Commands that write artifacts also write a ``<out>.manifest.json``
recording the config and sha256 digests of inputs and outputs; usage errors
exit 2, runtime failures exit 1 with a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Sequence

from wikivec.embedding.model import TrainingConfig, init_model
from wikivec.embedding.train import train as train_model
from wikivec.embedding.vocab import build_vocab
from wikivec.evaluation.analogy import AnalogyReport, eval_analogy, eval_analogy_commons, \
    load_analogy_questions
from wikivec.evaluation.senses import load_sense_index
from wikivec.evaluation.similarity import common_subset_eval, eval_similarity, \
    load_similarity_pairs
from wikivec.ingest.corpus import build_corpus, parse_concept
from wikivec.linkgraph import build_link_graph, link_similarity, load_graph, save_graph
from wikivec.manifest import write_manifest
from wikivec.vectors import load_text, save_text


class UsageError(Exception):
    """Contradictory or incomplete options; exits with code 2."""


_DEFAULTS: dict[str, dict] = {
    "ingest": {"mode": "standard", "workers": 1, "stats": None, "anchor_stats": None},
    "train": {"dim": 300, "window": 10, "negative": 5, "epochs": 5, "min_count": 5,
              "lr": 0.025, "subsample": 1e-5, "seed": 1, "workers": 1, "init": None},
    "similar": {"k": 10},
    "analogy": {},
    "eval analogy": {"buckets": "30000,300000,3000000", "commons": False, "out": None},
    "eval similarity": {"common_subset": False, "out": None, "graph": None,
                        "scorer": "vectors"},
    "baseline build": {},
    "baseline sim": {},
    "stats": {},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikivec",
        description="Concept-annotated corpora, embeddings, and their evaluations.")
    parser.add_argument("--config", help="JSON file with option defaults", default=None)
    parser.add_argument("--log-level", dest="log_level", type=str.upper, default=None,
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="print log records of this level and above to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    S = argparse.SUPPRESS

    p = sub.add_parser("ingest", help="compile a dump into a training corpus")
    p.add_argument("--dump", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["standard", "heuristic", "anchors-only"], default=S)
    p.add_argument("--workers", type=int, default=S)
    p.add_argument("--stats", default=S, help="stats JSON path (default <out>.stats.json)")
    p.add_argument("--anchor-stats", dest="anchor_stats", default=S,
                   help="write aggregated anchor statistics TSV here")

    p = sub.add_parser("train", help="train embeddings on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=S)
    p.add_argument("--window", type=int, default=S)
    p.add_argument("--negative", type=int, default=S)
    p.add_argument("--epochs", type=int, default=S)
    p.add_argument("--min-count", dest="min_count", type=int, default=S)
    p.add_argument("--lr", type=float, default=S)
    p.add_argument("--subsample", type=float, default=S)
    p.add_argument("--seed", type=int, default=S)
    p.add_argument("--workers", type=int, default=S)
    p.add_argument("--init", default=S, help="warm-start from this vector file")

    p = sub.add_parser("similar", help="nearest tokens to a query token")
    p.add_argument("--vectors", required=True)
    p.add_argument("--token", required=True)
    p.add_argument("-k", type=int, default=S)

    p = sub.add_parser("analogy", help="a:b :: c:? by vector offset")
    p.add_argument("--vectors", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)

    ev = sub.add_parser("eval", help="evaluation protocols")
    ev_sub = ev.add_subparsers(dest="eval_command", required=True)

    p = ev_sub.add_parser("analogy", help="bucketed analogy accuracy")
    p.add_argument("--vectors", action="append", required=True,
                   help="vector file; repeat for several sets")
    p.add_argument("--questions", required=True)
    p.add_argument("--buckets", default=S, help="comma-separated frequency caps")
    p.add_argument("--commons", action="store_true", default=S,
                   help="score on the intersection of found questions")
    p.add_argument("--out", default=S, help="report prefix (writes .tsv and .json)")

    p = ev_sub.add_parser("similarity", help="phrase similarity vs human scores")
    p.add_argument("--vectors", action="append", default=S,
                   help="vector file; repeat for several sets")
    p.add_argument("--pairs", action="append", required=True,
                   help="dataset file or directory; repeat as needed")
    p.add_argument("--sense-index", dest="sense_index", required=True)
    p.add_argument("--common-subset", dest="common_subset", action="store_true", default=S)
    p.add_argument("--graph", default=S, help="link graph (with --scorer linkgraph)")
    p.add_argument("--scorer", choices=["vectors", "linkgraph"], default=S)
    p.add_argument("--out", default=S, help="report prefix (writes .tsv and .json)")

    base = sub.add_parser("baseline", help="link-structure baseline")
    base_sub = base.add_subparsers(dest="baseline_command", required=True)

    p = base_sub.add_parser("build", help="extract the kept-page link graph")
    p.add_argument("--dump", required=True)
    p.add_argument("--out", required=True)

    p = base_sub.add_parser("sim", help="relatedness of two page ids")
    p.add_argument("--graph", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)

    p = sub.add_parser("stats", help="summarise a corpus file")
    p.add_argument("--corpus", required=True)

    return parser


def _option_keys(parser: argparse.ArgumentParser) -> set[str]:
    """Dests of the options of every subcommand below ``parser``."""
    keys: set[str] = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                keys |= _option_keys(sub)
                keys.update(a.dest for a in sub._actions if a.option_strings and a.dest != "help")
    return keys


def _resolve_options(parser: argparse.ArgumentParser, args: argparse.Namespace,
                     command: str) -> dict:
    """flag > config file > built-in default.

    A config file may set any option of any subcommand, so one file can serve
    the whole pipeline; a key no subcommand defines is a usage error.
    """
    options = dict(_DEFAULTS.get(command, {}))
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise UsageError(f"{config_path}: config must be a JSON object")
        known = _option_keys(parser).union(*_DEFAULTS.values())
        unknown = sorted(key for key in loaded if key.replace("-", "_") not in known)
        if unknown:
            raise UsageError(f"{config_path}: unknown config key(s): {', '.join(unknown)}")
        for key, value in loaded.items():
            options[key.replace("-", "_")] = value
    for key, value in vars(args).items():
        if key in ("config", "log_level", "command", "eval_command", "baseline_command"):
            continue
        options[key] = value
    return options


def _print_reports(name: str, reports: Sequence[AnalogyReport]) -> None:
    print(f"# {name}")
    print("bucket\tfound\tcorrect\taccuracy")
    for rep in reports:
        acc = "-" if rep.accuracy is None else f"{100 * rep.accuracy:.1f}%"
        print(f"{rep.bucket}\t{rep.found}\t{rep.correct}\t{acc}")


def _cmd_ingest(options: dict) -> int:
    workers = int(options["workers"])
    mode = str(options["mode"]).replace("-", "_")
    out = Path(options["out"])
    stats_path = Path(options["stats"]) if options["stats"] else Path(str(out) + ".stats.json")
    started = time.monotonic()
    stats = build_corpus(options["dump"], out, mode=mode, workers=workers,
                         anchor_stats_path=options["anchor_stats"])
    with open(stats_path, "w", encoding="utf-8") as handle:
        handle.write(stats.to_json())
    outputs = [out, stats_path]
    if options["anchor_stats"]:
        outputs.append(Path(options["anchor_stats"]))
    write_manifest(str(out) + ".manifest.json", "ingest", options,
                   inputs=[options["dump"]], outputs=outputs,
                   wall_time=time.monotonic() - started)
    print(stats.to_json(), end="")
    return 0


def _cmd_train(options: dict) -> int:
    config = TrainingConfig(
        dim=int(options["dim"]), window=int(options["window"]),
        negatives=int(options["negative"]), epochs=int(options["epochs"]),
        lr_initial=float(options["lr"]), subsample_t=float(options["subsample"]),
        min_count=int(options["min_count"]), seed=int(options["seed"]),
        workers=int(options["workers"]))
    started = time.monotonic()
    inputs = [options["corpus"]]
    vocab = build_vocab(options["corpus"], min_count=config.min_count)
    pretrained = None
    if options["init"]:
        pretrained = load_text(options["init"])
        inputs.append(options["init"])
    model = init_model(vocab, config, pretrained=pretrained)
    train_model(options["corpus"], model, config)
    out = Path(options["out"])
    save_text(model.to_vector_set(), out)
    write_manifest(str(out) + ".manifest.json", "train", options,
                   inputs=inputs, outputs=[out], wall_time=time.monotonic() - started)
    print(f"trained {len(vocab)} vectors (dim {config.dim}) -> {out}")
    return 0


def _cmd_similar(options: dict) -> int:
    k = int(options["k"])
    if k < 1:
        raise UsageError(f"-k must be >= 1, got {k}")
    vset = load_text(options["vectors"])
    token = options["token"]
    for other, score in vset.nearest(vset.get(token), k=k, exclude=(token,)):
        print(f"{other}\t{score:.6f}")
    return 0


def _cmd_analogy(options: dict) -> int:
    vset = load_text(options["vectors"])
    print(vset.analogy_query(options["a"], options["b"], options["c"]))
    return 0


def _parse_buckets(spec: str) -> list[int]:
    try:
        buckets = [int(part) for part in str(spec).split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"bad bucket list {spec!r}") from None
    if not buckets:
        raise UsageError("at least one bucket cap is required")
    if min(buckets) < 1:
        raise UsageError(f"bucket caps must be >= 1, got {min(buckets)}")
    return buckets


def _report_names(paths: Sequence[Path], what: str) -> list[str]:
    """File stems, which name report rows; two files with one stem are a usage error."""
    seen: dict[str, Path] = {}
    for path in paths:
        if path.stem in seen:
            raise UsageError(f"{what} files {seen[path.stem]} and {path} share the name "
                             f"{path.stem!r}; report names are file stems and must be distinct")
        seen[path.stem] = path
    return list(seen)


def _cmd_eval_analogy(options: dict) -> int:
    paths = [Path(p) for p in options["vectors"]]
    buckets = _parse_buckets(options["buckets"])
    names = _report_names(paths, "--vectors")
    if options["commons"] and len(paths) < 2:
        raise UsageError("--commons needs at least two --vectors sets")
    started = time.monotonic()
    sets = [load_text(p) for p in paths]
    questions = load_analogy_questions(options["questions"])
    if options["commons"]:
        all_reports = eval_analogy_commons(sets, questions, buckets)
    else:
        all_reports = [eval_analogy(vset, questions, buckets) for vset in sets]
    payload = []
    for name, reports in zip(names, all_reports):
        _print_reports(name, reports)
        payload.append({"set": name, "results": [
            {"bucket": r.bucket, "found": r.found, "correct": r.correct,
             "accuracy": r.accuracy} for r in reports]})
    if options["out"]:
        prefix = Path(options["out"])
        tsv = Path(str(prefix) + ".tsv")
        js = Path(str(prefix) + ".json")
        with open(tsv, "w", encoding="utf-8", newline="\n") as out:
            out.write("set\tbucket\tfound\tcorrect\taccuracy\n")
            for name, reports in zip(names, all_reports):
                for r in reports:
                    acc = "" if r.accuracy is None else f"{100 * r.accuracy:.1f}"
                    out.write(f"{name}\t{r.bucket}\t{r.found}\t{r.correct}\t{acc}\n")
        with open(js, "w", encoding="utf-8") as out:
            json.dump({"protocol": "commons" if options["commons"] else "all",
                       "questions": len(questions), "sets": payload}, out, indent=2)
            out.write("\n")
        write_manifest(str(prefix) + ".manifest.json", "eval analogy", options,
                       inputs=[*paths, options["questions"]], outputs=[tsv, js],
                       wall_time=time.monotonic() - started)
    return 0


def _dataset_files(specs: Sequence[str]) -> list[Path]:
    files: list[Path] = []
    for spec in specs:
        path = Path(spec)
        if path.is_dir():
            found = sorted(p for p in path.iterdir()
                           if p.suffix in (".txt", ".tsv", ".csv") and p.is_file())
            if not found:
                raise UsageError(f"{path}: no dataset files (.txt/.tsv/.csv) inside")
            files.extend(found)
        else:
            files.append(path)
    return files


def _cmd_eval_similarity(options: dict) -> int:
    scorer_kind = options["scorer"]
    if scorer_kind == "linkgraph" and not options["graph"]:
        raise UsageError("--scorer linkgraph needs --graph")
    if scorer_kind == "vectors" and not options.get("vectors"):
        raise UsageError("--scorer vectors needs at least one --vectors file")
    started = time.monotonic()
    files = _dataset_files(options["pairs"])
    dataset_names = _report_names(files, "dataset")
    paths = [Path(p) for p in options.get("vectors") or []]
    set_names = _report_names(paths, "--vectors")
    if scorer_kind == "vectors" and options["common_subset"] and len(paths) < 2:
        raise UsageError("--common-subset needs at least two --vectors sets")
    datasets = {name: load_similarity_pairs(p) for name, p in zip(dataset_names, files)}
    sense_index = load_sense_index(options["sense_index"])
    inputs: list = [*files, options["sense_index"]]

    rows: list[dict] = []
    if scorer_kind == "linkgraph":
        graph = load_graph(options["graph"])
        inputs.append(options["graph"])
        print("# link baseline")
        print("dataset\tpairs\tnot_found\trho")
        for name, pairs in datasets.items():
            rep = eval_similarity(None, pairs, sense_index, dataset=name, scorer=graph)
            rho = "-" if rep.rho is None else f"{rep.rho:.4f}"
            print(f"{name}\t{rep.pairs_total}\t{rep.not_found}\t{rho}")
            rows.append({"set": "linkgraph", "dataset": name, "pairs": rep.pairs_total,
                         "not_found": rep.not_found, "rho": rep.rho})
    else:
        sets = {name: load_text(p) for name, p in zip(set_names, paths)}
        inputs.extend(paths)
        if options["common_subset"]:
            report = common_subset_eval(sets, datasets, sense_index)
            header = "dataset\tpairs\t" + "\t".join(report.set_names)
            print(header)
            for dataset, n_pairs, per_set in report.rows:
                cells = "\t".join(f"{per_set[name]:.4f}" for name in report.set_names)
                print(f"{dataset}\t{n_pairs}\t{cells}")
                rows.append({"dataset": dataset, "pairs": n_pairs,
                             "rho": {k: v for k, v in per_set.items()}})
            averages = report.averages()
            if averages:
                cells = "\t".join(f"{averages[name]:.4f}" for name in report.set_names)
                print(f"average\t-\t{cells}")
            for dataset in report.skipped:
                print(f"# skipped {dataset}: shared subset smaller than 2 pairs")
            rows.append({"dataset": "average", "rho": averages,
                         "skipped": report.skipped})
        else:
            print("set\tdataset\tpairs\tnot_found\trho")
            for set_name, vset in sets.items():
                for name, pairs in datasets.items():
                    rep = eval_similarity(vset, pairs, sense_index, dataset=name)
                    rho = "-" if rep.rho is None else f"{rep.rho:.4f}"
                    print(f"{set_name}\t{name}\t{rep.pairs_total}\t{rep.not_found}\t{rho}")
                    rows.append({"set": set_name, "dataset": name,
                                 "pairs": rep.pairs_total, "not_found": rep.not_found,
                                 "rho": rep.rho})
    if options["out"]:
        prefix = Path(options["out"])
        tsv = Path(str(prefix) + ".tsv")
        js = Path(str(prefix) + ".json")
        with open(tsv, "w", encoding="utf-8", newline="\n") as out:
            keys = sorted({key for row in rows for key in row})
            out.write("\t".join(keys) + "\n")
            for row in rows:
                out.write("\t".join(json.dumps(row.get(key)) if isinstance(row.get(key), (dict, list))
                                    else str(row.get(key, "")) for key in keys) + "\n")
        with open(js, "w", encoding="utf-8") as out:
            json.dump({"rows": rows}, out, indent=2)
            out.write("\n")
        write_manifest(str(prefix) + ".manifest.json", "eval similarity", options,
                       inputs=inputs, outputs=[tsv, js],
                       wall_time=time.monotonic() - started)
    return 0


def _cmd_baseline_build(options: dict) -> int:
    started = time.monotonic()
    graph = build_link_graph(options["dump"])
    out = Path(options["out"])
    save_graph(graph, out)
    saved = out if out.suffix == ".npz" else out.with_suffix(out.suffix + ".npz")
    outputs = [saved, Path(str(saved) + ".json")]
    write_manifest(str(saved) + ".manifest.json", "baseline build", options,
                   inputs=[options["dump"]], outputs=outputs,
                   wall_time=time.monotonic() - started)
    print(f"link graph: {graph.page_count} pages, {graph.edge_count} edges -> {saved}")
    return 0


def _cmd_baseline_sim(options: dict) -> int:
    graph = load_graph(options["graph"])
    print(f"{link_similarity(graph, options['a'], options['b']):.6f}")
    return 0


def _cmd_stats(options: dict) -> int:
    lines = 0
    tokens = 0
    concepts = 0
    distinct: Counter = Counter()
    with open(options["corpus"], "r", encoding="utf-8") as handle:
        for line in handle:
            lines += 1
            for token in line.split():
                tokens += 1
                distinct[token] += 1
                if parse_concept(token) is not None:
                    concepts += 1
    print(json.dumps({"lines": lines, "token_occurrences": tokens,
                      "distinct_tokens": len(distinct),
                      "concept_occurrences": concepts}, indent=2, sort_keys=True))
    return 0


_HANDLERS = {
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "similar": _cmd_similar,
    "analogy": _cmd_analogy,
    "eval analogy": _cmd_eval_analogy,
    "eval similarity": _cmd_eval_similarity,
    "baseline build": _cmd_baseline_build,
    "baseline sim": _cmd_baseline_sim,
    "stats": _cmd_stats,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        logging.basicConfig(stream=sys.stderr, level=args.log_level,
                            format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    command = args.command
    if command == "eval":
        command = f"eval {args.eval_command}"
    elif command == "baseline":
        command = f"baseline {args.baseline_command}"
    try:
        options = _resolve_options(parser, args, command)
        return _HANDLERS[command](options)
    except UsageError as exc:
        print(json.dumps({"error": "UsageError", "message": str(exc)}), file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
