"""Command-line plumbing for the whole pipeline.

Subcommands: ingest, train, similar, analogy, eval analogy, eval similarity,
baseline build, baseline sim, stats.  Each option is declared once, in
``_COMMANDS``; options resolve flag > config file > default, and a config
value is converted and checked as its flag would be.  Commands that write
artifacts also write a ``<out>.manifest.json`` recording the config and sha256
digests of inputs and outputs; usage errors exit 2, runtime failures exit 1
with a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence

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


def _print_reports(name: str, reports: Sequence[AnalogyReport]) -> None:
    print(f"# {name}")
    print("bucket\tfound\tcorrect\taccuracy")
    for rep in reports:
        acc = "-" if rep.accuracy is None else f"{100 * rep.accuracy:.1f}%"
        print(f"{rep.bucket}\t{rep.found}\t{rep.correct}\t{acc}")


def _cmd_ingest(options: dict) -> int:
    out = Path(options["out"])
    stats_path = Path(options["stats"]) if options["stats"] else Path(str(out) + ".stats.json")
    started = time.monotonic()
    stats = build_corpus(options["dump"], out, mode=options["mode"].replace("-", "_"),
                         workers=options["workers"], anchor_stats_path=options["anchor_stats"])
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
        dim=options["dim"], window=options["window"], negatives=options["negative"],
        epochs=options["epochs"], lr_initial=options["lr"], subsample_t=options["subsample"],
        min_count=options["min_count"], seed=options["seed"], workers=options["workers"])
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
    k = options["k"]
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
        buckets = [int(part) for part in spec.split(",") if part.strip()]
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
    table: list[list] = [["set", "bucket", "found", "correct", "accuracy"]]
    for name, reports in zip(names, all_reports):
        _print_reports(name, reports)
        payload.append({"set": name, "results": [
            {"bucket": r.bucket, "found": r.found, "correct": r.correct,
             "accuracy": r.accuracy} for r in reports]})
        table += [[name, r.bucket, r.found, r.correct,
                   "" if r.accuracy is None else f"{100 * r.accuracy:.1f}"] for r in reports]
    _write_report(options, "eval analogy", table,
                  {"protocol": "commons" if options["commons"] else "all",
                   "questions": len(questions), "sets": payload},
                  inputs=[*paths, options["questions"]], started=started)
    return 0


def _write_report(options: dict, command: str, table: Sequence[Sequence], document: dict,
                  inputs: Sequence, started: float) -> None:
    """With ``--out``, write ``<out>.tsv`` (``table``, header first), ``<out>.json`` and the manifest."""
    if not options["out"]:
        return
    prefix = str(Path(options["out"]))
    tsv, js = Path(prefix + ".tsv"), Path(prefix + ".json")
    with open(tsv, "w", encoding="utf-8", newline="\n") as out:
        out.writelines("\t".join(map(str, row)) + "\n" for row in table)
    with open(js, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=2, allow_nan=False)
        out.write("\n")
    write_manifest(prefix + ".manifest.json", command, options, inputs=inputs,
                   outputs=[tsv, js], wall_time=time.monotonic() - started)


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


def _rho_cell(rho: float | None) -> str:
    return "-" if rho is None else f"{rho:.4f}"


def _tsv_cell(value: object) -> object:
    """A report value as a TSV cell: empty when missing or undefined, JSON when nested."""
    if value is None:
        return ""
    return json.dumps(value) if isinstance(value, (dict, list)) else value


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
            print(f"{name}\t{rep.pairs_total}\t{rep.not_found}\t{_rho_cell(rep.rho)}")
            rows.append({"set": "linkgraph", "dataset": name, "pairs": rep.pairs_total,
                         "not_found": rep.not_found, "rho": rep.rho})
    else:
        sets = {name: load_text(p) for name, p in zip(set_names, paths)}
        inputs.extend(paths)
        if options["common_subset"]:
            report = common_subset_eval(sets, datasets, sense_index)
            print("dataset\tpairs\t" + "\t".join(report.set_names))
            for dataset, n_pairs, per_set in report.rows:
                cells = "\t".join(_rho_cell(per_set[name]) for name in report.set_names)
                print(f"{dataset}\t{n_pairs}\t{cells}")
                rows.append({"dataset": dataset, "pairs": n_pairs, "rho": dict(per_set)})
            averages = report.averages()
            if averages:
                cells = "\t".join(_rho_cell(averages[name]) for name in report.set_names)
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
                    print(f"{set_name}\t{name}\t{rep.pairs_total}\t{rep.not_found}\t"
                          f"{_rho_cell(rep.rho)}")
                    rows.append({"set": set_name, "dataset": name,
                                 "pairs": rep.pairs_total, "not_found": rep.not_found,
                                 "rho": rep.rho})
    keys = sorted({key for row in rows for key in row})
    table = [keys, *([_tsv_cell(row.get(key)) for key in keys] for row in rows)]
    _write_report(options, "eval similarity", table, {"rows": rows}, inputs=inputs,
                  started=started)
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
    distinct: Counter = Counter()
    with open(options["corpus"], "r", encoding="utf-8") as handle:
        for lines, line in enumerate(handle, start=1):
            distinct.update(line.split())
    concepts = sum(n for token, n in distinct.items() if parse_concept(token) is not None)
    print(json.dumps({"lines": lines, "token_occurrences": sum(distinct.values()),
                      "distinct_tokens": len(distinct),
                      "concept_occurrences": concepts}, indent=2, sort_keys=True))
    return 0


# Subcommand -> (handler, help, options).  An option is (flag, argparse keywords);
# one without a "default" is required, and a SUPPRESS default leaves it unset.
_COMMANDS: dict[str, tuple[Callable[[dict], int], str, list[tuple[str, dict]]]] = {
    "ingest": (_cmd_ingest, "compile a dump into a training corpus", [
        ("--dump", {}), ("--out", {}),
        ("--mode", {"choices": ["standard", "heuristic", "anchors-only"],
                    "default": "standard"}),
        ("--workers", {"type": int, "default": 1}),
        ("--stats", {"default": None, "help": "stats JSON path (default <out>.stats.json)"}),
        ("--anchor-stats", {"default": None,
                            "help": "write aggregated anchor statistics TSV here"}),
    ]),
    "train": (_cmd_train, "train embeddings on a corpus", [
        ("--corpus", {}), ("--out", {}),
        ("--dim", {"type": int, "default": 300}),
        ("--window", {"type": int, "default": 10}),
        ("--negative", {"type": int, "default": 5}),
        ("--epochs", {"type": int, "default": 5}),
        ("--min-count", {"type": int, "default": 5}),
        ("--lr", {"type": float, "default": 0.025}),
        ("--subsample", {"type": float, "default": 1e-5}),
        ("--seed", {"type": int, "default": 1}),
        ("--workers", {"type": int, "default": 1}),
        ("--init", {"default": None, "help": "warm-start from this vector file"}),
    ]),
    "similar": (_cmd_similar, "nearest tokens to a query token", [
        ("--vectors", {}), ("--token", {}),
        ("-k", {"type": int, "default": 10}),
    ]),
    "analogy": (_cmd_analogy, "a:b :: c:? by vector offset", [
        ("--vectors", {}), ("--a", {}), ("--b", {}), ("--c", {}),
    ]),
    "eval analogy": (_cmd_eval_analogy, "bucketed analogy accuracy", [
        ("--vectors", {"action": "append", "help": "vector file; repeat for several sets"}),
        ("--questions", {}),
        ("--buckets", {"default": "30000,300000,3000000",
                       "help": "comma-separated frequency caps"}),
        ("--commons", {"action": "store_true", "default": False,
                       "help": "score on the intersection of found questions"}),
        ("--out", {"default": None, "help": "report prefix (writes .tsv and .json)"}),
    ]),
    "eval similarity": (_cmd_eval_similarity, "phrase similarity vs human scores", [
        ("--vectors", {"action": "append", "default": argparse.SUPPRESS,
                       "help": "vector file; repeat for several sets"}),
        ("--pairs", {"action": "append", "help": "dataset file or directory; repeat as needed"}),
        ("--sense-index", {}),
        ("--common-subset", {"action": "store_true", "default": False}),
        ("--graph", {"default": None, "help": "link graph (with --scorer linkgraph)"}),
        ("--scorer", {"choices": ["vectors", "linkgraph"], "default": "vectors"}),
        ("--out", {"default": None, "help": "report prefix (writes .tsv and .json)"}),
    ]),
    "baseline build": (_cmd_baseline_build, "extract the kept-page link graph", [
        ("--dump", {}), ("--out", {}),
    ]),
    "baseline sim": (_cmd_baseline_sim, "relatedness of two page ids", [
        ("--graph", {}), ("--a", {"type": int}), ("--b", {"type": int}),
    ]),
    "stats": (_cmd_stats, "summarise a corpus file", [("--corpus", {})]),
}
_GROUPS = {"eval": "evaluation protocols", "baseline": "link-structure baseline"}


def _dest(flag: str) -> str:
    """The option's key in the options dict; a config file may spell it with hyphens."""
    return flag.lstrip("-").replace("-", "_")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikivec",
        description="Concept-annotated corpora, embeddings, and their evaluations.")
    parser.add_argument("--config", help="JSON file with option defaults", default=None)
    parser.add_argument("--log-level", dest="log_level", type=str.upper, default=None,
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="print log records of this level and above to stderr")
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (_, help_text, options) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            groups[group] = commands.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="command", required=True)
        sub = (groups[group] if group else commands).add_parser(leaf, help=help_text)
        sub.set_defaults(command=name)  # a leaf's default overrides its group's name
        for flag, option in options:
            # Only given flags reach the namespace; defaults are filled in later,
            # below any config value.
            sub.add_argument(flag, **{**option, "required": "default" not in option,
                                      "default": argparse.SUPPRESS})
    return parser


def _config_value(option: dict, value):
    """A config file's ``value`` for ``option``, converted and checked as its flag's would be."""
    action = option.get("action")
    if action == "store_true":
        if isinstance(value, bool):
            return value
        raise ValueError(f"expected true or false, got {value!r}")
    if action == "append":
        if isinstance(value, list) and all(isinstance(item, str) for item in value):
            return value
        raise ValueError(f"expected a list of strings, got {value!r}")
    kind = option.get("type", str)
    json_types, wanted = {int: ((int,), "an integer"), float: ((int, float), "a number")}.get(
        kind, ((str,), "a string"))
    if isinstance(value, bool) or not isinstance(value, json_types):
        raise ValueError(f"expected {wanted}, got {value!r}")
    converted = kind(value)
    if "choices" in option and converted not in option["choices"]:
        raise ValueError(f"{value!r} is not one of {', '.join(option['choices'])}")
    return converted


def _resolve_options(args: argparse.Namespace) -> dict:
    """flag > config file > built-in default, for the options of ``args.command``.

    A config file may set any option of any subcommand, so one file can serve
    the whole pipeline; a key no subcommand defines is a usage error.  A value
    for an option of the running subcommand must pass that option's checks.
    """
    table = {_dest(flag): option for flag, option in _COMMANDS[args.command][2]}
    options = {dest: option["default"] for dest, option in table.items()
               if option.get("default", argparse.SUPPRESS) is not argparse.SUPPRESS}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise UsageError(f"{args.config}: config is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        known = {_dest(flag) for _, _, options_of in _COMMANDS.values() for flag, _ in options_of}
        unknown = sorted(key for key in loaded if key.replace("-", "_") not in known)
        if unknown:
            raise UsageError(f"{args.config}: unknown config key(s): {', '.join(unknown)}")
        for key, value in loaded.items():
            dest = key.replace("-", "_")
            if dest in table:
                try:
                    options[dest] = _config_value(table[dest], value)
                except ValueError as exc:
                    raise UsageError(f"{args.config}: config key {key!r}: {exc}") from None
    options.update((dest, value) for dest, value in vars(args).items() if dest in table)
    return options


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.log_level:
        logging.basicConfig(stream=sys.stderr, level=args.log_level,
                            format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command][0](_resolve_options(args))
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
