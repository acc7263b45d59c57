"""End-to-end command-line coverage, driven through main() plus one subprocess."""

import argparse
import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import DATA, FIXTURE_DUMP, GOLDEN_ANCHOR_STATS, GOLDEN_STANDARD
from wikivec import cli
from wikivec.cli import main
from wikivec.vectors import load_text, save_text, VectorSet


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- ingest ---------------------------------------------------------------


def test_ingest_reproduces_golden_corpus(tmp_path, capsys):
    out = tmp_path / "corpus.txt"
    code, stdout, _ = run_cli(capsys, "ingest", "--dump", FIXTURE_DUMP, "--out", out)
    assert code == 0
    assert out.read_bytes() == GOLDEN_STANDARD.read_bytes()
    stats = json.loads((tmp_path / "corpus.txt.stats.json").read_text())
    assert stats["pages_kept"] == 6
    assert json.loads(stdout) == stats
    manifest = json.loads((tmp_path / "corpus.txt.manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert len(manifest["inputs"]) == 1
    assert {o["path"] for o in manifest["outputs"]} == {
        str(out), str(tmp_path / "corpus.txt.stats.json")}


def test_ingest_anchor_stats_output(tmp_path, capsys):
    out = tmp_path / "corpus.txt"
    anchors = tmp_path / "anchors.tsv"
    code, _, _ = run_cli(capsys, "ingest", "--dump", FIXTURE_DUMP, "--out", out,
                         "--anchor-stats", anchors)
    assert code == 0
    assert anchors.read_bytes() == GOLDEN_ANCHOR_STATS.read_bytes()


def test_ingest_mode_flag_accepts_hyphenated_spelling(tmp_path, capsys):
    out = tmp_path / "anchors_only.txt"
    code, _, _ = run_cli(capsys, "ingest", "--dump", FIXTURE_DUMP, "--out", out,
                         "--mode", "anchors-only")
    assert code == 0
    tokens = out.read_text(encoding="utf-8").split()
    assert tokens and all(t.startswith("wiki_") for t in tokens)


def test_missing_dump_is_a_runtime_error(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "ingest", "--dump", tmp_path / "nope.xml",
                              "--out", tmp_path / "c.txt")
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "FileNotFoundError"


# --- stats ----------------------------------------------------------------


def test_stats_matches_independent_count(capsys):
    code, stdout, _ = run_cli(capsys, "stats", "--corpus", GOLDEN_STANDARD)
    assert code == 0
    got = json.loads(stdout)
    counts: Counter = Counter()
    lines = 0
    for line in GOLDEN_STANDARD.read_text(encoding="utf-8").splitlines():
        lines += 1
        counts.update(line.split())
    assert got == {
        "lines": lines,
        "token_occurrences": sum(counts.values()),
        "distinct_tokens": len(counts),
        "concept_occurrences": sum(n for t, n in counts.items()
                                   if t.startswith("wiki_")),
    }


# --- train / similar / analogy --------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small end-to-end training run shared by the query-command tests."""
    tmp = tmp_path_factory.mktemp("cli_train")
    corpus = tmp / "corpus.txt"
    rng = np.random.default_rng(3)
    words = ["alpha", "beta", "gamma", "delta", "wiki_1"]
    corpus.write_text(
        "\n".join(" ".join(rng.choice(words, size=10)) for _ in range(80)) + "\n",
        encoding="utf-8")
    out = tmp / "vectors.txt"
    code = main(["train", "--corpus", str(corpus), "--out", str(out),
                 "--dim", "16", "--epochs", "2", "--window", "3",
                 "--negative", "3", "--min-count", "1", "--subsample", "0",
                 "--seed", "7"])
    assert code == 0
    return out


def test_train_writes_vectors_and_manifest(trained, capsys):
    vset = load_text(trained)
    assert vset.dim == 16
    assert len(vset) == 5
    manifest = json.loads((trained.parent / "vectors.txt.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["dim"] == 16


def test_train_warm_start_epochs_zero_copies_rows(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("paris france paris france\n", encoding="utf-8")
    out = tmp_path / "warm.txt"
    code, _, _ = run_cli(capsys, "train", "--corpus", corpus, "--out", out,
                         "--dim", "4", "--epochs", "0", "--min-count", "1",
                         "--init", DATA / "pretrained_fixture.txt")
    assert code == 0
    vset = load_text(out)
    assert np.allclose(vset.get("paris"), [0.1, 0.2, 0.3, 0.4], atol=5e-7)
    assert np.allclose(vset.get("france"), [0.5] * 4, atol=5e-7)


@pytest.mark.parametrize("flag,value,field", [
    ("--subsample", "nan", "subsample_t"), ("--subsample", "inf", "subsample_t"),
    ("--lr", "nan", "lr_initial"), ("--lr", "inf", "lr_initial"),
])
def test_train_rejects_non_finite_hyperparameters(tmp_path, capsys, flag, value, field):
    corpus = tmp_path / "c.txt"
    corpus.write_text("paris france paris france\n", encoding="utf-8")
    out = tmp_path / "v.txt"
    code, _, stderr = run_cli(capsys, "train", "--corpus", corpus, "--out", out,
                              "--dim", "4", "--min-count", "1", flag, value)
    assert code == 1
    assert field in json.loads(stderr)["message"]
    assert not out.exists()
    assert not (tmp_path / "v.txt.manifest.json").exists()


def test_similar_lists_neighbours(trained, capsys):
    code, stdout, _ = run_cli(capsys, "similar", "--vectors", trained,
                              "--token", "alpha", "-k", "3")
    assert code == 0
    rows = [line.split("\t") for line in stdout.strip().split("\n")]
    assert len(rows) == 3
    assert all(len(r) == 2 for r in rows)
    assert "alpha" not in [r[0] for r in rows]
    scores = [float(r[1]) for r in rows]
    assert scores == sorted(scores, reverse=True)


def test_similar_unknown_token_is_runtime_error(trained, capsys):
    code, _, stderr = run_cli(capsys, "similar", "--vectors", trained,
                              "--token", "zzz")
    assert code == 1
    assert json.loads(stderr)["error"] == "NotInVocabulary"


@pytest.mark.parametrize("k", ["0", "-2"])
def test_similar_bad_k_is_usage_error_before_loading(tmp_path, capsys, k):
    code, _, stderr = run_cli(capsys, "similar", "--vectors", tmp_path / "missing.txt",
                              "--token", "alpha", "-k", k)
    assert code == 2
    assert "-k" in json.loads(stderr)["message"]


def test_analogy_command_prints_answer(tmp_path, capsys):
    path = tmp_path / "quads.txt"
    save_text(VectorSet(
        ["man", "king", "woman", "queen"],
        np.array([[1.0, 0, 0], [1, 1, 0], [0, 0, 1], [0, 1, 1]])), path)
    code, stdout, _ = run_cli(capsys, "analogy", "--vectors", path,
                              "--a", "man", "--b", "king", "--c", "woman")
    assert code == 0
    assert stdout.strip() == "queen"


# --- eval analogy ----------------------------------------------------------


@pytest.fixture()
def quad_vectors(tmp_path):
    path = tmp_path / "quads.txt"
    save_text(VectorSet(
        ["man", "king", "woman", "queen", "boy", "prince"],
        np.array([[1.0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0],
                  [0, 1, 1, 0], [0, 0, 0, 1], [0, 1, 0, 1]])), path)
    questions = tmp_path / "questions.txt"
    questions.write_text(
        ": people\nman king woman queen\nman king boy prince\n", encoding="utf-8")
    return path, questions


def test_eval_analogy_stdout_and_files(quad_vectors, tmp_path, capsys):
    vectors, questions = quad_vectors
    prefix = tmp_path / "report"
    code, stdout, _ = run_cli(capsys, "eval", "analogy", "--vectors", vectors,
                              "--questions", questions, "--buckets", "4,6",
                              "--out", prefix)
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "# quads"
    assert lines[1] == "bucket\tfound\tcorrect\taccuracy"
    assert lines[2] == "4\t1\t1\t100.0%"
    assert lines[3] == "6\t2\t2\t100.0%"
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["questions"] == 2
    assert data["sets"][0]["results"][1]["found"] == 2
    tsv = (tmp_path / "report.tsv").read_text().splitlines()
    assert tsv[0] == "set\tbucket\tfound\tcorrect\taccuracy"
    assert (tmp_path / "report.manifest.json").exists()


def test_eval_analogy_commons_needs_two_sets(quad_vectors, capsys):
    vectors, questions = quad_vectors
    code, _, stderr = run_cli(capsys, "eval", "analogy", "--vectors", vectors,
                              "--questions", questions, "--commons")
    assert code == 2
    assert "two" in json.loads(stderr)["message"]


def test_eval_analogy_commons_runs_with_two_sets(quad_vectors, tmp_path, capsys):
    vectors, questions = quad_vectors
    small = tmp_path / "small.txt"
    full = load_text(vectors)
    save_text(VectorSet(full.tokens[:4], full.matrix[:4]), small)
    code, stdout, _ = run_cli(capsys, "eval", "analogy", "--vectors", vectors,
                              "--vectors", small, "--questions", questions,
                              "--buckets", "6", "--commons")
    assert code == 0
    # Both sets are scored on the single question the small set can see.
    for block in stdout.strip().split("# ")[1:]:
        assert block.strip().split("\n")[-1].startswith("6\t1\t1")


def test_eval_analogy_bad_buckets(quad_vectors, capsys):
    vectors, questions = quad_vectors
    code, _, stderr = run_cli(capsys, "eval", "analogy", "--vectors", vectors,
                              "--questions", questions, "--buckets", "abc")
    assert code == 2
    assert "bucket" in json.loads(stderr)["message"]


@pytest.mark.parametrize("buckets", ["0", "4,-1"])
def test_eval_analogy_caps_below_one_are_usage_errors_before_loading(tmp_path, capsys,
                                                                     buckets):
    code, _, stderr = run_cli(capsys, "eval", "analogy",
                              "--vectors", tmp_path / "missing.txt",
                              "--questions", tmp_path / "missing_questions.txt",
                              "--buckets", buckets)
    assert code == 2
    assert "bucket caps must be >= 1" in json.loads(stderr)["message"]


def test_eval_analogy_duplicate_set_names_are_usage_errors_before_loading(tmp_path, capsys):
    # Report rows are named by file stem; both files here would be "v".
    first, second = tmp_path / "a" / "v.txt", tmp_path / "b" / "v.txt"
    code, _, stderr = run_cli(capsys, "eval", "analogy", "--vectors", first,
                              "--vectors", second, "--questions", tmp_path / "q.txt",
                              "--commons")
    assert code == 2
    message = json.loads(stderr)["message"]
    assert str(first) in message and str(second) in message


# --- eval similarity --------------------------------------------------------


@pytest.fixture()
def sim_setup(tmp_path):
    vectors = tmp_path / "sim_vecs.txt"
    # Angles arranged so cosine(paris, france) > cosine(tiger, cat).
    save_text(VectorSet(
        ["wiki_1", "wiki_2", "tiger", "cat", "book", "paper"],
        np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.4, 0.6],
                  [1.0, 1.0], [-1.0, 0.2]])), vectors)
    senses = tmp_path / "senses.tsv"
    senses.write_text("paris\t1\t3\nfrance\t2\t2\n", encoding="utf-8")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("paris,france,9.0\ntiger,cat,7.0\nbook,paper,5.0\n",
                     encoding="utf-8")
    return vectors, senses, pairs


def test_eval_similarity_vectors_route(sim_setup, tmp_path, capsys):
    vectors, senses, pairs = sim_setup
    prefix = tmp_path / "simreport"
    code, stdout, _ = run_cli(capsys, "eval", "similarity", "--vectors", vectors,
                              "--pairs", pairs, "--sense-index", senses,
                              "--out", prefix)
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "set\tdataset\tpairs\tnot_found\trho"
    cells = lines[1].split("\t")
    assert cells[:4] == ["sim_vecs", "pairs", "3", "0"]
    float(cells[4])  # parses as a number
    assert (tmp_path / "simreport.tsv").exists()
    assert (tmp_path / "simreport.json").exists()
    assert (tmp_path / "simreport.manifest.json").exists()


def test_eval_similarity_accepts_dataset_directory(sim_setup, tmp_path, capsys):
    vectors, senses, _ = sim_setup
    dataset_dir = tmp_path / "datasets"
    dataset_dir.mkdir()
    (dataset_dir / "one.csv").write_text("tiger,cat,7.0\nbook,paper,5.0\n",
                                         encoding="utf-8")
    (dataset_dir / "two.csv").write_text("paris,france,9.0\ntiger,cat,6.0\n",
                                         encoding="utf-8")
    (dataset_dir / "ignored.log").write_text("x", encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "eval", "similarity", "--vectors", vectors,
                              "--pairs", dataset_dir, "--sense-index", senses)
    assert code == 0
    datasets = [line.split("\t")[1] for line in stdout.strip().split("\n")[1:]]
    assert datasets == ["one", "two"]


def test_eval_similarity_common_subset(sim_setup, tmp_path, capsys):
    vectors, senses, pairs = sim_setup
    # Second set lacks "book"/"paper": the shared subset is the other 2 pairs.
    small = tmp_path / "small_vecs.txt"
    full = load_text(vectors)
    save_text(VectorSet(full.tokens[:4], full.matrix[:4]), small)
    code, stdout, _ = run_cli(capsys, "eval", "similarity", "--vectors", vectors,
                              "--vectors", small, "--pairs", pairs,
                              "--sense-index", senses, "--common-subset")
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "dataset\tpairs\tsim_vecs\tsmall_vecs"
    assert lines[1].split("\t")[:2] == ["pairs", "2"]
    assert lines[2].startswith("average\t-")


def test_eval_similarity_common_subset_needs_two_sets(sim_setup, capsys):
    vectors, senses, pairs = sim_setup
    code, _, stderr = run_cli(capsys, "eval", "similarity", "--vectors", vectors,
                              "--pairs", pairs, "--sense-index", senses,
                              "--common-subset")
    assert code == 2
    assert "two" in json.loads(stderr)["message"]


@pytest.mark.parametrize("option, common_subset", [("--vectors", False),
                                                   ("--vectors", True),
                                                   ("--pairs", False)])
def test_eval_similarity_duplicate_names_are_usage_errors_before_loading(
        sim_setup, tmp_path, capsys, option, common_subset):
    # Sets and datasets are named by file stem; neither pair of files exists,
    # so exit 2 also shows that nothing was loaded.
    vectors, senses, pairs = sim_setup
    first, second = tmp_path / "a" / "same.txt", tmp_path / "b" / "same.txt"
    argv = ["eval", "similarity", "--sense-index", senses, option, first, option, second]
    argv += ["--pairs", pairs] if option == "--vectors" else ["--vectors", vectors]
    if common_subset:
        argv.append("--common-subset")
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 2
    message = json.loads(stderr)["message"]
    assert str(first) in message and str(second) in message
    assert "distinct" in message


def test_eval_similarity_linkgraph_route(tmp_path, capsys):
    graph_out = tmp_path / "graph.npz"
    code = main(["baseline", "build", "--dump", str(FIXTURE_DUMP),
                 "--out", str(graph_out)])
    assert code == 0
    capsys.readouterr()
    senses = tmp_path / "senses.tsv"
    senses.write_text("paris\t1\t3\nfrance\t2\t2\nseine\t3\t2\n"
                      "data mining\t4\t2\nmachine learning\t5\t2\n",
                      encoding="utf-8")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("paris,france,9.0\nseine,data mining,2.0\n"
                     "machine learning,data mining,8.0\nparis,zzz,5.0\n",
                     encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "eval", "similarity", "--scorer", "linkgraph",
                              "--graph", graph_out, "--pairs", pairs,
                              "--sense-index", senses)
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "# link baseline"
    cells = lines[2].split("\t")
    # "paris,zzz" has no concept mapping for zzz: exactly one not-found pair.
    assert cells[:3] == ["pairs", "4", "1"]


def _strict_json(path):
    """``path`` parsed as JSON that holds no NaN or infinity."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_eval_similarity_undefined_rho_is_null_not_nan(sim_setup, tmp_path, capsys):
    # Equal human scores leave rho undefined; the graph's pairs are all found.
    vectors, senses, _ = sim_setup
    flat = tmp_path / "flat.csv"
    flat.write_text("paris,france,5\ntiger,cat,5\nbook,paper,5\n", encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "eval", "similarity", "--vectors", vectors,
                              "--pairs", flat, "--sense-index", senses,
                              "--out", tmp_path / "vec")
    assert code == 0
    assert stdout.strip().split("\n")[1].split("\t") == ["sim_vecs", "flat", "3", "0", "-"]
    assert [row["rho"] for row in _strict_json(tmp_path / "vec.json")["rows"]] == [None]

    graph = tmp_path / "graph.npz"
    assert main(["baseline", "build", "--dump", str(FIXTURE_DUMP), "--out", str(graph)]) == 0
    link_senses = tmp_path / "link_senses.tsv"
    link_senses.write_text("paris\t1\t3\nfrance\t2\t2\nseine\t3\t2\n", encoding="utf-8")
    link_flat = tmp_path / "link_flat.csv"
    link_flat.write_text("paris,france,5\nseine,paris,5\n", encoding="utf-8")
    capsys.readouterr()
    code, stdout, _ = run_cli(capsys, "eval", "similarity", "--scorer", "linkgraph",
                              "--graph", graph, "--pairs", link_flat,
                              "--sense-index", link_senses, "--out", tmp_path / "link")
    assert code == 0
    assert stdout.strip().split("\n")[2].split("\t") == ["link_flat", "2", "0", "-"]
    assert [row["rho"] for row in _strict_json(tmp_path / "link.json")["rows"]] == [None]


def test_eval_similarity_tsv_leaves_an_undefined_rho_empty(sim_setup, tmp_path, capsys):
    vectors, senses, _ = sim_setup
    named = tmp_path / "v.txt"
    named.write_bytes(vectors.read_bytes())
    flat = tmp_path / "p.csv"
    flat.write_text("tiger,cat,5\nbook,paper,5\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "eval", "similarity", "--vectors", named, "--pairs", flat,
                         "--sense-index", senses, "--out", tmp_path / "report")
    assert code == 0
    assert (tmp_path / "report.tsv").read_text(encoding="utf-8").splitlines() == [
        "dataset\tnot_found\tpairs\trho\tset", "p\t0\t2\t\tv"]


def test_common_subset_averages_only_defined_rhos(sim_setup, tmp_path, capsys):
    vectors, senses, ranked = sim_setup
    flat = tmp_path / "flat.csv"
    flat.write_text("paris,france,5\ntiger,cat,5\nbook,paper,5\n", encoding="utf-8")
    small = tmp_path / "small_vecs.txt"
    full = load_text(vectors)
    save_text(VectorSet(full.tokens[:4], full.matrix[:4]), small)
    code, stdout, _ = run_cli(capsys, "eval", "similarity", "--vectors", vectors,
                              "--vectors", small, "--pairs", flat, "--pairs", ranked,
                              "--sense-index", senses, "--common-subset",
                              "--out", tmp_path / "common")
    assert code == 0
    lines = [line.split("\t") for line in stdout.strip().split("\n")]
    assert lines[1] == ["flat", "2", "-", "-"]
    assert lines[2][:2] == ["pairs", "2"] and lines[3][:2] == ["average", "-"]
    assert lines[3][2:] == lines[2][2:]  # the mean over the one defined rho
    rows = _strict_json(tmp_path / "common.json")["rows"]
    assert rows[0]["rho"] == {"sim_vecs": None, "small_vecs": None}
    assert rows[2]["rho"] == rows[1]["rho"]


def test_eval_similarity_linkgraph_needs_graph(sim_setup, capsys):
    _, senses, pairs = sim_setup
    code, _, stderr = run_cli(capsys, "eval", "similarity", "--scorer", "linkgraph",
                              "--pairs", pairs, "--sense-index", senses)
    assert code == 2
    assert "--graph" in json.loads(stderr)["message"]


def test_eval_similarity_vectors_route_needs_vectors(sim_setup, capsys):
    _, senses, pairs = sim_setup
    code, _, stderr = run_cli(capsys, "eval", "similarity",
                              "--pairs", pairs, "--sense-index", senses)
    assert code == 2
    assert "--vectors" in json.loads(stderr)["message"]


# --- baseline ---------------------------------------------------------------


def test_baseline_build_and_sim(tmp_path, capsys):
    graph_out = tmp_path / "graph.npz"
    code, stdout, _ = run_cli(capsys, "baseline", "build", "--dump", FIXTURE_DUMP,
                              "--out", graph_out)
    assert code == 0
    assert "6 pages, 13 edges" in stdout
    assert (tmp_path / "graph.npz.manifest.json").exists()
    code, stdout, _ = run_cli(capsys, "baseline", "sim", "--graph", graph_out,
                              "--a", "4", "--b", "5")
    assert code == 0
    import math
    want = 1.0 - math.log(2) / math.log(3)
    assert float(stdout.strip()) == pytest.approx(want, abs=1e-6)


# --- config file -------------------------------------------------------------


def test_config_file_supplies_defaults_flags_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode": "anchors-only", "workers": 1}),
                      encoding="utf-8")
    # Config alone: anchors-only output.
    out1 = tmp_path / "from_config.txt"
    code, _, _ = run_cli(capsys, "--config", config, "ingest",
                         "--dump", FIXTURE_DUMP, "--out", out1)
    assert code == 0
    assert all(t.startswith("wiki_") for t in out1.read_text().split())
    # Explicit flag beats the config value.
    out2 = tmp_path / "flag_wins.txt"
    code, _, _ = run_cli(capsys, "--config", config, "ingest",
                         "--dump", FIXTURE_DUMP, "--out", out2,
                         "--mode", "standard")
    assert code == 0
    assert out2.read_bytes() == GOLDEN_STANDARD.read_bytes()


def test_config_rejects_keys_no_subcommand_defines(tmp_path, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"ordered": True, "wrokers": 4, "dim": 50}),
                      encoding="utf-8")
    out = tmp_path / "c.txt"
    code, _, stderr = run_cli(capsys, "--config", config, "ingest",
                              "--dump", FIXTURE_DUMP, "--out", out)
    assert code == 2
    message = json.loads(stderr)["message"]
    assert "ordered" in message and "wrokers" in message and "dim" not in message
    assert not out.exists()
    # Keys of other subcommands are fine: one config file serves the whole pipeline.
    config.write_text(json.dumps({"dim": 50, "min-count": 1, "mode": "standard"}),
                      encoding="utf-8")
    code, _, _ = run_cli(capsys, "--config", config, "ingest",
                         "--dump", FIXTURE_DUMP, "--out", out)
    assert code == 0
    assert out.read_bytes() == GOLDEN_STANDARD.read_bytes()


# Each value is wrong for its option's type, choices or action, so none may
# reach a handler.
@pytest.mark.parametrize("config, argv", [
    ({"dim": 4.7}, ["train", "--corpus", GOLDEN_STANDARD, "--out", "{out}/v.txt"]),
    ({"workers": "2"}, ["train", "--corpus", GOLDEN_STANDARD, "--out", "{out}/v.txt"]),
    ({"commons": "false"}, ["eval", "analogy", "--vectors", DATA / "pretrained_fixture.txt",
                            "--questions", DATA / "questions_fixture.txt", "--out", "{out}/r"]),
    ({"scorer": "bogus"}, ["eval", "similarity", "--vectors", DATA / "pretrained_fixture.txt",
                           "--pairs", DATA / "sim_comma.csv",
                           "--sense-index", GOLDEN_ANCHOR_STATS, "--out", "{out}/r"]),
    ({"mode": "bogus"}, ["ingest", "--dump", FIXTURE_DUMP, "--out", "{out}/c.txt"]),
    ({"vectors": "v.txt"}, ["eval", "similarity", "--pairs", DATA / "sim_comma.csv",
                            "--sense-index", GOLDEN_ANCHOR_STATS, "--out", "{out}/r"]),
], ids=["dim", "workers", "commons", "scorer", "mode", "vectors"])
def test_config_values_are_checked_like_flags(tmp_path, capsys, config, argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    code, _, stderr = run_cli(capsys, "--config", path,
                              *(str(word).format(out=out) for word in argv))
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "UsageError"
    key = next(iter(config))
    assert str(path) in err["message"] and repr(key) in err["message"]
    assert list(out.iterdir()) == []


def _values(flag, option):
    """Two distinct values of an option, each as (argv words, JSON value, typed value).

    The first is never the default.
    """
    action, kind, default = option.get("action"), option.get("type"), option["default"]
    if action == "store_true":
        return ([flag], True, True), ([], False, False)
    if action == "append":
        return ([flag, "x.txt", flag, "y.txt"], ["x.txt", "y.txt"], ["x.txt", "y.txt"]), \
            ([flag, "z.txt"], ["z.txt"], ["z.txt"])
    if "choices" in option:
        other = next(choice for choice in option["choices"] if choice != default)
        return ([flag, other], other, other), ([flag, default], default, default)
    if kind is int:
        return ([flag, str(default + 1)], default + 1, default + 1), \
            ([flag, str(default + 2)], default + 2, default + 2)
    if kind is float:  # a JSON integer is a number too
        return ([flag, "3"], 3, 3.0), ([flag, "0.5"], 0.5, 0.5)
    return ([flag, "one"], "one", "one"), ([flag, "two"], "two", "two")


_WITH_DEFAULTS = [(command, flag, option) for command, (_, _, options) in cli._COMMANDS.items()
                  for flag, option in options if "default" in option]


@pytest.mark.parametrize("command, flag, option", _WITH_DEFAULTS,
                         ids=[f"{command} {flag}" for command, flag, _ in _WITH_DEFAULTS])
def test_flag_config_and_default_resolve_to_one_typed_value(tmp_path, command, flag, option):
    required = [word for other, spec in cli._COMMANDS[command][2] if "default" not in spec
                for word in (other, "1")]
    dest = flag.lstrip("-").replace("-", "_")

    def resolved(words, config=None):
        argv = [*command.split(), *required, *words]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({flag.lstrip("-"): config}), encoding="utf-8")
            argv = ["--config", str(path), *argv]
        options = cli._resolve_options(cli._build_parser().parse_args(argv))
        return options.get(dest, argparse.SUPPRESS)

    def check(got, want):
        assert got == want and type(got) is type(want)

    first, second = _values(flag, option)
    check(resolved([]), option["default"])
    check(resolved(first[0]), first[2])
    check(resolved([], config=first[1]), first[2])
    check(resolved(first[0], config=second[1]), first[2])


@pytest.mark.parametrize("content", [b'{"dim": 4,}', b'{"mode": "\xff"}'],
                         ids=["trailing comma", "not utf-8"])
def test_malformed_config_is_a_usage_error_naming_the_file(tmp_path, capsys, content):
    config = tmp_path / "bad.json"
    config.write_bytes(content)
    out = tmp_path / "c.txt"
    code, _, stderr = run_cli(capsys, "--config", config, "ingest",
                              "--dump", FIXTURE_DUMP, "--out", out)
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "UsageError"
    assert str(config) in err["message"] and "config" in err["message"]
    assert not out.exists()


def test_config_must_be_a_json_object(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text("[1, 2]", encoding="utf-8")
    code, _, stderr = run_cli(capsys, "--config", config, "stats",
                              "--corpus", GOLDEN_STANDARD)
    assert code == 2
    assert "JSON object" in json.loads(stderr)["message"]


# --- logging -------------------------------------------------------------------


def test_log_level_configures_logging_only_when_given(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.logging, "basicConfig", lambda **kwargs: calls.append(kwargs))
    code, _, _ = run_cli(capsys, "stats", "--corpus", GOLDEN_STANDARD)
    assert code == 0 and calls == []
    code, _, _ = run_cli(capsys, "--log-level", "info", "stats", "--corpus", GOLDEN_STANDARD)
    assert code == 0
    assert len(calls) == 1 and calls[0]["level"] == "INFO"
    assert calls[0]["stream"] is sys.stderr


def test_log_level_info_reports_training(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("paris france rome italy\n" * 20, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "wikivec.cli", "--log-level", "INFO",
                           "train", "--corpus", str(corpus), "--out", str(tmp_path / "v.txt"),
                           "--dim", "4", "--min-count", "1", "--subsample", "0",
                           "--epochs", "1", "--window", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # Window 1 over 20 lines of 4 distinct tokens: 6 pairs per line.
    assert "pairs trained 120, pairs skipped 0, tokens 80," in proc.stderr


# --- entry point -------------------------------------------------------------


def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "wikivec.cli", "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "ingest" in proc.stdout and "baseline" in proc.stdout
