"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Every check here re-derives its expected values independently of
the library (hand-labeled tables, pure-python oracles, closed forms) so a
green run certifies behaviour, not self-consistency.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import (
    FIXTURE_DUMP,
    FIXTURE_KEPT_FACTS,
    FIXTURE_VERDICTS,
    GOLDEN_ANCHOR_STATS,
    GOLDEN_STANDARD,
)
from oracles import (
    fd_gradients,
    link_side_score,
    link_sets,
    most_frequent_sense,
    spearman_fraction,
)
from wikivec.embedding.model import EmbeddingModel, TrainingConfig, init_model
from wikivec.embedding.train import sgd_step, train
from wikivec.embedding.vocab import Vocabulary, build_vocab
from wikivec.evaluation.analogy import (
    AnalogyQuestion,
    eval_analogy,
    eval_analogy_commons,
)
from wikivec.evaluation.senses import load_sense_index
from wikivec.evaluation.stats import spearman
from wikivec.ingest.anchors import HEURISTIC, apply_title_heuristic, extract_anchors
from wikivec.ingest.corpus import build_corpus, iter_kept_pages, scan_dump
from wikivec.ingest.dump import open_dump, stream_pages
from wikivec.ingest.prune import prune_page
from wikivec.linkgraph import LinkGraph, link_similarity
from wikivec.vectors import VectorSet, load_text, save_text


def test_criterion_01_ingest_fixture_fidelity(tmp_path):
    """Every prune decision matches the hand-labeled table; standard-mode
    output is byte-identical to the golden corpus; all inside one second."""
    started = time.perf_counter()
    with open_dump(FIXTURE_DUMP) as stream:
        verdicts = {page.page_id: prune_page(page).rule_id
                    for page in stream_pages(stream)}
    assert verdicts == FIXTURE_VERDICTS  # all 25 pages, each rule at least once
    out = tmp_path / "standard.txt"
    build_corpus(FIXTURE_DUMP, out, mode="standard", workers=1)
    assert out.read_bytes() == GOLDEN_STANDARD.read_bytes()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\ncriterion 01: {len(verdicts)}/{len(FIXTURE_VERDICTS)} verdicts, "
          f"golden corpus byte-identical, {elapsed:.2f}s")


def test_criterion_02_mode_inequalities(tmp_path):
    """Per fixture page: anchors_only <= standard <= heuristic token counts,
    and heuristic mode adds exactly the hand-counted title mentions."""
    started = time.perf_counter()
    counts = {}
    for mode in ("standard", "heuristic", "anchors_only"):
        out = tmp_path / f"{mode}.txt"
        stats = build_corpus(FIXTURE_DUMP, out, mode=mode, workers=1)
        counts[mode] = [len(line.split()) for line in
                        out.read_text(encoding="utf-8").splitlines()]
        if mode == "heuristic":
            heuristic_total = stats.anchors_heuristic

    page_order = [page_id for page_id, *_ in FIXTURE_KEPT_FACTS]
    assert len(counts["standard"]) == len(page_order)
    for i, (page_id, std_tokens, _, _) in enumerate(FIXTURE_KEPT_FACTS):
        assert counts["anchors_only"][i] <= counts["standard"][i], f"page {page_id}"
        assert counts["standard"][i] <= counts["heuristic"][i], f"page {page_id}"
        assert counts["standard"][i] == std_tokens

    # Heuristic anchors per page equal the hand-counted title mentions.
    _, kept, _, _ = scan_dump(FIXTURE_DUMP)
    per_page = {}
    for page in iter_kept_pages(FIXTURE_DUMP, kept):
        anchors = apply_title_heuristic(page, extract_anchors(page.wikitext))
        per_page[page.page_id] = sum(1 for a in anchors if a.provenance is HEURISTIC)
    hand = {page_id: mentions for page_id, _, _, mentions in FIXTURE_KEPT_FACTS}
    assert per_page == hand
    assert heuristic_total == sum(hand.values())
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\ncriterion 02: mode ordering holds on {len(page_order)} pages, "
          f"{heuristic_total} heuristic anchors as hand-counted, {elapsed:.2f}s")


def test_criterion_03_gradient_oracle():
    """Analytic update gradients match central finite differences (step 1e-5)
    within 1e-4 relative error on 100 randomized cases, dim 5, 1-5 negatives."""
    started = time.perf_counter()
    rng = np.random.default_rng(314)
    n_tokens, dim = 8, 5
    lr = 1e-3
    worst = 0.0
    for case in range(100):
        vocab = Vocabulary([f"t{i}" for i in range(n_tokens)],
                           np.full(n_tokens, 10))
        model = EmbeddingModel(
            vocab,
            rng.normal(scale=0.6, size=(n_tokens, dim)),
            rng.normal(scale=0.6, size=(n_tokens, dim)),
            TrainingConfig(dim=dim, min_count=1))
        center = int(rng.integers(0, n_tokens))
        context = int((center + 1 + rng.integers(0, n_tokens - 1)) % n_tokens)
        k = int(rng.integers(1, 6))
        negatives = [int(n) for n in rng.integers(0, n_tokens, size=k)]

        inp0 = model.input_vectors.copy()
        out0 = model.output_vectors.copy()
        sgd_step(model, center, context, negatives, lr)
        analytic_center = -(model.input_vectors[center] - inp0[center]) / lr
        analytic_out = {row: -(model.output_vectors[row] - out0[row]) / lr
                        for row in {context, *negatives}}

        fd_center, fd_out = fd_gradients(inp0.tolist(), out0.tolist(),
                                         center, context, negatives, eps=1e-5)
        pairs = [(analytic_center, fd_center)]
        pairs += [(analytic_out[row], fd_out[row]) for row in fd_out]
        for got, want in pairs:
            want = np.asarray(want)
            err = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)
            worst = max(worst, err)
            assert err < 1e-4, f"case {case}: relative error {err:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\ncriterion 03: 100/100 gradient cases, worst relative error "
          f"{worst:.2e} < 1e-4, {elapsed:.2f}s")


def _write_cluster_corpus(path, rng):
    """4 clusters x 50 types; 2000 lines x 100 tokens, one cluster per line,
    so tokens co-occur only within their cluster."""
    cluster_types = [[f"c{c}t{j}" for j in range(50)] for c in range(4)]
    lines = []
    for line_no in range(2000):
        types = cluster_types[line_no % 4]
        lines.append(" ".join(rng.choice(types, size=100)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_pattern_corpus(path, rng):
    """Five (a_i, b_i) pairs, each tied to a pair marker p_i plus a group
    marker (ga for a-tokens, gb for b-tokens), shuffled line order."""
    rows = []
    for i in range(5):
        rows += [f"p{i} a{i} ga"] * 200
        rows += [f"p{i} b{i} gb"] * 200
    order = rng.permutation(len(rows))
    path.write_text("\n".join(rows[k] for k in order) + "\n", encoding="utf-8")


def test_criterion_04_training_signal(tmp_path):
    """Default training separates a 4-cluster 200k-token corpus by >= 0.2 mean
    cosine, and a pair-pattern corpus yields >= 90% offset-analogy accuracy."""
    started = time.perf_counter()

    clusters = tmp_path / "clusters.txt"
    _write_cluster_corpus(clusters, np.random.default_rng(99))
    config = TrainingConfig()  # stock hyperparameters, single worker
    vocab = build_vocab(clusters, min_count=config.min_count)
    model = train(clusters, init_model(vocab, config), config)
    vset = model.to_vector_set()
    unit = vset.unit_matrix()
    labels = np.array([int(token[1]) for token in vset.tokens])
    sims = unit @ unit.T
    np.fill_diagonal(sims, np.nan)
    same = labels[:, None] == labels[None, :]
    intra = float(np.nanmean(np.where(same, sims, np.nan)))
    inter = float(np.nanmean(np.where(~same, sims, np.nan)))
    gap = intra - inter
    assert gap >= 0.2, f"cluster cosine gap {gap:.4f}"

    pattern = tmp_path / "pattern.txt"
    _write_pattern_corpus(pattern, np.random.default_rng(7))
    pattern_config = TrainingConfig(dim=30, window=2, negatives=5, epochs=30,
                                    lr_initial=0.025, subsample_t=0.0,
                                    min_count=1, seed=1)
    pattern_vocab = build_vocab(pattern, min_count=1)
    pattern_model = train(pattern, init_model(pattern_vocab, pattern_config),
                          pattern_config)
    questions = [AnalogyQuestion(f"a{i}", f"b{i}", f"a{j}", f"b{j}")
                 for i in range(5) for j in range(5) if i != j]
    assert len(questions) == 20
    (report,) = eval_analogy(pattern_model.to_vector_set(), questions,
                             buckets=[len(pattern_vocab)])
    assert report.found == 20
    assert report.accuracy is not None and report.accuracy >= 0.90

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"\ncriterion 04: cluster gap {gap:.3f} >= 0.2 "
          f"(intra {intra:.3f}, inter {inter:.3f}); analogy "
          f"{report.correct}/{report.found} >= 90%; {elapsed:.0f}s < 300s")


def test_criterion_05_determinism(tmp_path):
    """Same seed, single worker: bit-identical vector files.  Zero epochs with
    a warm start reproduces the pretrained rows exactly for matched tokens."""
    corpus = tmp_path / "corpus.txt"
    rng = np.random.default_rng(12)
    words = ["ruby", "topaz", "opal", "jade", "wiki_3", "wiki_8"]
    corpus.write_text(
        "\n".join(" ".join(rng.choice(words, size=12)) for _ in range(80)) + "\n",
        encoding="utf-8")
    config = TrainingConfig(dim=12, window=4, negatives=4, epochs=3,
                            min_count=1, seed=5, subsample_t=0.0, workers=1)
    files = []
    for run in range(2):
        vocab = build_vocab(corpus, min_count=1)
        model = train(corpus, init_model(vocab, config), config)
        path = tmp_path / f"run{run}.txt"
        save_text(model.to_vector_set(), path)
        files.append(path.read_bytes())
    assert files[0] == files[1]

    pretrained = VectorSet(["ruby", "jade", "stranger"],
                           np.array([[0.25, -1.5, 3.0],
                                     [0.125, 7.0, -0.75],
                                     [9.0, 9.0, 9.0]]))
    zero_config = TrainingConfig(dim=3, epochs=0, min_count=1, seed=5)
    vocab = build_vocab(corpus, min_count=1)
    model = train(corpus, init_model(vocab, zero_config, pretrained=pretrained),
                  zero_config)
    for token in ("ruby", "jade"):
        row = model.input_vectors[vocab.index[token]]
        assert np.array_equal(row, pretrained.get(token))
    print("\ncriterion 05: two seeded runs byte-identical; zero-epoch warm "
          "start preserves matched rows bit-exactly")


def test_criterion_06_spearman_oracle():
    """Within 1e-12 of an exact-arithmetic average-rank oracle on 1,000 random
    vectors (tie-heavy included); self and reversed correlations are exact."""
    rng = np.random.default_rng(2718)
    checked = 0
    worst = 0.0
    for case in range(1000):
        n = int(rng.integers(2, 41))
        if case % 2:
            # Tie-heavy: values drawn from a pool much smaller than n.
            pool = int(rng.integers(2, 6))
            x = rng.integers(0, pool, size=n).astype(float).tolist()
            y = rng.integers(0, pool, size=n).astype(float).tolist()
        else:
            x = rng.normal(size=n).tolist()
            y = rng.normal(size=n).tolist()
        want = spearman_fraction(x, y)
        got = spearman(x, y)
        if math.isnan(want):
            assert math.isnan(got)
            continue
        diff = abs(got - want)
        worst = max(worst, diff)
        assert diff <= 1e-12
        checked += 1
    assert checked > 800  # degenerate draws are rare

    for _ in range(50):
        n = int(rng.integers(2, 41))
        x = rng.integers(0, 5, size=n).astype(float).tolist()
        if len(set(x)) < 2:
            x[0] += 1.0
        reverse_ranked = [-v for v in x]
        assert spearman(x, x) == 1.0
        assert spearman(x, reverse_ranked) == -1.0
    print(f"\ncriterion 06: {checked} non-degenerate cases within 1e-12 "
          f"(worst {worst:.1e}); rho(x,x)=1 and rho(x,reversed)=-1 exact")


def test_criterion_07_analogy_bookkeeping():
    """correct = round(accuracy * found) on every report; found is
    non-decreasing in the bucket cap; commons found never exceeds per-set found."""
    rng = np.random.default_rng(606)
    tokens = [f"w{i}" for i in range(30)]
    buckets = [5, 12, 20, 30]
    reports_seen = 0
    for _ in range(25):
        matrix_a = rng.normal(size=(30, 6))
        matrix_b = rng.normal(size=(30, 6))
        matrix_a[rng.integers(0, 30)] = 0.0  # keep a zero row in play
        set_a = VectorSet(tokens, matrix_a)
        set_b = VectorSet(tokens, matrix_b)
        questions = []
        for _ in range(15):
            # Tokens w30..w34 do not exist, so some questions are never found.
            a, b, c, d = (f"w{int(i)}" for i in rng.integers(0, 35, size=4))
            if len({a, b, c, d}) == 4:
                questions.append(AnalogyQuestion(a, b, c, d))

        for vset in (set_a, set_b):
            reports = eval_analogy(vset, questions, buckets)
            for report in reports:
                reports_seen += 1
                if report.found == 0:
                    assert report.accuracy is None and report.correct == 0
                else:
                    assert report.correct == round(report.accuracy * report.found)
            founds = [r.found for r in reports]
            assert founds == sorted(founds), "found must not shrink as the cap grows"

        all_a = eval_analogy(set_a, questions, buckets)
        commons_a, commons_b = eval_analogy_commons([set_a, set_b], questions, buckets)
        for solo, shared_a, shared_b in zip(all_a, commons_a, commons_b):
            assert shared_a.found <= solo.found
            assert shared_a.found == shared_b.found
            for report in (shared_a, shared_b):
                reports_seen += 1
                if report.found:
                    assert report.correct == round(report.accuracy * report.found)
    print(f"\ncriterion 07: bookkeeping identities held on {reports_seen} reports")


def test_criterion_08_link_baseline():
    """Symmetry and self-similarity invariants on 1,000 random graphs; the
    worked overlap example matches its closed form within 1e-9."""
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        n = int(rng.integers(5, 31))
        pages = list(range(1, n + 1))
        density = float(rng.uniform(0.05, 0.4))
        out_links = {p: [q for q in pages if q != p and rng.random() < density]
                     for p in pages}
        graph = LinkGraph.from_links(pages, out_links)
        for _ in range(10):
            a, b = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
            ab = link_similarity(graph, a, b)
            assert ab == link_similarity(graph, b, a)
            assert 0.0 <= ab <= 1.0
        a = int(rng.integers(1, n + 1))
        _, out_sets, in_sets = link_sets(graph)
        sides_present = bool(in_sets[a]) + bool(out_sets[a])
        assert link_similarity(graph, a, a) == sides_present / 2.0

    # Worked example: page 1 with 10 neighbours, page 2 with 5, sharing 5, in
    # a 100-page graph.  Symmetric edges make both sides score identically.
    out_links = {p: set() for p in range(1, 101)}
    for target in range(11, 21):
        out_links[1].add(target)
        out_links[target].add(1)
    for target in range(16, 21):
        out_links[2].add(target)
        out_links[target].add(2)
    graph = LinkGraph.from_links(range(1, 101), {p: sorted(s) for p, s in out_links.items()})
    _, out_sets, _ = link_sets(graph)
    assert len(out_sets[1]) == 10
    assert len(out_sets[2]) == 5
    assert len(out_sets[1] & out_sets[2]) == 5
    got = link_similarity(graph, 1, 2)
    closed_form = 1.0 - (math.log(10) - math.log(5)) / (math.log(100) - math.log(5))
    assert abs(got - closed_form) < 1e-9
    assert got == pytest.approx(link_side_score(10, 5, 5, 100), abs=1e-12)
    assert round(got, 4) == 0.7686
    print(f"\ncriterion 08: invariants held on 1000 graphs; worked example "
          f"{got:.6f} vs closed form {closed_form:.6f} (|diff| < 1e-9)")


def test_criterion_09_sense_index():
    """Most-frequent-sense winners and the tie rule match a brute-force count
    over the fixture anchor statistics, exactly."""
    index = load_sense_index(GOLDEN_ANCHOR_STATS)
    counts = {}
    with open(GOLDEN_ANCHOR_STATS, encoding="utf-8") as handle:
        for line in handle:
            surface, page_id, n = line.rstrip("\n").split("\t")
            key = (surface, int(page_id))
            counts[key] = counts.get(key, 0) + int(n)
    want = most_frequent_sense(counts)
    got = {surface: entry[0] for surface, entry in index.mapping.items()}
    assert got == want
    # The fixture's deliberate tie: "learning" points once at page 4 and once
    # at page 5; the smaller id must win.
    assert ("learning", 4) in counts and ("learning", 5) in counts
    assert got["learning"] == 4
    print(f"\ncriterion 09: {len(got)} surface forms match the brute-force "
          "argmax, tie resolved to the smaller page id")


def test_criterion_10_format_interop(tmp_path):
    """Vectors written by training load through both header-detection paths,
    and a round-tripped file ranks 50 random queries identically."""
    corpus = tmp_path / "corpus.txt"
    rng = np.random.default_rng(40)
    words = ["ash", "birch", "cedar", "fir", "oak", "pine", "wiki_5"]
    corpus.write_text(
        "\n".join(" ".join(rng.choice(words, size=10)) for _ in range(60)) + "\n",
        encoding="utf-8")
    config = TrainingConfig(dim=8, window=3, negatives=3, epochs=2,
                            min_count=1, seed=9, subsample_t=0.0)
    vocab = build_vocab(corpus, min_count=1)
    model = train(corpus, init_model(vocab, config), config)

    with_header = tmp_path / "with_header.txt"
    save_text(model.to_vector_set(), with_header)
    loaded_header = load_text(with_header)

    headerless = tmp_path / "headerless.txt"
    body = with_header.read_text(encoding="utf-8").split("\n", 1)[1]
    headerless.write_text(body, encoding="utf-8")
    loaded_plain = load_text(headerless)

    assert loaded_header.tokens == loaded_plain.tokens
    assert np.array_equal(loaded_header.matrix, loaded_plain.matrix)
    assert list(loaded_header.tokens) == list(vocab.tokens)

    round_trip_path = tmp_path / "round_trip.txt"
    save_text(loaded_header, round_trip_path)
    round_tripped = load_text(round_trip_path)
    assert round_trip_path.read_bytes() == with_header.read_bytes()
    for _ in range(50):
        query = rng.normal(size=8)
        first = [t for t, _ in loaded_header.nearest(query, k=10)]
        second = [t for t, _ in round_tripped.nearest(query, k=10)]
        assert first == second
    print("\ncriterion 10: both header paths agree; 50/50 queries rank "
          "identically after a save/load round trip")
