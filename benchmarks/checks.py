"""Output checks: against the generator's ledger, or against computations made here.

Nothing is compared with a saved copy of an earlier run.  Similarity rho is
recomputed with ``scipy.stats.spearmanr`` over cosines taken here; analogy
counts come from a brute-force argmax written here; link-baseline scores come
from the closed-form formula over the ledger's adjacency.  Each function
returns a list of problems; an empty list means the outputs are right.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

import spec
from gen import POISON
from wikivec.embedding.train import pair_loss
from wikivec.evaluation.senses import load_sense_index
from wikivec.ingest.corpus import build_corpus
from wikivec.ingest.dump import open_dump, stream_pages
from wikivec.ingest.prune import prune_page
from wikivec.ingest.redirects import build_redirect_map
from wikivec.linkgraph import link_similarity, load_graph

RHO_TOL = 1e-9
CLUSTER_FLOOR = 0.15  # intra- minus inter-cluster mean cosine of the trained vectors
ANALOGY_FLOOR = 0.1   # planted concept-analogy accuracy; chance is 1/|V| < 0.005
# Outputs that must be byte-identical in every round of a run.
_STABLE = ("anchors.tsv", "graph.npz", "graph.npz.json", "corpus.txt.stats.json", "link.json")
_SERIAL = ("corpus.txt", "vectors.txt", "analogy.json", "similarity.json")


def output_digests(run_dir: Path) -> dict[str, str]:
    """Output digests as recorded by the program's own run manifests."""
    digests = {}
    for path in run_dir.glob("*.manifest.json"):
        for entry in json.loads(path.read_text())["outputs"]:
            digests[Path(entry["path"]).name] = entry["digest"]
    return digests


class TrainProbe:
    """Mean ``pair_loss`` on a fixed probe set, taken before and after each train().

    Positives are the most frequent adjacent in-vocabulary token pairs in the
    first lines of the corpus.  Each pair's negatives are the five most
    frequent tokens never seen within two places of its centre there, so
    training pushes both terms of the loss down.  The probe depends only on
    the corpus.
    """

    HEAD_LINES = 300
    PAIRS = 200

    def __init__(self) -> None:
        self.losses: list[tuple[float, float]] = []

    def reset(self) -> None:
        self.losses = []

    def _probe(self, vocab, corpus_path) -> list[tuple[int, int, list[int]]]:
        index = vocab.index
        bigrams: Counter = Counter()
        near: dict[int, set[int]] = {}
        with open(corpus_path, encoding="utf-8") as handle:
            for _, line in zip(range(self.HEAD_LINES), handle):
                ids = [index[t] for t in line.split() if t in index]
                bigrams.update((a, b) for a, b in zip(ids, ids[1:]) if a != b)
                for i, a in enumerate(ids):
                    near.setdefault(a, set()).update(ids[max(0, i - 2):i + 3])
        probe = []
        for (center, context), _ in bigrams.most_common(self.PAIRS):
            negatives = [n for n in range(len(vocab)) if n not in near[center]][:5]
            if negatives:
                probe.append((center, context, negatives))
        return probe

    def hook(self, model, corpus_path):
        probe = self._probe(model.vocab, corpus_path)

        def mean() -> float:
            return float(np.mean([pair_loss(model, c, x, n) for c, x, n in probe]))
        before = mean()
        return lambda: self.losses.append((before, mean()))


def read_vectors(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    head = lines[0].split()
    if len(head) == 2 and all(p.isdigit() for p in head):
        lines = lines[1:]
    tokens, values = [], []
    for line in lines:
        token, _, rest = line.partition(" ")
        tokens.append(token)
        values.append(rest)
    matrix = np.array(" ".join(values).split(), dtype=np.float64)
    return tokens, matrix.reshape(len(tokens), -1)


def _unit(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)


def read_questions(path: Path) -> list[tuple[str, ...]]:
    return [tuple(line.lower().split()) for line in path.read_text().splitlines()
            if line.strip() and not line.startswith(":")]


def analogy_outcomes(tokens: list[str], matrix: np.ndarray, questions, caps: list[int]
                     ) -> dict[int, list[tuple[bool, bool]]]:
    """Brute force: per cap, (found, correct) for every question."""
    index = {t: i for i, t in enumerate(tokens)}
    unit = _unit(matrix)
    zero = ~matrix.any(axis=1)
    rows = [[index.get(t) for t in q] for q in questions]
    out = {cap: [(False, False)] * len(questions) for cap in caps}
    live = [k for k, r in enumerate(rows) if None not in r]
    for start in range(0, len(live), 256):
        block = live[start:start + 256]
        idx = np.array([rows[k] for k in block])
        offsets = matrix[idx[:, 1]] - matrix[idx[:, 0]] + matrix[idx[:, 2]]
        norms = np.linalg.norm(offsets, axis=1)
        valid = norms > 0.0
        offsets[valid] /= norms[valid, None]
        scores = offsets @ unit.T
        scores[:, zero] = -np.inf
        for col in range(3):
            scores[np.arange(len(block)), idx[:, col]] = -np.inf
        for cap in caps:
            n = min(cap, len(tokens))
            best = np.argmax(scores[:, :n], axis=1)
            answered = scores[np.arange(len(block)), best] > -np.inf
            for j, k in enumerate(block):
                if idx[j].max() < n:
                    out[cap][k] = (True, bool(valid[j] and answered[j] and best[j] == idx[j, 3]))
    return out


def check_analogy(report: Path, sets: dict, questions, caps: list[int], commons: bool,
                  key: dict | None = None) -> list[str]:
    problems = []
    outcomes = {name: analogy_outcomes(*sets[name], questions, caps) for name in sets}
    expected = {}
    for name in sets:
        counts = []
        for cap in caps:
            if commons:
                shared = [all(outcomes[s][cap][k][0] for s in sets) for k in range(len(questions))]
                found = sum(shared)
                correct = sum(ok and outcomes[name][cap][k][1] for k, ok in enumerate(shared))
            else:
                found = sum(f for f, _ in outcomes[name][cap])
                correct = sum(c for _, c in outcomes[name][cap])
            counts.append([found, correct])
        expected[name] = counts
    got = {s["set"]: [[r["found"], r["correct"]] for r in s["results"]]
           for s in json.loads(report.read_text())["sets"]}
    if got != expected:
        problems.append(f"{report.name}: found/correct {got} != brute force {expected}")
    if key is not None and expected != key:
        problems.append(f"{report.name}: brute force {expected} != answer key {key}")
    return problems


def read_pairs(pairs_dir: Path) -> dict[str, list[tuple[str, str, float]]]:
    datasets = {}
    for path in sorted(p for p in pairs_dir.iterdir() if p.suffix in (".txt", ".tsv", ".csv")):
        rows = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line:
                parts = line.split("\t")
                if len(parts) < 3:
                    parts = line.split(",")
                rows.append((parts[0].strip(), parts[1].strip(), float(parts[2])))
        datasets[path.stem] = rows
    return datasets


def _token(winners: dict[str, int], surface: str) -> str:
    key = " ".join(surface.split()).lower()
    return f"wiki_{winners[key]}" if key in winners else key


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RHO_TOL


def _rho(system: list[float], human: list[float]) -> float | None:
    if len(system) < 2:
        return None
    return float(spearmanr(system, human).statistic)


def check_similarity(report: Path, datasets: dict, winners: dict, sets: dict,
                     common: bool) -> list[str]:
    """Vector-set similarity rows against cosines and rho computed here."""
    units = {name: ({t: i for i, t in enumerate(toks)}, _unit(m)) for name, (toks, m) in sets.items()}

    def cosine(name, a, b):
        index, unit = units[name]
        return float(unit[index[a]] @ unit[index[b]])

    rows = json.loads(report.read_text())["rows"]
    problems = []
    for dataset, pairs in datasets.items():
        mapped = [(_token(winners, a), _token(winners, b), h) for a, b, h in pairs]
        if common:
            shared = [p for p in mapped if all(p[0] in u[0] and p[1] in u[0] for u in units.values())]
            row = next((r for r in rows if r["dataset"] == dataset), None)
            if len(shared) < 2:
                continue
            want = {name: _rho([cosine(name, a, b) for a, b, _ in shared], [h for *_, h in shared])
                    for name in sets}
            if row is None or row["pairs"] != len(shared) or not all(
                    _close(row["rho"][n], want[n]) for n in sets):
                problems.append(f"{report.name} {dataset}: {row} != {len(shared)} pairs, rho {want}")
            continue
        for name in sets:
            found = [p for p in mapped if p[0] in units[name][0] and p[1] in units[name][0]]
            want = _rho([cosine(name, a, b) for a, b, _ in found], [h for *_, h in found])
            row = next(r for r in rows if r["dataset"] == dataset and r["set"] == name)
            if row["not_found"] != len(pairs) - len(found) or not _close(row["rho"], want):
                problems.append(f"{report.name} {dataset}: {row} != not_found "
                                f"{len(pairs) - len(found)}, rho {want}")
    return problems


def link_score(out_links: dict, in_links: dict, total: int, a: int, b: int) -> float:
    """The documented formula: mean of the in-link and out-link side scores."""
    def side(x: set, y: set) -> float:
        if not x or not y:
            return 0.0
        overlap = len(x & y)
        if overlap == 0:
            return 0.0
        big, small = max(len(x), len(y)), min(len(x), len(y))
        if overlap == big:
            return 1.0
        denom = math.log(total) - math.log(small)
        if denom <= 0.0:
            return 0.0
        return min(1.0, max(0.0, 1.0 - (math.log(big) - math.log(overlap)) / denom))
    return (side(in_links[a], in_links[b]) + side(out_links[a], out_links[b])) / 2.0


def check_link(report: Path, graph_path: Path, pages, edges, datasets: dict,
               winners: dict) -> list[str]:
    out_links = {int(p): set() for p in pages}
    in_links = {int(p): set() for p in pages}
    for src, dst in edges:
        out_links[src].add(dst)
        in_links[dst].add(src)
    total = len(out_links)

    def page(token):
        digits = token[5:] if token.startswith("wiki_") else ""
        return int(digits) if digits.isdigit() and int(digits) in out_links else None

    rows = json.loads(report.read_text())["rows"]
    problems, sample = [], []
    for dataset, pairs in datasets.items():
        scores, human = [], []
        for a, b, h in pairs:
            pa, pb = page(_token(winners, a)), page(_token(winners, b))
            if pa is not None and pb is not None:
                scores.append(link_score(out_links, in_links, total, pa, pb))
                human.append(h)
                sample.append((pa, pb, scores[-1]))
        row = next(r for r in rows if r["dataset"] == dataset)
        if row["not_found"] != len(pairs) - len(scores) or not _close(row["rho"], _rho(scores, human)):
            problems.append(f"{report.name} {dataset}: {row} != not_found "
                            f"{len(pairs) - len(scores)}, rho {_rho(scores, human)}")
    graph = load_graph(graph_path)
    for pa, pb, want in sample[:: max(1, len(sample) // 200)]:
        got = link_similarity(graph, pa, pb)
        if abs(got - want) > 1e-12:
            problems.append(f"link_similarity({pa}, {pb}) = {got}, formula gives {want}")
    return problems


def check_senses(path: Path, winners: dict[str, int]) -> list[str]:
    index = load_sense_index(path)
    wrong = [s for s, pid in winners.items() if index.lookup(s) != pid]
    return [f"{path.name}: {len(wrong)} sense lookups differ from the planted winners, "
            f"e.g. {wrong[:3]}"] if wrong else []


def anchor_winners(anchor_counts) -> dict[str, int]:
    """Most frequent sense per surface; ties go to the smaller page id."""
    best: dict[str, tuple[int, int]] = {}
    for surface, pid, n in anchor_counts:
        if surface not in best or (n, -pid) > (best[surface][1], -best[surface][0]):
            best[surface] = (pid, n)
    return {s: pid for s, (pid, _) in best.items()}


def check_ingest(ledger: dict, dump: Path, run: Path, mode: str, workers: int) -> list[str]:
    problems = []
    stats = json.loads((run / "corpus.txt.stats.json").read_text())
    want = {"pages_seen": ledger["pages_seen"], "pages_kept": ledger["pages_kept"],
            "redirect_cycles": ledger["redirect_cycles"],
            "anchors_explicit": ledger["explicit_anchors"],
            "anchors_heuristic": ledger["heuristic_mentions"] if mode == "heuristic" else 0}
    got = {k: stats[k] for k in want}
    if got != want:
        problems.append(f"ingest stats {got} != ledger {want}")

    with open_dump(dump) as handle:
        pages = list(stream_pages(handle))
    discards = Counter(d.rule_id for d in map(prune_page, pages) if not d.keep)
    if dict(discards) != ledger["discards"]:
        problems.append(f"discards per rule {dict(discards)} != ledger {ledger['discards']}")
    redirects = build_redirect_map(pages)
    if (redirects.cycles, redirects.dangling) != (ledger["redirect_cycles"],
                                                  ledger["redirect_dangling"]):
        problems.append(f"redirects: {redirects.cycles} cycle(s), {redirects.dangling} dangling "
                        f"!= ledger {ledger['redirect_cycles']}, {ledger['redirect_dangling']}")

    lines = (run / "corpus.txt").read_text(encoding="utf-8").splitlines()
    if workers > 1:
        serial = run.parent / "serial-corpus.txt"
        build_corpus(dump, serial, mode=mode, workers=1)
        serial_lines = serial.read_text(encoding="utf-8").splitlines()
        if sorted(lines) != sorted(serial_lines):
            problems.append(f"{workers}-worker corpus lines differ from the 1-worker corpus")
        lines = serial_lines
    key = "heur" if mode == "heuristic" else "std"
    bad = [page["id"] for line, page in zip(lines, ledger["kept"])
           if [int(t[5:]) for t in line.split() if t.startswith("wiki_")] != page[key]]
    if len(lines) != len(ledger["kept"]) or bad:
        problems.append(f"concept tokens differ from the planted links on {len(bad)} page(s), "
                        f"e.g. {bad[:3]}; {len(lines)} lines for {len(ledger['kept'])} kept pages")
    if any(t.startswith(POISON) for line in lines for t in line.split()):
        problems.append("words from masked markup leaked into the corpus")

    anchors = sorted([s, int(i), int(n)] for s, i, n in
                     (line.split("\t") for line in (run / "anchors.tsv").read_text().splitlines()))
    if anchors != ledger["anchor_counts"]:
        problems.append("anchor statistics differ from the planted (surface, target) counts")
    sidecar = json.loads((run / "graph.npz.json").read_text())
    if (sidecar["page_count"], sidecar["edge_count"]) != (ledger["graph_pages"],
                                                          ledger["graph_edges"]):
        problems.append(f"graph {sidecar} != ledger {ledger['graph_pages']} pages, "
                        f"{ledger['graph_edges']} edges")
    return problems


def check_training(workload: str, ledger: dict, run: Path, rounds, probe: TrainProbe) -> list[str]:
    problems = []
    min_count = int(spec.train_option(workload, "--min-count", "5"))
    counts = Counter((run / "corpus.txt").read_text(encoding="utf-8").split())
    kept = [n for n in counts.values() if n >= min_count]
    want = (len(kept), sum(kept))
    seen = {r.seen["vocab"] for r in rounds}
    if seen != {want}:
        problems.append(f"vocabulary (size, tokens) {seen} != corpus count {want}")
    tokens, matrix = read_vectors(run / "vectors.txt")
    if len(tokens) != want[0] or not np.isfinite(matrix).all():
        problems.append(f"vector file has {len(tokens)} rows (want {want[0]}) or non-finite values")
    wanted = spec.WORKLOADS[workload]["train_checks"]
    if "loss" in wanted and (len(probe.losses) != len(rounds)
                             or any(after >= before for before, after in probe.losses)):
        problems.append(f"probe pair_loss did not fall in every round: {probe.losses}")
    if "clusters" in wanted:
        index = {t: i for i, t in enumerate(tokens)}
        labelled = [(index[w], c) for c, words in enumerate(ledger["dump"]["clusters"])
                    for w in words if w in index]
        unit = _unit(matrix[[i for i, _ in labelled]])
        labels = np.array([c for _, c in labelled])
        sims = unit @ unit.T
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        other = labels[:, None] != labels[None, :]
        gap = sims[same].mean() - sims[other].mean()
        print(f"planted clusters: intra minus inter mean cosine {gap:.3f}")
        if not gap >= CLUSTER_FLOOR:
            problems.append(f"planted clusters separate by {gap:.3f} < {CLUSTER_FLOOR}")
    return problems


def concept_accuracy(tokens, matrix, questions) -> float:
    outcomes = analogy_outcomes(tokens, matrix, questions, [len(tokens)])[len(tokens)]
    return sum(c for _, c in outcomes) / max(1, len(questions))


def run_all(workload: str, ledger: dict, inputs: Path, run: Path, rounds, digests,
            probe: TrainProbe) -> list[str]:
    w = spec.WORKLOADS[workload]
    dump = ledger["dump"]
    stable = _STABLE + (_SERIAL if w["workers"] == 1 else ())
    problems = [f"{name} differs between rounds" for name in stable
                if len({d.get(name) for d in digests}) != 1]
    problems += check_ingest(dump, inputs / "dump.xml", run, w["mode"], w["workers"])
    problems += check_training(workload, ledger, run, rounds, probe)

    tokens, matrix = read_vectors(run / "vectors.txt")
    questions = read_questions(inputs / "questions.txt")
    caps = [int(c) for c in w["buckets"].split(",")]
    problems += check_analogy(run / "analogy.json", {"vectors": (tokens, matrix)}, questions,
                              caps, commons=False)
    if "analogies" in w["train_checks"]:
        acc = concept_accuracy(tokens, matrix, questions[:dump["concept_questions"]])
        print(f"planted concept analogies: accuracy {acc:.3f}")
        if not acc >= ANALOGY_FLOOR:
            problems.append(f"planted concept analogies: accuracy {acc:.3f} < {ANALOGY_FLOOR}")
    own_winners = anchor_winners(dump["anchor_counts"])
    problems += check_senses(run / "anchors.tsv", own_winners)
    problems += check_similarity(run / "similarity.json", read_pairs(inputs / "pairs"),
                                 own_winners, {"vectors": (tokens, matrix)}, common=False)
    problems += check_link(run / "link.json", run / "graph.npz", [p["id"] for p in dump["kept"]],
                           dump["edges"], read_pairs(inputs / "link_pairs"), own_winners)

    pub = ledger.get("published")
    if pub:
        truth = np.load(inputs / "truth.npz")
        sets = {name: (read_vectors_tokens(inputs / f"{name}.txt"), truth[name])
                for name in pub["sets"]}
        pub_q = read_questions(inputs / "pub_questions.txt")
        key = pub["answer_key"]
        problems += check_analogy(run / "pub_analogy.json", sets, pub_q, pub["buckets"],
                                  commons=False, key=key["alone"])
        commons_key = {name: [key["commons"][str(c)] for c in pub["buckets"]] for name in sets}
        problems += check_analogy(run / "pub_commons.json", sets, pub_q, pub["buckets"],
                                  commons=True, key=commons_key)
        winners = pub["winners"]
        problems += check_senses(inputs / "senses.tsv", winners)
        pub_pairs = read_pairs(inputs / "pub_pairs")
        problems += check_similarity(run / "pub_similarity.json", pub_pairs, winners, sets,
                                     common=True)
        edges = zip(np.repeat(truth["graph_pages"], np.diff(truth["graph_indptr"])).tolist(),
                    truth["graph_indices"].tolist())
        problems += check_link(run / "pub_link.json", inputs / "graph.npz",
                               truth["graph_pages"].tolist(), edges, pub_pairs, winners)
    return problems


def read_vectors_tokens(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        next(handle)
        return [line.partition(" ")[0] for line in handle]
