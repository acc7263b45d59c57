"""Phrase similarity against human judgements.

Surface forms are routed through the sense index first: a surface with a
most-frequent-sense mapping is replaced by its concept token, the rest stay
lowercased words.  A pair is *found* only if both resulting tokens have
vectors; the score is Spearman rho between cosine similarities and the human
ratings over found pairs.

Each dataset maps every distinct surface once and scores its found pairs in
whole arrays: one gather per vector set, or one batched call for the link
baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from wikivec.evaluation.senses import SenseIndex
from wikivec.evaluation.stats import spearman
from wikivec.ingest.corpus import CONCEPT_PREFIX, parse_concept
from wikivec.linkgraph import LinkGraph
from wikivec.vectors import VectorSet


@dataclass(slots=True)
class SimilarityDataset:
    """One dataset file as columns: pair ``i`` is ``surface_a[i]``, ``surface_b[i]``."""

    surface_a: list[str]
    surface_b: list[str]
    human: np.ndarray  # float64, one human score per pair

    def __len__(self) -> int:
        return len(self.human)


@dataclass(slots=True)
class SimilarityReport:
    """One dataset against one vector set."""

    dataset: str
    pairs_total: int
    not_found: int
    rho: float | None

    @property
    def found(self) -> int:
        return self.pairs_total - self.not_found


@dataclass(slots=True)
class CommonSubsetReport:
    """Per-dataset rho over the pairs every vector set found, plus averages."""

    set_names: list[str]
    rows: list[tuple[str, int, dict[str, float]]] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    def averages(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.set_names:
            values = [row[2][name] for row in self.rows]
            if values:
                out[name] = sum(values) / len(values)
        return out


def load_similarity_pairs(path: str | Path) -> SimilarityDataset:
    """Read ``term<SEP>term<SEP>score`` rows; SEP is a tab, else a comma.

    Terms must not be blank, and scores must be finite numbers.
    """
    surface_a: list[str] = []
    surface_b: list[str] = []
    human: list[float] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 3:
                parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'term,term,score' or tab-separated")
            try:
                score = float(parts[2])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad score {parts[2]!r}") from None
            if not math.isfinite(score):
                raise ValueError(f"{path}: line {lineno}: non-finite score {parts[2]!r}")
            term_a, term_b = parts[0].strip(), parts[1].strip()
            if not (term_a and term_b):
                raise ValueError(f"{path}: line {lineno}: blank term")
            surface_a.append(term_a)
            surface_b.append(term_b)
            human.append(score)
    return SimilarityDataset(surface_a, surface_b, np.array(human, dtype=np.float64))


def map_surface(sense_index: SenseIndex, surface: str) -> str:
    """Concept token when the surface has a most-frequent sense, else the word."""
    key = " ".join(surface.split()).lower()  # the sense index's key
    entry = sense_index.mapping.get(key)
    return f"{CONCEPT_PREFIX}{entry[0]}" if entry else key


def _map_dataset(dataset: SimilarityDataset,
                 sense_index: SenseIndex) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Mapped token of each distinct surface, and each pair's two surface codes."""
    codes: dict[str, int] = {}
    code_a = np.fromiter((codes.setdefault(s, len(codes)) for s in dataset.surface_a),
                         dtype=np.intp, count=len(dataset))
    code_b = np.fromiter((codes.setdefault(s, len(codes)) for s in dataset.surface_b),
                         dtype=np.intp, count=len(dataset))
    tokens = [map_surface(sense_index, surface) for surface in codes]
    return tokens, code_a, code_b


def eval_similarity(vset: VectorSet | None, pairs: SimilarityDataset,
                    sense_index: SenseIndex, dataset: str = "",
                    scorer: LinkGraph | None = None) -> SimilarityReport:
    """Score one dataset; rho is None when fewer than 2 pairs are found.

    With a link graph as ``scorer`` (the link baseline), a pair is scored by
    link similarity instead of cosine and is found when both mapped tokens
    are concepts whose pages are in the graph.
    """
    if scorer is None and vset is None:
        raise ValueError("need a vector set or a link graph scorer")
    tokens, code_a, code_b = _map_dataset(pairs, sense_index)
    if scorer is None:
        rows, score = vset.rows(tokens), vset.pair_cosines
    else:
        rows, score = scorer.rows([parse_concept(t) for t in tokens]), scorer.pair_scores
    rows_a, rows_b = rows[code_a], rows[code_b]
    found = (rows_a >= 0) & (rows_b >= 0)
    system = score(rows_a[found], rows_b[found])
    rho = spearman(system, pairs.human[found]) if len(system) >= 2 else None
    return SimilarityReport(dataset=dataset, pairs_total=len(pairs),
                            not_found=len(pairs) - len(system), rho=rho)


def common_subset_eval(sets: Mapping[str, VectorSet],
                       datasets: Mapping[str, SimilarityDataset],
                       sense_index: SenseIndex) -> CommonSubsetReport:
    """Per dataset, keep only pairs every set finds, then score each set on those.

    Datasets whose shared subset has fewer than 2 pairs are skipped and
    listed in the report's ``skipped`` field.
    """
    report = CommonSubsetReport(set_names=list(sets))
    for name, pairs in datasets.items():
        tokens, code_a, code_b = _map_dataset(pairs, sense_index)
        rows = {set_name: vset.rows(tokens) for set_name, vset in sets.items()}
        shared = np.ones(len(pairs), dtype=bool)
        for set_rows in rows.values():
            shared &= (set_rows[code_a] >= 0) & (set_rows[code_b] >= 0)
        n_shared = int(np.count_nonzero(shared))
        if n_shared < 2:
            report.skipped.append(name)
            continue
        shared_a, shared_b = code_a[shared], code_b[shared]
        human = pairs.human[shared]
        row = {set_name: spearman(vset.pair_cosines(rows[set_name][shared_a],
                                                    rows[set_name][shared_b]), human)
               for set_name, vset in sets.items()}
        report.rows.append((name, n_shared, row))
    return report
