"""Analogy evaluation: a:b :: c:? answered by vector offset, scored per bucket.

A question counts as *found* under a frequency cap when all four tokens sit
inside the cap; accuracy is correct/found over found questions only.  The
commons variant rescoring restricts every set to the questions all sets
found, so systems are compared on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from wikivec.vectors import VectorSet

_BATCH = 128


@dataclass(frozen=True, slots=True)
class AnalogyQuestion:
    a: str
    b: str
    c: str
    d: str
    section: str = ""

    @property
    def tokens(self) -> tuple[str, str, str, str]:
        return (self.a, self.b, self.c, self.d)


@dataclass(slots=True)
class AnalogyReport:
    """Result of one bucket: how many questions were found and answered right."""

    bucket: int
    found: int
    correct: int

    @property
    def accuracy(self) -> float | None:
        if self.found == 0:
            return None
        return self.correct / self.found


def load_analogy_questions(path: str | Path) -> list[AnalogyQuestion]:
    """Read the sectioned question format: ``: section`` headers, 4 tokens per line."""
    questions: list[AnalogyQuestion] = []
    section = ""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(":"):
                section = line[1:].strip()
                continue
            parts = line.lower().split()
            if len(parts) != 4:
                raise ValueError(
                    f"{path}: line {lineno}: expected 4 tokens, found {len(parts)}")
            questions.append(AnalogyQuestion(*parts, section=section))
    return questions


def _found_mask(vset: VectorSet, questions: Sequence[AnalogyQuestion]) -> np.ndarray:
    return np.array([all(t in vset for t in q.tokens) for q in questions], dtype=bool)


def _count_correct(vset: VectorSet, questions: Sequence[AnalogyQuestion]) -> int:
    """Batch-answer questions whose four tokens are all present in ``vset``.

    Scoring mirrors ``VectorSet.analogy_query`` exactly: cosine against the
    offset vector, a/b/c and zero-norm rows excluded, ties to the earlier
    token.  A zero-norm offset has no direction and scores as incorrect.
    """
    if not questions:
        return 0
    unit = vset.unit_matrix()
    zero_rows = np.all(vset.matrix == 0.0, axis=1)
    idx = np.array([[vset.row(t) for t in q.tokens] for q in questions], dtype=np.int64)
    correct = 0
    for start in range(0, idx.shape[0], _BATCH):
        block = idx[start:start + _BATCH]
        offsets = (vset.matrix[block[:, 1]] - vset.matrix[block[:, 0]]
                   + vset.matrix[block[:, 2]])
        norms = np.linalg.norm(offsets, axis=1)
        valid = norms > 0.0
        offsets[valid] /= norms[valid, None]
        scores = offsets @ unit.T
        scores[:, zero_rows] = -np.inf
        rows = np.arange(block.shape[0])
        for col in (0, 1, 2):
            scores[rows, block[:, col]] = -np.inf
        predicted = np.argmax(scores, axis=1)
        answered = scores[rows, predicted] > -np.inf
        correct += int(np.count_nonzero(valid & answered & (predicted == block[:, 3])))
    return correct


def eval_analogy(vset: VectorSet, questions: Sequence[AnalogyQuestion],
                 buckets: Sequence[int]) -> list[AnalogyReport]:
    """Score the question list under each frequency-cap bucket.

    The cap restricts both the candidate vocabulary and the found test; the
    vector set must carry frequency ranks.
    """
    if not vset.frequency_ranked:
        raise ValueError("analogy evaluation needs a frequency-ranked vector set")
    reports: list[AnalogyReport] = []
    for cap in buckets:
        if cap < 1:
            raise ValueError("bucket caps must be >= 1")
        sub = vset.top(cap)
        mask = _found_mask(sub, questions)
        found = [q for q, ok in zip(questions, mask) if ok]
        reports.append(AnalogyReport(bucket=cap, found=len(found),
                                     correct=_count_correct(sub, found)))
    return reports


def eval_analogy_commons(sets: Sequence[VectorSet], questions: Sequence[AnalogyQuestion],
                         buckets: Sequence[int]) -> list[list[AnalogyReport]]:
    """Score every set on the per-bucket intersection of found questions.

    Returns one report list per input set, aligned with ``sets``.
    """
    for vset in sets:
        if not vset.frequency_ranked:
            raise ValueError("analogy evaluation needs frequency-ranked vector sets")
    if not sets:
        return []
    reports: list[list[AnalogyReport]] = [[] for _ in sets]
    for cap in buckets:
        if cap < 1:
            raise ValueError("bucket caps must be >= 1")
        subs = [vset.top(cap) for vset in sets]
        shared = np.logical_and.reduce([_found_mask(sub, questions) for sub in subs])
        common = [q for q, ok in zip(questions, shared) if ok]
        for i, sub in enumerate(subs):
            reports[i].append(AnalogyReport(bucket=cap, found=len(common),
                                            correct=_count_correct(sub, common)))
    return reports
