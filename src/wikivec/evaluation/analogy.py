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
# Row index standing for a token the set lacks: past every frequency cap.
_MISSING = np.iinfo(np.int64).max


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


def _question_rows(vset: VectorSet, questions: Sequence[AnalogyQuestion]) -> np.ndarray:
    """Rows of each question's a, b, c, d; a token not in ``vset`` maps past any cap."""
    return np.array([[vset.row(t) if t in vset else _MISSING for t in q.tokens]
                     for q in questions], dtype=np.int64).reshape(len(questions), 4)


def _count_correct(vset: VectorSet, rows: np.ndarray, cap: int) -> int:
    """How many questions' d is the row nearest b - a + c among the first ``cap``.

    ``rows`` holds one (a, b, c, d) row index quadruple per question.  A zero
    offset has no direction and counts as incorrect.
    """
    correct = 0
    for start in range(0, len(rows), _BATCH):
        block = rows[start:start + _BATCH]
        offsets = (vset.matrix[block[:, 1]] - vset.matrix[block[:, 0]]
                   + vset.matrix[block[:, 2]])
        norms = np.linalg.norm(offsets, axis=1)
        valid = norms > 0.0
        offsets[valid] /= norms[valid, None]
        best, scores = vset.top_rows(offsets, 1, block[:, :3], cap)
        hit = (scores[:, 0] > -np.inf) & (best[:, 0] == block[:, 3])
        correct += int(np.count_nonzero(valid & hit))
    return correct


def eval_analogy(vset: VectorSet, questions: Sequence[AnalogyQuestion],
                 buckets: Sequence[int]) -> list[AnalogyReport]:
    """Score the question list under each frequency-cap bucket.

    The cap restricts both the candidate vocabulary and the found test; the
    vector set must carry frequency ranks.  The one-set case of the commons protocol.
    """
    return eval_analogy_commons([vset], questions, buckets)[0]


def eval_analogy_commons(sets: Sequence[VectorSet], questions: Sequence[AnalogyQuestion],
                         buckets: Sequence[int]) -> list[list[AnalogyReport]]:
    """Score every set on the per-bucket intersection of found questions.

    Returns one report list per input set, aligned with ``sets``.
    """
    if not all(vset.frequency_ranked for vset in sets):
        raise ValueError("analogy evaluation needs frequency-ranked vector sets")
    if not sets:
        return []
    if any(cap < 1 for cap in buckets):
        raise ValueError("bucket caps must be >= 1")
    rows = [_question_rows(vset, questions) for vset in sets]
    reach = np.max([r.max(axis=1) for r in rows], axis=0)
    reports: list[list[AnalogyReport]] = [[] for _ in sets]
    for cap in buckets:
        shared = reach < cap
        found = int(np.count_nonzero(shared))
        for i, vset in enumerate(sets):
            reports[i].append(AnalogyReport(bucket=cap, found=found,
                                            correct=_count_correct(vset, rows[i][shared], cap)))
    return reports
