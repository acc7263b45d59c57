"""Analogy and phrase-similarity evaluation protocols, plus rank statistics."""

from wikivec.evaluation.analogy import (
    AnalogyQuestion,
    AnalogyReport,
    eval_analogy,
    eval_analogy_commons,
    load_analogy_questions,
)
from wikivec.evaluation.senses import SenseIndex, load_sense_index
from wikivec.evaluation.similarity import (
    CommonSubsetReport,
    SimilarityDataset,
    SimilarityReport,
    common_subset_eval,
    eval_similarity,
    load_similarity_pairs,
)
from wikivec.evaluation.stats import spearman

__all__ = [
    "AnalogyQuestion",
    "AnalogyReport",
    "CommonSubsetReport",
    "SenseIndex",
    "SimilarityDataset",
    "SimilarityReport",
    "common_subset_eval",
    "eval_analogy",
    "eval_analogy_commons",
    "eval_similarity",
    "load_analogy_questions",
    "load_sense_index",
    "load_similarity_pairs",
    "spearman",
]
