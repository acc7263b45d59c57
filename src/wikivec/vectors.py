"""In-memory token/vector collections and the text interchange format.

Files are UTF-8: an optional ``<count> <dim>`` header line, then one
``token v1 v2 ...`` row per vector.  The header variant is auto-detected by
whether the first line parses as exactly two integers.  Values are written
with six significant digits; file row order is taken as frequency order
(rank 0 = first row), which holds for files this package writes and for the
usual published embedding files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class NotInVocabulary(KeyError):
    """A queried token has no vector; ``tokens`` lists the offenders."""

    def __init__(self, tokens: Sequence[str]) -> None:
        super().__init__(", ".join(tokens))
        self.tokens = tuple(tokens)

    def __str__(self) -> str:
        return f"token(s) not in vector set: {', '.join(self.tokens)}"


class VectorSet:
    """Immutable token -> vector mapping with cosine queries.

    ``frequency_ranked`` declares that row order is frequency order; rank of
    a token is then its row index.  Sets built ad hoc may leave it False.
    """

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray,
                 frequency_ranked: bool = False) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise ValueError("matrix must be 2-D with one row per token")
        self.tokens: tuple[str, ...] = tuple(tokens)
        self.matrix = matrix
        self.frequency_ranked = frequency_ranked
        self._index: dict[str, int] = {}
        for i, token in enumerate(self.tokens):
            if not token or token.split() != [token]:
                raise ValueError(f"invalid token {token!r}: empty or contains whitespace")
            if token in self._index:
                raise ValueError(f"duplicate token {token!r}")
            self._index[token] = i
        self._unit: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def row(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise NotInVocabulary([token]) from None

    def get(self, token: str) -> np.ndarray:
        return self.matrix[self.row(token)]

    def rank(self, token: str) -> int:
        if not self.frequency_ranked:
            raise ValueError("vector set carries no frequency ranks")
        return self.row(token)

    def top(self, cap: int) -> "VectorSet":
        """The ``cap`` highest-frequency rows as a new set (requires ranks)."""
        if not self.frequency_ranked:
            raise ValueError("vector set carries no frequency ranks")
        cap = min(cap, len(self.tokens))
        sub = VectorSet.__new__(VectorSet)
        sub.tokens = self.tokens[:cap]
        sub.matrix = self.matrix[:cap]
        sub.frequency_ranked = True
        sub._index = {t: i for i, t in enumerate(sub.tokens)}
        # Slicing the parent's unit rows equals normalising the slice, so each
        # set is normalised once however many caps it is cut to.
        sub._unit = self.unit_matrix()[:cap]
        return sub

    def unit_matrix(self) -> np.ndarray:
        """Row-normalised matrix; zero-norm rows stay zero (and never win queries)."""
        if self._unit is None:
            norms = np.linalg.norm(self.matrix, axis=1, keepdims=True)
            safe = np.where(norms == 0.0, 1.0, norms)
            self._unit = self.matrix / safe
        return self._unit

    def cosine(self, token_a: str, token_b: str) -> float:
        missing = [t for t in (token_a, token_b) if t not in self._index]
        if missing:
            raise NotInVocabulary(missing)
        unit = self.unit_matrix()
        return float(unit[self._index[token_a]] @ unit[self._index[token_b]])

    def _scores(self, query: np.ndarray, exclude: Iterable[str]) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},)")
        norm = np.linalg.norm(query)
        if norm == 0.0:
            raise ValueError("zero-norm query vector has no direction")
        unit = self.unit_matrix()
        scores = unit @ (query / norm)
        # Zero-norm stored vectors are skipped, as are excluded tokens.
        zero_rows = np.all(self.matrix == 0.0, axis=1)
        scores[zero_rows] = -np.inf
        for token in exclude:
            idx = self._index.get(token)
            if idx is not None:
                scores[idx] = -np.inf
        return scores

    def nearest(self, query: np.ndarray, k: int = 10,
                exclude: Iterable[str] = ()) -> list[tuple[str, float]]:
        """Exhaustive cosine top-k; ties break toward the earlier token."""
        if k < 1:
            raise ValueError("k must be >= 1")
        scores = self._scores(query, exclude)
        order = np.argsort(-scores, kind="stable")
        out: list[tuple[str, float]] = []
        for idx in order[:k]:
            if scores[idx] == -np.inf:
                break
            out.append((self.tokens[idx], float(scores[idx])))
        return out

    def analogy_query(self, a: str, b: str, c: str) -> str:
        """The token nearest to vec(b) - vec(a) + vec(c), excluding a, b, c."""
        missing = [t for t in (a, b, c) if t not in self._index]
        if missing:
            raise NotInVocabulary(missing)
        query = self.get(b) - self.get(a) + self.get(c)
        hits = self.nearest(query, k=1, exclude=(a, b, c))
        if not hits:
            raise ValueError("no candidate tokens remain for the analogy query")
        return hits[0][0]


def save_text(vset: VectorSet, path: str | Path, header: bool = True) -> None:
    """Write the text format (six significant digits per value)."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        if header:
            out.write(f"{len(vset)} {vset.dim}\n")
        for token, row in zip(vset.tokens, vset.matrix):
            out.write(token + " " + " ".join(f"{x:.6g}" for x in row) + "\n")


def _parse_header(line: str) -> tuple[int, int] | None:
    parts = line.split()
    if len(parts) != 2:
        return None
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    return count, dim


def load_text(path: str | Path) -> VectorSet:
    """Read either format variant; row order is taken as frequency order."""
    tokens: list[str] = []
    rows: list[np.ndarray] = []
    declared: tuple[int, int] | None = None
    dim: int | None = None
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if lineno == 1:
                declared = _parse_header(line)
                if declared is not None:
                    dim = declared[1]
                    continue
            parts = line.split()
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise ValueError(f"{path}: line {lineno}: no vector values")
            if len(values) != dim:
                raise ValueError(
                    f"{path}: line {lineno}: expected {dim} values, found {len(values)}")
            if token in seen:
                raise ValueError(f"{path}: line {lineno}: duplicate token {token!r}")
            seen.add(token)
            tokens.append(token)
            try:
                row = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: bad float: {exc}") from None
            if not np.isfinite(row).all():
                raise ValueError(f"{path}: line {lineno}: non-finite value (nan or inf)")
            rows.append(row)
    if declared is not None and declared[0] != len(tokens):
        raise ValueError(
            f"{path}: header declares {declared[0]} vectors, file has {len(tokens)}")
    if dim is None:
        raise ValueError(f"{path}: empty vector file")
    matrix = np.vstack(rows) if rows else np.zeros((0, dim))
    return VectorSet(tokens, matrix, frequency_ranked=True)
