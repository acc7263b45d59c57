"""In-memory token/vector collections and the text interchange format.

Files are UTF-8: an optional ``<count> <dim>`` header line, then one
``token v1 v2 ...`` row per vector.  The header variant is auto-detected by
whether the first line parses as exactly two integers; files are always written
with the header, and values with six significant digits.  Row order is
frequency order (rank 0 = first row): it holds for files this package writes
and for the usual published embedding files, and every ``VectorSet`` is built
in that order.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# Columns scored per block in ``VectorSet.top_rows``; bounds its score memory.
_TILE = 16384
# Pairs gathered per block in ``VectorSet.pair_cosines``; bounds its gather memory.
_PAIR_BLOCK = 4096


class NotInVocabulary(KeyError):
    """A queried token has no vector; ``tokens`` lists the offenders."""

    def __init__(self, tokens: Sequence[str]) -> None:
        super().__init__(", ".join(tokens))
        self.tokens = tuple(tokens)

    def __str__(self) -> str:
        return f"token(s) not in vector set: {', '.join(self.tokens)}"


class VectorSet:
    """Immutable token -> vector mapping with cosine queries.

    Row order is frequency order, so the first ``cap`` rows are the ``cap``
    most frequent tokens.
    """

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise ValueError("matrix must be 2-D with one row per token")
        self.tokens: tuple[str, ...] = tuple(tokens)
        self.matrix = matrix
        self._index: dict[str, int] = {}
        for i, token in enumerate(self.tokens):
            if not token or token.split() != [token]:
                raise ValueError(f"invalid token {token!r}: empty or contains whitespace")
            if token in self._index:
                raise ValueError(f"duplicate token {token!r}")
            self._index[token] = i
        self._unit: np.ndarray | None = None
        self._zero: np.ndarray | None = None

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

    def rows(self, tokens: Iterable[str]) -> np.ndarray:
        """Row of each token, -1 where the set has no vector for it."""
        index = self._index
        return np.fromiter((index.get(t, -1) for t in tokens), dtype=np.intp)

    def get(self, token: str) -> np.ndarray:
        return self.matrix[self.row(token)]

    def unit_matrix(self) -> np.ndarray:
        """Row-normalised matrix; zero-norm rows stay zero (and never win queries)."""
        if self._unit is None:
            norms = np.linalg.norm(self.matrix, axis=1, keepdims=True)
            safe = np.where(norms == 0.0, 1.0, norms)
            self._unit = self.matrix / safe
            self._zero = ~self.matrix.any(axis=1)
        return self._unit

    def pair_cosines(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """Cosine of each row pair ``(rows_a[i], rows_b[i])``.

        Each block of pairs is one gather from ``unit_matrix()`` and one
        row-wise dot product.  A pair's score depends only on its two rows, not
        on its position or block, and ``(a, b)`` scores bit-equal to ``(b, a)``:
        equal pairs stay tied when ranked.
        """
        unit = self.unit_matrix()
        out = np.empty(len(rows_a))
        for start in range(0, len(rows_a), _PAIR_BLOCK):
            stop = start + _PAIR_BLOCK
            out[start:stop] = np.einsum("ij,ij->i", unit[rows_a[start:stop]],
                                        unit[rows_b[start:stop]])
        return out

    def top_rows(self, queries: np.ndarray, k: int, exclude: np.ndarray,
                 limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Per unit query row, the ``k`` best cosine rows of ``unit_matrix()[:limit]``.

        ``exclude[i]`` lists rows query ``i`` may not return; zero-norm rows
        are never returned either.  Rows are scored in column tiles of
        ``_TILE``, so memory grows with ``len(queries) * _TILE``, not with the
        limit.  Returns ``(rows, scores)``, best first, ties to the earlier
        row; a slot with no candidate left scores ``-inf``.
        """
        unit = self.unit_matrix()
        n = len(self) if limit is None else min(limit, len(self))
        best_rows = np.empty((len(queries), 0), dtype=np.intp)
        best_scores = np.empty((len(queries), 0))
        for start in range(0, n, _TILE):
            stop = min(start + _TILE, n)
            scores = queries @ unit[start:stop].T
            scores[:, self._zero[start:stop]] = -np.inf
            hit, col = np.nonzero((exclude >= start) & (exclude < stop))
            scores[hit, exclude[hit, col] - start] = -np.inf
            if k == 1:
                picked = scores.argmax(axis=1)[:, None]
            else:
                picked = np.argsort(-scores, axis=1, kind="stable")[:, :k]
            # Earlier rows come first, so a stable sort keeps ties on them.
            rows = np.hstack([best_rows, picked + start])
            cand = np.hstack([best_scores, np.take_along_axis(scores, picked, axis=1)])
            keep = np.argsort(-cand, axis=1, kind="stable")[:, :k]
            best_rows = np.take_along_axis(rows, keep, axis=1)
            best_scores = np.take_along_axis(cand, keep, axis=1)
        return best_rows, best_scores

    def nearest(self, query: np.ndarray, k: int = 10,
                exclude: Iterable[str] = ()) -> list[tuple[str, float]]:
        """Exhaustive cosine top-k; ties break toward the earlier token."""
        if k < 1:
            raise ValueError("k must be >= 1")
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.dim,):
            raise ValueError(f"query must have shape ({self.dim},)")
        norm = np.linalg.norm(query)
        if norm == 0.0:
            raise ValueError("zero-norm query vector has no direction")
        banned = np.array([[self._index[t] for t in exclude if t in self._index]],
                          dtype=np.intp)
        rows, scores = self.top_rows((query / norm)[None, :], k, banned)
        return [(self.tokens[r], float(s)) for r, s in zip(rows[0], scores[0])
                if s > -np.inf]

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


def save_text(vset: VectorSet, path: str | Path) -> None:
    """Write the text format: the header, then six significant digits per value."""
    row_format = " ".join(["%.6g"] * vset.dim)
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(f"{len(vset)} {vset.dim}\n")
        for token, row in zip(vset.tokens, vset.matrix.tolist()):
            out.write(token + " " + row_format % tuple(row) + "\n")


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _parse_header(line: str) -> tuple[int, int] | None:
    parts = line.split()
    if len(parts) != 2 or not all(map(_is_int, parts)):
        return None
    return int(parts[0]), int(parts[1])


def load_text(path: str | Path) -> VectorSet:
    """Read either format variant; row order is frequency order.

    The file is read once, and all values are parsed in one ``np.loadtxt``
    call.  If that call fails, or its result fails a shape, count, finiteness
    or duplicate check, the rows already in memory are parsed one at a time
    with ``float()``.  That walk either returns the matrix (``float()`` also
    reads spellings such as ``1_0``) or raises naming the file and the first
    bad line.
    """
    declared: tuple[int, int] | None = None
    linenos: list[int] = []
    tokens: list[str] = []
    values: list[str] = []  # each row's value text
    # Undecodable bytes become lone surrogates, which no valid UTF-8 decodes to.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise ValueError(f"{path}: line {lineno}: not UTF-8: byte "
                                     f"0x{ord(line[exc.start]) - 0xdc00:02x}") from None
            parts = line.split(None, 1)
            if not parts:
                continue
            if lineno == 1:
                declared = _parse_header(line)
                if declared is not None:
                    continue
            linenos.append(lineno)
            tokens.append(parts[0])
            values.append(parts[1] if len(parts) == 2 else "")
    matrix = _parse_columns(tokens, values, declared)
    if matrix is None:
        matrix = _parse_rows(path, linenos, tokens, values, declared)
    return VectorSet(tokens, matrix)


def _parse_columns(tokens: Sequence[str], values: Sequence[str],
                   declared: tuple[int, int] | None) -> np.ndarray | None:
    """The matrix from one ``np.loadtxt`` call; None unless every check passes."""
    if not values or "" in values:
        return None
    try:
        matrix = np.loadtxt(values, comments=None, ndmin=2)
    except ValueError:
        return None
    dim = matrix.shape[1] if declared is None else declared[1]
    if (matrix.shape != (len(tokens), dim)
            or (declared is not None and declared[0] != len(tokens))
            or not np.isfinite(matrix).all() or len(set(tokens)) != len(tokens)):
        return None
    return matrix


def _parse_rows(path: str | Path, linenos: Sequence[int], tokens: Sequence[str],
                values: Sequence[str], declared: tuple[int, int] | None) -> np.ndarray:
    """Parse one row at a time; raises naming the first bad line."""
    dim = None if declared is None else declared[1]
    seen: set[str] = set()
    parsed: list[list[float]] = []
    for lineno, token, text in zip(linenos, tokens, values):
        fields = text.split()
        if dim is None:
            dim = len(fields)
            if dim == 0:
                raise ValueError(f"{path}: line {lineno}: no vector values")
        if len(fields) != dim:
            raise ValueError(
                f"{path}: line {lineno}: expected {dim} values, found {len(fields)}")
        if token in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate token {token!r}")
        seen.add(token)
        try:
            row = [float(v) for v in fields]
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: bad float: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}: line {lineno}: non-finite value (nan or inf)")
        parsed.append(row)
    if declared is not None and declared[0] != len(tokens):
        raise ValueError(
            f"{path}: header declares {declared[0]} vectors, file has {len(tokens)}")
    if dim is None:
        raise ValueError(f"{path}: empty vector file")
    return np.array(parsed, dtype=np.float64).reshape(len(parsed), dim)
