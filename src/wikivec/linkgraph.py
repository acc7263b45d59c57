"""Link-structure relatedness baseline.

The graph holds deduplicated article-to-article links among kept pages.
Similarity of two pages averages a shared-neighbour score computed once over
in-link sets and once over out-link sets:

    1 - (log max(|A|,|B|) - log |A n B|) / (log N - log min(|A|,|B|))

clamped to [0, 1]; an empty side or empty intersection scores 0.

The graph is held as CSR arrays over page rows, and pairs are scored in whole
arrays by :meth:`LinkGraph.pair_scores`; :func:`link_similarity` scores one
pair through the same side formula without building a sparse matrix.
"""

from __future__ import annotations

import json
import logging
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from wikivec.ingest.anchors import extract_anchors
from wikivec.ingest.corpus import iter_kept_pages, resolve_targets, scan_dump

log = logging.getLogger(__name__)

_ARRAYS = ("pages", "indptr", "indices")


class LinkGraph:
    """Directed link structure over kept pages, as CSR arrays over page rows.

    ``pages`` holds the sorted page ids; row ``i`` is page ``pages[i]``.  With
    ``n`` pages, ``indices[indptr[i]:indptr[i + 1]]`` are the rows page ``i``
    links to, and ``indices[indptr[n + i]:indptr[n + i + 1]]`` the rows that
    link to it, both sorted.
    """

    def __init__(self, page_ids: np.ndarray, sources: np.ndarray, targets: np.ndarray) -> None:
        """Canonicalise links given as parallel arrays of source and target page ids.

        Self-links are dropped and repeated links collapse.  A repeated page,
        or a link from or to a page not in ``page_ids``, raises ValueError.
        """
        pages = np.sort(np.asarray(page_ids, dtype=np.int64))
        repeated = pages[1:][pages[1:] == pages[:-1]]
        if repeated.size:
            raise ValueError(f"page {repeated[0]} is listed twice")
        n = pages.size
        src, dst = _page_rows(pages, sources, "source"), _page_rows(pages, targets, "target")
        keys = (src * n + dst)[src != dst]
        if np.any(keys[1:] <= keys[:-1]):  # a saved graph is in order already
            keys = np.unique(keys)  # by source, then target, each link once
        src, dst = np.divmod(keys, n)
        by_target = np.argsort(dst, kind="stable")  # the in-links, sources still sorted
        degrees = np.concatenate((np.bincount(src, minlength=n), np.bincount(dst, minlength=n)))
        self.pages = pages
        self.indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        self.indices = np.concatenate((dst, src[by_target])).astype(np.int32)
        self._links = None  # both directions as one sparse matrix, built on first use

    @classmethod
    def from_links(cls, page_ids: Iterable[int],
                   out_links: Mapping[int, Iterable[int]]) -> "LinkGraph":
        """Graph from each source page's link targets."""
        rows = [np.fromiter(targets, dtype=np.int64) for targets in out_links.values()]
        sources = np.repeat(np.fromiter(out_links, dtype=np.int64, count=len(out_links)),
                            [row.size for row in rows])
        targets = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        return cls(np.fromiter(page_ids, dtype=np.int64), sources, targets)

    @property
    def page_count(self) -> int:
        return int(self.pages.size)

    @property
    def edge_count(self) -> int:
        return int(self.indptr[self.page_count])

    def rows(self, page_ids: Sequence[int | None]) -> np.ndarray:
        """Row of each page id; -1 for None or a page not in the graph."""
        known = np.array([page is not None for page in page_ids], dtype=bool)
        out = np.full(known.size, -1, dtype=np.int64)
        out[known] = _page_rows(self.pages, [page for page in page_ids if page is not None])
        return out

    def pair_scores(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """Similarity of each pair of rows, bit-equal to the module formula."""
        n, pairs = self.page_count, len(rows_a)
        if pairs == 0:
            return np.zeros(0, dtype=np.float64)
        sides_a = np.concatenate((rows_a, rows_a + n))  # out-link rows, then in-link rows
        sides_b = np.concatenate((rows_b, rows_b + n))
        if self._links is None:
            import scipy.sparse  # a module-level import would add ~0.14 s to every command

            ones = np.ones(self.indices.size, dtype=np.int32)
            self._links = scipy.sparse.csr_matrix((ones, self.indices, self.indptr),
                                                  shape=(2 * n, n))
        overlap = np.asarray(self._links[sides_a].multiply(self._links[sides_b])
                             .sum(axis=1)).ravel()
        degree = np.diff(self.indptr)
        side = _side_scores(degree[sides_a], degree[sides_b], overlap, n)
        return (side[pairs:] + side[:pairs]) / 2.0  # in-link score + out-link score


def _page_rows(pages: np.ndarray, page_ids, role: str | None = None) -> np.ndarray:
    """Row of each page id in sorted ``pages``, -1 where absent.

    With ``role`` given, an absent page raises ValueError instead.
    """
    ids = np.asarray(page_ids, dtype=np.int64)
    rows = np.searchsorted(pages, ids)
    known = rows < pages.size
    known[known] = pages[rows[known]] == ids[known]
    if role is not None and not known.all():
        raise ValueError(f"link {role} {ids[~known][0]} is not a graph page")
    return np.where(known, rows, -1)


def _side_scores(size_a: np.ndarray, size_b: np.ndarray, overlap: np.ndarray,
                 total: int) -> np.ndarray:
    """Shared-neighbour score per pair of link sets, from their sizes and overlap.

    Logarithms come from ``math.log``, and the rest is float64 arithmetic in the
    formula's order, so each score is bit-equal to the formula's scalar value.
    """
    bigger, smaller = np.maximum(size_a, size_b), np.minimum(size_a, size_b)
    logs = np.array([0.0, *map(math.log, range(1, int(bigger.max()) + 1))])
    denom = math.log(total) - logs[smaller]
    score = np.zeros(overlap.size, dtype=np.float64)
    # overlap <= smaller <= bigger, so overlap == bigger is an equal-size full overlap.
    partial = (overlap > 0) & (overlap < bigger) & (denom > 0.0)
    score[partial] = np.clip(
        1.0 - (logs[bigger[partial]] - logs[overlap[partial]]) / denom[partial], 0.0, 1.0)
    score[(overlap > 0) & (overlap == bigger)] = 1.0
    return score


def build_link_graph(dump_path: str | Path) -> LinkGraph:
    """Extract the kept-page link graph from a dump, redirects resolved.

    Edges are deduplicated; links to discarded or unknown pages vanish, as do
    self-links (including any a redirect collapses onto its own page).
    """
    dump_path = Path(dump_path)
    redirects, kept, _, _ = scan_dump(dump_path)
    out_links: dict[int, list[int]] = {}
    for page in iter_kept_pages(dump_path, kept):
        targets = resolve_targets(extract_anchors(page.wikitext), redirects, kept)
        out_links.setdefault(page.page_id, []).extend(t for t in targets if t is not None)
    graph = LinkGraph.from_links(kept, out_links)
    log.info("link graph: %d pages, %d edges", graph.page_count, graph.edge_count)
    return graph


def link_similarity(graph: LinkGraph, page_a: int, page_b: int) -> float:
    """Average of the in-link and out-link shared-neighbour scores."""
    row_a, row_b = graph.rows([page_a, page_b])
    for page, row in ((page_a, row_a), (page_b, row_b)):
        if row < 0:
            raise KeyError(f"page {page} is not in the link graph")
    n, indptr, indices = graph.page_count, graph.indptr, graph.indices
    sides_a, sides_b = np.array([row_a, row_a + n]), np.array([row_b, row_b + n])
    # One pair needs no sparse matrix: intersect the two sorted CSR slices per side.
    overlap = np.array([np.intersect1d(indices[indptr[a]:indptr[a + 1]],
                                       indices[indptr[b]:indptr[b + 1]], assume_unique=True).size
                        for a, b in zip(sides_a, sides_b)])
    side = _side_scores(indptr[sides_a + 1] - indptr[sides_a],
                        indptr[sides_b + 1] - indptr[sides_b], overlap, n)
    return float((side[1] + side[0]) / 2.0)  # in-link score + out-link score, as pair_scores


def save_graph(graph: LinkGraph, path: str | Path) -> None:
    """Binary adjacency (CSR arrays of page ids) plus a JSON sidecar with the counts."""
    path = Path(path)
    n, edges = graph.page_count, graph.edge_count
    np.savez(path, pages=graph.pages, indptr=graph.indptr[:n + 1],
             indices=graph.pages[graph.indices[:edges]])
    saved = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    sidecar = {"page_count": n, "edge_count": edges}
    with open(str(saved) + ".json", "w", encoding="utf-8") as out:
        json.dump(sidecar, out, indent=2, sort_keys=True)
        out.write("\n")


def _read_graph(path: Path) -> LinkGraph:
    with np.load(path) as data:
        missing = [name for name in _ARRAYS if name not in data.files]
        if missing:
            raise ValueError(f"missing array {missing[0]!r}")
        pages, indptr, indices = (data[name] for name in _ARRAYS)
    for name, array in zip(_ARRAYS, (pages, indptr, indices)):
        if array.ndim != 1 or not np.issubdtype(array.dtype, np.integer):
            raise ValueError(f"{name!r} must be a 1-d integer array, "
                             f"not {array.dtype} of shape {array.shape}")
    if indptr.size != pages.size + 1:
        raise ValueError(f"'indptr' has {indptr.size} entries for {pages.size} pages")
    if indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValueError(f"'indptr' runs from {indptr[0]} to {indptr[-1]}, "
                         f"not from 0 to the {indices.size} links")
    degrees = np.diff(indptr)
    if np.any(degrees < 0):
        raise ValueError(f"'indptr' decreases after row {np.flatnonzero(degrees < 0)[0]}")
    return LinkGraph(pages, np.repeat(pages, degrees), indices)


def load_graph(path: str | Path) -> LinkGraph:
    """Rebuild a graph saved by :func:`save_graph`; verifies the sidecar counts.

    A malformed file raises ValueError naming it.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    try:
        graph = _read_graph(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    sidecar_path = str(path) + ".json"
    try:
        with open(sidecar_path, "r", encoding="utf-8") as handle:
            sidecar = json.load(handle)
    except FileNotFoundError:
        log.warning("graph sidecar %s missing; counts unverified", sidecar_path)
        return graph
    except ValueError as exc:
        raise ValueError(f"{sidecar_path}: graph sidecar is not valid JSON: {exc}") from None
    if not isinstance(sidecar, dict):
        raise ValueError(f"{sidecar_path}: graph sidecar is not a JSON object")
    if (sidecar.get("page_count") != graph.page_count
            or sidecar.get("edge_count") != graph.edge_count):
        raise ValueError(f"{path}: sidecar counts disagree with the adjacency data")
    return graph
