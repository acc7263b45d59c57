"""Link-structure relatedness baseline.

The graph holds deduplicated article-to-article links among kept pages.
Similarity of two pages averages a shared-neighbour score computed once over
in-link sets and once over out-link sets:

    1 - (log max(|A|,|B|) - log |A n B|) / (log N - log min(|A|,|B|))

clamped to [0, 1]; an empty side or empty intersection scores 0.
"""

from __future__ import annotations

import json
import logging
import math
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from wikivec.ingest.anchors import extract_anchors
from wikivec.ingest.corpus import iter_kept_pages, resolve_targets, scan_dump

log = logging.getLogger(__name__)


class LinkGraph:
    """Directed link structure over kept pages; in/out views stay symmetric."""

    def __init__(self, page_ids: Iterable[int],
                 out_links: Mapping[int, Iterable[int]]) -> None:
        self.page_ids: frozenset[int] = frozenset(int(p) for p in page_ids)
        self.out_links: dict[int, frozenset[int]] = {p: frozenset() for p in self.page_ids}
        in_build: dict[int, set[int]] = {p: set() for p in self.page_ids}
        for source, targets in out_links.items():
            source = int(source)
            if source not in self.page_ids:
                raise ValueError(f"link source {source} is not a graph page")
            cleaned = set()
            for target in targets:
                target = int(target)
                if target == source:
                    continue  # no self-links
                if target not in self.page_ids:
                    raise ValueError(f"link target {target} is not a graph page")
                cleaned.add(target)
            self.out_links[source] = frozenset(cleaned)
            for target in cleaned:
                in_build[target].add(source)
        self.in_links: dict[int, frozenset[int]] = {
            p: frozenset(s) for p, s in in_build.items()}

    @property
    def page_count(self) -> int:
        return len(self.page_ids)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.out_links.values())

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.page_ids


def build_link_graph(dump_path: str | Path) -> LinkGraph:
    """Extract the kept-page link graph from a dump, redirects resolved.

    Edges are deduplicated; links to discarded or unknown pages vanish, as do
    self-links (including any a redirect collapses onto its own page).
    """
    dump_path = Path(dump_path)
    redirects, kept, _, _ = scan_dump(dump_path)
    out_links: dict[int, set[int]] = {}
    for page in iter_kept_pages(dump_path, kept):
        targets = resolve_targets(extract_anchors(page.wikitext), redirects, kept)
        # LinkGraph drops the self-links.
        out_links.setdefault(page.page_id, set()).update(t for t in targets if t is not None)
    graph = LinkGraph(kept, out_links)
    log.info("link graph: %d pages, %d edges", graph.page_count, graph.edge_count)
    return graph


def _side_score(set_a: frozenset[int], set_b: frozenset[int], total: int) -> float:
    if not set_a or not set_b:
        return 0.0
    overlap = len(set_a & set_b)
    if overlap == 0:
        return 0.0
    bigger = max(len(set_a), len(set_b))
    smaller = min(len(set_a), len(set_b))
    if overlap == bigger:
        # Identical-size full overlap: maximal relatedness regardless of N.
        return 1.0
    denom = math.log(total) - math.log(smaller)
    if denom <= 0.0:
        return 0.0
    score = 1.0 - (math.log(bigger) - math.log(overlap)) / denom
    return min(1.0, max(0.0, score))


def link_similarity(graph: LinkGraph, page_a: int, page_b: int) -> float:
    """Average of the in-link and out-link shared-neighbour scores."""
    for page in (page_a, page_b):
        if page not in graph:
            raise KeyError(f"page {page} is not in the link graph")
    total = graph.page_count
    in_score = _side_score(graph.in_links[page_a], graph.in_links[page_b], total)
    out_score = _side_score(graph.out_links[page_a], graph.out_links[page_b], total)
    return (in_score + out_score) / 2.0


def save_graph(graph: LinkGraph, path: str | Path) -> None:
    """Binary adjacency (CSR-style arrays) plus a JSON sidecar with the counts."""
    path = Path(path)
    pages = np.array(sorted(graph.page_ids), dtype=np.int64)
    indptr = np.zeros(pages.size + 1, dtype=np.int64)
    targets: list[np.ndarray] = []
    for i, page in enumerate(pages):
        row = np.array(sorted(graph.out_links[int(page)]), dtype=np.int64)
        targets.append(row)
        indptr[i + 1] = indptr[i] + row.size
    indices = np.concatenate(targets) if targets else np.zeros(0, dtype=np.int64)
    np.savez(path, pages=pages, indptr=indptr, indices=indices)
    saved = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    sidecar = {"page_count": graph.page_count, "edge_count": graph.edge_count}
    with open(str(saved) + ".json", "w", encoding="utf-8") as out:
        json.dump(sidecar, out, indent=2, sort_keys=True)
        out.write("\n")


def load_graph(path: str | Path) -> LinkGraph:
    """Rebuild a graph saved by :func:`save_graph`; verifies the sidecar counts."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    data = np.load(path)
    pages = data["pages"]
    indptr = data["indptr"]
    indices = data["indices"]
    out_links = {int(pages[i]): indices[indptr[i]:indptr[i + 1]].tolist()
                 for i in range(pages.size)}
    graph = LinkGraph(pages.tolist(), out_links)
    sidecar_path = str(path) + ".json"
    try:
        with open(sidecar_path, "r", encoding="utf-8") as handle:
            sidecar = json.load(handle)
    except FileNotFoundError:
        log.warning("graph sidecar %s missing; counts unverified", sidecar_path)
        return graph
    if (sidecar.get("page_count") != graph.page_count
            or sidecar.get("edge_count") != graph.edge_count):
        raise ValueError(f"{path}: sidecar counts disagree with the adjacency data")
    return graph
