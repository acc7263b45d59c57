"""Render pruned, anchor-annotated pages into a training corpus.

Output format: UTF-8 text, one kept page per line, tokens separated by single
spaces.  Concept mentions appear as ``wiki_<page_id>`` tokens; everything
else is lowercased words.  A stats object summarises the run.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from itertools import islice, zip_longest
from pathlib import Path
from typing import Iterator

from wikivec.ingest.anchors import EXPLICIT, AnchorSpan, apply_title_heuristic, extract_anchors
from wikivec.ingest.dump import PageRecord, open_dump, stream_pages
from wikivec.ingest.prune import prune_page
from wikivec.ingest.redirects import RedirectMap, build_redirect_map
from wikivec.ingest.textify import mask_markup, tokenize
from wikivec.workers import fork_map

log = logging.getLogger(__name__)

MODES = ("standard", "heuristic", "anchors_only")
CONCEPT_PREFIX = "wiki_"


def parse_concept(token: str) -> int | None:
    """page_id for a ``wiki_<id>`` token (ASCII digits only), else None."""
    digits = token[len(CONCEPT_PREFIX):]
    if token.startswith(CONCEPT_PREFIX) and digits.isascii() and digits.isdigit():
        return int(digits)
    return None


@dataclass(slots=True)
class IngestStats:
    pages_seen: int = 0
    pages_kept: int = 0
    anchors_explicit: int = 0
    anchors_heuristic: int = 0
    tokens_emitted: int = 0
    redirect_cycles: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _normalize_surface(surface: str) -> str:
    return " ".join(surface.split()).lower()


def resolve_targets(anchors: list[AnchorSpan], redirects: RedirectMap,
                    kept: frozenset[int] | set[int]) -> list[int | None]:
    """Per anchor, the kept page id its target resolves to through redirects, else None."""
    resolved = (redirects.resolve(anchor.target_title) for anchor in anchors)
    return [target_id if target_id in kept else None for target_id in resolved]


def render_line(page: PageRecord, anchors: list[AnchorSpan], targets: list[int | None],
                mode: str) -> list[str]:
    """Flatten one page into corpus tokens.

    ``targets`` pairs each anchor with its resolved kept page id (see
    :func:`resolve_targets`).  An anchor with a target becomes one
    ``wiki_<id>`` token; any other anchor contributes its surface words,
    except in anchors_only mode, where non-concept material is dropped
    entirely.  The caller decides which anchors exist; heuristic augmentation
    happens before this call.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    masked = mask_markup(page.wikitext)
    tokens: list[str] = []
    words_wanted = mode != "anchors_only"
    pos = 0
    for anchor, target_id in sorted(zip(anchors, targets, strict=True),
                                    key=lambda pair: pair[0].start):
        if words_wanted and anchor.start > pos:
            tokens += tokenize(masked[pos:anchor.start])
        if target_id is not None:
            tokens.append(f"{CONCEPT_PREFIX}{target_id}")
        elif words_wanted:
            tokens += tokenize(anchor.surface_text)
        pos = max(pos, anchor.end)
    if words_wanted and pos < len(masked):
        tokens += tokenize(masked[pos:])
    return tokens


def scan_dump(dump_path: Path) -> tuple[RedirectMap, frozenset[int], int, int]:
    """Stream once: redirect map, kept page ids, pages seen, pages kept."""
    kept: set[int] = set()
    pages_seen = 0

    def recording() -> Iterator[PageRecord]:
        nonlocal pages_seen
        with open_dump(dump_path) as stream:
            for page in stream_pages(stream):
                pages_seen += 1
                if prune_page(page).keep:
                    kept.add(page.page_id)
                yield page

    redirects = build_redirect_map(recording())
    return redirects, frozenset(kept), pages_seen, len(kept)


def _render_page(page: PageRecord, redirects: RedirectMap, kept: frozenset[int], mode: str,
                 stats: IngestStats, anchor_counts: Counter) -> str:
    """Render one kept page into a line, adding its tokens and anchors to the tallies."""
    anchors = extract_anchors(page.wikitext)
    explicit = len(anchors)
    if mode == "heuristic":
        anchors = apply_title_heuristic(page, anchors)
    targets = resolve_targets(anchors, redirects, kept)
    tokens = render_line(page, anchors, targets, mode)
    stats.tokens_emitted += len(tokens)
    stats.anchors_explicit += explicit
    stats.anchors_heuristic += len(anchors) - explicit
    for anchor, target_id in zip(anchors, targets):
        if anchor.provenance == EXPLICIT and target_id is not None:
            surface = _normalize_surface(anchor.surface_text)
            if surface:
                anchor_counts[surface, target_id] += 1
    return " ".join(tokens)


def iter_kept_pages(dump_path: Path, kept: frozenset[int]) -> Iterator[PageRecord]:
    with open_dump(dump_path) as stream:
        for page in stream_pages(stream):
            if page.page_id in kept:
                yield page


def _pool_render(dump_path: Path, redirects: RedirectMap, kept: frozenset[int], mode: str,
                 worker_id: int, n_workers: int, out_path: Path) -> tuple[IngestStats, Counter]:
    """Stream the dump and render every ``n_workers``-th kept page, from the
    ``worker_id``-th on, into ``out_path``; returns their tallies."""
    stats, anchor_counts = IngestStats(), Counter()
    with open(out_path, "w", encoding="utf-8", newline="\n") as out:
        for page in islice(iter_kept_pages(dump_path, kept), worker_id, None, n_workers):
            out.write(_render_page(page, redirects, kept, mode, stats, anchor_counts) + "\n")
    return stats, anchor_counts


def write_anchor_stats(counts: Counter, path: str | Path) -> None:
    """Persist aggregated (surface, target page_id) counts as a sorted TSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        for (surface, target_id), n in sorted(counts.items()):
            out.write(f"{surface}\t{target_id}\t{n}\n")


def build_corpus(dump_path: str | Path, out_path: str | Path, mode: str = "standard",
                 workers: int = 1, anchor_stats_path: str | Path | None = None) -> IngestStats:
    """Compile a dump into a one-line-per-kept-page corpus file, in document order.

    The output is the same for any ``workers``: with more than one, each forked
    worker streams the dump and renders every n-th kept page into a part file,
    and the parts are interleaved in order and deleted.  A worker that raises
    or dies fails the call with :class:`wikivec.workers.WorkerError`.
    """
    mode = mode.replace("-", "_")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    dump_path, out_path = Path(dump_path), Path(out_path)
    redirects, kept, pages_seen, pages_kept = scan_dump(dump_path)
    stats = IngestStats(pages_seen=pages_seen, pages_kept=pages_kept,
                        redirect_cycles=redirects.cycles)
    anchor_counts: Counter = Counter()

    parts = [out_path] if workers == 1 else [Path(f"{out_path}.part{i}") for i in range(workers)]
    try:
        results = fork_map(lambda worker: _pool_render(dump_path, redirects, kept, mode, worker,
                                                       workers, parts[worker]), workers)
        if workers > 1:
            with ExitStack() as stack:
                out = stack.enter_context(open(out_path, "wb"))
                readers = [stack.enter_context(open(part, "rb")) for part in parts]
                for lines in zip_longest(*readers):
                    out.writelines(filter(None, lines))
    finally:
        if workers > 1:
            for part in parts:
                part.unlink(missing_ok=True)
    for tally, counts in results:
        stats.tokens_emitted += tally.tokens_emitted
        stats.anchors_explicit += tally.anchors_explicit
        stats.anchors_heuristic += tally.anchors_heuristic
        anchor_counts.update(counts)

    if anchor_stats_path is not None:
        write_anchor_stats(anchor_counts, anchor_stats_path)
    log.info("ingest: %d/%d pages kept, %d tokens, %d explicit + %d heuristic anchors",
             stats.pages_kept, stats.pages_seen, stats.tokens_emitted,
             stats.anchors_explicit, stats.anchors_heuristic)
    return stats
