"""Turn MediaWiki XML export files into concept-annotated training corpora."""

from wikivec.ingest.anchors import AnchorSpan, apply_title_heuristic, extract_anchors
from wikivec.ingest.corpus import IngestStats, build_corpus, render_line, resolve_targets
from wikivec.ingest.dump import (
    DumpParseError,
    PageRecord,
    TruncatedDumpError,
    open_dump,
    stream_pages,
)
from wikivec.ingest.prune import PRUNE_RULES, PruneDecision, prune_page
from wikivec.ingest.redirects import RedirectMap, build_redirect_map

__all__ = [
    "AnchorSpan",
    "DumpParseError",
    "IngestStats",
    "PRUNE_RULES",
    "PageRecord",
    "PruneDecision",
    "RedirectMap",
    "TruncatedDumpError",
    "apply_title_heuristic",
    "build_corpus",
    "build_redirect_map",
    "extract_anchors",
    "open_dump",
    "prune_page",
    "render_line",
    "resolve_targets",
    "stream_pages",
]
