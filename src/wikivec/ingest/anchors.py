"""Anchor extraction from wikitext, plus the title-mention annotation pass.

Spans are half-open character ranges into the raw page body, so every later
stage shares one coordinate space.  Parsing is tolerant: malformed link
syntax is skipped and logged, never fatal.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from wikivec.ingest.dump import PageRecord
from wikivec.ingest.textify import matching_close

log = logging.getLogger(__name__)

EXPLICIT = "explicit"
HEURISTIC = "heuristic"

_FILE_LINK = re.compile(r"(?:File|Image)\s*:", re.IGNORECASE)


@dataclass(frozen=True, slots=True)
class AnchorSpan:
    """One linked mention: target title, surface text, and its span in the body."""

    target_title: str
    surface_text: str
    start: int
    end: int
    provenance: str = EXPLICIT


def extract_anchors(wikitext: str) -> list[AnchorSpan]:
    """Parse ``[[Target]]`` / ``[[Target|surface]]`` links into anchor spans.

    File/image constructs are skipped wholly (their nested brackets emit
    nothing); '#fragment' suffixes are stripped from targets; unbalanced
    brackets skip the malformed span and parsing continues.
    """
    anchors: list[AnchorSpan] = []
    pos = 0
    while True:
        start = wikitext.find("[[", pos)
        if start < 0:
            break
        end = matching_close(wikitext, start, "[[", "]]")
        if end < 0:
            log.debug("unbalanced '[[' at offset %d; skipping", start)
            pos = start + 2
            continue
        inner = wikitext[start + 2:end - 2]
        if _FILE_LINK.match(inner.lstrip()):
            pos = end
            continue
        target_part, sep, surface_part = inner.partition("|")
        # A leading colon forces a plain link (e.g. to a category page).
        target = target_part.split("#", 1)[0].strip().lstrip(":").strip()
        if not target:
            # Fragment-only or empty link; nothing to point at.
            pos = end
            continue
        if sep:
            surface = surface_part or target
        else:
            surface = inner
        anchors.append(AnchorSpan(target, surface, start, end, EXPLICIT))
        pos = end
    return anchors


def apply_title_heuristic(page: PageRecord, anchors: list[AnchorSpan]) -> list[AnchorSpan]:
    """Add one self-anchor per exact, case-sensitive, whole-token title mention.

    Mentions overlapping an existing anchor span are left alone.  The input
    anchors are never removed or mutated; the combined list comes back sorted
    by span start.
    """
    if not page.title.strip():
        return sorted(anchors, key=lambda a: a.start)
    # Whole-token boundaries: no adjacent word character or hyphen, matching
    # the tokenizer's idea of what can extend a token.
    pattern = re.compile(r"(?<![\w-])" + re.escape(page.title) + r"(?![\w-])")
    taken = sorted((a.start, a.end) for a in anchors)
    added: list[AnchorSpan] = []
    for match in pattern.finditer(page.wikitext):
        s, e = match.start(), match.end()
        if any(s < t_end and t_start < e for t_start, t_end in taken):
            continue
        added.append(AnchorSpan(page.title, match.group(0), s, e, HEURISTIC))
    return sorted(list(anchors) + added, key=lambda a: a.start)
