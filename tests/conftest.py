"""Shared fixtures: the hand-built dump, its parsed pages, and tmp helpers."""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Iterable

import pytest

from wikivec.evaluation.senses import SenseIndex, load_sense_index
from wikivec.ingest.corpus import scan_dump
from wikivec.ingest.dump import open_dump, stream_pages

DATA = Path(__file__).parent / "data"

FIXTURE_DUMP = DATA / "fixture_dump.xml"
GOLDEN_STANDARD = DATA / "golden_standard.txt"
GOLDEN_ANCHOR_STATS = DATA / "golden_anchor_stats.tsv"

# Hand-labeled verdict table for the dump fixture: page id -> matching rule,
# None meaning the page is kept.  Derived from the fixture bodies by eye.
FIXTURE_VERDICTS: dict[int, str | None] = {
    1: None,
    2: None,
    3: None,
    4: None,
    5: None,
    6: None,
    7: "redirect-tag",
    8: "redirect-tag",
    9: "redirect-tag",
    10: "redirect-tag",
    11: "category-prefix",
    12: "file-prefix",
    13: "template-prefix",
    14: "disambiguation",
    15: "disambiguation",
    16: "portal-prefix",
    17: "draft-prefix",
    18: "mediawiki-prefix",
    19: "list-of-prefix",
    20: "wikipedia-prefix",
    21: "timedtext-prefix",
    22: "help-prefix",
    23: "book-prefix",
    24: "module-prefix",
    25: "topic-prefix",
}

# Hand-counted per-page facts for the six kept pages, in document order:
# (page id, tokens in standard mode, anchors resolving to kept pages,
#  exact-case title mentions outside anchor spans).
FIXTURE_KEPT_FACTS = [
    (1, 29, 4, 4),
    (2, 29, 2, 3),
    (3, 31, 2, 1),
    (4, 42, 3, 0),
    (5, 34, 3, 0),
    (6, 35, 3, 0),
]


def sense_index(rows: Iterable[tuple[str, int, int]]) -> SenseIndex:
    """``load_sense_index`` over a TSV of ``(surface, page_id, count)`` rows."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "senses.tsv"
        path.write_text("".join(f"{surface}\t{page}\t{count}\n" for surface, page, count in rows),
                        encoding="utf-8")
        return load_sense_index(path)


@pytest.fixture(scope="session")
def fixture_pages():
    with open_dump(FIXTURE_DUMP) as stream:
        return list(stream_pages(stream))


@pytest.fixture(scope="session")
def fixture_scan():
    """(redirects, kept ids, pages seen, pages kept) for the dump fixture."""
    return scan_dump(FIXTURE_DUMP)


@pytest.fixture()
def data_dir() -> Path:
    return DATA
