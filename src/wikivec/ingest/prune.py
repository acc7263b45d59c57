"""Page filtering for corpus compilation.

A fixed, ordered rule list decides which pages carry trainable article text.
The first matching rule wins; pages matching no rule are kept.  Title-prefix
rules match case-sensitively at position 0 of the raw title.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from wikivec.ingest.dump import PageRecord

_DISAMBIG_BODY = ("may refer to:", "may also refer to")


@dataclass(frozen=True, slots=True)
class PruneDecision:
    """Verdict for one page; ``rule_id`` names the matching rule iff discarded."""

    rule_id: str | None = None

    @property
    def keep(self) -> bool:
        return self.rule_id is None


def _title_prefix(prefix: str) -> Callable[[PageRecord], bool]:
    return lambda page: page.title.startswith(prefix)


def _is_disambiguation(page: PageRecord) -> bool:
    if "(disambiguation)" in page.title:
        return True
    return any(marker in page.wikitext for marker in _DISAMBIG_BODY)


# Evaluated strictly in order; the first predicate that fires names the rule.
PRUNE_RULES: tuple[tuple[str, Callable[[PageRecord], bool]], ...] = (
    ("redirect-tag", lambda page: page.is_redirect),
    ("category-prefix", _title_prefix("Category:")),
    ("file-prefix", _title_prefix("File:")),
    ("template-prefix", _title_prefix("Template:")),
    ("disambiguation", _is_disambiguation),
    ("portal-prefix", _title_prefix("Portal:")),
    ("draft-prefix", _title_prefix("Draft:")),
    ("mediawiki-prefix", _title_prefix("MediaWiki:")),
    ("list-of-prefix", _title_prefix("List of")),
    ("wikipedia-prefix", _title_prefix("Wikipedia:")),
    ("timedtext-prefix", _title_prefix("TimedText:")),
    ("help-prefix", _title_prefix("Help:")),
    ("book-prefix", _title_prefix("Book:")),
    ("module-prefix", _title_prefix("Module:")),
    ("topic-prefix", _title_prefix("Topic:")),
)


def prune_page(page: PageRecord) -> PruneDecision:
    """Classify one page: every page gets exactly one verdict."""
    for rule_id, predicate in PRUNE_RULES:
        if predicate(page):
            return PruneDecision(rule_id)
    return PruneDecision()
