"""Page filtering: the ordered rule list against the hand-labeled fixture table."""

import pytest

from wikivec.ingest.dump import PageRecord
from wikivec.ingest.prune import PRUNE_RULES, prune_page

from conftest import FIXTURE_VERDICTS


def _page(title: str, wikitext: str = "Plain body.", redirect: str | None = None) -> PageRecord:
    return PageRecord(page_id=99, title=title, namespace=0,
                      redirect_target=redirect, wikitext=wikitext)


def test_fixture_verdicts_match_hand_labels(fixture_pages):
    for page in fixture_pages:
        expected_rule = FIXTURE_VERDICTS[page.page_id]
        decision = prune_page(page)
        if expected_rule is None:
            assert decision.keep, f"page {page.page_id} ({page.title}) wrongly discarded"
            assert decision.rule_id is None
        else:
            assert not decision.keep, f"page {page.page_id} wrongly kept"
            assert decision.rule_id == expected_rule, (
                f"page {page.page_id}: {decision.rule_id} != {expected_rule}")


def test_every_rule_fires_at_least_once_on_the_fixture(fixture_pages):
    fired = {prune_page(p).rule_id for p in fixture_pages} - {None}
    assert fired == {rule_id for rule_id, _ in PRUNE_RULES}


def test_redirect_outranks_title_prefixes():
    page = _page("Category:Shortcuts", redirect="Some Target")
    assert prune_page(page).rule_id == "redirect-tag"


def test_title_prefixes_are_case_sensitive_and_anchored():
    assert prune_page(_page("category:lowercase")).keep
    assert prune_page(_page("The List of things")).keep
    assert prune_page(_page("List of rivers")).rule_id == "list-of-prefix"
    assert prune_page(_page("Listed buildings in York")).keep


def test_disambiguation_by_title_and_by_body():
    assert prune_page(_page("Java (disambiguation)")).rule_id == "disambiguation"
    assert prune_page(_page("Mercury", "Mercury may refer to:")).rule_id == "disambiguation"
    assert prune_page(_page("Mercury", "It may also refer to the god.")).rule_id == "disambiguation"
    assert prune_page(_page("Mercury", "A planet.")).keep


def test_disambiguation_marker_must_match_exactly():
    assert prune_page(_page("X", "Some may refer to it as a tool.")).keep


def test_plain_article_is_kept():
    decision = prune_page(_page("Photosynthesis"))
    assert decision.keep and decision.rule_id is None


@pytest.mark.parametrize("title,rule", [
    ("Category:Anything", "category-prefix"),
    ("File:Photo.jpg", "file-prefix"),
    ("Template:Cite web", "template-prefix"),
    ("Portal:Science", "portal-prefix"),
    ("Draft:Thing", "draft-prefix"),
    ("MediaWiki:Common.css", "mediawiki-prefix"),
    ("Wikipedia:Five pillars", "wikipedia-prefix"),
    ("TimedText:File.ogg.en.srt", "timedtext-prefix"),
    ("Help:Contents", "help-prefix"),
    ("Book:Anthology", "book-prefix"),
    ("Module:String", "module-prefix"),
    ("Topic:Abcdef", "topic-prefix"),
])
def test_namespace_prefix_rules(title, rule):
    assert prune_page(_page(title)).rule_id == rule
