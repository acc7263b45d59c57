"""Title normalisation and redirect-chain collapsing."""

from hypothesis import given, settings, strategies as st

from oracles import resolve_redirects
from wikivec.ingest.dump import PageRecord
from wikivec.ingest.redirects import build_redirect_map, normalize_title


def _article(page_id: int, title: str) -> PageRecord:
    return PageRecord(page_id, title, 0, None, "body")


def _redirect(page_id: int, title: str, target: str) -> PageRecord:
    return PageRecord(page_id, title, 0, target, f"#REDIRECT [[{target}]]")


def test_normalize_title():
    assert normalize_title("data mining") == "Data mining"
    assert normalize_title("Data_mining") == "Data mining"
    assert normalize_title("  spaced   out ") == "Spaced out"
    assert normalize_title("_") == ""
    assert normalize_title("") == ""
    assert normalize_title("école") == "École"


def test_articles_resolve_to_their_own_id():
    rmap = build_redirect_map([_article(5, "Alpha")])
    assert rmap.resolve("Alpha") == 5
    assert rmap.resolve("alpha") == 5
    assert rmap.resolve("ALPHA") is None


def test_chain_collapses_to_final_article():
    pages = [_article(1, "Core"), _redirect(2, "Hop", "Skip"), _redirect(3, "Skip", "Core")]
    rmap = build_redirect_map(pages)
    assert rmap.resolve("Hop") == 1
    assert rmap.resolve("Skip") == 1
    assert rmap.cycles == 0 and rmap.dangling == 0


def test_underscored_link_targets_resolve():
    rmap = build_redirect_map([_article(1, "Data mining")])
    assert rmap.resolve("Data_mining") == 1
    assert rmap.resolve("data_mining") == 1


def test_cycle_counted_once_and_unresolvable():
    pages = [_redirect(1, "A", "B"), _redirect(2, "B", "A"), _article(3, "Solid")]
    rmap = build_redirect_map(pages)
    assert rmap.cycles == 1
    assert rmap.resolve("A") is None and rmap.resolve("B") is None
    assert rmap.resolve("Solid") == 3


def test_self_redirect_is_a_cycle():
    rmap = build_redirect_map([_redirect(1, "Selfie", "Selfie")])
    assert rmap.cycles == 1
    assert rmap.resolve("Selfie") is None


def test_tail_into_cycle_is_not_a_second_cycle():
    pages = [_redirect(1, "Tail", "A"), _redirect(2, "A", "B"), _redirect(3, "B", "A")]
    rmap = build_redirect_map(pages)
    assert rmap.cycles == 1
    assert rmap.resolve("Tail") is None


def test_dangling_redirects_are_tallied():
    pages = [_redirect(1, "Gone", "Never Written"), _article(2, "Here")]
    rmap = build_redirect_map(pages)
    assert rmap.dangling == 1
    assert rmap.resolve("Gone") is None


def test_fixture_redirect_facts(fixture_scan):
    redirects, _, _, _ = fixture_scan
    assert redirects.resolve("Lutetia") == 1
    assert redirects.resolve("Paris Centre") == 1
    # Only the first character is case-folded, as on the wiki itself.
    assert redirects.resolve("paris_Centre") == 1
    assert redirects.resolve("paris_centre") is None
    assert redirects.resolve("Loop A") is None
    assert redirects.resolve("Loop B") is None
    assert redirects.cycles == 1
    assert redirects.dangling == 0


@st.composite
def redirect_pages(draw):
    """Pages "Page 0".."Page n-1", each an article or a redirect to any title,
    "Page n" and above being missing; targets are spelled in several ways."""
    n = draw(st.integers(1, 12))
    is_article = draw(st.lists(st.sampled_from([True, False, False]), min_size=n, max_size=n))
    targets = draw(st.lists(st.integers(0, n + 1), min_size=n, max_size=n))
    pages, articles, redirects = [], {}, {}
    for i, (article, target) in enumerate(zip(is_article, targets)):
        title = f"Page {i}"
        if article:
            pages.append(_article(i + 1, title))
            articles[title] = i + 1
        else:
            spelling = draw(st.sampled_from(["Page {}", "page_{}", "  page   {} ", "Page_{}"]))
            pages.append(_redirect(i + 1, title, spelling.format(target)))
            redirects[title] = f"Page {target}"
    return pages, articles, redirects


@settings(max_examples=300, deadline=None)
@given(redirect_pages())
def test_random_redirect_graphs_match_the_chain_walking_reference(case):
    pages, articles, redirects = case
    rmap = build_redirect_map(pages)
    mapping, cycles, dangling = resolve_redirects(articles, redirects)
    assert set(rmap.mapping.values()) <= set(articles.values())
    assert rmap.mapping == mapping
    assert (rmap.cycles, rmap.dangling) == (cycles, dangling)
