"""Link graph construction, relatedness scores, persistence."""

import math

import numpy as np
import pytest

from conftest import FIXTURE_DUMP, sense_index
from oracles import link_score, link_sets, link_side_score, spearman_fraction
from wikivec.evaluation.similarity import SimilarityDataset, eval_similarity
from wikivec.linkgraph import (
    LinkGraph,
    build_link_graph,
    link_similarity,
    load_graph,
    save_graph,
)


def _triangle():
    return LinkGraph.from_links([1, 2, 3], {1: [2, 3], 2: [1, 3], 3: [1, 2]})


def test_self_links_dropped_and_duplicates_collapse():
    graph = LinkGraph.from_links([1, 2], {1: [1, 2, 2, 2], 2: []})
    _, out_links, _ = link_sets(graph)
    assert out_links[1] == frozenset({2})
    assert graph.edge_count == 1


def test_membership_validation():
    with pytest.raises(ValueError, match="source"):
        LinkGraph.from_links([1], {2: [1]})
    with pytest.raises(ValueError, match="target"):
        LinkGraph.from_links([1], {1: [9]})


def test_in_links_invert_out_links():
    graph = LinkGraph.from_links([1, 2, 3], {1: [2], 2: [3], 3: [2]})
    _, _, in_links = link_sets(graph)
    assert in_links[2] == frozenset({1, 3})
    assert in_links[1] == frozenset()
    assert in_links[3] == frozenset({2})
    assert graph.rows([2, 9, None]).tolist() == [1, -1, -1]


def test_fixture_dump_adjacency():
    graph = build_link_graph(FIXTURE_DUMP)
    page_ids, out_links, in_links = link_sets(graph)
    assert page_ids == frozenset({1, 2, 3, 4, 5, 6})
    # Hand-derived from the fixture's anchors: redirects resolved ([[Lutetia]]
    # reaches 1 through two hops), discarded targets and self-links vanish.
    assert out_links == {
        1: frozenset({2, 3}),
        2: frozenset({1, 3}),
        3: frozenset({1, 2}),
        4: frozenset({5, 6}),
        5: frozenset({4, 6}),
        6: frozenset({1, 4, 5}),
    }
    assert graph.edge_count == 13
    assert in_links[1] == frozenset({2, 3, 6})


def test_fixture_similarity_hand_value():
    graph = build_link_graph(FIXTURE_DUMP)
    # Pages 4 and 5: each side has |A| = |B| = 2 with exactly one shared
    # neighbour among N = 6 pages, so each side scores 1 - ln2/ln3.
    want = 1.0 - math.log(2) / math.log(3)
    assert link_similarity(graph, 4, 5) == pytest.approx(want, abs=1e-12)


def test_similarity_is_symmetric_on_fixture():
    graph = build_link_graph(FIXTURE_DUMP)
    pages = graph.pages.tolist()
    for a in pages:
        for b in pages:
            assert link_similarity(graph, a, b) == link_similarity(graph, b, a)
            assert 0.0 <= link_similarity(graph, a, b) <= 1.0


def test_full_overlap_scores_one_per_side():
    graph = _triangle()
    # Sides of (1, 2): out-links {2,3} vs {1,3} share only 3; in-links same
    # shape. bigger=2, smaller=2, overlap=1, N=3.
    side = link_side_score(2, 2, 1, 3)
    assert link_similarity(graph, 1, 2) == pytest.approx(side, abs=1e-12)
    # Self-similarity: both sides fully overlap.
    assert link_similarity(graph, 1, 1) == 1.0


def test_unknown_page_raises_keyerror():
    graph = _triangle()
    with pytest.raises(KeyError, match="99"):
        link_similarity(graph, 1, 99)


def test_isolated_pages_score_zero():
    graph = LinkGraph.from_links([1, 2, 3], {1: [2]})
    assert link_similarity(graph, 2, 3) == 0.0


def _tied_graph(seed):
    """A random graph where most pages share a few out-degrees, so many pairs
    tie on set sizes and overlaps."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    pages = (rng.choice(np.arange(1, 10 * n), n, replace=False)).tolist()
    degrees = rng.choice([0, 1, 2, 3, n - 1], size=n, p=[0.1, 0.3, 0.3, 0.2, 0.1])
    out_links = {page: rng.choice(pages, int(k), replace=False).tolist()
                 for page, k in zip(pages, degrees)}
    return LinkGraph.from_links(pages, out_links)


@pytest.mark.parametrize("seed", range(12))
def test_batched_scores_equal_the_scalar_formula_bit_for_bit(seed):
    graph = _tied_graph(seed)
    _, out_links, in_links = link_sets(graph)
    n = graph.page_count
    rows_a, rows_b = (grid.ravel() for grid in np.meshgrid(np.arange(n), np.arange(n)))
    got = graph.pair_scores(rows_a, rows_b).tolist()
    pages = graph.pages.tolist()
    for a, b, score in zip(rows_a.tolist(), rows_b.tolist(), got):
        want = link_score(out_links, in_links, n, pages[a], pages[b])
        assert score == want
        assert link_similarity(graph, pages[a], pages[b]) == want


@pytest.mark.parametrize("seed", range(6))
def test_link_rho_matches_the_oracle(seed):
    graph = _tied_graph(100 + seed)
    _, out_links, in_links = link_sets(graph)
    pages = graph.pages.tolist()
    rng = np.random.default_rng(seed)
    # Every graph page has a surface; "stranger" maps to no concept and
    # "ghost" to a page outside the graph, so their pairs are not found.
    senses = sense_index([*((f"p{page}", page, 1) for page in pages), ("ghost", 10 ** 6, 1)])
    surfaces = [f"p{page}" for page in pages] + ["stranger", "ghost"]
    first = rng.integers(0, len(surfaces), size=300)
    second = rng.integers(0, len(surfaces), size=300)
    human = rng.integers(0, 4, size=300).astype(float)
    pairs = SimilarityDataset([surfaces[i] for i in first], [surfaces[i] for i in second],
                              human)
    report = eval_similarity(None, pairs, senses, scorer=graph)

    scores, kept_human = [], []
    for a, b, h in zip(first.tolist(), second.tolist(), human.tolist()):
        if a < len(pages) and b < len(pages):
            scores.append(link_score(out_links, in_links, len(pages), pages[a], pages[b]))
            kept_human.append(h)
    assert report.not_found == 300 - len(scores)
    assert report.rho == pytest.approx(spearman_fraction(scores, kept_human), abs=1e-12)


def test_save_load_round_trip(tmp_path):
    graph = build_link_graph(FIXTURE_DUMP)
    path = tmp_path / "graph.npz"
    save_graph(graph, path)
    again = load_graph(path)
    assert link_sets(again) == link_sets(graph)


def test_load_detects_sidecar_mismatch(tmp_path):
    path = tmp_path / "graph.npz"
    save_graph(_triangle(), path)
    sidecar = tmp_path / "graph.npz.json"
    sidecar.write_text('{"page_count": 3, "edge_count": 99}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="sidecar"):
        load_graph(path)


def test_load_without_sidecar_warns_but_works(tmp_path, caplog):
    path = tmp_path / "graph.npz"
    save_graph(_triangle(), path)
    (tmp_path / "graph.npz.json").unlink()
    with caplog.at_level("WARNING"):
        graph = load_graph(path)
    assert graph.edge_count == 6
    assert any("sidecar" in rec.message for rec in caplog.records)


def test_empty_graph_round_trip(tmp_path):
    graph = LinkGraph.from_links([], {})
    path = tmp_path / "empty.npz"
    save_graph(graph, path)
    again = load_graph(path)
    assert again.page_count == 0
    assert again.edge_count == 0


def test_loaded_files_drop_self_links_and_collapse_repeats(tmp_path):
    path = tmp_path / "raw.npz"
    # Unsorted rows and pages, a self-link, a repeated link.
    np.savez(path, pages=np.array([3, 1, 2]), indptr=np.array([0, 3, 4, 4]),
             indices=np.array([2, 3, 1, 2]))
    _, out_links, in_links = link_sets(load_graph(path))
    assert out_links == {1: frozenset({2}), 2: frozenset(), 3: frozenset({1, 2})}
    assert in_links == {1: frozenset({3}), 2: frozenset({1, 3}), 3: frozenset()}


def _arrays(pages, indptr, indices=None):
    arrays = {"pages": np.array(pages), "indptr": np.array(indptr)}
    if indices is not None:
        arrays["indices"] = np.array(indices)
    return arrays


MALFORMED = {
    "indptr-past-indices": (_arrays([1, 2], [0, 1, 3], [2, 1]), "'indptr' runs from 0 to 3"),
    "indptr-decreases": (_arrays([1, 2, 3], [0, 2, 1, 2], [2, 3]),
                         "'indptr' decreases after row 1"),
    "duplicate-pages": (_arrays([1, 2, 1], [0, 1, 1, 2], [2, 2]), "page 1 is listed twice"),
    "float-indices": (_arrays([1, 2, 3], [0, 1, 1, 1], [2.5]),
                      "'indices' must be a 1-d integer array"),
    "short-indptr": (_arrays([1, 2, 3], [0, 1], [2]), "'indptr' has 2 entries for 3 pages"),
    "missing-array": (_arrays([1, 2], [0, 0, 0]), "missing array 'indices'"),
    "unknown-target": (_arrays([1, 2], [0, 1, 1], [9]), "link target 9 is not a graph page"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_graph_files_fail_naming_the_file(tmp_path, case):
    arrays, message = MALFORMED[case]
    path = tmp_path / f"{case}.npz"
    np.savez(path, **arrays)
    with pytest.raises(ValueError) as raised:
        load_graph(path)
    assert str(raised.value).startswith(f"{path}: ")
    assert message in str(raised.value)
