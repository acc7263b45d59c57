"""Seeded synthetic inputs for the wikivec benchmark, with a ground-truth ledger.

``generate(params, seed, out_dir)`` writes every file a workload feeds to the
program and returns a ledger of what the inputs must produce.  The ledger is
derived from how the inputs were built, never from running the program:

* the dump: page verdicts per prune rule, redirect chains (one cycle, dangling
  targets), the concept tokens each kept page must render to in standard and
  heuristic mode, exact-case title mentions, unique link-graph edges and the
  (surface, target) anchor counts;
* analogy questions and similarity pairs over the corpus vocabulary;
* optionally ("published" in the params) two planted vector sets with an
  answer key per bucket, a large sense index with planted winners, similarity
  datasets with relatedness scores and a large link graph.

Same params and seed, same bytes.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import numpy as np

RULES = ("redirect-tag", "category-prefix", "file-prefix", "template-prefix",
         "disambiguation", "portal-prefix", "draft-prefix", "mediawiki-prefix",
         "list-of-prefix", "wikipedia-prefix", "timedtext-prefix", "help-prefix",
         "book-prefix", "module-prefix", "topic-prefix")
_PREFIX = {"category-prefix": "Category:", "file-prefix": "File:",
           "template-prefix": "Template:", "portal-prefix": "Portal:",
           "draft-prefix": "Draft:", "mediawiki-prefix": "MediaWiki:",
           "list-of-prefix": "List of ", "wikipedia-prefix": "Wikipedia:",
           "timedtext-prefix": "TimedText:", "help-prefix": "Help:",
           "book-prefix": "Book:", "module-prefix": "Module:", "topic-prefix": "Topic:"}
POISON = "qz"  # every word planted inside masked markup starts with this
_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w",
           "br", "dr", "gl", "kr", "pl", "st", "tr", "sk")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_QUALIFIERS = ("band", "river", "city", "novel", "company", "film")


class Words:
    """Unique pronounceable lowercase pseudo-words."""

    def __init__(self, rnd: random.Random) -> None:
        self.rnd = rnd
        self.used: set[str] = set()

    def new(self) -> str:
        while True:
            word = "".join(self.rnd.choice(_ONSETS) + self.rnd.choice(_VOWELS)
                           for _ in range(self.rnd.randint(2, 4)))
            if word not in self.used and not word.startswith(POISON):
                self.used.add(word)
                return word

    def many(self, n: int) -> list[str]:
        return [self.new() for _ in range(n)]


def norm_surface(surface: str) -> str:
    return " ".join(surface.split()).lower()


class Page:
    def __init__(self, page_id: int, title: str, ns: int = 0) -> None:
        self.page_id = page_id
        self.title = title
        self.ns = ns
        self.redirect: str | None = None
        self.text = ""
        self.rule: str | None = None  # expected prune rule; None = kept
        self.std: list[int] = []  # concept ids a kept page renders to, standard mode
        self.heur: list[int] = []  # the same in heuristic mode


class Body:
    """Builds one kept page's wikitext while recording what it must render to."""

    def __init__(self, page: Page, rnd: random.Random, ledger: "DumpLedger") -> None:
        self.page, self.rnd, self.ledger = page, rnd, ledger
        self.parts: list[str] = []
        self.std: list[int] = []
        self.heur: list[int] = []

    def words(self, pool: list[str], n: int) -> None:
        self.parts.append(" ".join(self.rnd.choice(pool) for _ in range(n)))

    def link(self, written: str, surface: str | None, resolved: int | None,
             fragment: str = "") -> None:
        """``[[written#fragment|surface]]``; ``resolved`` is a kept page id or None."""
        inner = written + (f"#{fragment}" if fragment else "")
        if surface is None:
            self.parts.append(f"[[{inner}]]")
            effective = inner
        else:
            self.parts.append(f"[[{inner}|{surface}]]")
            effective = surface
        self.ledger.explicit += 1
        if resolved is not None:
            self.std.append(resolved)
            self.heur.append(resolved)
            self.ledger.anchors[(norm_surface(effective), resolved)] += 1
            if resolved != self.page.page_id:
                self.ledger.edges.add((self.page.page_id, resolved))

    def self_mention(self, bold: bool = False) -> None:
        title = self.page.title
        self.parts.append(f"'''{title}'''" if bold else title)
        self.heur.append(self.page.page_id)
        self.ledger.mentions += 1

    def near_mention(self) -> None:
        """Title variants the case-sensitive whole-token heuristic must ignore."""
        title = self.page.title
        self.parts.append(self.rnd.choice((title.lower(), title + "-era",
                                           "proto-" + title)))

    def markup(self, poison: Words) -> None:
        p = poison.new
        kind = self.rnd.randrange(10)
        if kind == 0:
            inner = "{{small|" + POISON + p() + "}}"
            self.parts.append("{{Infobox " + POISON + p() + "|name=" + POISON + p()
                              + "|note={{nowrap|" + POISON + p() + " " + inner + "}}}}")
        elif kind == 1:
            self.parts.append(f'<ref name="{POISON}{p()}">{POISON}{p()} '
                              f"{{{{cite web|title={POISON}{p()}}}}}</ref>")
        elif kind == 2:
            self.parts.append(f'<ref name="{POISON}{p()}" />')
        elif kind == 3:
            self.parts.append(f"<!-- {POISON}{p()} {POISON}{p()} -->")
        elif kind == 4:
            target = self.rnd.choice(self.ledger.articles)
            while target is self.page:
                target = self.rnd.choice(self.ledger.articles)
            self.parts.append(f"[[File:{POISON}{p()}.jpg|thumb|{POISON}{p()} "
                              f"[[{target.title}]] {POISON}{p()}]]")
        elif kind == 5:
            self.parts.append(f"https://{POISON}{p()}.example.org/{POISON}{p()}")
        elif kind == 6:
            self.parts.append(f"\n{{| class=\"wikitable\"\n|-\n! {POISON}{p()} !! {POISON}{p()}"
                              f"\n|-\n| {POISON}{p()} || {POISON}{p()}\n|}}\n")
        elif kind == 7:
            self.parts.append(f"<span class=\"{POISON}{p()}\">{self.rnd.choice(self.ledger.common)}"
                              f"</span><br />&nbsp;&#8212;")
        elif kind == 8:
            self.parts.append(f"[https://{POISON}{p()}.example.com "
                              f"{self.rnd.choice(self.ledger.common)}]")
        else:
            self.parts.append(f"__NOTOC__ <math>{POISON}{p()}</math>")

    def finish(self) -> str:
        return " ".join(self.parts)


class DumpLedger:
    def __init__(self) -> None:
        self.explicit = 0
        self.mentions = 0
        self.anchors: Counter = Counter()
        self.edges: set[tuple[int, int]] = set()
        self.articles: list[Page] = []
        self.common: list[str] = []


def _page_xml(page: Page, rev: int) -> str:
    redirect = f"    <redirect title={quoteattr(page.redirect)} />\n" if page.redirect else ""
    return (f"  <page>\n    <title>{escape(page.title)}</title>\n    <ns>{page.ns}</ns>\n"
            f"    <id>{page.page_id}</id>\n{redirect}    <revision>\n      <id>{rev}</id>\n"
            f"      <text xml:space=\"preserve\">{escape(page.text)}</text>\n"
            f"    </revision>\n  </page>\n")


def _title(words: Words, rnd: random.Random) -> str:
    title = f"{words.new().capitalize()} {words.new().capitalize()}"
    if rnd.random() < 0.2:
        title += f" ({rnd.choice(_QUALIFIERS)})"
    return title


def make_dump(p: dict, rnd: random.Random, words: Words, out_dir: Path) -> dict:
    """Write ``dump.xml``, ``questions.txt`` and ``pairs/``; return the dump ledger."""
    poison = Words(random.Random(rnd.random()))
    K, R = p["topics"], 2
    topic_words = [words.many(p["topic_words"]) for _ in range(K)]
    role_words = [words.many(3) for _ in range(R)]
    common = words.many(p["common_words"])
    ledger = DumpLedger()
    ledger.common = common

    n_articles = K * (R + p["fillers"])
    n_ids = n_articles + (len(RULES) + 8) * p["discards"] + 64
    next_id = iter(rnd.sample(range(1, 20 * n_ids), n_ids)).__next__

    articles: list[Page] = []
    topic_of: dict[int, int] = {}
    concept = [[None] * R for _ in range(K)]
    names: dict[int, str] = {}
    for t in range(K):
        for slot in range(R + p["fillers"]):
            page = Page(next_id(), _title(words, rnd))
            articles.append(page)
            topic_of[page.page_id] = t
            if slot < R:
                concept[t][slot] = page
                names[page.page_id] = words.new()
    ledger.articles = articles
    pages: list[Page] = list(articles)

    # Discarded non-redirect pages: every rule, plus an ordering case (a "List of"
    # page that is also a disambiguation page must be named by the earlier rule).
    discards: list[Page] = []
    for rule in RULES[1:]:
        for _ in range(p["discards"]):
            if rule == "disambiguation":
                if rnd.random() < 0.5:
                    page = Page(next_id(), _title(words, rnd) + " (disambiguation)")
                    page.text = f"'''{page.title}''' is a term. {words.new()} may refer to: a, b"
                else:
                    page = Page(next_id(), "List of " + words.new())
                    page.text = "The phrase may refer to: many lists"
            else:
                prefix = _PREFIX[rule]
                page = Page(next_id(), prefix + words.new().capitalize(),
                            ns=0 if rule == "list-of-prefix" else 100)
                filler = Body(page, rnd, ledger)
                for _ in range(p.get("discard_markup", 0)):
                    filler.markup(poison)
                page.text = f"Some {words.new()} text [[{rnd.choice(articles).title}]] " + filler.finish()
            page.rule = rule
            discards.append(page)
    pages.extend(discards)

    # Redirects: aliases (chains of one or two hops, some written unnormalised),
    # one three-page cycle with a tail, dangling chains and a redirect that lands
    # on a discarded page.
    def redirect(title: str, target: str) -> Page:
        page = Page(next_id(), title)
        page.redirect = target
        page.text = f"#REDIRECT [[{target}]]"
        page.rule = "redirect-tag"
        pages.append(page)
        return page

    def unnormalised(title: str) -> str:
        return title[0].lower() + title[1:].replace(" ", "_")

    aliases: dict[int, list[str]] = {}
    n_alias = max(1, p["discards"])
    for page in rnd.sample(articles, min(len(articles), 3 * n_alias)):
        first = redirect(_title(words, rnd), rnd.choice((page.title, unnormalised(page.title))))
        aliases.setdefault(page.page_id, []).append(first.title)
        if rnd.random() < 0.5:
            second = redirect(_title(words, rnd), first.title)
            aliases[page.page_id].append(second.title)
    cycle = [_title(words, rnd) for _ in range(3)]
    for i, title in enumerate(cycle):
        redirect(title, cycle[(i + 1) % 3])
    dead: list[str] = list(cycle)
    dead.append(redirect(_title(words, rnd), cycle[0]).title)  # tail into the cycle
    dangling = 1
    for _ in range(n_alias):
        first = redirect(_title(words, rnd), _title(words, rnd))  # target never exists
        second = redirect(_title(words, rnd), first.title)
        dead += [first.title, second.title]
        dangling += 2
    redirect("Category:" + words.new().capitalize(), articles[0].title)  # resolves
    to_discard = redirect(_title(words, rnd), discards[0].title)
    dead += [to_discard.title, discards[0].title, _title(words, rnd)]
    dead.append(":" + discards[0].title)

    # Bodies.
    for page in articles:
        t = topic_of[page.page_id]
        body = Body(page, rnd, ledger)
        pool = topic_words[t] * 3 + common
        if rnd.random() < p["markup"]:
            body.markup(poison)
        body.self_mention(bold=True)
        body.words(pool, rnd.randint(4, 8))
        for s in range(p["sentences"]):
            if s % 6 == 5:
                body.parts.append(f"\n== {' '.join(rnd.sample(common, 2))} ==\n")
            body.words(pool, rnd.randint(3, 7))
            for _ in range(p["concept_links"]):
                r = rnd.randrange(R)
                target = concept[t][r]
                body.words(role_words[r], 1)
                form = rnd.random()
                if form < 0.6:
                    body.link(target.title, names[target.page_id], target.page_id)
                elif form < 0.7:
                    body.link(unnormalised(target.title), None, target.page_id)
                elif form < 0.8:
                    body.link(target.title, None, target.page_id, fragment="History")
                elif form < 0.9 and target.page_id in aliases:
                    body.link(rnd.choice(aliases[target.page_id]), names[target.page_id],
                              target.page_id)
                else:
                    body.link(target.title, None, target.page_id)
                body.words(role_words[r], 1)
                body.words(topic_words[t], 2)
            if rnd.random() < p["cross_links"]:
                other = rnd.choice(articles)
                body.link(other.title, None, other.page_id)
            if rnd.random() < p["dead_links"]:
                body.link(rnd.choice(dead), rnd.choice((None, rnd.choice(common))), None)
            if rnd.random() < p["mentions"]:
                body.self_mention()
            if rnd.random() < p["mentions"] / 2:
                body.near_mention()
            for _ in range(int(p["markup"]) + (rnd.random() < p["markup"] % 1)):
                body.markup(poison)
            body.words(pool, rnd.randint(3, 7))
            body.parts.append(".")
        if rnd.random() < 0.1:
            body.link(page.title, None, page.page_id)  # self-link: no edge, no mention
        body.link(f"Category:{common[t % len(common)].capitalize()}", None, None)
        page.text = body.finish()
        page.std, page.heur = body.std, body.heur

    rnd.shuffle(pages)
    with open(out_dir / "dump.xml", "w", encoding="utf-8", newline="\n") as out:
        out.write('<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" xml:lang="en">\n'
                  "  <siteinfo>\n    <sitename>Benchwiki</sitename>\n  </siteinfo>\n")
        out.write("".join(_page_xml(page, 10_000 + i) for i, page in enumerate(pages)))
        out.write("</mediawiki>\n")

    discards_by_rule = Counter(page.rule for page in pages if page.rule)
    kept = [page for page in pages if page.rule is None]

    # Analogy questions over concept tokens (the planted topic x role grid),
    # padded with topic-word questions, and similarity pairs over link surfaces.
    questions = [": concepts"]
    for t1 in range(K):
        for t2 in range(K):
            if t1 != t2:
                questions.append(" ".join(f"wiki_{concept[t][r].page_id}"
                                          for t, r in ((t1, 0), (t1, 1), (t2, 0), (t2, 1))))
    grid = len(questions) - 1
    questions.append(": words")
    while len(questions) - 2 < p["questions"]:
        questions.append(" ".join(rnd.choice(topic_words[rnd.randrange(K)]) for _ in range(4)))
    (out_dir / "questions.txt").write_text("\n".join(questions) + "\n", encoding="utf-8")

    items = [(names[c.page_id], topic_of[c.page_id]) for row in concept for c in row]
    items += [(w, t) for t in range(K) for w in topic_words[t][:6]]
    # The link baseline scores concepts only, so its pairs are mostly concept surfaces.
    link_items = items[:2 * K] + items[2 * K::8]
    for folder, n_pairs, pool in (("pairs", p["pairs"], items),
                                  ("link_pairs", p["link_pairs"], link_items)):
        (out_dir / folder).mkdir()
        for name, sep in (("topics.csv", ","), ("mixed.tsv", "\t")):
            rows = []
            for _ in range(n_pairs):
                (a, ta), (b, tb) = rnd.sample(pool, 2)
                score = rnd.uniform(6, 10) if ta == tb else rnd.uniform(0, 4)
                rows.append(f"{a}{sep}{b}{sep}{score:.1f}")
            (out_dir / folder / name).write_text("\n".join(rows) + "\n", encoding="utf-8")

    return {
        "pages_seen": len(pages),
        "pages_kept": len(kept),
        "discards": dict(sorted(discards_by_rule.items())),
        "redirect_cycles": 1,
        "redirect_dangling": dangling,
        "kept": [{"id": page.page_id, "std": page.std, "heur": page.heur} for page in kept],
        "explicit_anchors": ledger.explicit,
        "heuristic_mentions": ledger.mentions,
        "graph_pages": len(kept),
        "graph_edges": len(ledger.edges),
        "edges": sorted(ledger.edges),
        "anchor_counts": sorted([s, i, n] for (s, i), n in ledger.anchors.items()),
        "clusters": [[w for w in topic_words[t]] for t in range(K)],
        "concept_grid": [[c.page_id for c in row] for row in concept],
        "concept_questions": grid,
        "role_words": role_words,
        "dump_bytes": (out_dir / "dump.xml").stat().st_size,
    }


def _write_vectors(path: Path, tokens: list[str], matrix: np.ndarray) -> np.ndarray:
    """Text-format vector file of four-decimal values; returns the matrix it states."""
    matrix = np.round(matrix, 4) + 0.0  # + 0.0 turns -0.0 into 0.0
    lines = [f"{len(tokens)} {matrix.shape[1]}"]
    lines += [tok + " " + " ".join(map(repr, row)) for tok, row in zip(tokens, matrix.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return matrix


def make_published(p: dict, rng: np.random.Generator, words: Words, out_dir: Path) -> dict:
    """Two planted vector sets, their analogy answer key, a large sense index,
    similarity datasets and a large link graph over one concept-id universe."""
    V, D, I, J = p["rows"], p["dim"], p["entities"], p["relations"]
    # Link graph: pages in contiguous communities, most out-links inside them.
    n_pages, k = p["graph_pages"], p["out_links"]
    page_ids = np.sort(rng.choice(np.arange(1, 40 * n_pages), n_pages, replace=False))
    community = np.arange(n_pages) * p["communities"] // n_pages
    lo = np.searchsorted(community, community)
    size = np.searchsorted(community, community, side="right") - lo
    picks = np.concatenate(
        (lo[:, None] + (rng.random((n_pages, k)) * size[:, None]).astype(np.int64),
         rng.integers(0, n_pages, (n_pages, k // 4))), axis=1)
    picks.sort(axis=1)
    keep = np.ones(picks.shape, dtype=bool)
    keep[:, 1:] = picks[:, 1:] != picks[:, :-1]
    keep &= picks != np.arange(n_pages)[:, None]
    indptr_arr = np.concatenate(([0], np.cumsum(keep.sum(axis=1)))).astype(np.int64)
    indices = page_ids[picks[keep]]
    indices_arr = indices.astype(np.int64)
    np.savez(out_dir / "graph.npz", pages=page_ids, indptr=indptr_arr, indices=indices_arr)
    (out_dir / "graph.npz.json").write_text(json.dumps(
        {"edge_count": int(indices_arr.size), "page_count": int(n_pages)}, indent=2,
        sort_keys=True) + "\n", encoding="utf-8")

    # Tokens: an entity x relation grid (exactly solvable analogies), concept rows
    # drawn from the graph pages, filler words and two all-zero rows.
    n_concepts = p["concepts"]
    concept_ids = rng.choice(page_ids, n_concepts, replace=False)
    grid = [[words.new() for _ in range(J)] for _ in range(I)]
    grid_tokens = [tok for row in grid for tok in row]
    concept_tokens = [f"wiki_{c}" for c in concept_ids]
    n_fill = V - len(grid_tokens) - n_concepts
    filler = words.many(n_fill)
    universe = grid_tokens + concept_tokens + filler
    sets = {}
    truth = {}
    for name, drop in (("pub_a", 0.0), ("pub_b", 0.05)):
        x = rng.normal(size=(I, D))
        r = rng.normal(size=(J, D))
        rows = {tok: x[i] + r[j] for i, row in enumerate(grid) for j, tok in enumerate(row)}
        others = concept_tokens + filler
        kept_others = [t for t in others if rng.random() >= drop]
        for tok in kept_others:
            rows[tok] = rng.normal(size=D) * 1.4
        for tok in filler[:2]:
            if tok in rows:
                rows[tok] = np.zeros(D)
        # Grid tokens cluster near the top ranks, so bucket caps cut through them.
        priority = rng.random(len(universe))
        priority[:len(grid_tokens)] *= 0.15
        order = [universe[k] for k in np.argsort(priority) if universe[k] in rows]
        truth[name] = _write_vectors(out_dir / f"{name}.txt", order,
                                     np.vstack([rows[t] for t in order]))
        sets[name] = order
    np.savez(out_dir / "truth.npz", graph_pages=page_ids, graph_indptr=indptr_arr,
             graph_indices=indices_arr, **truth)

    # Questions: solvable ones, unsolvable ones (a wrong d ranked after the true d
    # in both sets, so the true d always outscores it), and out-of-vocabulary ones.
    rank = {name: {t: k for k, t in enumerate(order)} for name, order in sets.items()}
    solvable, unsolvable = [], []
    while len(solvable) < p["questions"]:
        i1, i2 = rng.choice(I, 2, replace=False)
        j1, j2 = rng.choice(J, 2, replace=False)
        solvable.append((grid[i1][j1], grid[i1][j2], grid[i2][j1], grid[i2][j2]))
    for a, b, c, d in solvable[:p["unsolvable"]]:
        later = [t for t in grid_tokens
                 if t not in (a, b, c, d) and all(rank[s][t] > rank[s][d] for s in sets)]
        if later:
            unsolvable.append((a, b, c, later[int(rng.integers(len(later)))]))
    missing = [(a, b, c, words.new()) for a, b, c, _ in solvable[-p["unsolvable"]:]]
    lines = [": grid"] + [" ".join(q) for q in solvable]
    lines += [": wrong"] + [" ".join(q) for q in unsolvable]
    lines += [": missing"] + [" ".join(q) for q in missing]
    (out_dir / "pub_questions.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    questions = [(q, True) for q in solvable] + [(q, False) for q in unsolvable + missing]
    key: dict = {"alone": {}, "commons": {}}
    for cap in p["buckets"]:
        found = {s: [all(t in rank[s] and rank[s][t] < cap for t in q) for q, _ in questions]
                 for s in sets}
        for s in sets:
            key["alone"].setdefault(s, []).append(
                [sum(found[s]), sum(f and ok for f, (_, ok) in zip(found[s], questions))])
        common = [all(found[s][k] for s in sets) for k in range(len(questions))]
        key["commons"][str(cap)] = [sum(common),
                                    sum(f and ok for f, (_, ok) in zip(common, questions))]

    # Sense index: each surface has a planted winner (some split over two rows
    # that the loader must sum, some tied with a larger page id) and losers.
    winners: dict[str, int] = {}
    rows_out: list[str] = []
    wanted = np.concatenate((concept_ids, rng.choice(page_ids, p["senses"] - n_concepts)))
    for pid in wanted.tolist():
        surface = words.new() if rng.random() < 0.7 else f"{words.new()} {words.new()}"
        count = int(rng.integers(4, 60))
        winners[surface] = pid
        if rng.random() < 0.2:
            rows_out += [f"{surface}\t{pid}\t{count - 2}", f"{surface}\t{pid}\t2"]
        else:
            rows_out.append(f"{surface}\t{pid}\t{count}")
        for loser in rng.choice(page_ids, int(rng.integers(0, 3)), replace=False).tolist():
            if loser == pid:
                continue
            tie = rng.random() < 0.2 and loser > pid
            rows_out.append(f"{surface}\t{loser}\t{count if tie else int(rng.integers(1, count))}")
    order = rng.permutation(len(rows_out))
    (out_dir / "senses.tsv").write_text("\n".join(rows_out[k] for k in order) + "\n",
                                        encoding="utf-8")

    # Similarity datasets: concept surfaces, plain words and unknown words, with
    # relatedness that follows set A's cosine plus noise.
    surfaces = [s for s in winners] + filler[: len(winners) // 4]
    unit_a = truth["pub_a"] / np.maximum(np.linalg.norm(truth["pub_a"], axis=1), 1e-12)[:, None]
    pub_dir = out_dir / "pub_pairs"
    pub_dir.mkdir()
    for d in range(3):
        rows = []
        for _ in range(p["pub_pairs"]):
            a, b = (surfaces[int(k)] for k in rng.choice(len(surfaces), 2, replace=False))
            if rng.random() < 0.03:
                b = words.new()
            ta = f"wiki_{winners[a]}" if a in winners else a
            tb = f"wiki_{winners[b]}" if b in winners else b
            if ta in rank["pub_a"] and tb in rank["pub_a"]:
                cos = float(unit_a[rank["pub_a"][ta]] @ unit_a[rank["pub_a"][tb]])
            else:
                cos = float(rng.uniform(-1, 1))
            score = 5 * (cos + 1) + float(rng.normal(0, 1.5))
            rows.append(f"{a}\t{b}\t{score:.2f}")
        (pub_dir / f"set{d}.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return {"buckets": list(p["buckets"]), "answer_key": key, "winners": winners,
            "sets": ["pub_a", "pub_b"]}


def generate(params: dict, seed: int, out_dir: Path) -> dict:
    """Write all inputs for one workload into ``out_dir``; return the ledger."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rnd = random.Random(seed)
    words = Words(rnd)
    ledger = {"seed": seed, "dump": make_dump(params["dump"], rnd, words, out_dir)}
    if params.get("published"):
        rng = np.random.default_rng(seed)
        ledger["published"] = make_published(params["published"], rng, words, out_dir)
    with open(out_dir / "ledger.json", "w", encoding="utf-8") as out:
        json.dump(ledger, out)
    return ledger
