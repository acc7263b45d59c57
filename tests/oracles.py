"""Independent reference implementations used to check the package.

Everything here is deliberately pure Python (math/fractions only, no numpy),
written straight from the definitions, and slow on purpose.  Test code
compares library results against these.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def log_sigmoid(x: float) -> float:
    # log(1/(1+e^-x)) = -log1p(e^-x); keep the exponent non-positive.
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def dot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(a * b for a, b in zip(u, v))


def neg_pair_loss(center_vec: Sequence[float], context_vec: Sequence[float],
                  negative_vecs: Sequence[Sequence[float]]) -> float:
    """-log s(u_ctx . v) - sum over noise of log s(-u_neg . v)."""
    loss = -log_sigmoid(dot(context_vec, center_vec))
    for neg in negative_vecs:
        loss += -log_sigmoid(-dot(neg, center_vec))
    return loss


def fd_gradients(input_vectors, output_vectors, center: int, context: int,
                 negatives: Sequence[int], eps: float = 1e-5):
    """Central finite differences of the pair loss for every touched row.

    Returns (grad_center, {row: grad_out_row}) as plain nested lists.
    Matrices are nested sequences; nothing is mutated.
    """
    inp = [list(row) for row in input_vectors]
    out = [list(row) for row in output_vectors]
    dim = len(inp[center])

    def loss() -> float:
        return neg_pair_loss(inp[center], out[context], [out[n] for n in negatives])

    grad_center = []
    for d in range(dim):
        keep = inp[center][d]
        inp[center][d] = keep + eps
        up = loss()
        inp[center][d] = keep - eps
        down = loss()
        inp[center][d] = keep
        grad_center.append((up - down) / (2 * eps))

    grad_out: dict[int, list[float]] = {}
    for row in {context, *negatives}:
        g = []
        for d in range(dim):
            keep = out[row][d]
            out[row][d] = keep + eps
            up = loss()
            out[row][d] = keep - eps
            down = loss()
            out[row][d] = keep
            g.append((up - down) / (2 * eps))
        grad_out[row] = g
    return grad_center, grad_out


def center_block_update(input_vectors, output_vectors, block: Sequence[Sequence[int]],
                        center: int, lr: float, live=None):
    """One center's skip-gram update over several pairs, from the definition.

    Row j of ``block`` is pair j: its context, then its negatives.  Each entry
    is scored against the pre-update center row and pre-update output rows, and
    contributes lr * (label - sigmoid(score)) with label 1 for the context and 0
    for a negative; an entry whose ``live`` flag is False contributes nothing.
    Contributions add up, so a row repeated anywhere in the block gets the sum.
    Returns (new input matrix, new output matrix, scores) as nested lists.
    """
    inp = [list(row) for row in input_vectors]
    out = [list(row) for row in output_vectors]
    v = list(inp[center])
    before = [list(row) for row in out]
    scores = []
    for j, pair in enumerate(block):
        pair_scores = []
        for col, row in enumerate(pair):
            score = dot(before[row], v)
            pair_scores.append(score)
            if live is not None and not live[j][col]:
                continue
            g = lr * ((1.0 if col == 0 else 0.0) - sigmoid(score))
            for d in range(len(v)):
                out[row][d] += g * v[d]
                inp[center][d] += g * before[row][d]
        scores.append(pair_scores)
    return inp, out, scores


def average_ranks_fraction(values: Sequence[float]) -> list[Fraction]:
    """1-based fractional ranks with tie averaging, exact arithmetic."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks: list[Fraction] = [Fraction(0)] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = Fraction(i + j, 2) + 1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def spearman_fraction(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rho via exact rational Pearson over average ranks.

    The single float rounding happens at the very end (one division and one
    square root), so the result is correct to the last ulp or two.
    """
    rx = average_ranks_fraction(x)
    ry = average_ranks_fraction(y)
    n = len(rx)
    mx = sum(rx, Fraction(0)) / n
    my = sum(ry, Fraction(0)) / n
    dx = [r - mx for r in rx]
    dy = [r - my for r in ry]
    num = sum((a * b for a, b in zip(dx, dy)), Fraction(0))
    sxx = sum((a * a for a in dx), Fraction(0))
    syy = sum((b * b for b in dy), Fraction(0))
    if sxx == 0 or syy == 0:
        return float("nan")
    return float(num) / math.sqrt(float(sxx) * float(syy))


def top_k_cosine(matrix, query: Sequence[float], k: int,
                 exclude=()) -> list[tuple[int, float]]:
    """Brute-force cosine top-k as (row, score) pairs, best first.

    Rows in ``exclude`` and zero rows are skipped; equal scores keep row order,
    because Python's sort is stable.
    """
    def norm(v):
        return math.sqrt(sum(a * a for a in v))

    qn = norm(query)
    scored = [(i, dot(row, query) / (norm(row) * qn)) for i, row in enumerate(matrix)
              if i not in exclude and norm(row) != 0.0]
    scored.sort(key=lambda pair: -pair[1])
    return scored[:k]


def analogy_predictions(tokens: Sequence[str], matrix,
                        questions) -> list[tuple[bool, bool]]:
    """Brute-force (found, correct) per question over a token/matrix table.

    ``matrix`` is any nested sequence of floats; ``questions`` yields
    (a, b, c, d) token 4-tuples.  Prediction: cosine argmax against
    b - a + c, excluding a/b/c and zero rows, first index on ties.
    """
    index = {t: i for i, t in enumerate(tokens)}
    rows = [list(r) for r in matrix]
    results = []
    for a, b, c, d in questions:
        if any(t not in index for t in (a, b, c, d)):
            results.append((False, False))
            continue
        va, vb, vc = rows[index[a]], rows[index[b]], rows[index[c]]
        query = [vb[k] - va[k] + vc[k] for k in range(len(va))]
        if not any(query):
            results.append((True, False))
            continue
        best = top_k_cosine(rows, query, 1, exclude={index[a], index[b], index[c]})
        results.append((True, bool(best) and best[0][0] == index[d]))
    return results


def most_frequent_sense(counts: Mapping[tuple[str, int], int]) -> dict[str, int]:
    """surface -> page id with the highest count; ties take the smaller id."""
    out: dict[str, int] = {}
    best: dict[str, tuple[int, int]] = {}
    for (surface, page_id), n in counts.items():
        cur = best.get(surface)
        if cur is None or n > cur[0] or (n == cur[0] and page_id < cur[1]):
            best[surface] = (n, page_id)
            out[surface] = page_id
    return out


def alias_implied_pmf(prob: Sequence[float], alias: Sequence[int]) -> list[float]:
    """Distribution an alias table actually samples from.

    Cell j is hit with probability 1/n; it yields j with prob[j] and
    alias[j] otherwise.
    """
    n = len(prob)
    pmf = [0.0] * n
    for j in range(n):
        pmf[j] += prob[j] / n
        pmf[alias[j]] += (1.0 - prob[j]) / n
    return pmf


def link_side_score(size_a: int, size_b: int, overlap: int, total: int) -> float:
    """Shared-neighbour score from set sizes alone, straight from the formula."""
    if size_a == 0 or size_b == 0 or overlap == 0:
        return 0.0
    bigger, smaller = max(size_a, size_b), min(size_a, size_b)
    if overlap == bigger:
        return 1.0
    denom = math.log(total) - math.log(smaller)
    if denom <= 0.0:
        return 0.0
    score = 1.0 - (math.log(bigger) - math.log(overlap)) / denom
    return min(1.0, max(0.0, score))


def link_sets(graph) -> tuple[frozenset[int], dict[int, frozenset[int]],
                             dict[int, frozenset[int]]]:
    """Page ids and each page's out-link and in-link page-id sets, read off a
    LinkGraph's CSR arrays (row ``i`` out-links, row ``n + i`` in-links)."""
    pages, indptr, indices = graph.pages.tolist(), graph.indptr.tolist(), graph.indices.tolist()
    n = len(pages)

    def side(first_row: int) -> dict[int, frozenset[int]]:
        return {page: frozenset(pages[j] for j in indices[indptr[first_row + i]:
                                                           indptr[first_row + i + 1]])
                for i, page in enumerate(pages)}

    return frozenset(pages), side(0), side(n)


def link_score(out_links: Mapping[int, frozenset[int]], in_links: Mapping[int, frozenset[int]],
               total: int, a: int, b: int) -> float:
    """Link similarity of pages ``a`` and ``b`` from their link sets."""
    sides = [link_side_score(len(links[a]), len(links[b]), len(links[a] & links[b]), total)
             for links in (in_links, out_links)]
    return (sides[0] + sides[1]) / 2.0


def resolve_redirects(articles: Mapping[str, int], redirects: Mapping[str, str]
                      ) -> tuple[dict[str, int], int, int]:
    """Title -> final article id, the number of redirect cycles, and the number
    of other redirects that reach no article, by walking every chain.

    Keys are canonical titles; a title that is an article is never followed.
    A redirect on a cycle is not dangling; one whose chain ends in a cycle or
    outside the titles is.
    """
    mapping = dict(articles)
    cycles: set[frozenset[str]] = set()
    dangling = 0
    for start in redirects:
        if start in articles:
            continue
        chain = [start]
        while chain[-1] in redirects and chain[-1] not in articles:
            following = redirects[chain[-1]]
            if following in chain:
                cycles.add(frozenset(chain[chain.index(following):]))
                break
            chain.append(following)
        else:
            if chain[-1] in articles:
                mapping[start] = articles[chain[-1]]
                continue
        if not any(start in cycle for cycle in cycles):
            dangling += 1
    return mapping, len(cycles), dangling


def matching_close(text: str, start: int, open_mark: str, close_mark: str) -> int:
    """Index just past the close balancing the open at ``start``; -1 if unbalanced.

    Steps one character at a time; an opener is tried before a closer at the
    same index.
    """
    depth = 0
    i = start
    while i < len(text):
        if text.startswith(open_mark, i):
            depth += 1
            i += len(open_mark)
        elif text.startswith(close_mark, i):
            depth -= 1
            i += len(close_mark)
            if depth == 0:
                return i
        else:
            i += 1
    return -1


def read_vector_text(path) -> tuple[list[str], list[list[float]]]:
    """Tokens and rows of a text vector file, read straight from the format.

    Lines end at LF, CRLF or CR, and fields are separated by any whitespace.
    Whitespace-only lines are skipped.  The first line is a ``<count> <dim>``
    header when it holds exactly two integers; every other non-blank line is a
    token followed by its values.  Raises ValueError for a file no row-for-row
    reading could accept (unequal or missing values, repeated tokens,
    non-finite values, a header count that does not match).
    """
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")

    def is_int(field: str) -> bool:
        try:
            int(field)
        except ValueError:
            return False
        return True

    header = None
    tokens: list[str] = []
    rows: list[list[float]] = []
    for number, line in enumerate(lines):
        fields = line.split()
        if not fields:
            continue
        if number == 0 and len(fields) == 2 and all(is_int(f) for f in fields):
            header = (int(fields[0]), int(fields[1]))
            continue
        tokens.append(fields[0])
        rows.append([float(f) for f in fields[1:]])
    dim = header[1] if header else len(rows[0]) if rows else 0
    if (dim == 0 or any(len(row) != dim for row in rows)
            or len(set(tokens)) != len(tokens)
            or not all(math.isfinite(x) for row in rows for x in row)
            or (header is not None and header[0] != len(tokens))):
        raise ValueError("malformed vector file")
    return tokens, rows


def encode_lines(data: bytes, index: Mapping[str, int]) -> list[list[int]]:
    """The in-vocabulary ids of each line of ``data``, lines with none dropped.

    A line ends at each ``\\n`` byte (a last line may lack one) and is decoded
    as UTF-8; a token is a maximal run of non-whitespace characters.
    """
    encoded = []
    start = 0
    while start <= len(data):
        end = data.find(b"\n", start)
        if end < 0:
            end = len(data)
        ids, token = [], ""
        for ch in data[start:end].decode("utf-8") + " ":
            if not ch.isspace():
                token += ch
                continue
            if token in index:
                ids.append(index[token])
            token = ""
        if ids:
            encoded.append(ids)
        start = end + 1
    return encoded
