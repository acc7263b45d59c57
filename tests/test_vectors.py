"""VectorSet queries and the text interchange format."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import read_vector_text, top_k_cosine
from wikivec import vectors
from wikivec.evaluation.analogy import eval_analogy, eval_analogy_commons
from wikivec.vectors import NotInVocabulary, VectorSet, load_text, save_text


def _basis_set(frequency_ranked=False):
    return VectorSet(
        ["east", "north", "up", "northeast", "origin"],
        np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
        ]),
        frequency_ranked=frequency_ranked,
    )


def test_constructor_validation():
    with pytest.raises(ValueError, match="2-D"):
        VectorSet(["a"], np.zeros(3))
    with pytest.raises(ValueError, match="one row per token"):
        VectorSet(["a", "b"], np.zeros((1, 3)))
    with pytest.raises(ValueError, match="duplicate"):
        VectorSet(["a", "a"], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="whitespace"):
        VectorSet(["a b"], np.zeros((1, 3)))
    with pytest.raises(ValueError, match="empty"):
        VectorSet([""], np.zeros((1, 3)))


def test_lookup_and_membership():
    vset = _basis_set()
    assert len(vset) == 5
    assert vset.dim == 3
    assert "east" in vset and "west" not in vset
    assert vset.row("north") == 1
    assert np.array_equal(vset.get("up"), [0.0, 0.0, 1.0])
    with pytest.raises(NotInVocabulary) as err:
        vset.get("west")
    assert err.value.tokens == ("west",)


def test_cosine_hand_values():
    vset = _basis_set()
    assert vset.cosine("east", "north") == pytest.approx(0.0, abs=1e-15)
    assert vset.cosine("east", "east") == pytest.approx(1.0, abs=1e-15)
    assert vset.cosine("east", "northeast") == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    # Zero-norm rows normalise to zero rather than NaN.
    assert vset.cosine("origin", "east") == 0.0


def test_nearest_ranks_and_skips_zero_rows():
    vset = _basis_set()
    hits = vset.nearest(np.array([1.0, 0.1, 0.0]), k=10)
    assert [t for t, _ in hits] == ["east", "northeast", "north", "up"]
    assert "origin" not in [t for t, _ in hits]


def test_nearest_tie_breaks_toward_earlier_token():
    vset = VectorSet(["b_first", "a_second"], np.array([[1.0, 0.0], [1.0, 0.0]]))
    hits = vset.nearest(np.array([2.0, 0.0]), k=1)
    assert hits[0][0] == "b_first"


def test_nearest_exclusions_and_validation():
    vset = _basis_set()
    hits = vset.nearest(np.array([1.0, 0.0, 0.0]), k=2, exclude=["east"])
    assert hits[0][0] == "northeast"
    with pytest.raises(ValueError, match="zero-norm"):
        vset.nearest(np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        vset.nearest(np.ones(4))
    with pytest.raises(ValueError, match="k"):
        vset.nearest(np.ones(3), k=0)


def test_analogy_query_excludes_inputs():
    vset = VectorSet(
        ["man", "king", "woman", "queen"],
        np.array([
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
        ]),
    )
    assert vset.analogy_query("man", "king", "woman") == "queen"
    with pytest.raises(NotInVocabulary):
        vset.analogy_query("man", "king", "princess")


def test_frequency_ranked_guards_analogy_evaluation():
    plain = _basis_set(frequency_ranked=False)
    ranked = _basis_set(frequency_ranked=True)
    assert not plain.frequency_ranked
    with pytest.raises(ValueError, match="frequency"):
        eval_analogy(plain, [], [3])
    with pytest.raises(ValueError, match="frequency"):
        eval_analogy_commons([ranked, plain], [], [3])


@pytest.fixture()
def small_tiles(monkeypatch):
    """Score three rows per tile, so every query below crosses tiles."""
    monkeypatch.setattr(vectors, "_TILE", 3)


def _tokens(n):
    return [f"t{i}" for i in range(n)]


def test_equal_best_scores_in_two_tiles_go_to_the_earlier_token(small_tiles):
    # Rows 1 (first tile) and 4 (second tile) are the same best direction.
    matrix = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, -1.0],
                       [-1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    vset = VectorSet(_tokens(6), matrix)
    assert vset.nearest(np.array([3.0, 0.0]), k=1)[0][0] == "t1"
    assert [t for t, _ in vset.nearest(np.array([3.0, 0.0]), k=3)] == ["t1", "t4", "t5"]
    rows, scores = vset.top_rows(np.array([[1.0, 0.0], [1.0, 0.0]]), 1,
                                 np.array([[0], [1]]))
    assert rows[:, 0].tolist() == [1, 4]
    assert scores[:, 0].tolist() == [1.0, 1.0]


def test_excluded_token_in_a_later_tile_is_skipped(small_tiles):
    # Best t4 (second tile), then t7 (third tile), then t1 (first tile).
    matrix = np.array([[0.0, 1.0], [1.0, 1.0], [0.0, -1.0],
                       [-1.0, 0.0], [1.0, 0.0], [-1.0, -1.0],
                       [-1.0, 1.0], [3.0, 1.0], [0.0, 0.0]])
    vset = VectorSet(_tokens(9), matrix)
    query = np.array([1.0, 0.0])
    assert vset.nearest(query, k=1, exclude=["t4"])[0][0] == "t7"
    assert [t for t, _ in vset.nearest(query, k=2, exclude=["t7", "t4"])] == ["t1", "t0"]


def test_zero_rows_are_never_returned(small_tiles):
    # Every live row points away from the query, so a zero row (cosine 0)
    # would beat them all if it were scored.
    matrix = np.array([[0.0, 0.0], [-1.0, 0.5], [-1.0, -2.0],
                       [0.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    vset = VectorSet(_tokens(7), matrix)
    hits = vset.nearest(np.array([1.0, 0.0]), k=10)
    assert [t for t, _ in hits] == ["t2", "t1", "t4"]
    _, scores = vset.top_rows(np.array([[1.0, 0.0]]), 1, np.array([[1, 2, 4]]))
    assert scores[0, 0] == -np.inf


def test_nearest_matches_the_brute_force_oracle(small_tiles):
    rng = np.random.default_rng(21)
    for trial in range(60):
        n, dim = int(rng.integers(1, 40)), 4
        if trial % 2:
            # Signed basis rows and zero rows: each score is plus or minus one
            # query component, so equal scores tie exactly in both codes.
            matrix = np.zeros((n, dim))
            live = rng.random(n) < 0.85
            matrix[live, rng.integers(0, dim, size=live.sum())] = \
                rng.choice([-1.0, 1.0], size=live.sum())
            query = rng.integers(-3, 4, size=dim).astype(float)
            if not query.any():
                query[0] = 1.0
        else:
            matrix = rng.normal(size=(n, dim))
            query = rng.normal(size=dim)
        vset = VectorSet(_tokens(n), matrix)
        exclude = set(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
        k = int(rng.integers(1, n + 3))
        got = vset.nearest(query, k=k, exclude=[f"t{i}" for i in exclude])
        want = top_k_cosine(matrix.tolist(), query.tolist(), k, exclude)
        assert [t for t, _ in got] == [f"t{i}" for i, _ in want]
        assert [s for _, s in got] == pytest.approx([s for _, s in want], abs=1e-12)


def test_save_load_round_trip_with_header(tmp_path):
    vset = _basis_set(frequency_ranked=True)
    path = tmp_path / "vecs.txt"
    save_text(vset, path)
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first == "5 3"
    loaded = load_text(path)
    assert loaded.tokens == vset.tokens
    assert loaded.frequency_ranked
    assert np.array_equal(loaded.matrix, vset.matrix)


def test_save_load_round_trip_without_header(tmp_path):
    vset = _basis_set()
    path = tmp_path / "vecs.txt"
    save_text(vset, path, header=False)
    loaded = load_text(path)
    assert loaded.tokens == vset.tokens
    assert np.array_equal(loaded.matrix, vset.matrix)


def test_values_written_with_six_significant_digits(tmp_path):
    vset = VectorSet(["pi"], np.array([[3.14159265358979, -0.000123456789]]))
    path = tmp_path / "pi.txt"
    save_text(vset, path, header=False)
    assert path.read_text(encoding="utf-8") == "pi 3.14159 -0.000123457\n"


def test_six_digit_format_is_idempotent_after_first_quantisation(tmp_path):
    rng = np.random.default_rng(8)
    vset = VectorSet([f"t{i}" for i in range(20)], rng.normal(size=(20, 7)))
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_text(vset, p1)
    save_text(load_text(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_errors_carry_line_numbers(tmp_path):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("a 1 2 3\nb 1 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        load_text(ragged)

    dup = tmp_path / "dup.txt"
    dup.write_text("a 1 2\na 3 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: duplicate"):
        load_text(dup)

    badfloat = tmp_path / "badfloat.txt"
    badfloat.write_text("a 1 2\nb 1 oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2: bad float"):
        load_text(badfloat)

    for value in ("nan", "inf", "-Infinity"):
        nonfinite = tmp_path / "nonfinite.txt"
        nonfinite.write_text(f"b 1 2\na {value} 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="nonfinite.txt: line 2: non-finite"):
            load_text(nonfinite)

    short = tmp_path / "short.txt"
    short.write_text("3 2\na 1 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="declares 3"):
        load_text(short)

    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_text(empty)


def test_header_detection_requires_exactly_two_integers(tmp_path):
    # Two-integer first line: header.  Anything else on line one is data.
    with_header = tmp_path / "with_header.txt"
    with_header.write_text("2 3\na 1 2 3\nb 4 5 6\n", encoding="utf-8")
    assert load_text(with_header).tokens == ("a", "b")

    word_first = tmp_path / "word_first.txt"
    word_first.write_text("alpha 7\nbeta 8\n", encoding="utf-8")
    loaded = load_text(word_first)
    assert loaded.tokens == ("alpha", "beta")
    assert loaded.matrix.tolist() == [[7.0], [8.0]]

    floatish = tmp_path / "floatish.txt"
    floatish.write_text("1.5 2\n", encoding="utf-8")
    loaded = load_text(floatish)
    assert loaded.tokens == ("1.5",)
    assert loaded.matrix.tolist() == [[2.0]]


# --- text format: properties against the pure-Python reader -----------------

# Tokens: any printable text without whitespace, '#' and digits included.
vector_tokens = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
    min_size=1, max_size=6).filter(lambda t: t.split() == [t])
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def vector_sets(draw):
    dim = draw(st.integers(1, 5))
    tokens = draw(st.lists(vector_tokens, min_size=1, max_size=8, unique=True))
    rows = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                         min_size=len(tokens), max_size=len(tokens)))
    return VectorSet(tokens, np.array(rows, dtype=np.float64).reshape(len(tokens), dim))


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(vector_sets(), st.booleans())
@example(VectorSet(["12"], np.array([[3.0]])), False)
def test_save_load_keeps_tokens_and_six_digit_values(tmp_path_factory, vset, header):
    folder = tmp_path_factory.mktemp("roundtrip")
    first, second = folder / "first.txt", folder / "second.txt"
    if not header and vset.dim == 1 and _is_int(vset.tokens[0]):
        # Its first row would read back as a header: refused, nothing written.
        with pytest.raises(ValueError, match=re.escape(repr(vset.tokens[0]))):
            save_text(vset, first, header=header)
        assert not first.exists()
        return
    save_text(vset, first, header=header)
    loaded = load_text(first)
    assert loaded.tokens == vset.tokens
    want = [[float(f"{x:.6g}") for x in row] for row in vset.matrix.tolist()]
    assert loaded.matrix.tolist() == want
    assert read_vector_text(first) == (list(vset.tokens), want)
    save_text(loaded, second, header=header)
    assert second.read_bytes() == first.read_bytes()


@st.composite
def vector_file_texts(draw):
    """Valid files with mixed separators, line ends, indents and blank lines."""
    dim = draw(st.integers(1, 4))
    tokens = draw(st.lists(vector_tokens, min_size=1, max_size=6, unique=True))
    assume(dim != 1 or not _is_int(tokens[0]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"{len(tokens)} {dim}"] if draw(st.booleans()) else []
    for token in tokens:
        values = draw(st.lists(st.sampled_from(["0", "-1", "2.5", "1e-3", "+7", "-0.125",
                                                "3.14159", "1E4"]),
                               min_size=dim, max_size=dim))
        fields = [token, *values]
        line = draw(st.sampled_from(["", " ", "\t", "  "]))
        for field in fields:
            line += field + draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        lines.append(line)
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=80, deadline=None)
@given(vector_file_texts())
def test_load_reads_format_variants_as_the_reference_does(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("variants") / "vecs.txt"
    path.write_bytes(text.encode("utf-8"))
    tokens, rows = read_vector_text(path)
    loaded = load_text(path)
    assert list(loaded.tokens) == tokens
    assert loaded.matrix.tolist() == rows


@pytest.mark.parametrize("text", [
    "# 1 2\n#a 3 4\n",                    # '#' is part of a token, not a comment
    "2 2\r\n\r\nx\t1\t2\r\n  y 3 4\r\n",  # CRLF, blank line, tabs, indent
    "\n2 2\nx 1\n",                        # blank first line: "2 2" is a row
    "a 1_0 2\nb \u0661 3\n",                # values float() reads but np.loadtxt does not
])
def test_load_matches_the_reference_on_edge_files(tmp_path, text):
    path = tmp_path / "edge.txt"
    path.write_bytes(text.encode("utf-8"))
    tokens, rows = read_vector_text(path)
    loaded = load_text(path)
    assert list(loaded.tokens) == tokens
    assert loaded.matrix.tolist() == rows


@pytest.mark.parametrize("text, message", [
    ("a 1 2 3\nb 1 2\n", "line 2: expected 3 values, found 2"),
    ("2 3\na 1 2 3\nb 1 2\n", "line 3: expected 3 values, found 2"),
    ("2 3\na 1 2\nb 3 4\n", "line 2: expected 3 values, found 2"),
    ("a\n", "line 1: no vector values"),
    ("a 1\nb\n", "line 2: expected 1 values, found 0"),
    ("a 1 2\nb 1 oops\n", "line 2: bad float: could not convert string to float: 'oops'"),
    ("a 1 2\nb 1 0x1p3\n", "line 2: bad float: could not convert string to float: '0x1p3'"),
    ("b 1 2\na nan 1\n", "line 2: non-finite value (nan or inf)"),
    ("b 1 2\na 1e999 1\n", "line 2: non-finite value (nan or inf)"),
    ("a 1 2\nb 3 4\na 3 4\n", "line 3: duplicate token 'a'"),
    ("3 2\na 1 2\n", "header declares 3 vectors, file has 1"),
    ("1 2\na 1 2\nb 3 4\n", "header declares 1 vectors, file has 2"),
    ("\n  \n", "empty vector file"),
])
def test_malformed_files_raise_the_line_by_line_message(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_text(path)
    assert str(err.value) == f"{path}: {message}"


def test_well_formed_files_skip_the_line_by_line_reader(tmp_path, monkeypatch):
    def fail(path):
        raise AssertionError("line-by-line reader used on a well-formed file")

    monkeypatch.setattr(vectors, "_load_lines", fail)
    for header in (True, False):
        path = tmp_path / f"vecs-{header}.txt"
        save_text(_basis_set(), path, header=header)
        assert load_text(path).tokens == _basis_set().tokens
