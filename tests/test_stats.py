"""Rank statistics: the rank correlation against an exact oracle."""

import math
import random

import pytest

from oracles import spearman_fraction
from wikivec.evaluation.stats import spearman


def test_spearman_perfect_and_inverted():
    x = [12.0, -3.0, 7.5, 0.0, 99.0]
    assert spearman(x, x) == 1.0
    assert spearman(x, [-v for v in x]) == -1.0


def test_spearman_monotone_transform_is_exactly_one():
    x = [1.0, 2.0, 5.0, 9.0]
    y = [math.exp(v) for v in x]
    assert spearman(x, y) == 1.0


def test_spearman_hand_tie_case():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [10.0, 10.0, 30.0, 40.0]
    # ranks(y) = [1.5, 1.5, 3, 4]; Pearson of ranks against [1,2,3,4].
    want = float(spearman_fraction(x, y))
    got = spearman(x, y)
    assert got == pytest.approx(want, abs=1e-15)
    assert 0.9 < got < 1.0


def test_spearman_matches_fraction_oracle_on_random_data():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 25)
        x = [float(rng.randint(-4, 4)) for _ in range(n)]
        y = [float(rng.randint(-4, 4)) for _ in range(n)]
        want = spearman_fraction(x, y)
        got = spearman(x, y)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == pytest.approx(want, abs=1e-12)


def test_spearman_zero_variance_is_nan():
    assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    assert math.isnan(spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))


def test_spearman_input_validation():
    with pytest.raises(ValueError, match="length"):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="two"):
        spearman([1.0], [1.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        spearman([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0])
