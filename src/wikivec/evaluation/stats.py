"""Rank correlation with proper tie handling.

Spearman's coefficient is computed as the Pearson correlation of average
(fractional) ranks, which stays correct in the presence of ties where the
popular 6*sum(d^2) shortcut does not.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rho of two equal-length sequences (n >= 2).

    A constant sequence has zero rank variance, which leaves the coefficient
    undefined; that case returns NaN.
    """
    # Imported here: scipy.stats takes about half a second to import, and only
    # similarity evaluation ranks anything.
    from scipy.stats import rankdata

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if x.size != y.size:
        raise ValueError("sequences must have equal length")
    if x.size < 2:
        raise ValueError("need at least two observations")
    # Tied values share the mean of the 1-based ranks they occupy.
    rx, ry = rankdata(x), rankdata(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return float("nan")
    return float((dx @ dy) / np.sqrt(sxx * syy))
