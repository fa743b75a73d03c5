"""Percentile-threshold statistics.

Ties together the two routes for "keep the top k percent of a tensor":
the Gaussian route (threshold mu + z_k * sigma with z_k from the
standard-normal quantile table) and the exact route (quickselect on the
actual values). The exact route is the oracle the Gaussian route is
validated against. Also provides Z-score normalization and moment-based
normality diagnostics. Every mean and variance here comes from the one
statistics kernel, `tensor.moments` (whole-array via `tensor.welford`),
which reports constant input exactly: mu is the value and sigma is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _normal
from .tensor import Tensor, moments, welford

# Degenerate (constant) inputs report sigma = 0 but threshold with this
# floor so the keep/drop decision stays well defined.
SIGMA_FLOOR = 1e-5


@dataclass(frozen=True)
class InputStats:
    """Population mean/std of all elements of one input."""

    mu: float
    sigma: float
    n: int

    def threshold(self, z: float) -> float:
        """Keep-boundary mu + z * sigma, with sigma floored at 1e-5."""
        return self.mu + z * max(self.sigma, SIGMA_FLOOR)


@dataclass(frozen=True)
class SelectionMask:
    """Boolean keep-mask over a source tensor."""

    mask: np.ndarray
    kept: int

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask.reshape(-1))


@dataclass(frozen=True)
class NormalityReport:
    skewness: float
    excess_kurtosis: float


def compute_stats(x: Tensor) -> InputStats:
    """Population mean and std over all elements."""
    n, mu, m2 = welford(x.data)
    return InputStats(mu=mu, sigma=math.sqrt(m2 / n), n=n)


def z_from_percentile(k: float) -> float:
    """z with P(Z >= z) = k/100 for Z ~ N(0,1); k is a percent in (0,100)."""
    if not 0.0 < k < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {k}")
    return float(_normal.norm_ppf(1.0 - k / 100.0))


def percentile_from_z(z: float) -> float:
    """Inverse of z_from_percentile: 100 * P(Z >= z)."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    return 100.0 * (1.0 - _normal.norm_cdf(float(z)))


def zscore(x: Tensor) -> Tensor:
    """(x - mu)/sigma; all-zero for constant input (sigma = 0)."""
    if x.size < 2:
        raise ValueError("zscore needs at least two elements")
    st = compute_stats(x)
    if st.sigma == 0.0:
        return Tensor._wrap(np.zeros(x.shape))
    return Tensor._wrap((x.data - st.mu) / st.sigma)


# ---------------------------------------------------------------------------
# Exact top-k selection (quickselect oracle).
# ---------------------------------------------------------------------------

def _median3(a: float, b: float, c: float) -> float:
    if a > b:
        a, b = b, a
    return a if c <= a else (c if c <= b else b)


def kth_largest(values: np.ndarray, m: int) -> float:
    """Value of the m-th largest element (1-based) by quickselect.

    Three-way Hoare-style partitioning with a median-of-three pivot;
    average O(N) total work, done with vectorized passes.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if not 1 <= m <= arr.size:
        raise ValueError(f"m must be in [1, {arr.size}], got {m}")
    k = m
    while True:
        n = arr.size
        if n == 1:
            return float(arr[0])
        pivot = _median3(float(arr[0]), float(arr[n // 2]), float(arr[-1]))
        greater = arr[arr > pivot]
        ng = greater.size
        if k <= ng:
            arr = greater
            continue
        less = arr[arr < pivot]
        if k <= n - less.size:
            return pivot
        k -= n - less.size
        arr = less


def topk_count(n: int, k: float) -> int:
    """Number of elements in the top-k percent: ceil(k*N/100), min 1."""
    if not 0.0 < k <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {k}")
    # Guard against float dust pushing an exact multiple over the ceiling.
    return max(1, math.ceil(k * n / 100.0 - 1e-9))


def exact_topk_mask(x: Tensor, k: float) -> SelectionMask:
    """Keep exactly the m = ceil(k*N/100) largest elements.

    Ties at the cut value are broken by lower linear (row-major) index.
    """
    data = x.data.reshape(-1)
    m = topk_count(data.size, k)
    if m >= data.size:
        return SelectionMask(mask=np.ones(x.shape, dtype=bool), kept=data.size)
    cut = kth_largest(data, m)
    mask = data > cut
    short = m - int(mask.sum())
    if short > 0:
        ties = np.flatnonzero(data == cut)[:short]
        mask[ties] = True
    return SelectionMask(mask=mask.reshape(x.shape), kept=m)


def gaussian_topk_mask(x: Tensor, k: float, stats: InputStats | None = None) -> SelectionMask:
    """Keep-set of the Gaussian threshold rule x >= mu + z_k * sigma."""
    if not 0.0 < k < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {k}")
    st = stats if stats is not None else compute_stats(x)
    mask = x.data >= st.threshold(z_from_percentile(k))
    return SelectionMask(mask=mask, kept=int(mask.sum()))


# ---------------------------------------------------------------------------
# Normality diagnostics.
# ---------------------------------------------------------------------------

def normality_report(x: Tensor) -> NormalityReport:
    """Moment-based skewness and excess kurtosis of all elements."""
    if x.size < 100:
        raise ValueError(f"normality_report needs N >= 100, got {x.size}")
    n, _, d, m2 = moments(x.data.reshape(-1))
    var = m2[0] / n
    if var == 0.0:
        raise ValueError("normality_report is undefined for constant input (sigma = 0)")
    m3 = np.mean(d ** 3)
    m4 = np.mean(d ** 4)
    return NormalityReport(
        skewness=float(m3 / var ** 1.5),
        excess_kurtosis=float(m4 / (var * var) - 3.0),
    )
