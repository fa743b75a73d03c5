"""Percentile-threshold statistics.

Ties together the two routes for "keep the top k percent of a tensor":
the Gaussian route (threshold mu + z_k * sigma with z_k from the
standard-normal quantile, read from the tail so that small k keep their
relative accuracy) and the exact route (numpy's introselect on the
values' float64 bits read as integers, which order like the floats within
each sign). The exact route is the oracle the Gaussian route is
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
from .tensor import Tensor, check_number, moments, welford

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
        """The boundary mu + z * sigma (sigma floored at 1e-5) as a number to
        report. The keep rule is x - mu >= z * sigma (`gaussian_topk_mask`):
        adding mu back can round the boundary to a neighbouring float."""
        return self.mu + z * max(self.sigma, SIGMA_FLOOR)


@dataclass(frozen=True)
class SelectionMask:
    """Boolean keep-mask over a source tensor."""

    mask: np.ndarray
    kept: int


@dataclass(frozen=True)
class NormalityReport:
    skewness: float
    excess_kurtosis: float


def compute_stats(x: Tensor) -> InputStats:
    """Population mean and std over all elements."""
    n, mu, m2 = welford(x.data)
    return InputStats(mu=mu, sigma=math.sqrt(m2 / n), n=n)


def z_from_percentile(k: float) -> float:
    """z with P(Z >= z) = k/100 for Z ~ N(0,1); k is a percent in (0,100).

    Read as -norm_ppf(k/100), so a small k never passes through 1 - k/100.
    """
    k = check_number("percentile k", k, gt=0, lt=100)
    # 0.0 - z rather than -z, so that z(50) is +0.0 and not -0.0.
    return 0.0 - _normal.norm_ppf(k / 100.0)


def percentile_from_z(z: float) -> float:
    """Inverse of z_from_percentile: 100 * P(Z >= z) = 100 * norm_cdf(-z).

    Relatively accurate to 1e-14 for z up to 37, where the tail is 5.7e-298%.
    """
    return 100.0 * _normal.norm_cdf(-check_number("z", z))


def zscore(x: Tensor) -> Tensor:
    """(x - mu)/sigma; all-zero for constant input (sigma = 0)."""
    if x.size < 2:
        raise ValueError("zscore needs at least two elements")
    st = compute_stats(x)
    if st.sigma == 0.0:
        return Tensor._wrap(np.zeros(x.shape))
    return Tensor._wrap((x.data - st.mu) / st.sigma)


# ---------------------------------------------------------------------------
# Exact top-k selection (introselect oracle).
# ---------------------------------------------------------------------------

def kth_largest(values: Tensor | np.ndarray, m: int) -> float:
    """Value of the m-th largest element (1-based): the bits of
    `np.sort(values)[-m] + 0.0`, so a zero cut is +0.0.

    numpy's introselect runs on the float64 bits read as integers (1.4-1.6x
    faster than on the floats). Read as int64, sign-clear doubles keep their
    float order above every sign-set one; read as uint64, sign-set doubles
    sit above every other one in reverse float order. The view that ranks
    the cut nearer its top is used; if the pick has the other sign, the cut
    is that sign's remaining rank, partitioned in place below the pick.
    A Tensor is finite by invariant and not scanned; an array holding a NaN
    raises ValueError, as NaN has no rank.
    """
    if isinstance(values, Tensor):
        arr = values.data.reshape(-1)
    else:
        arr = np.asarray(values, dtype=np.float64).reshape(-1)
        if arr.size and np.isnan(arr.min()):
            raise ValueError("kth_largest: a NaN has no rank")
    n = arr.size
    m = check_number("m", m, integer=True, ge=1, le=n)
    # r ranks the cut from the view's top; edge is its lowest first-sign bits.
    r, view, edge = (m, np.int64, 0) if 2 * m <= n else (n - m + 1, np.uint64, 1 << 63)
    t = n - r
    part = np.partition(arr.view(view), t)
    if part[t] < edge:
        # Fewer than r first-sign values: the cut is the other sign's rank
        # left over, which sits on the copy's lower side.
        t = r - 1 - int(np.count_nonzero(part[t + 1:] >= edge))
        part[:n - r + 1].partition(t)
    return float(part[t].view(np.float64)) + 0.0


def topk_count(n: int, k: float) -> int:
    """Number of elements in the top-k percent: ceil(k*N/100), min 1."""
    k = check_number("percentile k", k, gt=0, le=100)
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
    cut = kth_largest(x, m)
    mask = data >= cut
    if np.count_nonzero(mask) > m:
        # Ties at the cut: keep those above it, then the lowest-index ties.
        np.greater(data, cut, out=mask)
        ties = np.flatnonzero(data == cut)[:m - int(np.count_nonzero(mask))]
        mask[ties] = True
    return SelectionMask(mask=mask.reshape(x.shape), kept=m)


def gaussian_topk_mask(x: Tensor, k: float) -> SelectionMask:
    """Keep-set of the Gaussian rule x - mu >= z_k * sigma over the whole
    array (sigma floored at 1e-5): the rule `activations.hard_ash` applies,
    so the mask is hard_ash's keep set of the flattened input."""
    st = compute_stats(x)
    mask = x.data - st.mu >= z_from_percentile(k) * max(st.sigma, SIGMA_FLOOR)
    return SelectionMask(mask=mask, kept=int(np.count_nonzero(mask)))


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
