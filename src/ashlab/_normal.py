"""Standard-normal CDF and quantile (inverse CDF) kernels.

The quantile is Wichura's AS241 PPND16 (Appl. Statist. 37:477-484,
1988): one rational polynomial for |p - 0.5| <= 0.425, and two in
r = sqrt(-log(min(p, 1-p))) for the tails (r <= 5 and r > 5). The CDF is
0.5 * erfc(-x/sqrt(2)), with Cody's three-branch rational erfc (Math.
Comp. 23:631-637, 1969); its tails come from erfc directly, so no
probability is ever formed as 1 - p. Both are rational polynomials plus
log, sqrt and exp, with no special-function dependency and no
per-element Python call.

Accuracy contract: norm_ppf has absolute error below 1e-9 over
[2^-54, 1 - 2^-53] (measured: 5e-15) and norm_cdf is relatively
accurate to 2e-15 wherever its value is a normal float (x >= -37).

Both kernels walk the input in the package's row blocks
(`tensor._row_blocks`) into one preallocated output, so the temporaries
stay in cache. Every operation is elementwise, so a value does not
depend on the block it falls in: whole and piecewise evaluation give the
same bits. The Z-table and gelu route through the two functions, and
the random-normal sampler (`tensor.RngState.normal`) calls `_ppf_block`
on each block of its uniform draws, so every Gaussian quantity in the
package shares one bit-reproducible code path.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# AS241 PPND16, highest degree first: numerator and denominator of the
# central branch (in r = 0.180625 - q^2), the r <= 5 tail (in r - 1.6)
# and the r > 5 tail (in r - 5). Every denominator ends in 1.
_PPF_CENTRAL = (
    (2.5090809287301226727e+03, 3.3430575583588128105e+04, 6.7265770927008700853e+04,
     4.5921953931549871457e+04, 1.3731693765509461125e+04, 1.9715909503065514427e+03,
     1.3314166789178437745e+02, 3.3871328727963666080e+00),
    (5.2264952788528545610e+03, 2.8729085735721942674e+04, 3.9307895800092710610e+04,
     2.1213794301586595867e+04, 5.3941960214247511077e+03, 6.8718700749205790830e+02,
     4.2313330701600911252e+01, 1.0),
)
_PPF_NEAR_TAIL = (
    (7.74545014278341407640e-04, 2.27238449892691845833e-02, 2.41780725177450611770e-01,
     1.27045825245236838258e+00, 3.64784832476320460504e+00, 5.76949722146069140550e+00,
     4.63033784615654529590e+00, 1.42343711074968357734e+00),
    (1.05075007164441684324e-09, 5.47593808499534494600e-04, 1.51986665636164571966e-02,
     1.48103976427480074590e-01, 6.89767334985100004550e-01, 1.67638483018380384940e+00,
     2.05319162663775882187e+00, 1.0),
)
_PPF_FAR_TAIL = (
    (2.01033439929228813265e-07, 2.71155556874348757815e-05, 1.24266094738807843860e-03,
     2.65321895265761230930e-02, 2.96560571828504891230e-01, 1.78482653991729133580e+00,
     5.46378491116411436990e+00, 6.65790464350110377720e+00),
    (2.04426310338993978564e-15, 1.42151175831644588870e-07, 1.84631831751005468180e-05,
     7.86869131145613259100e-04, 1.48753612908506148525e-02, 1.36929880922735805310e-01,
     5.99832206555887937690e-01, 1.0),
)

# Cody's erfc, highest degree first; the denominators are monic.
# |y| <= 0.46875: erf(y) = y * P(y^2)/Q(y^2).
_ERF_SMALL = (
    (1.85777706184603153e-01, 3.16112374387056560e+00, 1.13864154151050156e+02,
     3.77485237685302021e+02, 3.20937758913846947e+03),
    (1.0, 2.36012909523441209e+01, 2.44024637934444173e+02, 1.28261652607737228e+03,
     2.84423683343917062e+03),
)
# 0.46875 < |y| <= 4: erfc(y) = exp(-y^2) * P(y)/Q(y).
_ERFC_MID = (
    (2.15311535474403846e-08, 5.64188496988670089e-01, 8.88314979438837594e+00,
     6.61191906371416295e+01, 2.98635138197400131e+02, 8.81952221241769090e+02,
     1.71204761263407058e+03, 2.05107837782607147e+03, 1.23033935479799725e+03),
    (1.0, 1.57449261107098347e+01, 1.17693950891312499e+02, 5.37181101862009858e+02,
     1.62138957456669019e+03, 3.29079923573345963e+03, 4.36261909014324716e+03,
     3.43936767414372164e+03, 1.23033935480374942e+03),
)
# |y| > 4: erfc(y) = exp(-y^2)/y * (1/sqrt(pi) - u*P(u)/Q(u)), u = 1/y^2.
_ERFC_TAIL = (
    (1.63153871373020978e-02, 3.05326634961232344e-01, 3.60344899949804439e-01,
     1.25781726111229246e-01, 1.60837851487422766e-02, 6.58749161529837803e-04),
    (1.0, 2.56852019228982242e+00, 1.87295284992346725e+00, 5.27905102951428412e-01,
     6.05183413124413191e-02, 2.33520497626869185e-03),
)
_ERF_SPLIT = 0.46875
_INV_SQRT_PI = 5.6418958354775628695e-01
# erfc(y) underflows to 0 beyond y = 27.3; clamping there keeps +-inf
# input away from inf - inf in the exp(-y^2) split.
_ERFC_YMAX = 28.0


def _ratio(coeffs, x: np.ndarray) -> np.ndarray:
    """num(x)/den(x) by Horner's rule, coefficients highest degree first."""
    # The first step is x*c0 + c1, which has the bits of c0*x + c1:
    # IEEE multiplication commutes exactly.
    num_c, den_c = coeffs
    num = np.multiply(x, num_c[0])
    num += num_c[1]
    den = np.multiply(x, den_c[0])
    den += den_c[1]
    for a, b in zip(num_c[2:], den_c[2:]):
        num *= x
        num += a
        den *= x
        den += b
    num /= den
    return num


def _blocked(kernel, arr: np.ndarray) -> np.ndarray:
    flat = arr.reshape(-1)
    out = np.empty(flat.size)
    # The kernels make about ten block-sized temporaries: anything larger
    # than one block is walked (norm_ppf ran 1.3x slower whole at 2^17).
    for block in tensor._row_blocks((flat, out), whole_elems=tensor._BLOCK_ELEMS):
        kernel(*block)
    return out.reshape(arr.shape)


def _exp_neg_sq(y: np.ndarray) -> np.ndarray:
    """exp(-y^2) as exp(-s^2) * exp(-(y-s)(y+s)), s = trunc(16y)/16 (Cody)."""
    s = np.trunc(y * 16.0) / 16.0
    out = np.exp(-(s * s))
    out *= np.exp(-((y - s) * (y + s)))
    return out


def _erfc_block(y: np.ndarray, out: np.ndarray) -> None:
    # The |y| <= 0.46875 branch runs on the whole block (clipped, so it
    # stays finite) and the rest is gathered by index and overwritten.
    ys = np.clip(y, -_ERF_SPLIT, _ERF_SPLIT)
    np.multiply(ys, _ratio(_ERF_SMALL, ys * ys), out=out)
    np.subtract(1.0, out, out=out)
    big = np.flatnonzero(np.abs(y) > _ERF_SPLIT)
    if big.size == 0:
        return
    yb = y[big]
    a = np.minimum(np.abs(yb), _ERFC_YMAX)
    mid = a <= 4.0
    if mid.all():
        r = _ratio(_ERFC_MID, a)
    else:
        r = np.empty_like(a)
        r[mid] = _ratio(_ERFC_MID, a[mid])
        tail = ~mid
        at = a[tail]
        u = 1.0 / (at * at)
        r[tail] = (_INV_SQRT_PI - u * _ratio(_ERFC_TAIL, u)) / at
    r *= _exp_neg_sq(a)
    out[big] = np.where(yb < 0.0, 2.0 - r, r)


def _cdf_block(x: np.ndarray, out: np.ndarray) -> None:
    _erfc_block(-x / _SQRT2, out)
    out *= 0.5


def _ppf_block(p: np.ndarray, out: np.ndarray) -> None:
    # The central branch runs on the whole block (finite for every p in
    # (0, 1)) and the tails are gathered by index and overwritten.
    q = p - 0.5
    np.multiply(q, _ratio(_PPF_CENTRAL, 0.180625 - q * q), out=out)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size == 0:
        return
    pt = p[tail]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    near = r <= 5.0
    if near.all():
        z = _ratio(_PPF_NEAR_TAIL, r - 1.6)
    else:
        z = np.empty_like(r)
        z[near] = _ratio(_PPF_NEAR_TAIL, r[near] - 1.6)
        far = ~near
        z[far] = _ratio(_PPF_FAR_TAIL, r[far] - 5.0)
    out[tail] = np.copysign(z, q[tail])


def norm_cdf(x):
    """P(Z <= x) for Z ~ N(0,1), elementwise: 0.5 * erfc(-x/sqrt(2))."""
    arr = np.asarray(x, dtype=np.float64)
    out = _blocked(_cdf_block, arr)
    return float(out) if out.ndim == 0 else out


def norm_pdf(x):
    """Standard normal density, elementwise."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.exp(-0.5 * arr * arr) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def norm_ppf(p):
    """Quantile of N(0,1): the z with norm_cdf(z) = p, for p in (0,1).

    Absolute error below 1e-9 over [2^-54, 1 - 2^-53], the range of the
    package's uniform draws (measured: 5e-15). Raises ValueError for any
    p outside (0, 1), NaN included.
    """
    arr = np.asarray(p, dtype=np.float64)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    out = _blocked(_ppf_block, arr)
    return float(out) if out.ndim == 0 else out
