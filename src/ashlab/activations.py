"""Activation zoo: classic baselines plus the percentile-adaptive family.

The adaptive family follows one derivation chain:

  hard form        x            if x - mu >= z*sigma, else 0
  step form        x * H(x - mu - z*sigma)
  smooth form      x * S(2*alpha*(x - mu - z*sigma))        (sigmoid gate)
  generalized      x * S(a*x + b)                            (swish at a=1, b=0)

mu and sigma are population statistics recomputed from the input on
every call, so the absolute threshold adapts to the input while z picks
the percentile being kept. The hard and step forms block every gradient
to z (a variable that appears only inside a comparison has derivative
zero); the smooth form makes z an ordinary trainable parameter.

Every function here takes its input and its parameters as autodiff
Variables or as constants (Tensors, arrays or numbers), through one code
path: the output is recorded on the tape of the first Variable among
them, and a call with no Variable builds no tape and returns a Tensor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from . import stats as st
from .autodiff import Variable
from .tensor import ShapeError, Tensor, _row_blocks, _row_step, _TreeSum, check_number, moments

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

STATS_MODES = ("per-sample", "per-channel")
GRAD_MODES = ("through-stats", "stop-stats")


# ---------------------------------------------------------------------------
# Parameter records (KINDS below maps each kind's JSON fields onto them).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AshParams:
    """Parameters of the adaptive family x*(leak + (1-leak)*S(2*alpha*(x - mu - z*sigma))).

    z_k is the threshold (trainable in the smooth and leaky forms); the
    fixed form derives it from the percentile k instead. With
    per_channel_z the layer owns one z per channel (`channels` sets the
    vector length, matching the input's last axis) instead of one scalar
    per layer.
    """

    z_k: float = 0.0
    alpha: float = 1.0
    stats_mode: str = "per-sample"
    grad_mode: str = "through-stats"
    trainable_alpha: bool = False
    per_channel_z: bool = False
    channels: int = 0
    leak: float = 0.0
    k: float = 50.0

    def __post_init__(self):
        check_number("z_k", self.z_k)
        check_number("alpha", self.alpha, gt=0)
        if self.stats_mode not in STATS_MODES:
            raise ValueError(f"stats_mode must be one of {STATS_MODES}")
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {GRAD_MODES}")
        check_number("channels", self.channels, integer=True, ge=1 if self.per_channel_z else 0)
        check_number("leak", self.leak, ge=0)
        check_number("k", self.k, gt=0, le=100)


@dataclass(frozen=True)
class GeneralizedSwishParams:
    """x * S(a*x + b); both a and b train unless frozen."""

    a: float = 1.0
    b: float = 0.0
    frozen: bool = False

    def __post_init__(self):
        check_number("a", self.a)
        check_number("b", self.b)


@dataclass(frozen=True)
class ActivationSpec:
    """One activation: a KINDS key plus the parameters that kind reads."""

    kind: str
    slope: float = 0.01           # lrelu (fixed) and prelu (init)
    elu_a: float = 1.0
    ash: AshParams = field(default_factory=AshParams)
    gen: GeneralizedSwishParams = field(default_factory=GeneralizedSwishParams)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        check_number("slope", self.slope)
        check_number("elu_a", self.elu_a)


# ---------------------------------------------------------------------------
# Parameter readers: a parameter is a Variable or a constant (ad.value).
# ---------------------------------------------------------------------------

def _rank0(p):
    """A (1,) parameter as rank 0: like a number, it broadcasts without
    lifting a rank-0 input to shape (1,)."""
    return ad.reshape(p, ()) if ad.value(p).shape == (1,) else p


def _scalar(p) -> float:
    """A scalar parameter, a Variable or a constant, as a number."""
    if isinstance(p, (int, float)):
        return p  # the common case, without making a Tensor; a bool stays one
    return float(ad.value(p).data.reshape(-1)[0])


# ---------------------------------------------------------------------------
# Baseline zoo.
# ---------------------------------------------------------------------------

def sigmoid(x):
    """Logistic S(x) = 1/(1+e^-x), overflow-free."""
    return ad.sigmoid(x)


def heaviside(x):
    """Unit step: 1 for x > 0, else 0. Gradient is identically zero."""
    return ad.heaviside(x)


def relu(x):
    """max(x, 0); subgradient 0 at the kink."""
    return ad.maximum(x, 0.0)


def lrelu(x, slope=0.01):
    """x for x > 0, slope*x otherwise. A Variable slope makes this PReLU."""
    pos = ad.maximum(x, 0.0)
    return ad.add(pos, ad.mul(_rank0(slope), ad.sub(x, pos)))


def prelu(x, slope):
    """Leaky form with a trainable slope parameter."""
    return lrelu(x, slope)


def softplus(x):
    """ln(1 + e^x), computed in the stable split form."""
    return ad.softplus(x)


def elu(x, a=1.0):
    """x for x > 0, a*(e^x - 1) otherwise."""
    pos = ad.maximum(x, 0.0)
    neg = ad.sub(x, pos)
    return ad.add(pos, ad.mul(a, ad.sub(ad.exp(neg), 1.0)))


def selu(x):
    """Self-normalizing ELU: lambda * elu(x, alpha) with the published constants."""
    return ad.mul(SELU_LAMBDA, elu(x, SELU_ALPHA))


def gelu(x):
    """x * Phi(x) with the exact normal CDF (no tanh approximation)."""
    return ad.mul(x, ad.gauss_cdf(x))


def swish(x):
    """x * S(x)."""
    return ad.mul(x, ad.sigmoid(x))


def gen_swish(x, a=1.0, b=0.0):
    """Generalized swish x * S(a*x + b); recovers swish at a=1, b=0."""
    return ad.mul(x, ad.sigmoid(ad.add(ad.mul(x, _rank0(a)), _rank0(b))))


# ---------------------------------------------------------------------------
# Conditional threshold unit (the non-trainable strawman).
# ---------------------------------------------------------------------------

def conditional_unit(x, scale=1.0, threshold=0.0):
    """scale*x where x >= threshold, else 0.

    scale sits arithmetically in the output, so it gets a gradient;
    threshold appears only inside the comparison, so its gradient is
    identically zero and it can never train.
    """
    sval, tval = _scalar(scale), _scalar(threshold)
    data = ad.value(x).data
    mask = data >= tval
    out = Tensor._wrap(np.where(mask, sval * data, 0.0))
    shape = ad.value(scale).shape  # the VJP takes shapes: a tape holds no Variable
    return ad.emit("conditional_unit", (x, scale, threshold), out, lambda g, needs: (
        needs[0] and g * sval * mask,
        needs[1] and np.sum(g * data * mask).reshape(shape),
        None))  # a comparison operand (the threshold) has zero derivative


# ---------------------------------------------------------------------------
# Grouped input statistics for the adaptive forms.
# ---------------------------------------------------------------------------

def _stats_axes(rank: int, stats_mode: str) -> tuple[int, ...]:
    if stats_mode == "per-sample":
        # Rank-1 input is a single sample; axis 0 is the batch otherwise.
        return (0,) if rank == 1 else tuple(range(1, rank))
    if stats_mode == "per-channel":
        if rank < 3:
            raise ShapeError("per-channel stats need spatial axes (rank >= 3 input)")
        return (0, 1) if rank == 3 else (1, 2)
    raise ValueError(f"stats_mode must be one of {STATS_MODES}, got {stats_mode!r}")


def _grouped_stats(data: np.ndarray, stats_mode: str):
    axes = _stats_axes(data.ndim, stats_mode)
    n, mu, centered, m2 = moments(data, axes)
    sigma_raw = np.sqrt(m2 / n)
    sigma = np.maximum(sigma_raw, st.SIGMA_FLOOR)
    return axes, n, mu, centered, sigma_raw, sigma


def _broadcast_z(z, x_shape: tuple[int, ...]) -> np.ndarray:
    """z as a float or an array that broadcasts against x: a scalar, or one per
    channel (last axis)."""
    if isinstance(z, (int, float)):
        return check_number("z_k", z)  # a number broadcasts as it is, without making a Tensor
    zval = ad.value(z).data
    if zval.size == 1:
        return zval.reshape(())  # a (1,) z would lift a rank-0 x to rank 1
    if zval.ndim == 1 and len(x_shape) >= 1 and zval.shape[0] == x_shape[-1]:
        return zval.reshape((1,) * (len(x_shape) - 1) + (-1,))
    raise ShapeError(
        f"z must be scalar or a vector matching the channel axis, got shape "
        f"{zval.shape} for input {x_shape}")


class _ChannelSum:
    """A channel vector's grad: its per-element products summed down axis 0
    of their (-1, C) view, taken block by block in order, row by row as
    numpy's axis-0 reduce sums them. The running sum, which starts as -0.0
    and so adds to no bit, is the first row of each block's reduce. A
    block of a rank-1 input is a piece of its one row."""

    def __init__(self, channels: int, block: int):
        self.acc = np.full(channels, -0.0)
        self.rows = np.empty(channels + block)
        self.pos = 0

    def add(self, values: np.ndarray) -> None:
        cols = min(values.size, self.acc.size)
        col = self.pos % self.acc.size
        self.pos += values.size
        rows = self.rows[:cols + values.size].reshape(-1, cols)
        rows[0] = self.acc[col:col + cols]
        rows[1:] = values.reshape(-1, cols)
        np.add.reduce(rows, axis=0, out=self.acc[col:col + cols])

    def total(self) -> np.ndarray:
        return self.acc


# ---------------------------------------------------------------------------
# Hard and step gates.
# ---------------------------------------------------------------------------

def hard_ash(x, z_k=0.0, stats_mode: str = "per-sample"):
    """Keep x where the margin (x - mu) - z_k*sigma is >= 0, zero the rest.

    The one keep rule of the family: a - b >= 0 holds exactly when a >= b,
    so this keeps x - mu >= z_k*sigma (sigma floored at 1e-5), the set
    `stats.gaussian_topk_mask` keeps of a flattened input. Statistics are
    grouped per stats_mode; kept elements carry gradient 1, and z_k, only
    inside the comparison, gets none.
    """
    return _gate_op(x, z_k, stats_mode, keep_boundary=True, name="hard_ash")


def heaviside_ash(x, z_k=0.0, stats_mode: str = "per-sample"):
    """x * H(x - mu - z_k*sigma): the step form, dropping the boundary point."""
    return _gate_op(x, z_k, stats_mode, keep_boundary=False, name="heaviside_ash")


def _gate_op(x, z_k, stats_mode: str, keep_boundary: bool, name: str):
    """x where the margin x - mu - z_k*sigma is >= 0 (> 0 without the boundary).

    In row blocks, the margin is formed in the `centered` buffer from
    `moments` (z_k*sigma one block at a time, so a channel-vector z_k
    makes no full-size product), and the output np.where(mask, x, 0.0) is
    written over it.
    The VJP's full-size mask is made only when the op is recorded; else
    each block's mask goes into one block-sized bool.
    """
    xt = ad.value(x)
    data = xt.data
    z_b = _broadcast_z(z_k, xt.shape)
    _, _, _, centered, _, sigma = _grouped_stats(data, stats_mode)
    keep = np.greater_equal if keep_boundary else np.greater
    recorded = True in [isinstance(v, Variable) and v.requires_grad for v in (x, z_k)]
    step = 0 if recorded else _row_step(data)
    mask = np.empty(data.shape if not step else (step, *data.shape[1:]), dtype=bool)
    for margin, zb_b, sig_b, x_b, mask_b in _row_blocks((centered, z_b, sigma, data, mask)):
        mask_b = mask_b[:len(margin)] if step else mask_b
        np.subtract(margin, zb_b * sig_b, out=margin)
        keep(margin, 0.0, out=mask_b)
        margin[...] = np.where(mask_b, x_b, 0.0)
    # The threshold lives inside the comparison only: its slot is None.
    return ad.emit(name, (x, z_k), Tensor._wrap(centered),
                   lambda g, needs: (needs[0] and g * mask, None))


# ---------------------------------------------------------------------------
# Smooth (sigmoid-gated) family: one primitive covers plain, leaky and
# fixed variants.
# ---------------------------------------------------------------------------

def _times_gate(s: np.ndarray, lval: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """((1-leak)*s + leak) * y into `out` (which may be s). At leak 0 the
    gate is s: s >= +0, so 1.0*s and s + 0.0 change no bit and are skipped."""
    if not lval:
        return np.multiply(s, y, out=out)
    gate = np.multiply(s, 1.0 - lval, out=out)
    gate += lval
    gate *= y
    return gate


def _ash_op(x, z, alpha, leak, stats_mode: str, grad_mode: str, name: str):
    """out = x * (leak + (1-leak) * S(2*alpha*(x - mu - z*sigma))).

    Hand-written VJP (checked against central differences):
      let sp = s*(1-s), w = g*x*(1-leak)*sp, A = sum_group(w), B = sum_group(w*z)
      d/dx    = g*(leak + (1-leak)*s) + 2a*w
                - through-stats terms 2a*A/N + 2a*(x-mu)*B/(N*sigma)
      d/dz    = -2a * sum_group(sigma * w)   (per z component)
      d/dleak = sum(g * x * (1 - s))
      d/dalpha= sum(w * u) / alpha
    B carries z inside the group sum because a channel-vector z varies
    within a per-sample stats group. The sigma floor (1e-5) freezes the
    sigma chain term in floored groups.

    In place, in a fixed order: u = centered - z*sigma, u *= 2a, s = S(u),
    then s*(1-leak) + leak, * x. Each step is the IEEE operation of the
    out-of-place writing on the same operands (a product's commute
    exactly), so writing it into an earlier step's buffer keeps every bit.
    u is formed in the `centered` buffer from `moments`, z*sigma one row
    block at a time (a channel-vector z makes no full-size product); with no grad
    needed every later step writes there too and nothing is kept. The
    backward forms w once for every grad and recomputes centered as
    x - mu: the bits `moments` made, as a constant group's mu is its value.

    After the whole-array `moments`, both passes run in row blocks
    (`tensor._row_blocks`); the backward is one block if a through-stats
    group spans axis 0. A walked backward rebuilds x - mu, u and s per
    block in block scratch with the forward's operations (the same bits;
    the store-versus-recompute trade of Chen et al., 2016), so s and the
    output go into `centered` too and the tape keeps only the group
    statistics. One block keeps s (and u for a trainable alpha) beside the
    output: a rebuilt s would be full-size, and rebuilding it read
    mlp_wide's scaled perfbench rates 30% low through the in-process host
    probe. A block's steps are elementwise or group sums, so no bit moves.
    The z, leak and alpha grads sum the whole array: each block's products
    go to a block scratch and on into a `tensor._TreeSum` (a scalar) or a
    `_ChannelSum`, which keep the bits of the one full-size sum.
    """
    if grad_mode not in GRAD_MODES:
        raise ValueError(f"grad_mode must be one of {GRAD_MODES}, got {grad_mode!r}")
    xt = ad.value(x)
    data = xt.data
    aval = check_number("alpha", _scalar(alpha), gt=0)
    lval = check_number("leak", _scalar(leak), ge=0)
    z_b = _broadcast_z(z, xt.shape)
    axes, n, mu, centered, sigma_raw, sigma = _grouped_stats(data, stats_mode)

    inputs = (x, z, leak, alpha)
    grad = True in [isinstance(v, Variable) and v.requires_grad for v in inputs]
    through = grad_mode == "through-stats"
    whole = through and 0 in axes  # a group spans axis 0: the VJP is one block
    walk = 0 if whole else _row_step(data)
    keep = grad and not walk
    u = centered
    s = np.empty_like(u) if keep and isinstance(alpha, Variable) else u
    y = np.empty_like(s) if keep else s
    # Overflow can only reach the output, whose finiteness check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        # With s kept, y holds the sigmoid's denominator until the product.
        for u_b, zb_b, sig_b, s_b, x_b, y_b, t_b in _row_blocks(
                (u, z_b, sigma, s, data, y, y if keep else None)):
            u_b -= zb_b * sig_b
            u_b *= 2.0 * aval
            ad.stable_sigmoid(u_b, out=s_b, scratch=t_b)
            _times_gate(s_b, lval, x_b, y_b)
    if walk:
        s = u = None  # the VJP rebuilds them, and must not hold the output
    out = Tensor._wrap(y)
    # The VJP takes shapes, not Variables: a tape holds no Variable (a constant
    # needs no grad, so its () is never read). Without a grad, record keeps no
    # VJP, and the buffers it names hold the output.
    shapes = [p.value.shape if isinstance(p, Variable) else () for p in (z, leak, alpha)]

    def vjp(g, needs):
        size = walk * (data.size // len(data)) if walk else data.size
        # A scalar's products are summed as np.sum sums the whole array. Every
        # parameter's products share one block scratch, made before gx, where
        # the full-size products were: made after it, it changed the heap
        # layout enough that perfbench's in-process host probe on mlp_wide ran
        # in about 1.3 ms instead of 2.0, so its scaled rates read 25% low at
        # unchanged raw speed.
        sums = [need and (_TreeSum(data.size) if math.prod(shape) == 1
                          else _ChannelSum(shape[0], size))
                for need, shape in zip(needs[1:], shapes)]
        z_sum, leak_sum, alpha_sum = sums
        prod_buf = np.empty(size) if True in needs[1:] else None
        # gx also holds 1 - s and b_sum's product; with no x grad, 1 - s takes
        # a second row of the block scratch, which every block shares.
        gx = np.empty_like(data) if needs[0] else None
        arrays = (data, g, s, u, mu, sigma, sigma_raw, z_b, gx)
        buf = np.empty((1 if needs[0] else 2, size))
        # Walked: per block, x - mu, then u, then s (over u unless alpha needs u).
        rebuilt = np.empty((3 if alpha_sum else 2, size)) if walk else None
        for x_b, g_b, s_b, u_b, mu_b, sig_b, raw_b, zb_b, gx_b in (
                (arrays,) if whole else _row_blocks(arrays)):
            part = lambda rows: rows[:x_b.size].reshape(x_b.shape)
            if walk:
                centered_b = np.subtract(x_b, mu_b, out=part(rebuilt[0]))
                u_b = np.subtract(centered_b, zb_b * sig_b, out=part(rebuilt[1]))
                u_b *= 2.0 * aval
                s_b = ad.stable_sigmoid(u_b, out=part(rebuilt[-1]), scratch=part(buf[0]))
            w = np.multiply(g_b, x_b, out=part(buf[0]))
            prod = None if prod_buf is None else part(prod_buf)
            one_minus_s = np.subtract(1.0, s_b, out=part(buf[-1]) if gx_b is None else gx_b)
            if leak_sum:
                leak_sum.add(np.multiply(w, one_minus_s, out=prod))
            if lval:
                w *= 1.0 - lval
            w *= s_b
            w *= one_minus_s
            if z_sum:
                np.multiply(sig_b, w, out=prod)
                prod *= -2.0 * aval
                z_sum.add(prod)
            if alpha_sum:
                alpha_sum.add(np.multiply(w, u_b, out=prod))
            if gx_b is None:
                continue
            if through:
                a_sum = np.add.reduce(w, axis=axes, keepdims=True)
                b_sum = np.add.reduce(np.multiply(w, zb_b, out=gx_b), axis=axes, keepdims=True)
            _times_gate(s_b, lval, g_b, gx_b)
            w *= 2.0 * aval
            gx_b += w
            if through:
                gx_b -= 2.0 * aval * a_sum / n
                floored = raw_b < st.SIGMA_FLOOR
                chain = np.where(floored, 0.0,
                                 b_sum / (n * np.where(floored, 1.0, raw_b)))
                if not walk:
                    centered_b = np.subtract(x_b, mu_b, out=w)
                centered_b *= 2.0 * aval
                centered_b *= chain
                gx_b -= centered_b
        grads = [acc and np.full(shape, acc.total()) for acc, shape in zip(sums, shapes)]
        if alpha_sum:
            grads[2] /= aval
        return (gx, *grads)

    return ad.emit(name, inputs, out, vjp)


def smooth_ash(x, z_k=0.0, alpha=1.0, stats_mode: str = "per-sample",
               grad_mode: str = "through-stats"):
    """Sigmoid-gated threshold unit x * S(2*alpha*(x - mu - z_k*sigma)).

    The gate softens the hard keep/drop rule so z_k becomes trainable;
    large alpha sharpens it back toward the hard form.
    """
    return _ash_op(x, z_k, alpha, 0.0, stats_mode, grad_mode, "smooth_ash")


def leaky_ash(x, z_k=0.0, leak=0.01, alpha=1.0, stats_mode: str = "per-sample",
              grad_mode: str = "through-stats"):
    """Leaky smooth form: x*(leak + (1-leak)*S(...)).

    Reduces to smooth_ash at leak=0 and to the identity at leak=1; in
    the sharp-gate limit it keeps x above the threshold and passes
    leak*x below.
    """
    return _ash_op(x, z_k, alpha, leak, stats_mode, grad_mode, "leaky_ash")


@functools.lru_cache(maxsize=64)
def _fixed_z(k: float) -> float:
    # z(k) is a pure function of k, and a model applies the same few k on
    # every forward, so each distinct k is resolved once.
    return st.z_from_percentile(min(k, 100.0 - 1e-12))


def fixed_ash(x, k=50.0, alpha=1.0, stats_mode: str = "per-sample",
              grad_mode: str = "through-stats"):
    """Smooth form with the percentile k frozen: z = z(k) is a constant."""
    k = check_number("k", k, gt=0, le=100)
    return _ash_op(x, _fixed_z(k), alpha, 0.0, stats_mode, grad_mode, "fixed_ash")


# ---------------------------------------------------------------------------
# The kind registry: JSON schema, trainable parameters, bounds and dispatch.
# ---------------------------------------------------------------------------

class Kind(NamedTuple):
    """One activation kind.

    fields: JSON fields as (key, record, attribute, default), in output
      order; record is "ash", "gen" or None for an ActivationSpec field.
    params: spec -> {name: initial value} of the trainable parameters.
    bounds: spec -> {name: lower bound} re-applied after each optimizer step.
    apply: (spec, x, params) -> output; params holds trainable Variables.
    """

    fields: tuple = ()
    params: Callable = lambda s: {}
    bounds: Callable = lambda s: {}
    apply: Callable = None


_Z = ("z_k_init", "ash", "z_k", 0.0)
_ALPHA = ("alpha", "ash", "alpha", 1.0)
_STATS = ("stats_mode", "ash", "stats_mode", "per-sample")
_GRAD = ("grad_mode", "ash", "grad_mode", "through-stats")


def _smooth_params(s):
    a = s.ash
    params = {"z_k": np.full(a.channels, a.z_k) if a.per_channel_z else [a.z_k]}
    if a.trainable_alpha:
        params["alpha"] = [a.alpha]
    return params


# The apply functions name the activations as module globals, looked up
# on every call, so a wrapper installed on the module (a tracer) sees the
# calls made through apply_spec.
KINDS: dict[str, Kind] = {
    "relu": Kind(apply=lambda s, x, p: relu(x)),
    "lrelu": Kind((("slope", None, "slope", 0.01),), apply=lambda s, x, p: lrelu(x, s.slope)),
    "prelu": Kind((("slope_init", None, "slope", 0.01),),
                  params=lambda s: {"slope": [s.slope]},
                  apply=lambda s, x, p: prelu(x, p.get("slope", s.slope))),
    "softplus": Kind(apply=lambda s, x, p: softplus(x)),
    "elu": Kind((("a", None, "elu_a", 1.0),), apply=lambda s, x, p: elu(x, s.elu_a)),
    "selu": Kind(apply=lambda s, x, p: selu(x)),
    "gelu": Kind(apply=lambda s, x, p: gelu(x)),
    "swish": Kind(apply=lambda s, x, p: swish(x)),
    "hard_ash": Kind((_Z, _STATS), params=lambda s: {"z_k": [s.ash.z_k]},
                    apply=lambda s, x, p: hard_ash(x, p.get("z_k", s.ash.z_k),
                                                   stats_mode=s.ash.stats_mode)),
    "heaviside_ash": Kind((_Z, _STATS), params=lambda s: {"z_k": [s.ash.z_k]},
                         apply=lambda s, x, p: heaviside_ash(x, p.get("z_k", s.ash.z_k),
                                                             stats_mode=s.ash.stats_mode)),
    # per_channel_z and channels are written out only when per_channel_z is on.
    "smooth_ash": Kind(
        (_Z, _ALPHA, _STATS, _GRAD, ("trainable_alpha", "ash", "trainable_alpha", False),
         ("per_channel_z", "ash", "per_channel_z", False), ("channels", "ash", "channels", 0)),
        params=_smooth_params,
        bounds=lambda s: {"alpha": 1e-6} if s.ash.trainable_alpha else {},
        apply=lambda s, x, p: smooth_ash(
            x, p.get("z_k", s.ash.z_k), alpha=p.get("alpha", s.ash.alpha),
            stats_mode=s.ash.stats_mode, grad_mode=s.ash.grad_mode)),
    "gen_swish": Kind(
        (("a_init", "gen", "a", 1.0), ("b_init", "gen", "b", 0.0),
         ("frozen", "gen", "frozen", False)),
        params=lambda s: {} if s.gen.frozen else {"a": [s.gen.a], "b": [s.gen.b]},
        apply=lambda s, x, p: gen_swish(x, p.get("a", s.gen.a), p.get("b", s.gen.b))),
    "leaky_ash": Kind(
        (_Z, _ALPHA, ("leak_init", "ash", "leak", 0.01), _STATS, _GRAD),
        params=lambda s: {"z_k": [s.ash.z_k], "leak": [s.ash.leak]},
        bounds=lambda s: {"leak": 0.0},
        apply=lambda s, x, p: leaky_ash(
            x, p.get("z_k", s.ash.z_k), leak=p.get("leak", s.ash.leak), alpha=s.ash.alpha,
            stats_mode=s.ash.stats_mode, grad_mode=s.ash.grad_mode)),
    "fixed_ash": Kind(
        (("k", "ash", "k", 50.0), _ALPHA, _STATS, _GRAD),
        apply=lambda s, x, p: fixed_ash(x, k=s.ash.k, alpha=s.ash.alpha,
                                        stats_mode=s.ash.stats_mode, grad_mode=s.ash.grad_mode)),
}

def json_value(raw, typ: type, name: str):
    """`raw` as the value of a `typ` field, or a ValueError naming the field.

    No coercion: a float or int field goes through `tensor.check_number`
    (Python's json reads NaN and Infinity; JSON has neither, and a bool is
    never a number), a bool field takes true or false, a str field a string.
    """
    if typ in (int, float):
        return check_number(name, raw, integer=typ is int)
    if not isinstance(raw, typ):
        raise ValueError(f"{name} must be {'true or false' if typ is bool else 'a string'}, "
                         f"got {raw!r}")
    return raw


def spec_from_json(obj: dict) -> ActivationSpec:
    """Parse a tagged activation object, e.g. {"kind": "smooth_ash", ...}.

    Strict: a key outside the kind's KINDS fields, or a value that
    `json_value` rejects for the field, raises a ValueError naming the key.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise ValueError(f"activation spec must be an object with a 'kind' tag, got {obj!r}")
    spec = ActivationSpec(obj["kind"])  # rejects an unknown kind
    fields = KINDS[spec.kind].fields
    unknown = set(obj) - {key for key, *_ in fields} - {"kind"}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} for activation {spec.kind!r}")
    values: dict = {}
    for key, record, attr, default in fields:
        # The default's type is the field's type.
        values.setdefault(record, {})[attr] = json_value(
            obj.get(key, default), type(default), f"activation {spec.kind!r} field {key!r}")
    records = {name: replace(getattr(spec, name), **kw) for name, kw in values.items() if name}
    return replace(spec, **values.get(None, {}), **records)


def spec_to_json(spec: ActivationSpec) -> dict:
    out = {"kind": spec.kind}
    for key, record, attr, _ in KINDS[spec.kind].fields:
        out[key] = getattr(getattr(spec, record) if record else spec, attr)
    if not spec.ash.per_channel_z:
        out.pop("per_channel_z", None)
        out.pop("channels", None)
    return out


def trainable_params(spec: ActivationSpec) -> dict[str, Tensor]:
    """Initial tensors for an activation's trainable parameters (may be empty)."""
    return {name: Tensor(v) for name, v in KINDS[spec.kind].params(spec).items()}


def param_lower_bounds(spec: ActivationSpec) -> dict[str, float]:
    """Box constraints re-applied after each optimizer step."""
    return KINDS[spec.kind].bounds(spec)


def apply_spec(spec: ActivationSpec, x, params: dict[str, Variable] | None = None):
    """Apply any ActivationSpec; `params` supplies its trainable Variables."""
    return KINDS[spec.kind].apply(spec, x, params or {})


_PRESETS = {"ash": {"kind": "smooth_ash"}, "l_ash": {"kind": "leaky_ash"},
            "gen_swish_frozen": {"kind": "gen_swish", "frozen": True}}


def preset(name: str) -> ActivationSpec:
    """Resolve a CLI-friendly activation name to an ActivationSpec.

    Every kind name gives that kind at its KINDS defaults. `ash` is the
    trainable smooth form, `l_ash` its leaky variant, `f_ash_<k>` the
    frozen-percentile variant (e.g. f_ash_10), and `gen_swish_frozen`
    pins a=1, b=0 (exactly swish, for the generalization equivalence
    checks).
    """
    obj = _PRESETS.get(name, {"kind": name})
    if obj["kind"] in KINDS:
        return spec_from_json(obj)
    if name.startswith("f_ash_"):
        try:
            k = float(name[len("f_ash_"):])
        except ValueError:
            raise ValueError(f"unknown activation preset {name!r}") from None
        return spec_from_json({"kind": "fixed_ash", "k": k})
    raise ValueError(f"unknown activation preset {name!r}")
