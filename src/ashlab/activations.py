"""Activation zoo: classic baselines plus the percentile-adaptive family.

The adaptive family follows one derivation chain:

  hard form        x            if x >= mu + z*sigma, else 0
  step form        x * H(x - mu - z*sigma)
  smooth form      x * S(2*alpha*(x - mu - z*sigma))        (sigmoid gate)
  generalized      x * S(a*x + b)                            (swish at a=1, b=0)

mu and sigma are population statistics recomputed from the input on
every call, so the absolute threshold adapts to the input while z picks
the percentile being kept. The hard and step forms block every gradient
to z (a variable that appears only inside a comparison has derivative
zero); the smooth form makes z an ordinary trainable parameter.

Every function here accepts either an autodiff Variable (differentiable,
recorded on its tape) or a plain Tensor (forward only).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from . import stats as st
from .autodiff import Variable
from .tensor import ShapeError, Tensor, moments

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
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.stats_mode not in STATS_MODES:
            raise ValueError(f"stats_mode must be one of {STATS_MODES}")
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {GRAD_MODES}")
        if not np.isfinite(self.z_k):
            raise ValueError("z_k must be finite")
        if self.per_channel_z and self.channels < 1:
            raise ValueError("per_channel_z needs channels >= 1")
        if self.leak < 0 or not np.isfinite(self.leak):
            raise ValueError(f"leak must be finite and >= 0, got {self.leak}")
        if not 0.0 < self.k <= 100.0:
            raise ValueError(f"k must lie in (0, 100], got {self.k}")


@dataclass(frozen=True)
class GeneralizedSwishParams:
    """x * S(a*x + b); both a and b train unless frozen."""

    a: float = 1.0
    b: float = 0.0
    frozen: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("a and b must be finite")


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


# ---------------------------------------------------------------------------
# Tensor/Variable dispatch plumbing.
# ---------------------------------------------------------------------------

def _accepts_tensor(fn):
    """Let a Variable-based activation also run forward-only on Tensors."""

    @functools.wraps(fn)
    def wrapper(x, *args, **kwargs):
        if isinstance(x, Variable):
            return fn(x, *args, **kwargs)
        x = x if isinstance(x, Tensor) else Tensor(x)
        return fn(ad.Tape().variable(x), *args, **kwargs).value

    return wrapper


def _scalar(p) -> float:
    """A scalar parameter, a Variable or a number, as a float."""
    return float(p.value.data.reshape(-1)[0]) if isinstance(p, Variable) else float(p)


# ---------------------------------------------------------------------------
# Baseline zoo.
# ---------------------------------------------------------------------------

@_accepts_tensor
def sigmoid(x):
    """Logistic S(x) = 1/(1+e^-x), overflow-free."""
    return ad.sigmoid(x)


@_accepts_tensor
def heaviside(x):
    """Unit step: 1 for x > 0, else 0. Gradient is identically zero."""
    return ad.heaviside(x)


@_accepts_tensor
def relu(x):
    """max(x, 0); subgradient 0 at the kink."""
    return ad.maximum(x, 0.0)


@_accepts_tensor
def lrelu(x, slope=0.01):
    """x for x > 0, slope*x otherwise. A Variable slope makes this PReLU."""
    pos = ad.maximum(x, 0.0)
    return ad.add(pos, ad.mul(slope, ad.sub(x, pos)))


def prelu(x, slope):
    """Leaky form with a trainable slope parameter."""
    return lrelu(x, slope)


@_accepts_tensor
def softplus(x):
    """ln(1 + e^x), computed in the stable split form."""
    return ad.softplus(x)


@_accepts_tensor
def elu(x, a=1.0):
    """x for x > 0, a*(e^x - 1) otherwise."""
    pos = ad.maximum(x, 0.0)
    neg = ad.sub(x, pos)
    return ad.add(pos, ad.mul(a, ad.sub(ad.exp(neg), 1.0)))


@_accepts_tensor
def selu(x):
    """Self-normalizing ELU: lambda * elu(x, alpha) with the published constants."""
    return ad.mul(SELU_LAMBDA, elu(x, SELU_ALPHA))


@_accepts_tensor
def gelu(x):
    """x * Phi(x) with the exact normal CDF (no tanh approximation)."""
    return ad.mul(x, ad.gauss_cdf(x))


@_accepts_tensor
def swish(x):
    """x * S(x)."""
    return ad.mul(x, ad.sigmoid(x))


@_accepts_tensor
def gen_swish(x, a=1.0, b=0.0):
    """Generalized swish x * S(a*x + b); recovers swish at a=1, b=0."""
    return ad.mul(x, ad.sigmoid(ad.add(ad.mul(x, a), b)))


# ---------------------------------------------------------------------------
# Conditional threshold unit (the non-trainable strawman).
# ---------------------------------------------------------------------------

@_accepts_tensor
def conditional_unit(x, scale=1.0, threshold=0.0):
    """scale*x where x >= threshold, else 0.

    scale sits arithmetically in the output, so it gets a gradient;
    threshold appears only inside the comparison, so its gradient is
    identically zero and it can never train.
    """
    tape = x.tape
    scale, threshold = (p if isinstance(p, Variable) else tape.constant(p)
                        for p in (scale, threshold))
    sval = float(scale.value.data.reshape(-1)[0])
    tval = float(threshold.value.data.reshape(-1)[0])

    data = x.value.data
    mask = data >= tval
    out = Tensor._wrap(np.where(mask, sval * data, 0.0))
    shape = scale.value.shape  # the VJP takes shapes: a tape holds no Variable
    return ad.record(tape, "conditional_unit", (x, scale, threshold), out, lambda g, needs: (
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
    """z as an array that broadcasts against x: a scalar, or one per channel (last axis)."""
    zval = z.value.data if isinstance(z, Variable) else np.asarray(float(z)).reshape(())
    if zval.size == 1:
        return zval
    if zval.ndim == 1 and len(x_shape) >= 1 and zval.shape[0] == x_shape[-1]:
        return zval.reshape((1,) * (len(x_shape) - 1) + (-1,))
    raise ShapeError(
        f"z must be scalar or a vector matching the channel axis, got shape "
        f"{zval.shape} for input {x_shape}")


def _reduce_to_param(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if int(np.prod(shape)) == 1:
        return np.sum(g).reshape(shape)
    # Channel vector: sum over every leading axis.
    return g.reshape(-1, shape[0]).sum(axis=0)


# ---------------------------------------------------------------------------
# Hard and step gates.
# ---------------------------------------------------------------------------

def hard_ash(x, z_k=0.0, stats: st.InputStats | None = None, stats_mode: str = "per-sample"):
    """Keep x where x >= mu + z_k*sigma, zero the rest (boundary kept).

    Statistics are grouped per stats_mode for Tensor and Variable input
    alike; the pass-through elements carry gradient 1, and z_k, living
    only inside the comparison, gets none. A Tensor input may instead
    take the caller's precomputed `stats` (forward only).
    """
    if stats is None or isinstance(x, Variable):
        return _gate_op(x, z_k, stats_mode, keep_boundary=True, name="hard_ash")
    data = x.data if isinstance(x, Tensor) else Tensor(x).data
    thr = stats.threshold(_scalar(z_k))
    return Tensor._wrap(np.where(data >= thr, data, 0.0))


def heaviside_ash(x, z_k=0.0, stats_mode: str = "per-sample"):
    """x * H(x - mu - z_k*sigma): the step form, dropping the boundary point."""
    return _gate_op(x, z_k, stats_mode, keep_boundary=False, name="heaviside_ash")


def _gate_op(x, z_k, stats_mode: str, keep_boundary: bool, name: str):
    """x where the margin x - mu - z_k*sigma is >= 0 (> 0 without the boundary).

    A Tensor (or array) `x` runs forward only, builds no tape and returns
    a Tensor. The margin is formed in the `centered` buffer from `moments`,
    and the output np.where(mask, x, 0.0) is then written over it.
    """
    taped = isinstance(x, Variable)
    xt = x.value if taped else x if isinstance(x, Tensor) else Tensor(x)
    data = xt.data
    z_b = _broadcast_z(z_k, xt.shape)
    _, _, _, centered, _, sigma = _grouped_stats(data, stats_mode)
    margin = np.subtract(centered, z_b * sigma, out=centered)
    mask = (margin >= 0.0) if keep_boundary else (margin > 0.0)
    margin.fill(0.0)
    np.copyto(margin, data, where=mask)
    out = Tensor._wrap(margin)

    if not taped:
        return out
    if isinstance(z_k, Variable):
        # The threshold lives inside the comparison only: its slot is None.
        return ad.record(x.tape, name, (x, z_k), out,
                         lambda g, needs: (needs[0] and g * mask, None))
    return ad.record(x.tape, name, (x,), out, lambda g, needs: (g * mask,))


# ---------------------------------------------------------------------------
# Smooth (sigmoid-gated) family: one primitive covers plain, leaky and
# fixed variants.
# ---------------------------------------------------------------------------

def _times_gate(s: np.ndarray, lval: float, y: np.ndarray, out=None) -> np.ndarray:
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

    `x` is a Variable, or a Tensor (or array) for a forward-only call that
    builds no tape and returns a Tensor.

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
    With no grad needed all steps write into the `centered` buffer from
    `moments` and nothing is kept; otherwise the forward keeps s (centered
    for through-stats, u for a trainable alpha) and the backward forms w
    once for every grad.
    """
    if grad_mode not in GRAD_MODES:
        raise ValueError(f"grad_mode must be one of {GRAD_MODES}, got {grad_mode!r}")
    taped = isinstance(x, Variable)
    xt = x.value if taped else x if isinstance(x, Tensor) else Tensor(x)
    data = xt.data
    aval = _scalar(alpha)
    if aval <= 0:
        raise ValueError(f"alpha must be > 0, got {aval}")
    lval = _scalar(leak)
    if lval < 0:
        raise ValueError(f"leak must be >= 0, got {lval}")
    z_b = _broadcast_z(z, xt.shape)
    axes, n, _, centered, sigma_raw, sigma = _grouped_stats(data, stats_mode)

    params = {key: p for key, p in (("z", z), ("leak", leak), ("alpha", alpha))
              if isinstance(p, Variable)}
    inputs = (x, *params.values()) if taped else ()
    grad = any(v.requires_grad for v in inputs)
    through = grad_mode == "through-stats"
    # Overflow can only reach the output, whose finiteness check reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.subtract(centered, z_b * sigma, out=None if grad and through else centered)
        u *= 2.0 * aval
        s = ad.stable_sigmoid(u, out=None if grad and "alpha" in params else u)
        out = Tensor._wrap(_times_gate(s, lval, data, None if grad else s))
    # The VJP takes shapes, not Variables: a tape holds no Variable. Without a
    # grad, record keeps no VJP, and the buffers it names hold the output.
    shapes = {key: p.value.shape for key, p in params.items()}

    def vjp(g, needs):
        need = dict(zip(("x", *shapes), needs))
        grads = {}
        with np.errstate(over="ignore", invalid="ignore"):
            w = g * data
            one_minus_s = 1.0 - s
            tmp = np.empty_like(w)  # scratch for each product that is then summed
            if need.get("leak"):
                grads["leak"] = np.sum(np.multiply(w, one_minus_s, out=tmp)).reshape(
                    shapes["leak"])
            if lval:
                w *= 1.0 - lval
            w *= s
            w *= one_minus_s
            if need.get("z"):
                wz = np.multiply(sigma, w, out=tmp)
                wz *= -2.0 * aval
                grads["z"] = _reduce_to_param(wz, shapes["z"])
            if need.get("alpha"):
                grads["alpha"] = (np.sum(np.multiply(w, u, out=tmp)) / aval).reshape(
                    shapes["alpha"])
            if need["x"]:
                gx = _times_gate(s, lval, g, one_minus_s)
                if through:
                    a_sum = w.sum(axis=axes, keepdims=True)
                    b_sum = np.multiply(w, z_b, out=tmp).sum(axis=axes, keepdims=True)
                w *= 2.0 * aval
                gx += w
                if through:
                    gx -= 2.0 * aval * a_sum / n
                    floored = sigma_raw < st.SIGMA_FLOOR
                    chain = np.where(floored, 0.0,
                                     b_sum / (n * np.where(floored, 1.0, sigma_raw)))
                    np.multiply(centered, 2.0 * aval, out=w)
                    w *= chain
                    gx -= w
                grads["x"] = gx
        return tuple(grads.get(key) for key in need)

    return ad.record(x.tape, name, inputs, out, vjp) if taped else out


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
    if not 0.0 < k <= 100.0:
        raise ValueError(f"k must lie in (0, 100], got {k}")
    return _ash_op(x, _fixed_z(float(k)), alpha, 0.0, stats_mode, grad_mode, "fixed_ash")


def smooth_ash_tanh(x: Tensor, z_k: float = 0.0, alpha: float = 1.0,
                    stats_mode: str = "per-sample") -> Tensor:
    """Algebraically equal half-tanh form x/2 + x/2 * tanh(alpha*(x - thr)).

    Forward-only companion used to confirm the tanh and sigmoid writings
    of the smooth gate agree to float precision.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    data = x.data
    z_b = _broadcast_z(z_k, x.shape)
    _, _, _, centered, _, sigma = _grouped_stats(data, stats_mode)
    t = np.tanh(alpha * (centered - z_b * sigma))
    return Tensor._wrap(0.5 * data + 0.5 * data * t)


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

BASELINE_KINDS = ("relu", "lrelu", "prelu", "softplus", "elu", "selu", "gelu", "swish")


# A field's Python type -> (the JSON values it takes, their description).
_JSON_TYPES = {float: ((int, float), "a finite number"), int: (int, "an integer"),
               bool: (bool, "true or false"), str: (str, "a string")}


def json_value(raw, typ: type, name: str):
    """`raw` as the value of a `typ` field, or a ValueError naming the field.

    No coercion: a float field takes a finite number (Python's json reads
    NaN and Infinity; JSON has neither), an int field an integer, a bool
    field true or false and a str field a string. A bool is never a number.
    """
    accepted, described = _JSON_TYPES[typ]
    ok = isinstance(raw, bool) == (typ is bool) and isinstance(raw, accepted)
    if ok and typ is float:
        ok = abs(raw) <= sys.float_info.max  # false for NaN and the infinities
    if not ok:
        raise ValueError(f"{name} must be {described}, got {raw!r}")
    return typ(raw)


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


def baseline(kind: str, x, slope=0.01, elu_a=1.0):
    """Apply one of the non-adaptive zoo activations by name."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline activation {kind!r}")
    return KINDS[kind].apply(ActivationSpec(kind, slope=slope, elu_a=elu_a), x, {})


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
