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
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import stats as st
from .autodiff import Variable
from .tensor import Tensor

SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

STATS_MODES = ("per-sample", "per-channel")
GRAD_MODES = ("through-stats", "stop-stats")


# ---------------------------------------------------------------------------
# Parameter bundles (also the JSON-facing configuration schema).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AshParams:
    """Smooth-form parameters: trainable threshold z_k, fixed sharpness alpha.

    With per_channel_z the layer owns one z per channel (`channels` sets
    the vector length, matching the input's last axis) instead of one
    scalar per layer.
    """

    z_k: float = 0.0
    alpha: float = 1.0
    stats_mode: str = "per-sample"
    grad_mode: str = "through-stats"
    trainable_alpha: bool = False
    per_channel_z: bool = False
    channels: int = 0

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
class LeakyAshParams:
    """Leaky smooth form: passes leak*x below the threshold instead of 0."""

    z_k: float = 0.0
    alpha: float = 1.0
    leak: float = 0.01
    stats_mode: str = "per-sample"
    grad_mode: str = "through-stats"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.leak < 0 or not np.isfinite(self.leak):
            raise ValueError(f"leak must be finite and >= 0, got {self.leak}")
        if self.stats_mode not in STATS_MODES:
            raise ValueError(f"stats_mode must be one of {STATS_MODES}")
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {GRAD_MODES}")


@dataclass(frozen=True)
class FixedAshParams:
    """Smooth form with the sampling percentile k frozen (z not trained)."""

    k: float = 50.0
    alpha: float = 1.0
    stats_mode: str = "per-sample"
    grad_mode: str = "through-stats"

    def __post_init__(self):
        if not 0.0 < self.k <= 100.0:
            raise ValueError(f"k must lie in (0, 100], got {self.k}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


BASELINE_KINDS = ("relu", "lrelu", "prelu", "softplus", "elu", "selu", "gelu", "swish")
ASH_KINDS = ("hard_ash", "heaviside_ash", "smooth_ash", "gen_swish", "leaky_ash", "fixed_ash")


@dataclass(frozen=True)
class ActivationSpec:
    """Discriminated union over the zoo; `params` matches `kind`."""

    kind: str
    slope: float = 0.01           # lrelu (fixed) and prelu (init)
    elu_a: float = 1.0
    ash: AshParams = field(default_factory=AshParams)
    gen: GeneralizedSwishParams = field(default_factory=GeneralizedSwishParams)
    leaky: LeakyAshParams = field(default_factory=LeakyAshParams)
    fixed: FixedAshParams = field(default_factory=FixedAshParams)

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS + ASH_KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")


# JSON field tables per kind (strict: unknown keys are rejected).
_JSON_FIELDS = {
    "relu": (),
    "softplus": (),
    "selu": (),
    "gelu": (),
    "swish": (),
    "lrelu": ("slope",),
    "prelu": ("slope_init",),
    "elu": ("a",),
    "hard_ash": ("z_k_init", "stats_mode"),
    "heaviside_ash": ("z_k_init", "stats_mode"),
    "smooth_ash": ("z_k_init", "alpha", "stats_mode", "grad_mode", "trainable_alpha",
                   "per_channel_z", "channels"),
    "gen_swish": ("a_init", "b_init", "frozen"),
    "leaky_ash": ("z_k_init", "alpha", "leak_init", "stats_mode", "grad_mode"),
    "fixed_ash": ("k", "alpha", "stats_mode", "grad_mode"),
}


def spec_from_json(obj: dict) -> ActivationSpec:
    """Parse a tagged activation object, e.g. {"kind": "smooth_ash", ...}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"activation spec must be an object with a 'kind' tag, got {obj!r}")
    kind = obj["kind"]
    if kind not in _JSON_FIELDS:
        raise ValueError(f"unknown activation kind {kind!r}")
    allowed = set(_JSON_FIELDS[kind]) | {"kind"}
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} for activation {kind!r}")

    get = obj.get
    if kind == "lrelu":
        return ActivationSpec(kind, slope=float(get("slope", 0.01)))
    if kind == "prelu":
        return ActivationSpec(kind, slope=float(get("slope_init", 0.01)))
    if kind == "elu":
        return ActivationSpec(kind, elu_a=float(get("a", 1.0)))
    if kind in ("hard_ash", "heaviside_ash"):
        return ActivationSpec(kind, ash=AshParams(
            z_k=float(get("z_k_init", 0.0)),
            stats_mode=get("stats_mode", "per-sample")))
    if kind == "smooth_ash":
        return ActivationSpec(kind, ash=AshParams(
            z_k=float(get("z_k_init", 0.0)), alpha=float(get("alpha", 1.0)),
            stats_mode=get("stats_mode", "per-sample"),
            grad_mode=get("grad_mode", "through-stats"),
            trainable_alpha=bool(get("trainable_alpha", False)),
            per_channel_z=bool(get("per_channel_z", False)),
            channels=int(get("channels", 0))))
    if kind == "gen_swish":
        return ActivationSpec(kind, gen=GeneralizedSwishParams(
            a=float(get("a_init", 1.0)), b=float(get("b_init", 0.0)),
            frozen=bool(get("frozen", False))))
    if kind == "leaky_ash":
        return ActivationSpec(kind, leaky=LeakyAshParams(
            z_k=float(get("z_k_init", 0.0)), alpha=float(get("alpha", 1.0)),
            leak=float(get("leak_init", 0.01)),
            stats_mode=get("stats_mode", "per-sample"),
            grad_mode=get("grad_mode", "through-stats")))
    if kind == "fixed_ash":
        return ActivationSpec(kind, fixed=FixedAshParams(
            k=float(get("k", 50.0)), alpha=float(get("alpha", 1.0)),
            stats_mode=get("stats_mode", "per-sample"),
            grad_mode=get("grad_mode", "through-stats")))
    return ActivationSpec(kind)


def spec_to_json(spec: ActivationSpec) -> dict:
    kind = spec.kind
    if kind == "lrelu":
        return {"kind": kind, "slope": spec.slope}
    if kind == "prelu":
        return {"kind": kind, "slope_init": spec.slope}
    if kind == "elu":
        return {"kind": kind, "a": spec.elu_a}
    if kind in ("hard_ash", "heaviside_ash"):
        return {"kind": kind, "z_k_init": spec.ash.z_k, "stats_mode": spec.ash.stats_mode}
    if kind == "smooth_ash":
        a = spec.ash
        out = {"kind": kind, "z_k_init": a.z_k, "alpha": a.alpha,
               "stats_mode": a.stats_mode, "grad_mode": a.grad_mode,
               "trainable_alpha": a.trainable_alpha}
        if a.per_channel_z:
            out["per_channel_z"] = True
            out["channels"] = a.channels
        return out
    if kind == "gen_swish":
        g = spec.gen
        return {"kind": kind, "a_init": g.a, "b_init": g.b, "frozen": g.frozen}
    if kind == "leaky_ash":
        p = spec.leaky
        return {"kind": kind, "z_k_init": p.z_k, "alpha": p.alpha, "leak_init": p.leak,
                "stats_mode": p.stats_mode, "grad_mode": p.grad_mode}
    if kind == "fixed_ash":
        f = spec.fixed
        return {"kind": kind, "k": f.k, "alpha": f.alpha,
                "stats_mode": f.stats_mode, "grad_mode": f.grad_mode}
    return {"kind": kind}


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


def _param_value(p) -> np.ndarray:
    if isinstance(p, Variable):
        return p.value.data
    return np.asarray(float(p)).reshape(())


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
    scale_v = scale if isinstance(scale, Variable) else None
    thr_v = threshold if isinstance(threshold, Variable) else None
    sval = float(_param_value(scale).reshape(-1)[0])
    tval = float(_param_value(threshold).reshape(-1)[0])

    data = x.value.data
    mask = data >= tval
    out = Tensor._wrap(np.where(mask, sval * data, 0.0))

    inputs = [x]
    vjps = [lambda g: g * sval * mask]
    if scale_v is not None:
        inputs.append(scale_v)
        vjps.append(lambda g: np.sum(g * data * mask).reshape(scale_v.value.shape))
    if thr_v is not None:
        inputs.append(thr_v)
        vjps.append(None)  # a comparison operand has zero derivative
    return ad.record(tape, "conditional_unit", tuple(inputs), out, tuple(vjps))


# ---------------------------------------------------------------------------
# Grouped input statistics for the adaptive forms.
# ---------------------------------------------------------------------------

def _stats_axes(rank: int, stats_mode: str) -> tuple[int, ...]:
    if stats_mode == "per-sample":
        # Rank-1 input is a single sample; axis 0 is the batch otherwise.
        return (0,) if rank == 1 else tuple(range(1, rank))
    if stats_mode == "per-channel":
        if rank < 3:
            raise ValueError("per-channel stats need spatial axes (rank >= 3 input)")
        return (0, 1) if rank == 3 else (1, 2)
    raise ValueError(f"stats_mode must be one of {STATS_MODES}, got {stats_mode!r}")


def _grouped_stats(data: np.ndarray, stats_mode: str):
    axes = _stats_axes(data.ndim, stats_mode)
    n = 1
    for axis in axes:
        n *= data.shape[axis]
    mu = data.mean(axis=axes, keepdims=True)
    centered = data - mu
    var = np.mean(centered * centered, axis=axes, keepdims=True)
    sigma_raw = np.sqrt(var)
    sigma = np.maximum(sigma_raw, st.SIGMA_FLOOR)
    return axes, n, mu, centered, sigma_raw, sigma


def _check_z_shape(zval: np.ndarray, x_shape: tuple[int, ...]) -> None:
    if zval.size == 1:
        return
    if zval.ndim == 1 and len(x_shape) >= 1 and zval.shape[0] == x_shape[-1]:
        return
    raise ValueError(
        f"z must be scalar or a vector matching the channel axis, got shape "
        f"{zval.shape} for input {x_shape}")


def _reduce_to_param(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if int(np.prod(shape)) == 1:
        return np.sum(g).reshape(shape)
    # Channel vector: sum over every leading axis.
    return g.reshape(-1, shape[0]).sum(axis=0)


def _stable_sigmoid(u: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


# ---------------------------------------------------------------------------
# Hard and step gates.
# ---------------------------------------------------------------------------

def hard_ash(x, z_k=0.0, stats: st.InputStats | None = None, stats_mode: str = "per-sample"):
    """Keep x where x >= mu + z_k*sigma, zero the rest (boundary kept).

    Tensor input: forward only, whole-tensor statistics (or the caller's
    precomputed `stats`). Variable input: grouped statistics per
    stats_mode; the pass-through elements carry gradient 1, and z_k,
    living only inside the comparison, gets none.
    """
    if isinstance(x, Variable):
        return _gate_op(x, z_k, stats_mode, keep_boundary=True, name="hard_ash")
    x = x if isinstance(x, Tensor) else Tensor(x)
    stc = stats if stats is not None else st.compute_stats(x)
    zval = float(_param_value(z_k).reshape(-1)[0])
    thr = stc.threshold(zval)
    return Tensor._wrap(np.where(x.data >= thr, x.data, 0.0))


def heaviside_ash(x, z_k=0.0, stats_mode: str = "per-sample"):
    """x * H(x - mu - z_k*sigma): the step form, dropping the boundary point."""
    if isinstance(x, Variable):
        return _gate_op(x, z_k, stats_mode, keep_boundary=False, name="heaviside_ash")
    x = x if isinstance(x, Tensor) else Tensor(x)
    tape = ad.Tape()
    return _gate_op(tape.variable(x), z_k, stats_mode, keep_boundary=False,
                    name="heaviside_ash").value


def _gate_op(x: Variable, z_k, stats_mode: str, keep_boundary: bool, name: str) -> Variable:
    data = x.value.data
    zval = _param_value(z_k)
    _check_z_shape(zval, x.value.shape)
    z_b = zval if zval.size == 1 else zval.reshape((1,) * (data.ndim - 1) + (-1,))
    _, _, mu, centered, _, sigma = _grouped_stats(data, stats_mode)
    margin = centered - z_b * sigma
    mask = (margin >= 0.0) if keep_boundary else (margin > 0.0)
    out = Tensor._wrap(np.where(mask, data, 0.0))

    inputs = [x]
    vjps = [lambda g: g * mask]
    if isinstance(z_k, Variable):
        inputs.append(z_k)
        vjps.append(None)  # threshold lives inside the comparison only
    return ad.record(x.tape, name, tuple(inputs), out, tuple(vjps))


# ---------------------------------------------------------------------------
# Smooth (sigmoid-gated) family: one primitive covers plain, leaky and
# fixed variants.
# ---------------------------------------------------------------------------

def _ash_op(x: Variable, z, alpha, leak, stats_mode: str, grad_mode: str,
            name: str) -> Variable:
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
    """
    if grad_mode not in GRAD_MODES:
        raise ValueError(f"grad_mode must be one of {GRAD_MODES}, got {grad_mode!r}")
    data = x.value.data
    aval = float(_param_value(alpha).reshape(-1)[0])
    if aval <= 0:
        raise ValueError(f"alpha must be > 0, got {aval}")
    lval = float(_param_value(leak).reshape(-1)[0])
    zval = _param_value(z)
    _check_z_shape(zval, x.value.shape)
    z_b = zval if zval.size == 1 else zval.reshape((1,) * (data.ndim - 1) + (-1,))

    axes, n, mu, centered, sigma_raw, sigma = _grouped_stats(data, stats_mode)
    u = 2.0 * aval * (centered - z_b * sigma)
    s = _stable_sigmoid(u)
    gate = lval + (1.0 - lval) * s
    out = Tensor._wrap(data * gate)

    through = grad_mode == "through-stats"
    floored = sigma_raw < st.SIGMA_FLOOR
    sigma_safe = np.where(floored, 1.0, sigma_raw)

    def vjp_x(g):
        w = g * data * (1.0 - lval) * s * (1.0 - s)
        grad = g * gate + 2.0 * aval * w
        if through:
            a_sum = w.sum(axis=axes, keepdims=True)
            grad = grad - 2.0 * aval * a_sum / n
            b_sum = (w * z_b).sum(axis=axes, keepdims=True)
            chain = np.where(floored, 0.0, b_sum / (n * sigma_safe))
            grad = grad - 2.0 * aval * centered * chain
        return grad

    inputs = [x]
    vjps = [vjp_x]
    if isinstance(z, Variable):
        def vjp_z(g):
            w = g * data * (1.0 - lval) * s * (1.0 - s)
            return _reduce_to_param((-2.0 * aval) * (sigma * w), z.value.shape)
        inputs.append(z)
        vjps.append(vjp_z)
    if isinstance(leak, Variable):
        def vjp_leak(g):
            return np.sum(g * data * (1.0 - s)).reshape(leak.value.shape)
        inputs.append(leak)
        vjps.append(vjp_leak)
    if isinstance(alpha, Variable):
        def vjp_alpha(g):
            w = g * data * (1.0 - lval) * s * (1.0 - s)
            return (np.sum(w * u) / aval).reshape(alpha.value.shape)
        inputs.append(alpha)
        vjps.append(vjp_alpha)
    return ad.record(x.tape, name, tuple(inputs), out, tuple(vjps))


@_accepts_tensor
def smooth_ash(x, z_k=0.0, alpha=1.0, stats_mode: str = "per-sample",
               grad_mode: str = "through-stats"):
    """Sigmoid-gated threshold unit x * S(2*alpha*(x - mu - z_k*sigma)).

    The gate softens the hard keep/drop rule so z_k becomes trainable;
    large alpha sharpens it back toward the hard form.
    """
    return _ash_op(x, z_k, alpha, 0.0, stats_mode, grad_mode, "smooth_ash")


@_accepts_tensor
def leaky_ash(x, z_k=0.0, leak=0.01, alpha=1.0, stats_mode: str = "per-sample",
              grad_mode: str = "through-stats"):
    """Leaky smooth form: x*(leak + (1-leak)*S(...)).

    Reduces to smooth_ash at leak=0 and to the identity at leak=1; in
    the sharp-gate limit it keeps x above the threshold and passes
    leak*x below.
    """
    lval = float(_param_value(leak).reshape(-1)[0])
    if lval < 0:
        raise ValueError(f"leak must be >= 0, got {lval}")
    return _ash_op(x, z_k, alpha, leak, stats_mode, grad_mode, "leaky_ash")


@functools.lru_cache(maxsize=64)
def _fixed_z(k: float) -> float:
    # z(k) is a pure function of k, and a model applies the same few k on
    # every forward, so each distinct k is resolved once.
    return st.z_from_percentile(min(k, 100.0 - 1e-12))


@_accepts_tensor
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
    zval = _param_value(z_k)
    _check_z_shape(zval, x.shape)
    z_b = zval if zval.size == 1 else zval.reshape((1,) * (data.ndim - 1) + (-1,))
    _, _, _, centered, _, sigma = _grouped_stats(data, stats_mode)
    t = np.tanh(alpha * (centered - z_b * sigma))
    return Tensor._wrap(0.5 * data + 0.5 * data * t)


# ---------------------------------------------------------------------------
# Named dispatch, trainable-parameter protocol, presets.
# ---------------------------------------------------------------------------

def baseline(kind: str, x, slope=0.01, elu_a=1.0):
    """Apply one of the non-adaptive zoo activations by name."""
    table = {
        "relu": lambda: relu(x),
        "lrelu": lambda: lrelu(x, slope),
        "prelu": lambda: prelu(x, slope),
        "softplus": lambda: softplus(x),
        "elu": lambda: elu(x, elu_a),
        "selu": lambda: selu(x),
        "gelu": lambda: gelu(x),
        "swish": lambda: swish(x),
    }
    if kind not in table:
        raise ValueError(f"unknown baseline activation {kind!r}")
    return table[kind]()


def trainable_params(spec: ActivationSpec) -> dict[str, Tensor]:
    """Initial tensors for an activation's trainable parameters (may be empty)."""
    k = spec.kind
    if k == "prelu":
        return {"slope": Tensor([spec.slope])}
    if k in ("hard_ash", "heaviside_ash"):
        return {"z_k": Tensor([spec.ash.z_k])}
    if k == "smooth_ash":
        if spec.ash.per_channel_z:
            params = {"z_k": Tensor(np.full(spec.ash.channels, spec.ash.z_k))}
        else:
            params = {"z_k": Tensor([spec.ash.z_k])}
        if spec.ash.trainable_alpha:
            params["alpha"] = Tensor([spec.ash.alpha])
        return params
    if k == "gen_swish" and not spec.gen.frozen:
        return {"a": Tensor([spec.gen.a]), "b": Tensor([spec.gen.b])}
    if k == "leaky_ash":
        return {"z_k": Tensor([spec.leaky.z_k]), "leak": Tensor([spec.leaky.leak])}
    return {}


def param_lower_bounds(spec: ActivationSpec) -> dict[str, float]:
    """Box constraints re-applied after each optimizer step."""
    if spec.kind == "leaky_ash":
        return {"leak": 0.0}
    if spec.kind == "smooth_ash" and spec.ash.trainable_alpha:
        return {"alpha": 1e-6}
    return {}


def apply_spec(spec: ActivationSpec, x, params: dict[str, Variable] | None = None):
    """Apply any ActivationSpec; `params` supplies its trainable Variables."""
    params = params or {}
    k = spec.kind
    if k in BASELINE_KINDS:
        if k == "prelu":
            return prelu(x, params.get("slope", spec.slope))
        return baseline(k, x, slope=spec.slope, elu_a=spec.elu_a)
    if k == "hard_ash":
        return hard_ash(x, params.get("z_k", spec.ash.z_k), stats_mode=spec.ash.stats_mode)
    if k == "heaviside_ash":
        return heaviside_ash(x, params.get("z_k", spec.ash.z_k), stats_mode=spec.ash.stats_mode)
    if k == "smooth_ash":
        return smooth_ash(x, params.get("z_k", spec.ash.z_k),
                          alpha=params.get("alpha", spec.ash.alpha),
                          stats_mode=spec.ash.stats_mode, grad_mode=spec.ash.grad_mode)
    if k == "gen_swish":
        return gen_swish(x, params.get("a", spec.gen.a), params.get("b", spec.gen.b))
    if k == "leaky_ash":
        return leaky_ash(x, params.get("z_k", spec.leaky.z_k),
                         leak=params.get("leak", spec.leaky.leak),
                         alpha=spec.leaky.alpha, stats_mode=spec.leaky.stats_mode,
                         grad_mode=spec.leaky.grad_mode)
    if k == "fixed_ash":
        return fixed_ash(x, k=spec.fixed.k, alpha=spec.fixed.alpha,
                         stats_mode=spec.fixed.stats_mode, grad_mode=spec.fixed.grad_mode)
    raise ValueError(f"unknown activation kind {k!r}")


def preset(name: str) -> ActivationSpec:
    """Resolve a CLI-friendly activation name to an ActivationSpec.

    `ash` is the trainable smooth form, `l_ash` its leaky variant,
    `f_ash_<k>` the frozen-percentile variant (e.g. f_ash_10), and
    `gen_swish_frozen` pins a=1, b=0 (exactly swish, for the
    generalization equivalence checks).
    """
    simple = {
        "relu": ActivationSpec("relu"),
        "lrelu": ActivationSpec("lrelu"),
        "prelu": ActivationSpec("prelu"),
        "softplus": ActivationSpec("softplus"),
        "elu": ActivationSpec("elu"),
        "selu": ActivationSpec("selu"),
        "gelu": ActivationSpec("gelu"),
        "swish": ActivationSpec("swish"),
        "ash": ActivationSpec("smooth_ash"),
        "smooth_ash": ActivationSpec("smooth_ash"),
        "hard_ash": ActivationSpec("hard_ash"),
        "heaviside_ash": ActivationSpec("heaviside_ash"),
        "l_ash": ActivationSpec("leaky_ash"),
        "leaky_ash": ActivationSpec("leaky_ash"),
        "gen_swish": ActivationSpec("gen_swish"),
        "gen_swish_frozen": ActivationSpec(
            "gen_swish", gen=GeneralizedSwishParams(a=1.0, b=0.0, frozen=True)),
    }
    if name in simple:
        return simple[name]
    if name.startswith("f_ash_"):
        try:
            k = float(name[len("f_ash_"):])
        except ValueError:
            raise ValueError(f"unknown activation preset {name!r}") from None
        return ActivationSpec("fixed_ash", fixed=FixedAshParams(k=k))
    raise ValueError(f"unknown activation preset {name!r}")
