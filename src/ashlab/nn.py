"""Desk-scale neural networks: layers, losses, optimizers, training loop.

Models are containers of layer specs plus a name -> Tensor parameter
registry. A trainable forward pass wraps the parameters as Variables on
a fresh tape (define-by-run); any other runs on the Tensors and records
nothing. Training is single-threaded and fully deterministic for a given
seed: weight init and data ordering draw from disjoint counter ranges of
one seeded stream.

The model owns the parameter layout: one (name, slice, shape) row per
parameter and one vector of lower bounds (-inf where a parameter has
none). `train` steps every parameter as one float64 vector: the
optimizers are elementwise math on (w, g) vectors, and after each step
the model checks the new vector finite once, applies the bounds and
points its parameters at read-only views of it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import activations as act
from . import autodiff as ad
from .autodiff import Variable
from .tensor import NonFiniteError, RngState, ShapeError, Tensor, _row_blocks, _row_step, \
    _TreeSum, check_count

# Data-order draws start here so weight init (counter 0) can never
# collide with them, no matter how many parameters a model has.
_DATA_STREAM_OFFSET = 2 ** 48

LOSS_KINDS = ("softmax_xent", "mse")


class DivergenceError(RuntimeError):
    """A non-finite value in `where`: a layer, "loss" or a parameter.

    `Model.forward` and `loss_fn` raise it with epoch, batch and phase
    None; `train` and `evaluate` fill them in.
    `phase` is "training" for an optimizer step, "validation" for the
    evaluation pass that closes each epoch and "evaluation" for a
    standalone `evaluate`, which has no epoch (None).
    """

    def __init__(self, where: str, epoch: int | None = None, batch: int | None = None,
                 phase: str | None = None):
        at = "" if epoch is None else f"epoch {epoch}, "
        at = "" if batch is None else f"at {at}batch {batch}, "
        super().__init__(f"non-finite value {at}in {where}" + (f" ({phase})" if phase else ""))
        self.where = where
        self.epoch = epoch
        self.batch = batch
        self.phase = phase


# ---------------------------------------------------------------------------
# Layers.
# ---------------------------------------------------------------------------

class _Extents:
    """A layer whose every field is an extent: a Python or numpy integer
    (not a bool) >= 1."""

    def __post_init__(self):
        for name, value in vars(self).items():
            check_count(name, value, 1)


@dataclass(frozen=True)
class Dense(_Extents):
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Conv2d(_Extents):
    """Stride-1, valid-padding convolution on (B, H, W, C) inputs."""

    kh: int
    kw: int
    cin: int
    cout: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Activation:
    spec: act.ActivationSpec


Layer = Dense | Conv2d | Flatten | Activation

_LAYER_BASENAME = {Dense: "dense", Conv2d: "conv", Flatten: "flatten", Activation: "act"}


def _kaiming_uniform(rng: RngState, fan_in: int, shape: tuple[int, ...]) -> Tensor:
    bound = np.sqrt(6.0 / fan_in)
    n = int(np.prod(shape))
    return Tensor._wrap(((rng.uniform(n) * 2.0 - 1.0) * bound).reshape(shape))


def _init_layer_params(layer: Layer, name: str, rng: RngState) -> dict[str, Tensor]:
    if isinstance(layer, Dense):
        return {
            f"{name}.W": _kaiming_uniform(rng, layer.in_dim, (layer.in_dim, layer.out_dim)),
            f"{name}.b": Tensor._wrap(np.zeros(layer.out_dim)),
        }
    if isinstance(layer, Conv2d):
        fan_in = layer.kh * layer.kw * layer.cin
        return {
            f"{name}.W": _kaiming_uniform(rng, fan_in, (fan_in, layer.cout)),
            f"{name}.b": Tensor._wrap(np.zeros(layer.cout)),
        }
    if isinstance(layer, Activation):
        return {f"{name}.{p}": t for p, t in act.trainable_params(layer.spec).items()}
    return {}


# ---------------------------------------------------------------------------
# Structured primitives used by the layers.
# ---------------------------------------------------------------------------

def conv_patches(x, kh: int, kw: int) -> Variable | Tensor:
    """im2col: (B, H, W, C) -> (B*OH*OW, kh*kw*C) sliding patches."""
    data = ad.value(x).data
    if data.ndim != 4:
        raise ShapeError(f"conv input must be rank-4 (B,H,W,C), got {data.shape}")
    b, h, w, c = data.shape
    oh, ow = h - kh + 1, w - kw + 1
    if oh < 1 or ow < 1:
        raise ShapeError(f"kernel ({kh}x{kw}) larger than input ({h}x{w})")
    offsets = [(dy, dx) for dy in range(kh) for dx in range(kw)]  # patch slot order
    cols = np.empty((b, oh, ow, kh * kw * c))
    for slot, (dy, dx) in enumerate(offsets):
        cols[:, :, :, slot * c:(slot + 1) * c] = data[:, dy:dy + oh, dx:dx + ow, :]
    out = Tensor._wrap(cols.reshape(b * oh * ow, kh * kw * c))

    def vjp(g, needs):
        g = g.reshape(b, oh, ow, kh * kw * c)
        grad = np.zeros((b, h, w, c))
        for slot, (dy, dx) in enumerate(offsets):
            grad[:, dy:dy + oh, dx:dx + ow, :] += g[:, :, :, slot * c:(slot + 1) * c]
        return (grad,)

    return ad.emit("conv_patches", (x,), out, vjp)


def _apply_layer(layer: Layer, x, own: dict) -> Variable | Tensor:
    """`layer` on x; `own` maps the layer's parameter keys ("W", "z_k", ...)
    to its parameters."""
    if isinstance(layer, Activation):
        return act.apply_spec(layer.spec, x, own)
    shape = ad.value(x).shape
    if isinstance(layer, Dense):
        if len(shape) != 2 or shape[1] != layer.in_dim:
            raise ShapeError(f"expected (B, {layer.in_dim}), got {shape}")
        return ad.matmul(x, own["W"], own["b"])
    if isinstance(layer, Conv2d):
        if len(shape) == 3 and layer.cin == 1:
            # Channelless image stacks (e.g. IDX) get an implicit C=1 axis.
            shape += (1,)
            x = ad.reshape(x, shape)
        if len(shape) != 4 or shape[3] != layer.cin:
            raise ShapeError(f"expected (B,H,W,{layer.cin}), got {shape}")
        b, h, w, _ = shape
        pre = ad.matmul(conv_patches(x, layer.kh, layer.kw), own["W"], own["b"])
        return ad.reshape(pre, (b, h - layer.kh + 1, w - layer.kw + 1, layer.cout))
    if isinstance(layer, Flatten):
        return ad.reshape(x, (shape[0], int(np.prod(shape[1:]))))
    raise TypeError(f"unknown layer type {type(layer).__name__}")


# ---------------------------------------------------------------------------
# Model.
# ---------------------------------------------------------------------------

def _flat(arrays) -> np.ndarray:
    """The arrays, raveled in order, as one new float64 vector (empty for none)."""
    return np.concatenate([np.zeros(0), *arrays], axis=None)


class Model:
    """Ordered layers plus the current parameter tensors, keyed by name.

    The model owns the parameter layout: `params` is in vector order, each
    parameter a (name, slice, shape) row of `_layout`, and `_lower` holds
    every element's lower bound (-inf where its parameter has none).
    """

    def __init__(self, layers: list[Layer], seed: int | RngState = 0):
        rng = seed if isinstance(seed, RngState) else RngState(seed)
        self.layers = list(layers)
        self.layer_names = [f"{_LAYER_BASENAME[type(l)]}{i}" for i, l in enumerate(self.layers)]
        self.params: dict[str, Tensor] = {}
        self._keys = []  # per layer: (key, parameter name) of each of its parameters
        lower = []
        for layer, name in zip(self.layers, self.layer_names):
            bounds = act.param_lower_bounds(layer.spec) if isinstance(layer, Activation) else {}
            own = _init_layer_params(layer, name, rng)
            self._keys.append(tuple((pname[len(name) + 1:], pname) for pname in own))
            for pname, t in own.items():
                self.params[pname] = t
                lower.append(np.full(t.size, bounds.get(pname.rpartition(".")[2], -np.inf)))
        self._lower = _flat(lower)
        ends = np.cumsum([t.size for t in self.params.values()]).tolist()
        self._layout = [(pname, slice(end - t.size, end), t.shape)
                        for (pname, t), end in zip(self.params.items(), ends)]

    def _load(self, w: np.ndarray) -> None:
        """Point `params` at read-only views of the parameter vector `w`.

        `w` is checked finite before the bounds apply, so a step that drives
        a bounded parameter to -inf is divergence, not a clamp: a non-finite
        element raises DivergenceError naming its parameter. Then each
        element below its bound is set to the bound (w < lo, so a -0.0 at a
        +0.0 bound keeps its bits), in place.
        """
        finite = np.isfinite(w)
        if np.count_nonzero(finite) != w.size:
            where = next(pname for pname, sl, _ in self._layout if not finite[sl].all())
            raise DivergenceError(where) from NonFiniteError(
                "tensor values must be finite (no NaN/Inf)")
        np.copyto(w, self._lower, where=w < self._lower)
        w.setflags(write=False)
        for pname, sl, shape in self._layout:
            self.params[pname] = Tensor._unchecked(w[sl].reshape(shape))

    def forward(self, batch: Tensor, trainable: bool = True) -> tuple[Variable | Tensor, dict]:
        """Run the layers on `batch`; returns (output, parameters). Trainable,
        the parameters are requires-grad Variables on a fresh tape; otherwise
        they are `params` itself, no tape is built and the output is a Tensor."""
        params = self.params
        if trainable:
            tape = ad.Tape()
            params = {name: Variable(t, tape, True, name) for name, t in params.items()}
        h = batch
        for layer, name, keys in zip(self.layers, self.layer_names, self._keys):
            try:
                h = _apply_layer(layer, h, {key: params[pname] for key, pname in keys})
            except ShapeError as exc:  # name the layer: "act1: ..."
                raise ShapeError(f"{name}: {exc}") from exc
            except NonFiniteError as exc:
                raise DivergenceError(name) from exc
        return h, params

    def zk_snapshot(self) -> dict[str, list[float]]:
        """Current trainable-threshold values, keyed by layer name."""
        snap: dict[str, list[float]] = {}
        for pname, t in self.params.items():
            layer, _, short = pname.rpartition(".")
            if short == "z_k":
                snap[layer] = [float(v) for v in t.data.reshape(-1)]
        return snap


# ---------------------------------------------------------------------------
# Losses and metrics.
# ---------------------------------------------------------------------------

def _targets(targets, n_rows: int, n_classes: int) -> np.ndarray:
    """Class indices as int64 (B,), or 2-D (one-hot or soft) rows as
    float64 (B, C), checked against (n_rows, n_classes) logits. A float
    index must be finite and integral: the cast would read 0.9 as 0. A 2-D
    target must be finite, so that a NaN is named here, not as a divergence
    in the loss."""
    arr = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    if arr.ndim == 2:
        if arr.shape[1] != n_classes:
            raise ShapeError(f"one-hot targets have {arr.shape[1]} columns, logits {n_classes}")
        arr = np.asarray(arr, dtype=np.float64)
        bad = arr[~np.isfinite(arr)]
        if bad.size:
            raise ValueError(f"target value {bad[0]} is not finite")
    else:
        arr = arr.reshape(-1)
        if arr.dtype.kind == "f":
            bad = arr[~np.isfinite(arr) | (np.trunc(arr) != arr)]
            if bad.size:
                raise ValueError(f"class label {bad[0]} is not an integer")
        bad = (arr < 0) | (arr >= n_classes)
        if np.count_nonzero(bad):
            raise ValueError(f"class label {arr[bad][0]} is out of range for {n_classes} classes")
        arr = arr.astype(np.int64, copy=False)
    if arr.shape[0] != n_rows:
        raise ShapeError(f"{arr.shape[0]} targets for {n_rows} logits rows")
    return arr


def _loss_targets(kind: str, logits, targets) -> np.ndarray:
    """`targets` checked by `_targets` against the logits of the `kind` loss."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss {kind!r}; expected one of {LOSS_KINDS}")
    shape = ad.value(logits).shape
    if kind == "softmax_xent" and len(shape) != 2:
        raise ShapeError(f"logits must be (B, C), got {shape}")
    return _targets(targets, *shape[:2])


def softmax_xent(logits, targets) -> Variable | Tensor:
    """Mean cross-entropy with log-sum-exp stabilization.

    Targets may be class indices (B,) or one-hot or soft rows (B, C). Bit
    for bit (sum(lse) - sum(z*hot)) / B with grad g*(ez/se - hot)/B, but
    class indices build no one-hot: z*hot is z*0.0 with z (= z*1.0) at the
    labels, and the grad subtracts 1.0 there only (x - 0.0 == x).

    Both passes walk the logits in row blocks (`tensor._row_blocks`)
    through one block scratch, so neither builds a full-size temporary.
    The forward's scratch holds z*hot, whose whole-array sum keeps
    np.add.reduce's bits (across blocks through a `tensor._TreeSum`), then
    exp(z - zmax) for the row sums se; it keeps only zmax and se, B floats
    each. The backward forms exp(z - zmax) again (storing it would keep a
    full-size array on the tape, the store-versus-recompute trade of Chen
    et al., 2016) straight into the grad, which it allocates once per call.
    """
    return _softmax_xent(logits, _loss_targets("softmax_xent", logits, targets))


def _softmax_xent(logits, y: np.ndarray) -> Variable | Tensor:
    """`softmax_xent` on targets `_targets` checked."""
    z = ad.value(logits).data
    b, c = z.shape
    # Class indices as a (B, 1) column, which the walk cuts with the rows.
    hot = y if y.ndim == 2 else y[:, None]
    rows = np.arange(b)
    zmax = np.maximum.reduce(z, axis=1, keepdims=True)
    se = np.empty((b, 1))
    step = _row_step(z)
    # One block sums z*hot whole; a walk feeds each block to the tree-exact sum.
    tree = _TreeSum(z.size) if step else None
    scratch = np.empty((step or b, c))
    # Overflow is left to the loss's finiteness check to report.
    with np.errstate(over="ignore", invalid="ignore"):
        for z_b, hot_b, zmax_b, se_b in _row_blocks((z, hot, zmax, se)):
            t = scratch[:len(z_b)]
            np.multiply(z_b, hot_b if y.ndim == 2 else 0.0, out=t)  # z*hot
            if y.ndim == 1:
                r, lab = rows[:len(z_b)], hot_b[:, 0]
                t[r, lab] = z_b[r, lab]
            if tree:
                tree.add(t)
            else:
                picked = np.add.reduce(t, axis=None)
            np.subtract(z_b, zmax_b, out=t)
            np.exp(t, out=t)
            np.add.reduce(t, axis=1, keepdims=True, out=se_b)
        if tree:
            picked = tree.total()
        lse = zmax[:, 0] + np.log(se[:, 0])
        out = Tensor._wrap(np.array([(np.add.reduce(lse) - picked) / b]))

    def vjp(g, needs):
        # The softmax, formed only by a backward pass; the same operations
        # in the same order as the whole-array ez / se chain.
        scale = g.reshape(-1)[0]
        p = np.empty_like(z)
        for z_b, hot_b, zmax_b, se_b, p_b in _row_blocks((z, hot, zmax, se, p)):
            np.subtract(z_b, zmax_b, out=p_b)
            np.exp(p_b, out=p_b)
            p_b /= se_b
            if y.ndim == 2:
                p_b -= hot_b
            else:
                p_b[rows[:len(z_b)], hot_b[:, 0]] -= 1.0
            p_b *= scale
            p_b /= b
        return (p,)

    return ad.emit("softmax_xent", (logits,), out, vjp)


def mse(pred, target) -> Variable | Tensor:
    """Mean squared error against a constant target."""
    diff = ad.sub(pred, target)
    return ad.mean_all(ad.mul(diff, diff))


def loss_fn(kind: str, logits, targets) -> Variable | Tensor:
    """The `kind` loss; a non-finite loss raises DivergenceError("loss")."""
    return _loss(kind, logits, _loss_targets(kind, logits, targets))


def _loss(kind: str, logits, y: np.ndarray) -> Variable | Tensor:
    """`loss_fn` on targets `_loss_targets` checked."""
    try:
        if kind == "softmax_xent":
            return _softmax_xent(logits, y)
        return mse(logits, y if y.ndim == 2 else
                   np.equal.outer(y, np.arange(ad.value(logits).shape[1])))
    except NonFiniteError as exc:
        raise DivergenceError("loss") from exc


def accuracy(logits: Tensor, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax is the label, checked as the losses
    check it; a (B, C) one-hot or soft target's label is its row's argmax."""
    return _accuracy(logits.data, _targets(labels, *logits.shape))


def _first_max(z: np.ndarray) -> np.ndarray:
    """np.argmax(z, axis=1) of a finite (B, C) array: the lowest column
    holding its row's maximum, with +0.0 equal to -0.0. np.argmax copies
    a read-only input whole (a Tensor's buffer is one) before searching;
    this reads z twice and allocates one (B, C) bool."""
    # A reduce along the rows pays about 30 ns a row, a fold over the
    # columns about 0.5 us a column: at 256 x 2, 1.3 against 9.7 us
    # (2-core x86-64).
    if z.shape[1] <= 4:
        zmax = functools.reduce(np.maximum, z.T)
    else:
        zmax = np.maximum.reduce(z, axis=1)
    return np.equal(z, zmax[:, None]).argmax(axis=1)


def _accuracy(z: np.ndarray, y: np.ndarray) -> float:
    """`accuracy` of logits z on targets `_targets` checked."""
    if y.ndim == 2:
        y = _first_max(y)
    # The count over the rows: np.mean's bits, without its Python wrapper.
    return float(np.count_nonzero(_first_max(z) == y) / y.size)


# ---------------------------------------------------------------------------
# Optimizers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adam"
    lr: float = 1e-3
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"optimizer kind must be sgd or adam, got {self.kind!r}")
        # Each test is written so that NaN fails it.
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not self.momentum >= 0:
            raise ValueError(f"momentum must be >= 0, got {self.momentum}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


class SGD:
    """W <- W - lr * (g + momentum * v), with v the running update.

    `step` maps the parameter vector w and its gradient g to a new vector;
    v is one vector like them and starts from 0.0.
    """

    def __init__(self, lr: float = 1e-3, momentum: float = 0.0):
        self.lr = lr
        self.momentum = momentum
        self._v = 0.0

    def step(self, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # the model checks w
            self._v = v = g + self.momentum * self._v
            return w - self.lr * v


class Adam:
    """Bias-corrected Adam with the standard defaults.

    `step` maps the parameter vector w and its gradient g to a new vector;
    the moments m and v are one vector each like them and start from 0.0.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = 0.0
        self._v = 0.0

    def step(self, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        with np.errstate(over="ignore", invalid="ignore"):  # the model checks w
            self._m = m = self.beta1 * self._m + (1.0 - self.beta1) * g
            self._v = v = self.beta2 * self._v + (1.0 - self.beta2) * g * g
            return w - self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def make_optimizer(spec: OptimizerSpec):
    if spec.kind == "sgd":
        return SGD(lr=spec.lr, momentum=spec.momentum)
    return Adam(lr=spec.lr, beta1=spec.beta1, beta2=spec.beta2, eps=spec.eps)


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    batch_size: int = 32
    seed: int = 0
    loss: str = "softmax_xent"
    val_split: float = 0.0

    def __post_init__(self):
        check_count("epochs", self.epochs, 0)
        check_count("batch_size", self.batch_size, 1)
        if not 0.0 <= self.val_split < 1.0:  # so that NaN fails it
            raise ValueError(f"val_split must lie in [0, 1), got {self.val_split}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_acc: float
    zk_snapshot: dict[str, list[float]]
    wall_ms: float


def evaluate(model: Model, x: Tensor, labels: np.ndarray, loss_kind: str = "softmax_xent",
             batch_size: int = 256) -> tuple[float, float]:
    """Forward-only loss and accuracy over a dataset.

    A non-finite activation or loss raises DivergenceError naming the
    batch and the layer (or "loss"), with no epoch and phase "evaluation";
    any other error keeps its class.
    """
    n = x.shape[0]
    total, correct = 0.0, 0.0
    for bi, start in enumerate(range(0, n, batch_size)):
        xb = Tensor._wrap(x.data[start:start + batch_size], finite=True)
        try:
            logits, _ = model.forward(xb, trainable=False)
            # The batch's labels are checked once, for the loss and accuracy.
            yb = _loss_targets(loss_kind, logits, np.asarray(labels)[start:start + batch_size])
            total += ad.value(_loss(loss_kind, logits, yb)).item() * xb.shape[0]
        except DivergenceError as exc:
            raise DivergenceError(exc.where, None, bi, "evaluation") from exc
        correct += _accuracy(logits.data, yb) * xb.shape[0]
    return total / n, correct / n


def train(model: Model, config: TrainConfig, dataset: tuple[Tensor, np.ndarray],
          on_epoch=None) -> list[EpochRecord]:
    """Mini-batch training; returns one EpochRecord per epoch.

    Deterministic for a given config seed: the initial split shuffle and
    every epoch's batch order come from one counter-based stream. A
    non-finite activation, loss or update (a non-finite grad included)
    aborts with DivergenceError naming the epoch, batch, phase and the
    layer, "loss" or parameter; after a finite step, an element below
    its parameter's lower bound is set to the bound. Other errors keep
    their class: a bad label, a val_split leaving no training rows, or a
    ShapeError prefixed with the layer name ("act1: ..."). With
    val_split = 0 the validation metrics are computed on the training
    split.
    """
    x, labels = dataset
    # Rows of labels, not flattened: the loss reads each batch's rows through
    # `_targets` (class indices, or one-hot or soft rows), as `evaluate` does.
    labels = np.atleast_1d(labels)
    n = x.shape[0]
    if n == 0 or labels.shape[0] != n:
        raise ValueError(f"dataset has {n} rows but {labels.shape[0]} labels")

    data_rng = RngState(config.seed, counter=_DATA_STREAM_OFFSET)
    order0 = data_rng.permutation(n)
    n_val = int(round(config.val_split * n))
    if n_val == n:
        raise ValueError(f"val_split {config.val_split} leaves no training rows: "
                         f"{n_val} of {n} rows go to validation")
    train_idx = order0[: n - n_val]
    val_idx = order0[n - n_val:]

    opt = make_optimizer(config.optimizer)
    w = _flat(t.data for t in model.params.values())
    records: list[EpochRecord] = []

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = train_idx[data_rng.permutation(train_idx.size)]
        loss_sum = 0.0
        for bi, start in enumerate(range(0, order.size, config.batch_size)):
            idx = order[start:start + config.batch_size]
            xb = Tensor._wrap(x.data[idx], finite=True)
            try:
                logits, pvars = model.forward(xb)
                batch_loss = loss_fn(config.loss, logits, labels[idx])
                ad.backward(batch_loss)
                # Raw sums: a non-finite grad is named at the parameter it reaches.
                g = _flat(v._grad_array() for v in pvars.values())
                g += 0.0  # the zero every grad lands on (see autodiff)
                w = opt.step(w, g)
                model._load(w)
            except DivergenceError as exc:
                raise DivergenceError(exc.where, epoch, bi, "training") from exc
            loss_sum += ad.value(batch_loss).item() * idx.size
            # The step's gather, tape and grads go now, not when the next step
            # or the epoch's validation pass rebinds these names.
            del xb, logits, pvars, batch_loss, g

        eval_idx = val_idx if val_idx.size else train_idx
        try:
            val_loss, val_acc = evaluate(model, Tensor._wrap(x.data[eval_idx], finite=True),
                                         labels[eval_idx], config.loss, config.batch_size)
        except DivergenceError as exc:
            raise DivergenceError(exc.where, epoch, exc.batch, "validation") from exc

        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / train_idx.size,
            val_loss=val_loss,
            val_acc=val_acc,
            zk_snapshot=model.zk_snapshot(),
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )
        records.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return records
