"""Desk-scale neural networks: layers, losses, optimizers, training loop.

Models are containers of layer specs plus a name -> Tensor parameter
registry; every forward pass wraps the current parameters as Variables
on a fresh tape (define-by-run). Training is single-threaded and fully
deterministic for a given seed: weight init and data ordering draw from
disjoint counter ranges of one seeded stream.

The model owns the parameter layout: one (name, slice, shape) row per
parameter and one vector of lower bounds (-inf where a parameter has
none). `train` steps every parameter as one float64 vector: the
optimizers are elementwise math on (w, g) vectors, and after each step
the model checks the new vector finite once, applies the bounds and
points its parameters at read-only views of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import activations as act
from . import autodiff as ad
from . import tensor
from .autodiff import Variable
from .tensor import NonFiniteError, RngState, ShapeError, Tensor

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
    """A layer whose every field is an extent, which must be >= 1."""

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


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

def dense(x: Variable, w: Variable, b: Variable) -> Variable:
    """Affine map x @ w + b, (B, i) x (i, o) + (o,), as one tape record.

    Bitwise equal to recording the matmul and the row-broadcast bias add
    as two primitives, in value and in all three gradients.
    """
    if b.value.shape != (w.value.shape[-1],):
        raise ShapeError(f"dense bias must be ({w.value.shape[-1]},), got {b.value.shape}")
    out = tensor.matmul(x.value, w.value, b.value)
    xd, wd = x.value.data, w.value.data
    return ad.record(x.tape, "dense", (x, w, b), out, lambda g, needs: (
        ad.matmul_grads(g, needs, xd, wd) + (needs[2] and g.sum(axis=0),)))


def conv_patches(x: Variable, kh: int, kw: int) -> Variable:
    """im2col: (B, H, W, C) -> (B*OH*OW, kh*kw*C) sliding patches."""
    if len(x.value.shape) != 4:
        raise ShapeError(f"conv input must be rank-4 (B,H,W,C), got {x.value.shape}")
    data = x.value.data
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

    return ad.record(x.tape, "conv_patches", (x,), out, vjp)


def _apply_layer(layer: Layer, name: str, x: Variable,
                 pvars: dict[str, Variable]) -> Variable:
    if isinstance(layer, Dense):
        if len(x.value.shape) != 2 or x.value.shape[1] != layer.in_dim:
            raise ShapeError(f"expected (B, {layer.in_dim}), got {x.value.shape}")
        return dense(x, pvars[f"{name}.W"], pvars[f"{name}.b"])
    if isinstance(layer, Conv2d):
        if len(x.value.shape) == 3 and layer.cin == 1:
            # Channelless image stacks (e.g. IDX) get an implicit C=1 axis.
            shape = x.value.shape
            x = ad.reshape(x, (shape[0], shape[1], shape[2], 1))
        if len(x.value.shape) != 4 or x.value.shape[3] != layer.cin:
            raise ShapeError(f"expected (B,H,W,{layer.cin}), got {x.value.shape}")
        b, h, w, _ = x.value.shape
        oh, ow = h - layer.kh + 1, w - layer.kw + 1
        patches = conv_patches(x, layer.kh, layer.kw)
        pre = dense(patches, pvars[f"{name}.W"], pvars[f"{name}.b"])
        return ad.reshape(pre, (b, oh, ow, layer.cout))
    if isinstance(layer, Flatten):
        shape = x.value.shape
        return ad.reshape(x, (shape[0], int(np.prod(shape[1:]))))
    if isinstance(layer, Activation):
        prefix = f"{name}."
        params = {pn[len(prefix):]: v for pn, v in pvars.items() if pn.startswith(prefix)}
        return act.apply_spec(layer.spec, x, params)
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
        lower = []
        for layer, name in zip(self.layers, self.layer_names):
            bounds = act.param_lower_bounds(layer.spec) if isinstance(layer, Activation) else {}
            for pname, t in _init_layer_params(layer, name, rng).items():
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
        if not finite.all():
            where = next(pname for pname, sl, _ in self._layout if not finite[sl].all())
            raise DivergenceError(where) from NonFiniteError(
                "tensor values must be finite (no NaN/Inf)")
        np.copyto(w, self._lower, where=w < self._lower)
        w.setflags(write=False)
        for pname, sl, shape in self._layout:
            self.params[pname] = Tensor._wrap(w[sl].reshape(shape), finite=True)

    def forward(self, batch: Tensor, trainable: bool = True) -> tuple[Variable, dict[str, Variable]]:
        """Run the layers on a fresh tape; returns (output, param Variables)."""
        tape = ad.Tape()
        pvars = {name: tape.variable(t, requires_grad=trainable, name=name)
                 for name, t in self.params.items()}
        h = tape.variable(batch)
        for layer, name in zip(self.layers, self.layer_names):
            try:
                h = _apply_layer(layer, name, h, pvars)
            except ShapeError as exc:  # name the layer: "act1: ..."
                raise ShapeError(f"{name}: {exc}") from exc
            except NonFiniteError as exc:
                raise DivergenceError(name) from exc
        return h, pvars

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
    float64 (B, C), checked against (n_rows, n_classes) logits."""
    arr = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    if arr.ndim == 2:
        if arr.shape[1] != n_classes:
            raise ShapeError(f"one-hot targets have {arr.shape[1]} columns, logits {n_classes}")
        arr = np.asarray(arr, dtype=np.float64)
    else:
        arr = np.asarray(arr, dtype=np.int64).reshape(-1)
        bad = arr[(arr < 0) | (arr >= n_classes)]
        if bad.size:
            raise ValueError(f"class label {bad[0]} is out of range for {n_classes} classes")
    if arr.shape[0] != n_rows:
        raise ShapeError(f"{arr.shape[0]} targets for {n_rows} logits rows")
    return arr


def softmax_xent(logits: Variable, targets) -> Variable:
    """Mean cross-entropy with log-sum-exp stabilization.

    Targets may be class indices (B,) or one-hot or soft rows (B, C). Bit
    for bit (sum(lse) - sum(z*hot)) / B with grad g*(ez/se - hot)/B, but
    class indices build no one-hot: z*hot is z*0.0 with z (= z*1.0) at the
    labels, and the grad subtracts 1.0 there only (x - 0.0 == x).
    """
    z = logits.value.data
    if z.ndim != 2:
        raise ShapeError(f"logits must be (B, C), got {logits.value.shape}")
    b, c = z.shape
    y = _targets(targets, b, c)
    rows = np.arange(b)
    ez = np.multiply(z, y if y.ndim == 2 else 0.0)  # z*hot, then the shifted exp
    if y.ndim == 1:
        ez[rows, y] = z[rows, y]
    picked = float(ez.sum())
    zmax = z.max(axis=1, keepdims=True)
    np.subtract(z, zmax, out=ez)
    np.exp(ez, out=ez)
    se = ez.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(se[:, 0])
    out = Tensor._wrap(np.array([(lse.sum() - picked) / b]))

    def vjp(g, needs):
        p = ez / se  # the softmax, formed only by a backward pass
        if y.ndim == 2:
            p -= y
        else:
            p[rows, y] -= 1.0
        p *= g.reshape(-1)[0]
        p /= b
        return (p,)

    return ad.record(logits.tape, "softmax_xent", (logits,), out, vjp)


def mse(pred: Variable, target) -> Variable:
    """Mean squared error against a constant target."""
    diff = ad.sub(pred, target)
    return ad.mean_all(ad.mul(diff, diff))


def loss_fn(kind: str, logits: Variable, targets) -> Variable:
    """The `kind` loss; a non-finite loss raises DivergenceError("loss")."""
    try:
        if kind == "softmax_xent":
            return softmax_xent(logits, targets)
        if kind == "mse":
            y = _targets(targets, *logits.value.shape[:2])
            return mse(logits, y if y.ndim == 2 else
                       np.equal.outer(y, np.arange(logits.value.shape[1])))
    except NonFiniteError as exc:
        raise DivergenceError("loss") from exc
    raise ValueError(f"unknown loss {kind!r}; expected one of {LOSS_KINDS}")


def accuracy(logits: Tensor, labels: np.ndarray) -> float:
    pred = np.argmax(logits.data, axis=1)
    return float(np.mean(pred == np.asarray(labels).reshape(-1)))


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
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.val_split < 1.0:
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
        yb = np.asarray(labels)[start:start + batch_size]
        try:
            logits, _ = model.forward(xb, trainable=False)
            total += loss_fn(loss_kind, logits, yb).value.item() * xb.shape[0]
        except DivergenceError as exc:
            raise DivergenceError(exc.where, None, bi, "evaluation") from exc
        correct += accuracy(logits.value, yb) * xb.shape[0]
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
    labels = np.asarray(labels).reshape(-1)
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
            yb = labels[idx]
            try:
                logits, pvars = model.forward(xb)
                batch_loss = loss_fn(config.loss, logits, yb)
                ad.backward(batch_loss)
                # Raw sums: a non-finite grad is named at the parameter it reaches.
                g = _flat(v._grad_array() for v in pvars.values())
                g += 0.0  # the zero every grad lands on (see autodiff)
                w = opt.step(w, g)
                model._load(w)
            except DivergenceError as exc:
                raise DivergenceError(exc.where, epoch, bi, "training") from exc
            loss_sum += batch_loss.value.item() * idx.size

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
