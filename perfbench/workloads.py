"""The benchmark's three workloads, their gate operations and their checks.

Every workload repeats one *iteration* (a job a user would run) in a
closed loop on one thread, and every iteration trains a model, evaluates
it and runs the gate operations, so each end-to-end metric has a value
on each workload:

  workload   job timed as wall_s               gate ops run on
  mlp_small  `compare` path, 7 activations     the ash model's first hidden
             x 1 seed, 2-16-16-2, two_moons    pre-activations (256 x 16)
  mlp_wide   `train` path, 2-128-128-2         the model's first hidden
             smooth_ash, spirals               pre-activations (1024 x 128)
  gate_1m    ash, hard_ash, top-k masks, gelu, 2^20 inputs from the seed
             randn, and one nn.train epoch of
             a one-layer smooth_ash model

Outputs are deterministic for a seed, so every iteration's SHA-256
fingerprint must equal the warm-up iteration's; the warm-up outputs get
the full checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ashlab import activations as act
from ashlab import autodiff as ad
from ashlab import nn
from ashlab import stats as st
from ashlab import tensor
from ashlab.harness import compare, config, datasets, journal

MODULES = SimpleNamespace(tensor=tensor, stats=st, autodiff=ad, activations=act, nn=nn,
                          datasets=datasets, compare=compare, journal=journal)

ACTIVATIONS = ("relu", "swish", "ash", "l_ash", "f_ash_10", "f_ash_50", "f_ash_90")
TOPK = 30.0
ASH = act.preset("ash")
GELU = act.preset("gelu")

# Final val_acc floors, fixed from seeds 0-29 at the commit that added the
# benchmark: the worst of mlp_small's 210 runs (20 epochs) reached 0.75 and
# the worst mlp_wide run (8 epochs) 0.605. Chance is 0.5.
VAL_ACC_FLOOR = {"mlp_small": 0.65, "mlp_wide": 0.52}

# Quickselect's cost depends on the pivots the data hands it: on one input
# the work varied from 2.3N to 6N element visits. So each iteration times
# the exact top-k once on each of this many rotations of its input, and the
# total is one sample; one input alone would make topk_melem_per_s follow
# the seed.
TOPK_ROTATIONS = 16

# Computed (not measured) compulsory traffic of each gate op: one read of
# the input per pass the algorithm needs plus one write of the output.
GATE_BYTES_PER_ELEM = {
    "ash_fwd": 24,      # stats pass + gate pass read x, write out
    "ash_fwdbwd": 48,   # forward, then read g and x, write the x-gradient
    "topk": 9,          # read x once, write a 1-byte mask
    "hard_ash": 24,     # Welford pass + gate pass read x, write out
    "gaussian_mask": 17,  # Welford pass + compare pass, 1-byte mask
    "gelu": 16,         # read x, write out
    "randn": 8,         # write out
}


@dataclass
class Iteration:
    """What one iteration did, and its outputs for checks and fingerprints."""

    wall_s: float = 0.0
    epoch_ms: list[float] = field(default_factory=list)
    steps: int = 0
    eval_rows: int = 0
    eval_s: float = 0.0
    gate_s: dict[str, list[float]] = field(default_factory=dict)
    gate_elems: dict[str, int] = field(default_factory=dict)
    runs: list[tuple[str, str]] = field(default_factory=list)  # (run, failure or "")
    epoch_ms_by_run: dict[str, list[float]] = field(default_factory=dict)
    fingerprint: str = ""
    outputs: dict = field(default_factory=dict)

    def train_steps_per_s(self) -> float:
        return self.steps / (sum(self.epoch_ms) / 1e3)


def _timed(samples: list[float], fn):
    t0 = time.perf_counter()
    out = fn()
    samples.append(time.perf_counter() - t0)
    return out


def _sha(h, *arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


# ---------------------------------------------------------------------------
# Gate operations shared by every workload.
# ---------------------------------------------------------------------------

def ash_fwdbwd(x2d: tensor.Tensor, z0: float):
    """smooth_ash forward and backward on a Variable with a trainable z_k."""
    tape = ad.Tape()
    xv = tape.variable(x2d, requires_grad=True)
    zv = tape.variable(tensor.Tensor([z0]), requires_grad=True)
    out = act.apply_spec(ASH, xv, {"z_k": zv})
    ad.backward(ad.sum_all(out))
    return xv.grad.data, float(zv.grad.data[0])


def rotations(x: tensor.Tensor) -> list[tensor.Tensor]:
    """x and TOPK_ROTATIONS - 1 rotations of its elements, for the top-k timing."""
    flat = x.data.reshape(-1)
    return [tensor.Tensor(np.roll(flat, j * flat.size // TOPK_ROTATIONS).reshape(x.shape))
            for j in range(TOPK_ROTATIONS)]


def gate_probe(it: Iteration, rotated: list[tensor.Tensor], x2d: tensor.Tensor,
               reps: int) -> None:
    """Time the ash forward, its forward+backward and the exact top-k mask.

    `rotated[0]` feeds the forward (`reps` times), `x2d` the forward+backward
    (`reps` times) and every rotation the mask (once each, one sample); the
    last outputs are kept for the checks.
    """
    x = rotated[0]
    z0 = st.z_from_percentile(TOPK)
    for name in ("ash_fwd", "ash_fwdbwd", "topk"):
        it.gate_s.setdefault(name, [])
    for _ in range(reps):
        fwd = _timed(it.gate_s["ash_fwd"], lambda: act.apply_spec(ASH, x))
        gx, gz = _timed(it.gate_s["ash_fwdbwd"], lambda: ash_fwdbwd(x2d, z0))
    masks = _timed(it.gate_s["topk"], lambda: [st.exact_topk_mask(r, TOPK).mask
                                               for r in rotated])
    it.gate_elems.update(ash_fwd=x.size, ash_fwdbwd=x2d.size, topk=x.size * len(rotated))
    it.outputs.update(x=x.data, x2d=x2d.data, z0=z0, ash_fwd=fwd.data,
                      grad_x=gx, grad_z=gz, topk=masks[0], rotations=rotated, masks=masks)


def _probe_fingerprint(h, it: Iteration) -> None:
    o = it.outputs
    _sha(h, o["ash_fwd"], o["grad_x"], np.array([o["grad_z"]]), *o["masks"])


def _train_checks(records, floor: float | None) -> str:
    losses = [v for r in records for v in (r.train_loss, r.val_loss)]
    if not records:
        return "no epochs"
    if not all(math.isfinite(v) for v in losses):
        return "non-finite loss"
    if floor is not None and records[-1].val_acc < floor:
        return f"final val_acc {records[-1].val_acc} < floor {floor}"
    return ""


def _pre_activation(model: nn.Model, x: np.ndarray) -> tensor.Tensor:
    """First dense layer's output over the dataset: the first gate's input."""
    return tensor.Tensor(x @ model.params["dense0.W"].data + model.params["dense0.b"].data)


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    probe_reps = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = os.path.join(out_dir, self.name)

    def setup(self) -> None:
        """Generate the inputs, build the models and make one warm-up call.

        This is what `setup_s` times in a fresh interpreter. The warm-up
        call is one training step's forward and backward per model.
        """
        raise NotImplementedError

    def iterate(self) -> Iteration:
        raise NotImplementedError


def warm_step(model: nn.Model, x: tensor.Tensor, labels, batch: int) -> None:
    logits, _ = model.forward(tensor.Tensor(x.data[:batch]))
    ad.backward(nn.loss_fn("softmax_xent", logits, labels[:batch]))


class MlpSmall(Workload):
    """The paper's comparison through `compare.run_comparison` + `write_comparison`."""

    name = "mlp_small"
    epochs = 20
    probe_reps = 9

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        x, labels = datasets.gen_builtin("two_moons", 256, 0.1, self.seed)
        for a in ACTIVATIONS:
            warm_step(nn.Model(compare.build_layers(a, 2, 2), seed=self.seed), x, labels, 32)

    def iterate(self) -> Iteration:
        it = Iteration()
        ash_model: list[nn.Model] = []
        t0 = time.perf_counter()
        x, labels = datasets.gen_builtin("two_moons", 256, 0.1, self.seed)
        real_train = nn.train

        def train_then_evaluate(model, cfg, dataset, on_epoch=None):
            # compare.run_comparison calls nn.train once per run; each
            # trained model is then evaluated over the full dataset.
            records = real_train(model, cfg, dataset, on_epoch)
            t = time.perf_counter()
            it.outputs.setdefault("eval", []).append(nn.evaluate(model, x, labels))
            it.eval_s += time.perf_counter() - t
            it.eval_rows += x.shape[0]
            if model.layers[1].spec == ASH:
                ash_model.append(model)
            return records

        nn.train = train_then_evaluate
        try:
            results = compare.run_comparison(list(ACTIVATIONS), (x, labels), [self.seed],
                                             self.epochs, batch_size=32, lr=1e-3,
                                             val_split=0.25)
        finally:
            nn.train = real_train
        paths = compare.write_comparison(self.out_dir, results)
        it.wall_s = time.perf_counter() - t0

        n_train = x.shape[0] - int(round(0.25 * x.shape[0]))
        for run in results:
            it.epoch_ms += [r.wall_ms for r in run.records]
            it.epoch_ms_by_run[run.activation] = [r.wall_ms for r in run.records]
            it.steps += len(run.records) * math.ceil(n_train / 32)
            failure = run.error if run.failed else _train_checks(
                run.records, VAL_ACC_FLOOR[self.name])
            it.runs.append((run.activation, failure))

        h = hashlib.sha256()
        for key in ("curves", "mean_curves", "convergence"):
            with open(paths[key], "rb") as f:
                h.update(f.read())
        h.update(repr(it.outputs.get("eval")).encode())
        pre = _pre_activation(ash_model[0], x.data)
        gate_probe(it, rotations(pre), pre, self.probe_reps)
        _probe_fingerprint(h, it)
        it.fingerprint = h.hexdigest()
        return it


class MlpWide(Workload):
    """The `train` path: parse_config -> build_model -> nn.train -> save_model_dump."""

    name = "mlp_wide"
    epochs = 8
    probe_reps = 3

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        cfg = config.parse_config(json.dumps(self.config_doc()))
        x, labels = cfg.dataset.load()
        warm_step(cfg.build_model(), x, labels, cfg.train.batch_size)

    def config_doc(self) -> dict:
        dense = lambda i, o: {"kind": "dense", "in": i, "out": o}
        ash = {"kind": "activation", "spec": {"kind": "smooth_ash"}}
        return {
            "model": {"layers": [dense(2, 128), ash, dense(128, 128), ash, dense(128, 2)]},
            "train": {"optimizer": {"kind": "adam", "lr": 1e-3}, "batch_size": 64,
                      "epochs": self.epochs, "seed": self.seed, "loss": "softmax_xent",
                      "val_split": 0.25},
            "dataset": {"builtin": "spirals", "n": 1024, "noise": 0.05, "seed": self.seed},
        }

    def iterate(self) -> Iteration:
        it = Iteration()
        doc = json.dumps(self.config_doc())
        journal_path = os.path.join(self.out_dir, "metrics.jsonl")
        model_path = os.path.join(self.out_dir, "model.bin")
        t0 = time.perf_counter()
        cfg = config.parse_config(doc)
        x, labels = cfg.dataset.load()
        model = cfg.build_model()
        records = []
        failure = ""
        try:
            with journal.JournalWriter(journal_path) as writer:
                def on_epoch(record):
                    records.append(record)
                    writer.append(record)
                nn.train(model, cfg.train, (x, labels), on_epoch=on_epoch)
        except nn.DivergenceError as exc:
            failure = str(exc)
        journal.save_model_dump(model_path, model.params)
        t = time.perf_counter()
        it.outputs["eval"] = nn.evaluate(model, x, labels)
        it.eval_s = time.perf_counter() - t
        it.eval_rows = x.shape[0]
        it.wall_s = time.perf_counter() - t0

        n_train = x.shape[0] - int(round(cfg.train.val_split * x.shape[0]))
        it.epoch_ms = [r.wall_ms for r in records]
        it.steps = len(records) * math.ceil(n_train / cfg.train.batch_size)
        it.runs.append(("smooth_ash", failure or _train_checks(
            records, VAL_ACC_FLOOR[self.name])))

        h = hashlib.sha256()
        with open(journal_path, encoding="utf-8") as f:
            for line in f:
                row = json.loads(line)
                row.pop("wall_ms")  # the only field that is not reproducible
                h.update(json.dumps(row, sort_keys=True).encode())
        with open(model_path, "rb") as f:
            h.update(f.read())
        h.update(repr(it.outputs["eval"]).encode())
        pre = _pre_activation(model, x.data)
        gate_probe(it, rotations(pre), pre, self.probe_reps)
        _probe_fingerprint(h, it)
        it.fingerprint = h.hexdigest()
        return it


class Gate1M(Workload):
    """The paper's claim: the mu + z*sigma gate against exact top-k at 2^20."""

    name = "gate_1m"
    n = 1 << 20
    rows = 64

    def setup(self) -> None:
        g = np.random.default_rng(self.seed)
        self.x = tensor.Tensor(g.standard_normal(self.n))
        self.rotated = rotations(self.x)
        self.x2d = tensor.Tensor(self.x.data.reshape(self.rows, -1))
        self.labels = g.integers(0, self.x2d.shape[1], self.rows)
        warm_step(self.model(), self.x2d, self.labels, self.rows)

    def model(self) -> nn.Model:
        return nn.Model([nn.Activation(ASH)], seed=self.seed)

    def iterate(self) -> Iteration:
        it = Iteration()
        o = it.outputs
        t0 = time.perf_counter()
        gate_probe(it, self.rotated, self.x2d, self.probe_reps)
        z30 = o["z0"]
        for name in ("hard_ash", "gaussian_mask", "gelu", "randn"):
            it.gate_s[name] = []
        o["hard_ash"] = _timed(it.gate_s["hard_ash"], lambda: act.hard_ash(self.x, z30)).data
        o["gaussian_mask"] = _timed(it.gate_s["gaussian_mask"],
                                    lambda: st.gaussian_topk_mask(self.x, TOPK)).mask
        o["gelu"] = _timed(it.gate_s["gelu"], lambda: act.apply_spec(GELU, self.x)).data
        o["randn"] = _timed(it.gate_s["randn"], lambda: tensor.randn(
            (self.n,), tensor.RngState(self.seed))).data

        # One epoch of a one-layer model whose logits are smooth_ash(x):
        # a single full-batch step trains z_k, then the epoch's evaluation.
        model = self.model()
        cfg = nn.TrainConfig(epochs=1, batch_size=self.rows, seed=self.seed)
        failure = ""
        try:
            records = nn.train(model, cfg, (self.x2d, self.labels))
        except nn.DivergenceError as exc:
            records, failure = [], str(exc)
        t = time.perf_counter()
        o["eval"] = nn.evaluate(model, self.x2d, self.labels)
        it.eval_s = time.perf_counter() - t
        it.eval_rows = self.rows
        it.wall_s = time.perf_counter() - t0

        it.epoch_ms = [r.wall_ms for r in records]
        it.steps = len(records)
        it.runs.append(("zk_train", failure or _train_checks(records, None)))
        it.gate_elems.update({name: self.n for name in ("hard_ash", "gaussian_mask",
                                                        "gelu", "randn")})
        h = hashlib.sha256()
        _probe_fingerprint(h, it)
        _sha(h, o["hard_ash"], o["gaussian_mask"], o["gelu"], o["randn"],
             model.params["act0.z_k"].data, np.array(o["eval"]))
        it.fingerprint = h.hexdigest()
        return it


WORKLOADS = {w.name: w for w in (MlpSmall, MlpWide, Gate1M)}


# ---------------------------------------------------------------------------
# Checks on the warm-up outputs, each against an independent numpy writing.
# ---------------------------------------------------------------------------

def ash_reference(x: np.ndarray, z: float) -> np.ndarray:
    """x * S(2(x - mu - z*sigma)), population stats over the last axis."""
    mu = x.mean(axis=-1, keepdims=True)
    sigma = np.maximum(np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True)), st.SIGMA_FLOOR)
    with np.errstate(over="ignore"):
        return x / (1.0 + np.exp(-2.0 * (x - mu - z * sigma)))


def check_ash(o) -> str:
    ref = ash_reference(o["x"], 0.0)
    err = np.abs(o["ash_fwd"] - ref) / np.maximum(np.abs(ref), 1e-300)
    err[(ref == 0.0) & (o["ash_fwd"] == 0.0)] = 0.0
    worst = float(err.max())
    return "" if worst <= 1e-12 else f"ash forward relative error {worst:.3g} > 1e-12"


def check_topk(o) -> str:
    for r, mask in zip(o["rotations"], o["masks"]):
        failure = _check_topk(r.data.reshape(-1), mask.reshape(-1))
        if failure:
            return failure
    return ""


def _check_topk(x: np.ndarray, mask: np.ndarray) -> str:
    m = math.ceil(TOPK * x.size / 100.0)
    if int(mask.sum()) != m:
        return f"quickselect kept {int(mask.sum())}, expected ceil(kN/100) = {m}"
    ref = np.zeros(x.size, dtype=bool)
    ref[np.argpartition(-x, m - 1)[:m]] = True
    if np.array_equal(mask, ref) or np.array_equal(np.sort(x[mask]), np.sort(x[ref])):
        return ""  # the second test admits ties at the cut, broken differently
    return "quickselect set differs from numpy argpartition"


def check_gaussian(o) -> str:
    keep, exact = o["gaussian_mask"].reshape(-1), o["topk"].reshape(-1)
    frac = 100.0 * keep.mean()
    jac = (keep & exact).sum() / (keep | exact).sum()
    if abs(frac - TOPK) > 1.0:
        return f"gaussian mask kept {frac:.3f}%, k = {TOPK}"
    return "" if jac >= 0.90 else f"gaussian mask Jaccard {jac:.4f} < 0.90"


def check_grad(o) -> str:
    x, z = o["x2d"], o["z0"]
    h = 1e-4
    fd = (ash_reference(x, z + h).sum() - ash_reference(x, z - h).sum()) / (2 * h)
    rel = abs(o["grad_z"] - fd) / max(abs(fd), 1e-12)
    return "" if rel <= 1e-6 else f"z_k gradient {o['grad_z']} vs central difference {fd}"


def warm_checks(o: dict) -> list[tuple[str, str]]:
    """(check, failure or "") for the full checks on the reference outputs."""
    checks = [("ash_forward", check_ash(o)), ("quickselect", check_topk(o)),
              ("zk_gradient", check_grad(o))]
    if "gaussian_mask" in o:
        checks.append(("gaussian_mask", check_gaussian(o)))
    return checks
