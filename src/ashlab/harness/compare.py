"""Multi-activation training comparison on one dataset.

Trains one identical model per (activation, seed) pair, then emits
per-run curves, per-activation mean curves, and the first epoch at
which each run's validation loss drops below a relative cut (110% of
the reference activation's best validation loss on the same seed; the
reference is relu when present, else the first activation listed).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .. import activations as act
from .. import nn
from ..tensor import Tensor
from . import journal

DEFAULT_HIDDEN = (16, 16)
CUT_FACTOR = 1.10


@dataclass
class RunResult:
    activation: str
    seed: int
    records: list[nn.EpochRecord]
    failed: bool = False
    error: str = ""


def build_layers(activation: str, in_dim: int, n_classes: int) -> list[nn.Layer]:
    """MLP with one activation after each DEFAULT_HIDDEN layer."""
    spec = act.preset(activation)
    layers: list[nn.Layer] = []
    prev = in_dim
    for width in DEFAULT_HIDDEN:
        layers.append(nn.Dense(prev, width))
        layers.append(nn.Activation(spec))
        prev = width
    layers.append(nn.Dense(prev, n_classes))
    return layers


def run_comparison(activations: list[str], dataset: tuple[Tensor, np.ndarray],
                   seeds: int | list[int], epochs: int, batch_size: int = 32,
                   lr: float = 1e-3, val_split: float = 0.25) -> list[RunResult]:
    """One training run per (activation, seed); failed runs are kept, marked."""
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    if not seed_list:
        raise ValueError("seeds must name at least one run")
    x, labels = dataset
    in_dim = x.shape[1]
    n_classes = int(np.max(labels)) + 1
    results: list[RunResult] = []
    for name in activations:
        for seed in seed_list:
            layers = build_layers(name, in_dim, n_classes)
            model = nn.Model(layers, seed=seed)
            cfg = nn.TrainConfig(
                epochs=epochs, batch_size=batch_size, seed=seed,
                optimizer=nn.OptimizerSpec(kind="adam", lr=lr),
                val_split=val_split,
            )
            try:
                records = nn.train(model, cfg, dataset)
                results.append(RunResult(name, seed, records))
            except nn.DivergenceError as exc:
                results.append(RunResult(name, seed, [], failed=True, error=str(exc)))
    return results


def curve_rows(results: list[RunResult]) -> list[list]:
    rows = []
    for run in results:
        for r in run.records:
            rows.append([r.epoch, run.activation, run.seed,
                         repr(r.train_loss), repr(r.val_loss), repr(r.val_acc)])
    return rows


def mean_curve_rows(results: list[RunResult]) -> list[list]:
    by_act: dict[str, list[RunResult]] = {}
    order: list[str] = []
    for run in results:
        if run.activation not in by_act:
            order.append(run.activation)
        by_act.setdefault(run.activation, []).append(run)
    rows = []
    for name in order:
        runs = [r for r in by_act[name] if not r.failed]
        if not runs:
            continue
        n_epochs = min(len(r.records) for r in runs)
        for e in range(n_epochs):
            rows.append([
                e, name,
                repr(float(np.mean([r.records[e].train_loss for r in runs]))),
                repr(float(np.mean([r.records[e].val_loss for r in runs]))),
                repr(float(np.mean([r.records[e].val_acc for r in runs]))),
            ])
    return rows


def _reference_activation(activations_present: list[str]) -> str:
    return "relu" if "relu" in activations_present else activations_present[0]


def convergence_rows(results: list[RunResult], cut: float | None = None) -> list[list]:
    """Epochs-to-threshold per run; `cut` overrides the relative default."""
    order: list[str] = []
    for run in results:
        if run.activation not in order:
            order.append(run.activation)
    reference = _reference_activation(order)

    ref_best: dict[int, float] = {}
    for run in results:
        if run.activation == reference and not run.failed and run.records:
            ref_best[run.seed] = min(r.val_loss for r in run.records)

    rows = []
    for run in results:
        if run.failed:
            rows.append([run.activation, run.seed, "failed", "", ""])
            continue
        run_cut = cut if cut is not None else CUT_FACTOR * ref_best.get(run.seed, math.nan)
        hit = ""
        if math.isfinite(run_cut):
            for r in run.records:
                if r.val_loss < run_cut:
                    hit = r.epoch
                    break
        rows.append([run.activation, run.seed, "ok", repr(float(run_cut)), hit])
    return rows


def write_comparison(out_dir: str, results: list[RunResult], cut: float | None = None) -> dict[str, str]:
    """Write curves.csv, mean_curves.csv, convergence.csv; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "curves": os.path.join(out_dir, "curves.csv"),
        "mean_curves": os.path.join(out_dir, "mean_curves.csv"),
        "convergence": os.path.join(out_dir, "convergence.csv"),
    }
    journal.write_csv(paths["curves"], journal.CURVES_HEADER, curve_rows(results))
    journal.write_csv(paths["mean_curves"], journal.MEAN_CURVES_HEADER, mean_curve_rows(results))
    journal.write_csv(paths["convergence"], journal.CONVERGENCE_HEADER,
                      convergence_rows(results, cut))
    return paths
