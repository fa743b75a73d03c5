"""The benchmark tracer still finds, wraps and restores ashlab's entry points.

perfbench/tracing.py patches module and class attributes by name, so a
renamed entry point, or a dispatch that captured a function object
before the patch, would silently zero its per-layer counters.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ashlab import activations as act
from ashlab import autodiff as ad
from ashlab import nn
from ashlab import stats as st
from ashlab import tensor
from ashlab.harness import compare, datasets, journal

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = SimpleNamespace(tensor=tensor, stats=st, autodiff=ad, activations=act, nn=nn,
                          datasets=datasets, compare=compare, journal=journal)
OWNERS = (tensor, st, ad, act, nn, nn.Model, nn.Adam, nn.SGD, datasets, journal,
          journal.JournalWriter)


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_install_counts_apply_spec_calls_and_uninstall_restores(monkeypatch):
    before = [dict(vars(owner)) for owner in OWNERS]
    x = tensor.Tensor(np.random.default_rng(0).normal(size=(4, 6)))
    tracer = load_tracing(monkeypatch).install(MODULES)
    try:
        assert act.apply_spec is not before[OWNERS.index(act)]["apply_spec"]
        act.apply_spec(act.preset("hard_ash"), x)
        act.apply_spec(act.preset("gelu"), x)
    finally:
        tracer.uninstall()
    assert tracer.acc("activations.apply").calls == 2
    assert tracer.acc("activations.hard_ash").calls == 1
    assert tracer.acc("activations.gelu").calls == 1
    for owner, attrs in zip(OWNERS, before):
        now = vars(owner)
        assert set(now) == set(attrs), owner
        assert all(now[name] is value for name, value in attrs.items()), owner


def test_train_epoch_counts_every_optimizer_step(monkeypatch):
    # nn.optimizer.self_ms reads 0 if the tracer no longer finds Adam.step.
    x, labels = datasets.two_moons(n=40, noise=0.1, seed=3)
    model = nn.Model([nn.Dense(2, 8), nn.Activation(act.preset("ash")), nn.Dense(8, 2)], seed=1)
    config = nn.TrainConfig(epochs=1, batch_size=16, seed=2)
    tracer = load_tracing(monkeypatch).install(MODULES)
    try:
        nn.train(model, config, (x, labels))
    finally:
        tracer.uninstall()
    assert tracer.steps == 3  # ceil(40 / 16) batches
    assert tracer.acc("nn.optimizer").calls >= 1
