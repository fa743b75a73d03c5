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
    # nn.optimizer.self_ms reads 0 if the tracer no longer finds Adam.step
    # or SGD.step, and is off if a step calls them more or less than once.
    x, labels = datasets.two_moons(n=40, noise=0.1, seed=3)
    for kind in ("adam", "sgd"):
        model = nn.Model([nn.Dense(2, 8), nn.Activation(act.preset("ash")), nn.Dense(8, 2)],
                         seed=1)
        config = nn.TrainConfig(epochs=1, batch_size=16, seed=2,
                                optimizer=nn.OptimizerSpec(kind=kind))
        tracer = load_tracing(monkeypatch).install(MODULES)
        try:
            nn.train(model, config, (x, labels))
        finally:
            tracer.uninstall()
        assert tracer.steps == 3, kind  # ceil(40 / 16) batches
        assert tracer.acc("nn.optimizer").calls == 3, kind


def test_masks_count_their_kernels_once(monkeypatch):
    # stats.kth_largest.self_ms, stats.gaussian_mask and tensor.welford read
    # 0 if the masks stop reaching these by the names the tracer wraps, and
    # are off if one mask calls them more or less than once.
    x = tensor.Tensor(np.random.default_rng(4).normal(size=1000))
    tracer = load_tracing(monkeypatch).install(MODULES)
    try:
        st.exact_topk_mask(x, 30.0)
        topk_calls = {name: tracer.acc(name).calls for name in
                      ("stats.kth_largest", "stats.gaussian_mask", "tensor.welford")}
        st.gaussian_topk_mask(x, 30.0)
    finally:
        tracer.uninstall()
    assert topk_calls == {"stats.kth_largest": 1, "stats.gaussian_mask": 0, "tensor.welford": 0}
    assert tracer.acc("stats.kth_largest").calls == 1
    assert tracer.acc("stats.gaussian_mask").calls == 1
    assert tracer.acc("tensor.welford").calls == 1


def test_train_epoch_counts_each_steps_records_and_each_forwards_products(monkeypatch):
    # autodiff.ops_per_step and tensor.matmul.calls read 0 if a refactor
    # inlines `record` into `emit`, or if a layer's product no longer goes
    # through `tensor.matmul`.
    x, labels = datasets.two_moons(n=40, noise=0.1, seed=3)
    model = nn.Model([nn.Dense(2, 8), nn.Activation(act.preset("ash")), nn.Dense(8, 2)], seed=1)
    config = nn.TrainConfig(epochs=1, batch_size=16, seed=2)
    tracer = load_tracing(monkeypatch).install(MODULES)
    try:
        nn.train(model, config, (x, labels))
    finally:
        tracer.uninstall()
    # ceil(40 / 16) = 3 steps, each recording dense0, act1, dense2 and the
    # loss; the epoch's evaluation reads the 40 rows in 3 batches too. Every
    # forward, trained or evaluated, makes two products.
    assert tracer.steps == 3
    assert tracer.acc("autodiff.ops").calls == 3 * 4
    assert tracer.acc("autodiff.tape_len").calls == 3 * 3
    assert tracer.acc("tensor.matmul").calls == (3 + 3) * 2
    # Both the steps and the evaluation batches hold 16, 16 and 8 rows.
    assert tracer.acc("tensor.matmul").flop == 2 * sum(
        2 * rows * (2 * 8 + 8 * 2) for rows in (16, 16, 8))


def test_traced_randn_counts_its_elements(monkeypatch):
    # tensor.randn.ns_per_elem reads 0 or off if a draw of more than one
    # block no longer reaches the tracer as one tensor.randn call.
    tracer = load_tracing(monkeypatch).install(MODULES)
    try:
        tensor.randn((2**15 + 1,), tensor.RngState(1))
    finally:
        tracer.uninstall()
    assert tracer.acc("tensor.randn").calls == 1
    assert tracer.acc("tensor.randn").elems == 2**15 + 1


def test_walked_validation_counts_one_eval_and_a_forward_per_row_block(monkeypatch):
    # nn.eval.self_ms reads 0 if train stops calling the module-global
    # evaluate. 8 rows of 32768 are above _WHOLE_ELEMS, so each epoch's
    # validation runs the model once per one-row block, after the epoch's
    # one training step.
    rng = np.random.default_rng(6)
    x = tensor.Tensor(rng.standard_normal((8, 32768)))
    labels = rng.integers(0, 32768, 8)
    model = nn.Model([nn.Activation(act.preset("ash"))], seed=1)
    config = nn.TrainConfig(epochs=2, batch_size=8, seed=2)
    tracer = load_tracing(monkeypatch).install(MODULES)
    try:
        nn.train(model, config, (x, labels))
    finally:
        tracer.uninstall()
    assert tracer.steps == 2
    assert tracer.acc("nn.eval").calls == 2
    assert tracer.acc("nn.forward").calls == 2 * (1 + 8)
