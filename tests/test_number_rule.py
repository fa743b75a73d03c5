"""The one number rule (`tensor.check_number`) at every boundary.

A direct call and a config meet the same rule: bool, NaN and ±inf are
rejected, an integer field takes an integer type only, and the error
names the field and the bound. The mutation fuzz drives the CLI with
one field of a valid tiny config changed at a time.
"""

import json
import math
import random
import re

import numpy as np
import pytest

from ashlab import activations as act
from ashlab import autodiff as ad
from ashlab import nn
from ashlab import stats as st
from ashlab.harness import bench as bench_mod
from ashlab.harness import cli, datasets
from ashlab.tensor import RngState, ShapeError, Tensor, check_number, full, randn

X = Tensor([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]])

# (field named in the message, is it an integer field, the call with the value).
BOUNDARIES = {
    "AshParams.z_k": ("z_k", False, lambda v: act.AshParams(z_k=v)),
    "AshParams.alpha": ("alpha", False, lambda v: act.AshParams(alpha=v)),
    "AshParams.leak": ("leak", False, lambda v: act.AshParams(leak=v)),
    "AshParams.k": ("k", False, lambda v: act.AshParams(k=v)),
    "AshParams.channels": ("channels", True,
                           lambda v: act.AshParams(per_channel_z=True, channels=v)),
    "GeneralizedSwishParams.a": ("a", False, lambda v: act.GeneralizedSwishParams(a=v)),
    "GeneralizedSwishParams.b": ("b", False, lambda v: act.GeneralizedSwishParams(b=v)),
    "ActivationSpec.slope": ("slope", False, lambda v: act.ActivationSpec("lrelu", slope=v)),
    "ActivationSpec.elu_a": ("elu_a", False, lambda v: act.ActivationSpec("elu", elu_a=v)),
    "OptimizerSpec.lr": ("lr", False, lambda v: nn.OptimizerSpec(lr=v)),
    "OptimizerSpec.momentum": ("momentum", False, lambda v: nn.OptimizerSpec("sgd", momentum=v)),
    "OptimizerSpec.beta1": ("beta1", False, lambda v: nn.OptimizerSpec(beta1=v)),
    "OptimizerSpec.beta2": ("beta2", False, lambda v: nn.OptimizerSpec(beta2=v)),
    "OptimizerSpec.eps": ("eps", False, lambda v: nn.OptimizerSpec(eps=v)),
    "TrainConfig.epochs": ("epochs", True, lambda v: nn.TrainConfig(epochs=v)),
    "TrainConfig.batch_size": ("batch_size", True,
                               lambda v: nn.TrainConfig(epochs=1, batch_size=v)),
    "TrainConfig.val_split": ("val_split", False, lambda v: nn.TrainConfig(epochs=1, val_split=v)),
    "Dense.in_dim": ("in_dim", True, lambda v: nn.Dense(v, 2)),
    "Dense.out_dim": ("out_dim", True, lambda v: nn.Dense(2, v)),
    "Conv2d.kh": ("kh", True, lambda v: nn.Conv2d(v, 1, 1, 1)),
    "Conv2d.cout": ("cout", True, lambda v: nn.Conv2d(1, 1, 1, v)),
    "evaluate.batch_size": ("batch_size", True, lambda v: nn.evaluate(
        nn.Model([nn.Dense(3, 2)]), X, np.array([0, 1]), batch_size=v)),
    "full.extent": ("extent", True, lambda v: full((v, 3), 1.0)),
    "randn.extent": ("extent", True, lambda v: randn((v,), RngState(0))),
    "reshape.extent": ("extent", True, lambda v: Tensor(np.ones(4)).reshape((v, 2))),
    "RngState.seed": ("seed", True, lambda v: RngState(v)),
    "RngState.counter": ("counter", True, lambda v: RngState(0, v)),
    "RngState.normal.mean": ("mean", False, lambda v: RngState(0).normal(2, mean=v)),
    "RngState.normal.std": ("std", False, lambda v: RngState(0).normal(2, std=v)),
    "two_moons.n": ("n", True, lambda v: datasets.two_moons(v)),
    "two_moons.noise": ("noise", False, lambda v: datasets.two_moons(8, noise=v)),
    "blobs.noise": ("noise", False, lambda v: datasets.blobs(8, noise=v)),
    "spirals.noise": ("noise", False, lambda v: datasets.spirals(8, noise=v)),
    "fd_check.h": ("h", False, lambda v: ad.fd_check(ad.sum_all, Tensor([1.0]), h=v)),
    "z_from_percentile.k": ("percentile k", False, st.z_from_percentile),
    "percentile_from_z.z": ("z", False, st.percentile_from_z),
    "topk_count.k": ("percentile k", False, lambda v: st.topk_count(10, v)),
    "gaussian_topk_mask.k": ("percentile k", False, lambda v: st.gaussian_topk_mask(X, v)),
    "kth_largest.m": ("m", True, lambda v: st.kth_largest(X, v)),
    "fixed_ash.k": ("k", False, lambda v: act.fixed_ash(X, k=v)),
    "smooth_ash.alpha": ("alpha", False, lambda v: act.smooth_ash(X, alpha=v)),
    "smooth_ash.z_k": ("z_k", False, lambda v: act.smooth_ash(X, z_k=v)),
    "hard_ash.z_k": ("z_k", False, lambda v: act.hard_ash(X, z_k=v)),
    "leaky_ash.leak": ("leak", False, lambda v: act.leaky_ash(X, leak=v)),
    "run_bench.size": ("size", True, lambda v: bench_mod.run_bench("relu", [v])),
}

BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "True": True, "2.5": 2.5}


@pytest.mark.parametrize("boundary,value", [
    (boundary, value) for boundary, (_, integer, _) in BOUNDARIES.items()
    for value in BAD if integer or value != "2.5"])  # 2.5 only where an integer is due
def test_every_boundary_rejects_what_the_rule_rejects(boundary, value):
    field, _, call = BOUNDARIES[boundary]
    expected = ShapeError if field == "extent" else ValueError
    with pytest.raises(ValueError, match="^" + re.escape(field) + " must be ") as err:
        call(BAD[value])
    assert type(err.value) is expected
    assert expected is ValueError or " in shape (" in str(err.value)


@pytest.mark.parametrize("value,kwargs,message", [
    ("a", {}, "x must be a finite number, got 'a'"),
    (3.0, {"integer": True}, "x must be an integer, got 3.0"),
    (0, {"gt": 0}, "x must be a finite number > 0, got 0"),
    (1, {"ge": 0, "lt": 1}, "x must be a finite number >= 0 and < 1, got 1"),
    (101, {"gt": 0, "le": 100}, "x must be a finite number > 0 and <= 100, got 101"),
    (6, {"integer": True, "ge": 1, "le": 5}, "x must be an integer >= 1 and <= 5, got 6"),
])
def test_check_number_names_the_field_and_the_bounds(value, kwargs, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        check_number("x", value, **kwargs)


def test_check_number_returns_python_numbers():
    assert check_number("x", np.int64(3), integer=True, ge=1) == 3
    assert type(check_number("x", np.int64(3), integer=True)) is int
    assert type(check_number("x", np.float32(0.5), gt=0)) is float
    assert type(check_number("x", 2, ge=0)) is float
    with pytest.raises(ValueError, match="finite"):
        check_number("x", 10 ** 400)  # an int past the float range is not finite


# ---------------------------------------------------------------------------
# Mutation fuzz: one field of a valid tiny config at a time, through cli.main.
# ---------------------------------------------------------------------------

TRAIN = {
    "model": {"layers": [
        {"kind": "dense", "in": 2, "out": 4},
        {"kind": "activation", "spec": {"kind": "leaky_ash", "alpha": 1.0, "leak_init": 0.01}},
        {"kind": "dense", "in": 4, "out": 2},
    ]},
    "train": {"optimizer": {"kind": "adam", "lr": 0.01, "eps": 1e-8}, "batch_size": 8,
              "epochs": 1, "seed": 0, "val_split": 0.25},
    "dataset": {"builtin": "two_moons", "n": 16, "noise": 0.1, "seed": 1},
}
COMPARE = {"--epochs": "1", "--batch-size": "8", "--lr": "0.01", "--val-split": "0.25",
           "--seeds": "1", "--cut": "0.5", "n": "16", "noise": "0.1", "seed": "1"}
# A JSON key or CLI flag -> the dataclass attribute a range message names.
ATTRS = {"in": "in_dim", "out": "out_dim", "leak_init": "leak", "--batch-size": "batch_size",
         "--val-split": "val_split"}
WRONG_TYPES = [None, "x", True, [1], {}]
MUTANTS = ["wrong-type", math.nan, math.inf, -math.inf, 0, -1, 2.5, 1e300]


def _leaves(node, path=()):
    """The path of every scalar in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _fields():
    """(kind, field, its wrong-type value) for every field the fuzz mutates."""
    rng = random.Random(0)  # picks each field's wrong-type value
    for path in _leaves(TRAIN):
        yield "train", path, rng.choice(WRONG_TYPES)
    for flag in COMPARE:
        yield "compare", flag, rng.choice(["x", "true", "[1]"])


def _run(kind, field, value, case_dir):
    out = str(case_dir / "out")
    if kind == "train":
        doc = json.loads(json.dumps(TRAIN))
        node = doc
        for key in field[:-1]:
            node = node[key]
        node[field[-1]] = value
        path = case_dir / "cfg.json"
        path.write_text(json.dumps(doc))
        return cli.main(["train", "--config", str(path), "--out", out])
    args = dict(COMPARE, **{field: value})
    dataset = "two_moons(" + ",".join(f"{k}={args.pop(k)}" for k in ("n", "noise", "seed")) + ")"
    return cli.main(["compare", "--activations", "relu", "--dataset", dataset, "--out", out,
                     *(f"{flag}={text}" for flag, text in args.items())])


@pytest.mark.parametrize("kind,field,wrong", list(_fields()),
                         ids=lambda p: ".".join(map(str, p)) if isinstance(p, tuple) else str(p))
def test_mutated_config_exits_0_2_or_3(kind, field, wrong, tmp_path, capsys):
    # Warnings are errors in this suite, so an overflow warning fails a case too.
    key = field[-1] if kind == "train" else field
    names = {str(key).lstrip("-"), ATTRS.get(key, str(key))}
    for i, value in enumerate(MUTANTS):
        value = wrong if value == "wrong-type" else value if kind == "train" else repr(value)
        case_dir = tmp_path / str(i)
        case_dir.mkdir()
        code = _run(kind, field, value, case_dir)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (value, err)
        if code == 2:
            assert any(re.search(rf"\b{re.escape(name)}\b", err) for name in names), (value, err)
