"""Layers, losses, optimizers, and the training loop."""

import numpy as np
import pytest

from ashlab import activations as act
from ashlab import autodiff as ad
from ashlab import nn
from ashlab.harness import datasets
from ashlab.tensor import NonFiniteError, ShapeError, Tensor


def mlp(spec_name, widths=(2, 16, 16, 2)):
    spec = act.preset(spec_name)
    layers = []
    for i in range(len(widths) - 1):
        layers.append(nn.Dense(widths[i], widths[i + 1]))
        if i < len(widths) - 2:
            layers.append(nn.Activation(spec))
    return layers


class TestForward:
    @pytest.mark.parametrize("make", [
        lambda: nn.Dense(0, 2), lambda: nn.Dense(2, -3),
        lambda: nn.Conv2d(0, 1, 1, 1), lambda: nn.Conv2d(1, 1, 1, 0),
    ], ids=["dense-in", "dense-out", "conv2d-kh", "conv2d-cout"])
    def test_layer_extents_must_be_positive(self, make):
        with pytest.raises(ValueError, match="must be >= 1"):
            make()

    def test_identity_dense_plus_relu_passthrough(self):
        model = nn.Model([nn.Dense(3, 3), nn.Activation(act.preset("relu"))], seed=0)
        model.params["dense0.W"] = Tensor(np.eye(3))
        model.params["dense0.b"] = Tensor(np.zeros(3))
        x = Tensor([[0.5, 1.0, 2.0]])
        out, _ = model.forward(x)
        assert np.array_equal(out.value.data, x.data)

    def test_zero_weights_give_bias(self):
        model = nn.Model([nn.Dense(4, 2)], seed=0)
        model.params["dense0.W"] = Tensor(np.zeros((4, 2)))
        model.params["dense0.b"] = Tensor([1.5, -2.0])
        out, _ = model.forward(Tensor(np.random.default_rng(0).normal(size=(8, 4))))
        assert np.array_equal(out.value.data, np.tile([1.5, -2.0], (8, 1)))

    def test_dense_matches_hand_oracle(self):
        rng = np.random.default_rng(1)
        model = nn.Model([nn.Dense(4, 4)], seed=7)
        x = rng.normal(size=(4, 4))
        out, _ = model.forward(Tensor(x))
        w = model.params["dense0.W"].data
        b = model.params["dense0.b"].data
        want = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                acc = 0.0
                for k in range(4):
                    acc += x[i, k] * w[k, j]
                want[i, j] = acc + b[j]
        np.testing.assert_allclose(out.value.data, want, atol=1e-15)

    def test_shape_mismatch_raises(self):
        model = nn.Model([nn.Dense(3, 2)], seed=0)
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.zeros((4, 5)) + 1.0))

    def test_activation_shape_error_names_layer_and_keeps_cause(self):
        spec = act.spec_from_json({"kind": "smooth_ash", "per_channel_z": True, "channels": 5})
        model = nn.Model([nn.Dense(3, 8), nn.Activation(spec)], seed=0)
        with pytest.raises(ShapeError, match="^act1: z must be") as info:
            model.forward(Tensor(np.ones((4, 3))))
        assert isinstance(info.value.__cause__, ShapeError)  # the raising frame stays visible

    def test_conv_flatten_dense_pipeline(self):
        model = nn.Model([
            nn.Conv2d(3, 3, 1, 4), nn.Activation(act.preset("relu")),
            nn.Flatten(), nn.Dense(4 * 4 * 4, 2),
        ], seed=0)
        out, _ = model.forward(Tensor(np.random.default_rng(2).normal(size=(5, 6, 6, 1))))
        assert out.value.shape == (5, 2)

    def test_conv_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        model = nn.Model([nn.Conv2d(2, 3, 2, 3)], seed=11)
        x = rng.normal(size=(2, 5, 6, 2))
        out, _ = model.forward(Tensor(x))
        w = model.params["conv0.W"].data
        b = model.params["conv0.b"].data
        oh, ow = 4, 4
        want = np.zeros((2, oh, ow, 3))
        for bi in range(2):
            for i in range(oh):
                for j in range(ow):
                    want[bi, i, j] = x[bi, i:i + 2, j:j + 3, :].reshape(-1) @ w + b
        np.testing.assert_allclose(out.value.data, want, atol=1e-12)

    @staticmethod
    def _matmul_then_bias(x, w, b):
        # The two-record composition nn.dense replaces: ad.matmul, then a
        # row-broadcast bias add.
        h = ad.matmul(x, w)
        out = Tensor._wrap(h.value.data + b.value.data)
        return ad.record(x.tape, "add_bias", (h, b), out,
                         lambda g, needs: (g, g.sum(axis=0)))

    @pytest.mark.parametrize("conv", [False, True])
    def test_fused_dense_matches_matmul_then_bias_bitwise(self, conv):
        rng = np.random.default_rng(12)
        shape = (3, 5, 4, 2) if conv else (7, 5)
        fan_in = 2 * 3 * 2 if conv else 5
        x = Tensor(rng.normal(size=shape))
        w = Tensor(rng.normal(size=(fan_in, 4)))
        b = Tensor(rng.normal(size=4))
        up = Tensor(rng.normal(size=(3 * 4 * 2 if conv else 7, 4)))
        results = []
        for affine in (nn.dense, self._matmul_then_bias):
            t = ad.Tape()
            xv, wv, bv = (t.variable(v, requires_grad=True) for v in (x, w, b))
            h = nn.conv_patches(xv, 2, 3) if conv else xv
            out = affine(h, wv, bv)
            ad.backward(ad.sum_all(ad.mul(out, t.constant(up))))
            results.append([out.value.data, xv.grad.data, wv.grad.data, bv.grad.data])
        for fused, reference in zip(*results):
            assert np.array_equal(fused.view(np.uint64), reference.view(np.uint64))

    def test_unique_parameter_names(self):
        model = nn.Model(mlp("ash"), seed=0)
        assert len(model.params) == len(set(model.params))


class TestLosses:
    def test_uniform_logits_xent_is_log_c(self):
        for c in (2, 3, 10):
            t = ad.Tape()
            lv = nn.softmax_xent(t.variable(Tensor(np.zeros((6, c)))),
                                 np.zeros(6, dtype=int))
            assert lv.value.item() == pytest.approx(np.log(c), abs=1e-14)

    def test_mse_of_identical_is_zero(self):
        t = ad.Tape()
        x = t.variable(Tensor([[1.0, 2.0]]))
        assert nn.mse(x, Tensor([[1.0, 2.0]])).value.item() == 0.0

    def test_xent_gradient_matches_fd(self):
        labels = np.array([0, 2, 1, 0, 1])
        rep = ad.fd_check(lambda v: nn.softmax_xent(v, labels),
                          Tensor(np.random.default_rng(4).normal(size=(5, 3))))
        assert rep.max_rel_err < 1e-5

    def test_one_hot_targets_accepted(self):
        t = ad.Tape()
        logits = t.variable(Tensor(np.random.default_rng(5).normal(size=(4, 3))))
        hot = np.zeros((4, 3))
        hot[np.arange(4), [0, 1, 2, 0]] = 1.0
        a = nn.softmax_xent(logits, np.array([0, 1, 2, 0])).value.item()
        t2 = ad.Tape()
        logits2 = t2.variable(logits.value)
        b = nn.softmax_xent(logits2, hot).value.item()
        assert a == b

    def test_label_range_checked(self):
        t = ad.Tape()
        logits = t.variable(Tensor(np.zeros((2, 3))))
        with pytest.raises(ValueError):
            nn.softmax_xent(logits, np.array([0, 3]))

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    def test_label_range_message_names_label_and_class_count(self, kind):
        logits = ad.Tape().variable(Tensor(np.zeros((3, 2))))
        with pytest.raises(ValueError, match=r"class label -1 .* 2 classes"):
            nn.loss_fn(kind, logits, np.array([0, -1, 5]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_loss_is_divergence_in_loss(self):
        logits = ad.Tape().variable(Tensor([[-1e308, 1e308]]))
        with pytest.raises(nn.DivergenceError) as err:
            nn.loss_fn("softmax_xent", logits, np.array([0]))
        assert (err.value.where, err.value.epoch, err.value.batch, err.value.phase) == \
            ("loss", None, None, None)
        assert str(err.value) == "non-finite value in loss"

    def test_accuracy(self):
        logits = Tensor([[2.0, 1.0], [0.0, 1.0], [3.0, -1.0], [0.0, 0.5]])
        assert nn.accuracy(logits, np.array([0, 1, 1, 1])) == 0.75


class TestOptimizers:
    def test_sgd_one_step_quadratic(self):
        w = Tensor([1.0])
        t = ad.Tape()
        wv = t.variable(w, requires_grad=True)
        ad.backward(ad.mul(wv, wv))
        w = nn.SGD(lr=0.1).step({"w": w}, {"w": wv.grad.data})["w"]
        assert w.data[0] == pytest.approx(0.8, abs=1e-15)

    def test_sgd_hundred_steps_geometric_decay(self):
        opt = nn.SGD(lr=0.1)
        w = Tensor([1.0])
        for _ in range(100):
            t = ad.Tape()
            wv = t.variable(w, requires_grad=True)
            ad.backward(ad.mul(wv, wv))
            w = opt.step({"w": w}, {"w": wv.grad.data})["w"]
        assert abs(w.data[0]) < 1e-4
        assert w.data[0] == pytest.approx(0.8 ** 100, rel=1e-9)

    def test_sgd_momentum_accumulates(self):
        opt = nn.SGD(lr=1.0, momentum=0.5)
        w = Tensor([0.0])
        w = opt.step({"w": w}, {"w": np.array([1.0])})["w"]   # v=1, w=-1
        w = opt.step({"w": w}, {"w": np.array([1.0])})["w"]   # v=1.5, w=-2.5
        assert w.data[0] == pytest.approx(-2.5, abs=1e-15)

    def test_adam_zero_grad_is_identity(self):
        w = Tensor([2.5])
        out = nn.Adam().step({"w": w}, {"w": np.zeros(1)})["w"]
        assert out.data[0] == 2.5

    def test_adam_first_step_size_is_lr(self):
        # With bias correction the first update has magnitude ~lr.
        out = nn.Adam(lr=0.01).step({"w": Tensor([1.0])}, {"w": np.array([3.7])})["w"]
        assert out.data[0] == pytest.approx(1.0 - 0.01, rel=1e-6)

    def test_optimizer_spec_validation(self):
        with pytest.raises(ValueError):
            nn.OptimizerSpec(kind="rmsprop")
        with pytest.raises(ValueError):
            nn.OptimizerSpec(lr=0.0)

    @pytest.mark.parametrize("opt,w,g", [
        (nn.SGD(lr=1e308), -1e308, 1.0),
        (nn.SGD(lr=1e-3), 1.0, np.inf),
        (nn.Adam(lr=1e308), -1e308, 1.0),
    ], ids=["sgd-update", "sgd-grad", "adam-update"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_update_is_public_divergence(self, opt, w, g):
        values = {"dense0.b": Tensor([0.0]), "dense0.W": Tensor([w])}
        grads = {"dense0.b": np.zeros(1), "dense0.W": np.array([g])}
        with pytest.raises(nn.DivergenceError) as err:
            opt.step(values, grads)
        assert (err.value.where, err.value.epoch, err.value.batch, err.value.phase) == \
            ("dense0.W", None, None, None)
        assert str(err.value) == "non-finite value in dense0.W"
        assert isinstance(err.value.__cause__, NonFiniteError)

    @pytest.mark.parametrize("name,value", [
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", float("nan")),
        ("eps", 0.0), ("eps", -1e-8), ("momentum", -0.5), ("lr", float("nan")),
    ])
    def test_optimizer_spec_range_checks(self, name, value):
        with pytest.raises(ValueError, match=name):
            nn.OptimizerSpec(**{name: value})


class TestTrainLoop:
    def test_zero_epochs_empty_records(self):
        data = datasets.two_moons(64, 0.1, 0)
        model = nn.Model(mlp("relu"), seed=0)
        assert nn.train(model, nn.TrainConfig(epochs=0), data) == []

    def test_identical_seeds_identical_records(self):
        data = datasets.two_moons(96, 0.1, 1)
        runs = []
        for _ in range(2):
            model = nn.Model(mlp("ash"), seed=3)
            runs.append(nn.train(model, nn.TrainConfig(epochs=4, seed=3, val_split=0.25), data))
        for a, b in zip(*runs):
            assert a.train_loss == b.train_loss
            assert a.val_loss == b.val_loss
            assert a.val_acc == b.val_acc
            assert a.zk_snapshot == b.zk_snapshot

    def test_different_seed_changes_run(self):
        data = datasets.two_moons(96, 0.1, 1)
        a = nn.train(nn.Model(mlp("ash"), seed=0), nn.TrainConfig(epochs=2, seed=0), data)
        b = nn.train(nn.Model(mlp("ash"), seed=1), nn.TrainConfig(epochs=2, seed=1), data)
        assert a[-1].train_loss != b[-1].train_loss

    def test_smooth_threshold_trains_and_hard_does_not(self):
        data = datasets.two_moons(128, 0.1, 2)
        smooth = nn.Model(mlp("ash"), seed=0)
        nn.train(smooth, nn.TrainConfig(epochs=8, seed=0), data)
        moved = [abs(v[0]) for v in smooth.zk_snapshot().values()]
        assert max(moved) > 1e-4

        hard = nn.Model(mlp("hard_ash"), seed=0)
        nn.train(hard, nn.TrainConfig(epochs=8, seed=0), data)
        stuck = [abs(v[0]) for v in hard.zk_snapshot().values()]
        assert max(stuck) == 0.0

    def test_loss_decreases_on_separable_data_for_whole_zoo(self):
        data = datasets.blobs(64, 0.4, 5)
        zoo = ["relu", "lrelu", "prelu", "softplus", "elu", "selu", "gelu", "swish",
               "ash", "l_ash", "f_ash_10", "f_ash_50", "f_ash_90", "gen_swish",
               "hard_ash", "heaviside_ash"]
        for name in zoo:
            model = nn.Model(mlp(name), seed=1)
            recs = nn.train(model, nn.TrainConfig(epochs=50, seed=1), data)
            assert recs[49].train_loss < recs[0].train_loss, name

    def test_gradient_flow_over_one_epoch(self):
        data = datasets.two_moons(64, 0.1, 3)
        model = nn.Model(mlp("ash"), seed=0)
        x, labels = data
        totals = {name: 0.0 for name in model.params}
        for start in range(0, 64, 32):
            xb = Tensor(x.data[start:start + 32])
            yb = labels[start:start + 32]
            logits, pvars = model.forward(xb)
            ad.backward(nn.loss_fn("softmax_xent", logits, yb))
            for name in totals:
                totals[name] += float(np.abs(pvars[name].grad.data).sum())
        assert all(v > 0.0 for v in totals.values()), totals

    def test_frozen_percentile_never_updates(self):
        data = datasets.two_moons(64, 0.1, 4)
        model = nn.Model(mlp("f_ash_50"), seed=0)
        before = dict(model.params)
        nn.train(model, nn.TrainConfig(epochs=10, seed=0), data)
        # No threshold parameter exists at all for the frozen variant.
        assert not [n for n in before if n.endswith(".z_k")]

    def test_leak_stays_non_negative(self):
        data = datasets.two_moons(96, 0.1, 5)
        model = nn.Model(mlp("l_ash"), seed=0)
        nn.train(model, nn.TrainConfig(epochs=15, seed=0,
                                       optimizer=nn.OptimizerSpec(lr=0.05)), data)
        leaks = [float(t.data[0]) for n, t in model.params.items() if n.endswith(".leak")]
        assert leaks and all(v >= 0.0 for v in leaks)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_reports_location(self):
        data = datasets.two_moons(64, 0.1, 6)
        model = nn.Model(mlp("relu"), seed=0)
        cfg = nn.TrainConfig(epochs=3, seed=0,
                             optimizer=nn.OptimizerSpec(kind="sgd", lr=1e18))
        with pytest.raises(nn.DivergenceError) as err:
            nn.train(model, cfg, data)
        assert err.value.epoch >= 0 and err.value.batch >= 0
        assert err.value.where
        assert "epoch" in str(err.value) and "batch" in str(err.value)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_during_validation_names_phase(self):
        data = datasets.two_moons(64, 0.1, 0)
        model = nn.Model(mlp("elu", widths=(2, 16, 2)), seed=0)
        cfg = nn.TrainConfig(epochs=3, seed=0,
                             optimizer=nn.OptimizerSpec(kind="sgd", lr=1e40))
        with pytest.raises(nn.DivergenceError) as err:
            nn.train(model, cfg, data)
        assert err.value.phase == "validation"
        assert err.value.where == "dense2"
        assert "epoch" in str(err.value) and "validation" in str(err.value)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_standalone_evaluate_divergence_is_public(self):
        model = nn.Model([nn.Dense(2, 2)], seed=0)
        model.params["dense0.W"] = Tensor(np.full((2, 2), 1e308))
        x = Tensor([[0.0, 0.0], [1.0, 1.0]])  # the second row overflows
        with pytest.raises(nn.DivergenceError) as err:
            nn.evaluate(model, x, np.array([0, 1]), batch_size=1)
        assert (err.value.epoch, err.value.batch, err.value.where) == (None, 1, "dense0")
        assert err.value.phase == "evaluation"
        assert str(err.value) == "non-finite value at batch 1, in dense0 (evaluation)"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_direct_forward_divergence_is_public(self):
        model = nn.Model([nn.Dense(2, 2), nn.Activation(act.preset("relu"))], seed=0)
        model.params["dense0.W"] = Tensor(np.full((2, 2), 1e308))
        with pytest.raises(nn.DivergenceError) as err:
            model.forward(Tensor([[1.0, 1.0]]))
        assert (err.value.where, err.value.epoch, err.value.batch, err.value.phase) == \
            ("dense0", None, None, None)
        assert str(err.value) == "non-finite value in dense0"

    @staticmethod
    def _overflowing_backward_model():
        # Finite forward (logits +-6.8e98), but dense1.W sends 2 * 1.7e308
        # back into dense0: the gradient of dense0.W is infinite.
        model = nn.Model([nn.Dense(2, 2), nn.Dense(2, 2)], seed=0)
        model.params["dense0.W"] = Tensor(np.full((2, 2), 1e-10))
        model.params["dense1.W"] = Tensor([[-1.7e308, 1.7e308]] * 2)
        return model

    def test_non_finite_grad_is_named_at_its_parameter(self):
        model = self._overflowing_backward_model()
        data = (Tensor([[1.0, 1.0]]), np.array([0]))
        cfg = nn.TrainConfig(epochs=1, batch_size=1,
                             optimizer=nn.OptimizerSpec(kind="sgd", lr=1e-3))
        with pytest.raises(nn.DivergenceError) as err:
            nn.train(model, cfg, data)
        assert str(err.value) == "non-finite value at epoch 0, batch 0, in dense0.W (training)"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_loss_divergence_messages_are_pinned(self):
        model = nn.Model([nn.Dense(2, 2)], seed=0)
        model.params["dense0.W"] = Tensor([[-1e308, 1e308], [0.0, 0.0]])
        data = (Tensor([[0.0, 0.0], [1.0, 0.0]]), np.array([0, 0]))
        with pytest.raises(nn.DivergenceError) as err:
            nn.evaluate(model, *data, batch_size=1)
        assert str(err.value) == "non-finite value at batch 1, in loss (evaluation)"
        cfg = nn.TrainConfig(epochs=1, batch_size=2,
                             optimizer=nn.OptimizerSpec(kind="sgd", lr=1e-3))
        with pytest.raises(nn.DivergenceError) as err:
            nn.train(model, cfg, data)
        assert str(err.value) == "non-finite value at epoch 0, batch 0, in loss (training)"

    def test_out_of_range_label_is_not_divergence(self):
        model = nn.Model([nn.Dense(2, 2)], seed=0)
        data = (Tensor([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 5]))
        match = r"class label 5 is out of range for 2 classes"
        with pytest.raises(ValueError, match=match) as err:
            nn.train(model, nn.TrainConfig(epochs=1, batch_size=1), data)
        assert not isinstance(err.value, nn.DivergenceError)
        with pytest.raises(ValueError, match=match):
            nn.evaluate(model, *data)

    @pytest.mark.parametrize("n,val_split", [(2, 0.75), (2, 0.9), (10, 0.96)])
    def test_empty_training_split_rejected_before_training(self, n, val_split):
        data = datasets.two_moons(n, 0.1, 0)
        model = nn.Model([nn.Dense(2, 2)], seed=0)
        before = dict(model.params)
        with pytest.raises(ValueError, match=rf"val_split {val_split} leaves no training "
                                             rf"rows: {n} of {n} rows"):
            nn.train(model, nn.TrainConfig(epochs=1, val_split=val_split), data)
        assert model.params == before

    def test_shape_error_is_not_divergence(self):
        data = datasets.two_moons(64, 0.1, 0)
        model = nn.Model([nn.Dense(3, 2)], seed=0)
        with pytest.raises(ShapeError):
            nn.train(model, nn.TrainConfig(epochs=1), data)

    def test_val_split_metrics(self):
        data = datasets.two_moons(100, 0.1, 7)
        model = nn.Model(mlp("relu"), seed=0)
        recs = nn.train(model, nn.TrainConfig(epochs=2, seed=0, val_split=0.2), data)
        assert all(np.isfinite(r.val_loss) and 0.0 <= r.val_acc <= 1.0 for r in recs)

    def test_per_channel_threshold_vector_trains(self):
        spec = act.ActivationSpec("smooth_ash", ash=act.AshParams(
            stats_mode="per-channel", per_channel_z=True, channels=4))
        model = nn.Model([
            nn.Conv2d(3, 3, 1, 4), nn.Activation(spec),
            nn.Flatten(), nn.Dense(4 * 4 * 4, 2),
        ], seed=0)
        assert model.params["act1.z_k"].shape == (4,)
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(48, 6, 6, 1)))
        y = rng.integers(0, 2, 48)
        recs = nn.train(model, nn.TrainConfig(epochs=6, seed=0), (Tensor(x.data), y))
        zs = model.params["act1.z_k"].data
        assert zs.shape == (4,) and np.any(zs != 0.0)
        assert recs[-1].zk_snapshot["act1"] == [float(v) for v in zs]

    def test_mse_loss_trains(self):
        data = datasets.blobs(64, 0.3, 8)
        model = nn.Model(mlp("swish"), seed=0)
        recs = nn.train(model, nn.TrainConfig(epochs=30, seed=0, loss="mse"), data)
        assert recs[-1].train_loss < recs[0].train_loss


class TestDenseLayerOutputsAreGaussianish:
    def test_clt_diagnostic_on_dense_outputs(self):
        # Wide fan-in makes each output a sum of many weakly dependent
        # terms; skewness and excess kurtosis should both be near zero.
        from ashlab import stats as st
        model = nn.Model([nn.Dense(256, 1)], seed=42)
        x = Tensor(np.random.default_rng(42).uniform(0, 1, size=(20_000, 256)))
        out, _ = model.forward(x, trainable=False)
        rep = st.normality_report(out.value)
        assert abs(rep.skewness) < 0.2
        assert abs(rep.excess_kurtosis) < 0.3
