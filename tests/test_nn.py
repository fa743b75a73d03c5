"""Layers, losses, optimizers, and the training loop."""

import functools
import re
import tracemalloc

import numpy as np
import pytest

from ashlab import activations as act
from ashlab import autodiff as ad
from ashlab import nn, tensor
from ashlab.harness import datasets
from ashlab.tensor import NonFiniteError, ShapeError, Tensor


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tobytes()


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
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            make()

    @pytest.mark.parametrize("make,field", [
        (lambda: nn.Dense(2.5, 2), "in_dim"),
        (lambda: nn.Dense(2, float("inf")), "out_dim"),
        (lambda: nn.Dense(float("-inf"), 2), "in_dim"),
        (lambda: nn.Dense(True, 2), "in_dim"),
        (lambda: nn.Dense(2, np.float64(3.0)), "out_dim"),
        (lambda: nn.Conv2d(3, 3, 1.5, 4), "cin"),
        (lambda: nn.Conv2d(3, float("nan"), 1, 4), "kw"),
        (lambda: nn.Conv2d(3, 3, 1, np.bool_(True)), "cout"),
    ], ids=["dense-fraction", "dense-inf", "dense-neg-inf", "dense-bool", "dense-float",
            "conv2d-fraction", "conv2d-nan", "conv2d-numpy-bool"])
    def test_layer_extents_must_be_integers(self, make, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make()

    def test_numpy_integer_extents_build_a_model(self):
        layers = [nn.Conv2d(np.int64(2), np.int32(2), 1, np.uint8(2)), nn.Flatten(),
                  nn.Dense(np.int64(18), 2)]
        out, _ = nn.Model(layers, seed=0).forward(Tensor(np.ones((1, 4, 4, 1))), trainable=False)
        assert out.shape == (1, 2)

    @pytest.mark.parametrize("make,field", [
        (lambda: nn.Dense(float("nan"), 2), "in_dim"),
        (lambda: nn.Conv2d(3, float("nan"), 1, 1), "kw"),
        (lambda: nn.TrainConfig(epochs=float("nan")), "epochs"),
        (lambda: nn.TrainConfig(epochs=1, batch_size=float("nan")), "batch_size"),
    ], ids=["dense-in", "conv2d-kw", "train-epochs", "train-batch_size"])
    def test_nan_fails_range_check(self, make, field):
        with pytest.raises(ValueError, match=f"{field} must"):
            make()

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, float("inf"), True, np.float64(4.0)],
                             ids=["fraction", "inf", "bool", "np-float"])
    def test_train_counts_must_be_integers(self, field, value):
        # Checked when the config is made, not as a bare TypeError inside train.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            nn.TrainConfig(**{"epochs": 1, field: value})

    def test_numpy_integer_train_counts_train(self):
        config = nn.TrainConfig(epochs=np.int64(1), batch_size=np.int32(8))
        model = nn.Model([nn.Dense(2, 2)], seed=0)
        assert len(nn.train(model, config, datasets.two_moons(16, 0.1, 0))) == 1

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
        # The two-record composition the bias operand of ad.matmul replaces:
        # ad.matmul, then a row-broadcast bias add.
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
        for affine in (ad.matmul, self._matmul_then_bias):
            t = ad.Tape()
            xv, wv, bv = (t.variable(v, requires_grad=True) for v in (x, w, b))
            h = nn.conv_patches(xv, 2, 3) if conv else xv
            out = affine(h, wv, bv)
            ad.backward(ad.sum_all(ad.mul(out, up)))
            results.append([out.value.data, xv.grad.data, wv.grad.data, bv.grad.data])
        for fused, reference in zip(*results):
            assert np.array_equal(fused.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("layers", [
        [nn.Conv2d(2, 2, 1, 3), nn.Activation(act.preset("relu")), nn.Flatten(),
         nn.Dense(3 * 3 * 3, 2)],
        mlp("ash") + [nn.Activation(act.preset("l_ash"))],
    ], ids=["conv", "ash"])
    def test_forward_without_grad_is_the_trainable_value_bitwise(self, layers):
        model = nn.Model(layers, seed=3)
        x = Tensor(np.random.default_rng(7).normal(
            size=(5, 4, 4) if isinstance(layers[0], nn.Conv2d) else (5, 2)))
        taped, pvars = model.forward(x)
        plain, params = model.forward(x, trainable=False)
        assert isinstance(taped, ad.Variable) and isinstance(plain, Tensor)
        assert all(isinstance(v, ad.Variable) and v.requires_grad for v in pvars.values())
        assert params is model.params
        assert _bits(plain.data) == _bits(taped.value.data)

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

    @pytest.mark.parametrize("shape,scale,one_hot", [
        ((1, 2), 1.0, False), ((5, 3), 4.0, False), ((32, 2), 30.0, True), ((7, 16), 700.0, False),
        ((1, 300), 2.0, False), ((6, 200), 3.0, False), ((6, 200), 3.0, True),
        ((9, 130), 5.0, "soft"), ((64, 16384), 1.0, False), ((64, 16384), 1.0, "soft")])
    def test_xent_value_and_grad_bits_are_pinned(self, shape, scale, one_hot):
        # The formula as it stood when the softmax was still formed in the
        # forward. Above C = 128 each row sums in more than one pairwise leaf;
        # those cases also hold -0.0, +-700 and a zero row among the logits,
        # and the labels 0 and C - 1.
        rng = np.random.default_rng(shape[0])
        b, c = shape
        z = rng.normal(size=shape) * scale
        labels = rng.integers(0, c, size=b)
        if c >= 128:
            z[0, :4] = [-0.0, 700.0, -700.0, -0.0]
            z[-1, -3:] = [-700.0, 699.5, -0.0]
            if b > 2:
                z[b // 2] = 0.0
            labels[0], labels[-1] = 0, c - 1
        hot = np.zeros(shape)
        hot[np.arange(b), labels] = 1.0
        if one_hot == "soft":
            hot = rng.dirichlet(np.ones(c), size=b)
        zmax = z.max(axis=1, keepdims=True)
        ez = np.exp(z - zmax)
        se = ez.sum(axis=1, keepdims=True)
        lse = zmax[:, 0] + np.log(se[:, 0])
        want_value = (lse.sum() - float((z * hot).sum())) / b
        softmax = ez / se
        want_grad = 1.0 * (softmax - hot) / b

        t = ad.Tape()
        zv = t.variable(Tensor(z), requires_grad=True)
        loss = nn.softmax_xent(zv, hot if one_hot else labels)
        ad.backward(loss)
        assert _bits(loss.value.data) == _bits([want_value])
        assert _bits(zv.grad.data) == _bits(0.0 + want_grad)

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    @pytest.mark.parametrize("targets", ["index", "one_hot"])
    def test_target_mistakes_keep_their_error_class(self, kind, targets):
        logits = ad.Tape().variable(Tensor(np.zeros((3, 4))))
        labels = np.array([0, 3, 1])
        hot = np.eye(4)[labels]
        if targets == "index":
            with pytest.raises(ValueError, match="class label 4 is out of range"):
                nn.loss_fn(kind, logits, np.array([0, 4, 1]))
        else:
            with pytest.raises(ShapeError, match="3 columns"):
                nn.loss_fn(kind, logits, hot[:, :3])
        with pytest.raises(ShapeError):
            nn.loss_fn(kind, logits, (labels if targets == "index" else hot)[:2])

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

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    @pytest.mark.parametrize("label", [0.9, 1.2, -0.5, np.nan, np.inf])
    def test_non_integral_label_is_rejected_by_name(self, kind, label):
        # A cast to int64 would read 0.9 as class 0 and NaN as -2**63.
        logits = ad.Tape().variable(Tensor(np.zeros((2, 2))))
        with pytest.raises(ValueError, match=re.escape(f"class label {label} is not an integer")):
            nn.loss_fn(kind, logits, np.array([1.0, label]))

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    def test_integral_float_labels_match_int_labels_bitwise(self, kind):
        z = Tensor(np.random.default_rng(4).normal(size=(3, 2)))
        want = nn.loss_fn(kind, z, np.array([0, 1, 1])).item()
        assert _bits(nn.loss_fn(kind, z, np.array([0.0, 1.0, 1.0])).item()) == _bits(want)

    def test_non_finite_loss_is_divergence_in_loss(self):
        logits = ad.Tape().variable(Tensor([[-1e308, 1e308]]))
        with pytest.raises(nn.DivergenceError) as err:
            nn.loss_fn("softmax_xent", logits, np.array([0]))
        assert (err.value.where, err.value.epoch, err.value.batch, err.value.phase) == \
            ("loss", None, None, None)
        assert str(err.value) == "non-finite value in loss"

    @pytest.mark.parametrize("shape", [(64, 16384), (32, 2)])
    def test_double_backward_through_xent_doubles_grads(self, shape):
        # The VJP reads the forward's zmax and se and writes only its own
        # grad, so a second replay of the tape adds the same grad again.
        rng = np.random.default_rng(6)
        z = rng.normal(size=shape) * 4.0
        zv = ad.Tape().variable(Tensor(z), requires_grad=True)
        loss = nn.softmax_xent(zv, rng.integers(0, shape[1], shape[0]))
        ad.backward(loss)
        once = zv.grad.data.copy()
        ad.backward(loss)
        assert _bits(zv.grad.data) == _bits(2.0 * once)

    @pytest.mark.parametrize("targets", ["index", "one_hot", "soft"])
    def test_xent_row_blocks_match_one_block(self, monkeypatch, targets):
        # Above C = 128 a row's sums cut into pairwise leaves, and blocks of
        # 1 and 3 rows cut the whole-array sum of z*hot at leaf edges of
        # their own; the bits must be those of the one whole-array block.
        rng = np.random.default_rng(8)
        b, c = 7, 300
        z = rng.normal(size=(b, c)) * 10.0 ** rng.integers(-3, 3, size=(b, c))
        z[2, :4] = [-0.0, 700.0, -700.0, -0.0]
        labels = rng.integers(0, c, size=b)
        labels[2] = 1
        y = {"index": labels, "one_hot": np.eye(c)[labels],
             "soft": rng.dirichlet(np.ones(c), size=b)}[targets]

        def run():
            zv = ad.Tape().variable(Tensor(z), requires_grad=True)
            loss = nn.softmax_xent(zv, y)
            ad.backward(loss)
            return _bits(loss.value.data), _bits(zv.grad.data)

        monkeypatch.setattr(tensor, "_WHOLE_ELEMS", 1 << 62)
        want = run()
        monkeypatch.setattr(tensor, "_WHOLE_ELEMS", 0)
        for rows in (1, 3):
            monkeypatch.setattr(tensor, "_BLOCK_ELEMS", rows * c)
            assert run() == want, f"rows={rows}"

    @pytest.mark.parametrize("requires_grad,backward,budget", [
        (False, False, 0.1), (True, False, 0.1), (True, True, 2.25)],
        ids=["forward_no_grad", "forward", "forward_backward_grad"])
    def test_xent_allocates_within_budget(self, requires_grad, backward, budget, alloc_peak):
        # Tooling, not timing: class indices build no one-hot, both passes
        # walk the logits through a block scratch, the forward keeps B floats
        # twice, and the tape keeps the backward's B x C grad without a copy
        # until it is read.
        z = Tensor(np.random.default_rng(2).normal(size=(64, 16384)))
        labels = np.random.default_rng(3).integers(0, 16384, 64)

        def run():
            zv = ad.Tape().variable(z, requires_grad=requires_grad)
            loss = nn.softmax_xent(zv, labels)
            if backward:
                ad.backward(loss)
                return zv.grad
            return loss

        peak = alloc_peak(run, z.data.nbytes)
        assert peak <= budget, f"peak {peak:.2f}x the logits"

    def test_accuracy(self):
        logits = Tensor([[2.0, 1.0], [0.0, 1.0], [3.0, -1.0], [0.0, 0.5]])
        assert nn.accuracy(logits, np.array([0, 1, 1, 1])) == 0.75

    @pytest.mark.parametrize("labels,message", [
        ([0.9, 1.2], "class label 0.9 is not an integer"),
        ([np.nan, 1.0], "class label nan is not an integer"),
        ([0, 2], "class label 2 is out of range for 2 classes"),
        ([[np.nan, 1.0], [0.0, 1.0]], "target value nan is not finite"),
        ([[0.2, 0.8], [0.3, np.inf]], "target value inf is not finite"),
        ([[1.0, 0.0], [-np.inf, 0.0]], "target value -inf is not finite")])
    def test_accuracy_rejects_the_labels_the_losses_reject(self, labels, message):
        # Compared raw, [0.9, 1.2] read 0.0 and [nan, 1] read 0.5.
        logits = Tensor([[2.0, 1.0], [0.0, 1.0]])
        for score in (nn.accuracy, *(functools.partial(nn.loss_fn, kind)
                                     for kind in nn.LOSS_KINDS)):
            with pytest.raises(ValueError, match=re.escape(message)):
                score(logits, np.array(labels))

    @pytest.mark.parametrize("cols", [3, 9], ids=["fold", "reduce"])
    @pytest.mark.parametrize("case", ["random", "ties", "signed_zeros", "one_hot", "soft"])
    def test_accuracy_is_argmax_of_a_writeable_copy(self, case, cols):
        # The first row maximum, read without np.argmax's copy of the
        # read-only logits, counts the rows np.argmax counts: ties go to the
        # lowest column, and +0.0 equals -0.0.
        rng = np.random.default_rng(11)
        z = rng.normal(size=(40, cols))
        labels = rng.integers(0, cols, 40)
        targets = labels
        if case in ("ties", "signed_zeros"):
            # Each of these rows peaks at two or three columns; even rows are
            # labelled with the first, odd rows with the last.
            z = np.round(z) if case == "ties" else -np.abs(z) - 0.5
            for row in range(40 if case == "signed_zeros" else 12):
                peak = np.sort(rng.choice(cols, 2 + row % 2 * (cols > 3), replace=False))
                zeros = rng.permutation([-0.0, 0.0, -0.0])[:peak.size]
                z[row, peak] = 9.0 if case == "ties" else zeros
                labels[row] = peak[0] if row % 2 == 0 else peak[-1]
            if case == "signed_zeros":
                z[::10] = np.where(rng.random((4, cols)) < 0.5, -0.0, 0.0)
        elif case == "one_hot":
            targets = np.eye(cols)[labels]
        elif case == "soft":
            targets = rng.random((40, cols))
            targets[::4, [0, cols - 1]] = 2.0  # a tie inside each fourth target row
            z[::8, 0] = 5.0  # half of those rows' logits peak at the tie's first column
            labels = np.argmax(targets, axis=1)
        want = np.count_nonzero(np.argmax(z.copy(), axis=1) == labels) / 40
        logits = Tensor(z)
        assert not logits.data.flags.writeable
        assert 0 < want < 1
        assert nn.accuracy(logits, targets) == want
        assert np.array_equal(nn._first_max(logits.data), np.argmax(z.copy(), axis=1))

    def test_accuracy_allocates_an_eighth_of_the_logits(self, alloc_peak):
        # Tooling, not timing: one bool per logit for the row maximum's
        # place; np.argmax would copy the read-only logits whole (1.00).
        rng = np.random.default_rng(4)
        z = Tensor(rng.normal(size=(64, 4096)))
        labels = rng.integers(0, 4096, 64)
        peak = alloc_peak(lambda: nn.accuracy(z, labels), z.data.nbytes)
        assert peak <= 0.25, f"peak {peak:.2f}x the logits"

    def test_accuracy_reads_one_hot_and_soft_targets_by_row_argmax(self):
        logits = Tensor([[2.0, 1.0, 0.0], [0.0, 1.0, 3.0], [3.0, -1.0, 0.0], [0.0, 0.5, 0.1]])
        labels = np.array([0, 2, 1, 0])
        assert nn.accuracy(logits, labels) == 0.5
        assert nn.accuracy(logits, np.eye(3)[labels]) == 0.5
        soft = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.2, 0.6, 0.2], [0.5, 0.3, 0.2]])
        assert nn.accuracy(logits, soft) == 0.5


def _saturated_bias_run():
    """A one-row run whose first step has bias grad (0.5, -0.5) at logits
    (-1.5e308, -1.5e308): x = 0 makes the logits the bias, the loss is
    finite and dense0.W gets grad 0."""
    model = nn.Model([nn.Dense(1, 2)], seed=0)
    model.params["dense0.b"] = Tensor([-1.5e308, -1.5e308])
    return model, (Tensor([[0.0]]), np.array([1]))


def _overflowing_grad_run():
    """A one-row run with a finite forward (logits +-6.8e98) whose dense1.W
    sends 2 * 1.7e308 back into dense0: the gradient of dense0.W is infinite."""
    model = nn.Model([nn.Dense(2, 2), nn.Dense(2, 2)], seed=0)
    model.params["dense0.W"] = Tensor(np.full((2, 2), 1e-10))
    model.params["dense1.W"] = Tensor([[-1.7e308, 1.7e308]] * 2)
    return model, (Tensor([[1.0, 1.0]]), np.array([0]))


def _train_edited(monkeypatch, layers, kind, edit):
    """Train `layers` for one batch, with `edit` applied in place to the
    vector each optimizer step returns; returns the model."""
    cls = nn.SGD if kind == "sgd" else nn.Adam
    step = cls.step

    def edited(self, w, g):
        new = step(self, w, g)
        edit(new)
        return new

    model = nn.Model(layers, seed=0)
    with monkeypatch.context() as patch:
        patch.setattr(cls, "step", edited)
        nn.train(model, nn.TrainConfig(epochs=1, batch_size=8, optimizer=nn.OptimizerSpec(kind)),
                 datasets.two_moons(8, 0.1, 0))
    return model


class TestOptimizers:
    def test_sgd_one_step_quadratic(self):
        w = Tensor([1.0])
        t = ad.Tape()
        wv = t.variable(w, requires_grad=True)
        ad.backward(ad.mul(wv, wv))
        w = nn.SGD(lr=0.1).step(w.data, wv.grad.data)
        assert w[0] == pytest.approx(0.8, abs=1e-15)

    def test_sgd_hundred_steps_geometric_decay(self):
        opt = nn.SGD(lr=0.1)
        w = np.array([1.0])
        for _ in range(100):
            t = ad.Tape()
            wv = t.variable(Tensor(w), requires_grad=True)
            ad.backward(ad.mul(wv, wv))
            w = opt.step(w, wv.grad.data)
        assert abs(w[0]) < 1e-4
        assert w[0] == pytest.approx(0.8 ** 100, rel=1e-9)

    def test_sgd_momentum_accumulates(self):
        opt = nn.SGD(lr=1.0, momentum=0.5)
        w = opt.step(np.array([0.0]), np.array([1.0]))   # v=1, w=-1
        w = opt.step(w, np.array([1.0]))                 # v=1.5, w=-2.5
        assert w[0] == pytest.approx(-2.5, abs=1e-15)

    def test_adam_zero_grad_is_identity(self):
        assert nn.Adam().step(np.array([2.5]), np.zeros(1))[0] == 2.5

    def test_adam_first_step_size_is_lr(self):
        # With bias correction the first update has magnitude ~lr.
        out = nn.Adam(lr=0.01).step(np.array([1.0]), np.array([3.7]))
        assert out[0] == pytest.approx(1.0 - 0.01, rel=1e-6)

    def test_optimizer_spec_validation(self):
        with pytest.raises(ValueError):
            nn.OptimizerSpec(kind="rmsprop")
        with pytest.raises(ValueError):
            nn.OptimizerSpec(lr=0.0)

    @pytest.mark.parametrize("kind,lr,run,where", [
        ("sgd", 1e308, _saturated_bias_run, "dense0.b"),
        ("sgd", 1e-3, _overflowing_grad_run, "dense0.W"),
        ("adam", 1e308, _saturated_bias_run, "dense0.b"),
    ], ids=["sgd-update", "sgd-grad", "adam-update"])
    def test_non_finite_update_is_public_divergence(self, kind, lr, run, where):
        model, data = run()
        before = dict(model.params)
        cfg = nn.TrainConfig(epochs=1, batch_size=1, optimizer=nn.OptimizerSpec(kind, lr=lr))
        with pytest.raises(nn.DivergenceError) as err:
            nn.train(model, cfg, data)
        assert (err.value.where, err.value.epoch, err.value.batch, err.value.phase) == \
            (where, 0, 0, "training")
        assert str(err.value) == f"non-finite value at epoch 0, batch 0, in {where} (training)"
        assert isinstance(err.value.__cause__.__cause__, NonFiniteError)
        assert model.params == before  # a refused step loads nothing

    @staticmethod
    def _reference_step(kind, state, values, grads, t, lr=1e-3, momentum=0.9, beta1=0.9,
                        beta2=0.999, eps=1e-8):
        # The per-parameter loops the flat optimizers replaced, formulas unchanged.
        new = {}
        for name, w in values.items():
            g = grads[name]
            if kind == "sgd":
                v = g + momentum * state.get(name, 0.0)
                state[name] = v
                new[name] = w - lr * v
            else:
                c1 = 1.0 - beta1 ** t
                c2 = 1.0 - beta2 ** t
                m = beta1 * state.get(("m", name), 0.0) + (1.0 - beta1) * g
                v = beta2 * state.get(("v", name), 0.0) + (1.0 - beta2) * g * g
                state[("m", name)] = m
                state[("v", name)] = v
                new[name] = w - lr * (m / c1) / (np.sqrt(v / c2) + eps)
        return new

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_flat_step_matches_per_parameter_formulas_bitwise(self, kind):
        rng = np.random.default_rng(9)
        shapes = {"s": (1,), "v": (5,), "m": (3, 4), "b": (2,)}
        ref = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        w = np.concatenate([r.ravel() for r in ref.values()])
        opt = nn.SGD(lr=1e-3, momentum=0.9) if kind == "sgd" else nn.Adam(lr=1e-3)
        state = {}
        for t in range(1, 51):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3)
                     for name, shape in shapes.items()}
            grads["v"][:2] = [-0.0, 0.0]
            if t % 7 == 0:  # an all-zero step, signs mixed
                grads = {name: np.copysign(np.zeros(shape), rng.normal(size=shape))
                         for name, shape in shapes.items()}
            ref = self._reference_step(kind, state, ref, grads, t)
            w.setflags(write=False)  # a step returns a new vector and leaves w alone
            w = opt.step(w, np.concatenate([g.ravel() for g in grads.values()]))
            assert w.shape == (20,)
            assert _bits(w) == b"".join(_bits(r) for r in ref.values()), f"step {t}"

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_non_finite_element_names_its_parameter(self, kind, monkeypatch):
        layers = [nn.Dense(2, 3), nn.Activation(act.preset("ash")), nn.Dense(3, 2)]
        # The vector: dense0.W at 0-5, dense0.b 6-8, act1.z_k 9, dense2.W 10-15, dense2.b 16-17.
        assert [(name, t.shape) for name, t in nn.Model(layers).params.items()] == [
            ("dense0.W", (2, 3)), ("dense0.b", (3,)), ("act1.z_k", (1,)),
            ("dense2.W", (3, 2)), ("dense2.b", (2,))]
        # A middle, a last and a first element, and the vector's ends; the NaN
        # in the last element is not the one named unless it is the first.
        for index, where in ((12, "dense2.W"), (5, "dense0.W"), (6, "dense0.b"),
                             (9, "act1.z_k"), (0, "dense0.W"), (17, "dense2.b")):
            def inject(w, index=index):
                w[index] = np.inf
                w[-1] = np.nan

            with pytest.raises(nn.DivergenceError) as err:
                _train_edited(monkeypatch, layers, kind, inject)
            assert err.value.where == where
            assert isinstance(err.value.__cause__.__cause__, NonFiniteError)

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

    def test_optimizer_steps_the_grads_as_read(self, monkeypatch):
        # The tape stores raw sums and train adds the 0.0 they land on once,
        # so the vector each step takes carries the bits of every v.grad. No
        # layer's VJP hands a parameter a -0.0 today (numpy sums start from
        # +0.0), so every zero contribution is made one here, which a step
        # must then read as +0.0.
        model = nn.Model(mlp("relu"), seed=0)
        forward, step, accumulate = model.forward, nn.Adam.step, ad.Tape._accumulate
        pvars, steps = {}, []

        def recording_forward(batch, trainable=True):
            out, pvars["last"] = forward(batch, trainable)
            return out, pvars["last"]

        def recording_step(self, w, g):
            read = [v.grad.data.reshape(-1) for v in pvars["last"].values()]
            raw = nn._flat(v._grad_array() for v in pvars["last"].values())
            steps.append((_bits(g), _bits(np.concatenate(read)),
                          int(np.count_nonzero(np.signbit(raw) & (raw == 0.0)))))
            return step(self, w, g)

        def signed_zero_accumulate(self, node_id, g):
            return accumulate(self, node_id, np.where(g == 0.0, -0.0, g))

        monkeypatch.setattr(model, "forward", recording_forward)
        monkeypatch.setattr(nn.Adam, "step", recording_step)
        monkeypatch.setattr(ad.Tape, "_accumulate", signed_zero_accumulate)
        nn.train(model, nn.TrainConfig(epochs=2, batch_size=16, seed=0),
                 datasets.two_moons(64, 0.1, 3))
        assert len(steps) == 8
        assert all(g == read for g, read, _ in steps)
        assert sum(neg_zeros for _, _, neg_zeros in steps) > 0

    def test_gathered_rows_are_not_scanned_again(self, monkeypatch):
        # Batch and evaluation rows are gathered from an input Tensor that was
        # checked finite when it was made, so an epoch scans none of them
        # again; the model still sees them as read-only C-contiguous Tensors.
        rng = np.random.default_rng(4)
        x, labels = Tensor(rng.normal(size=(40, 5))), rng.integers(0, 2, 40)
        model = nn.Model(mlp("relu", widths=(5, 8, 2)), seed=0)
        forward, isfinite = model.forward, np.isfinite
        scans, batches = [], []

        def recording_forward(batch, trainable=True):
            batches.append(batch.data.flags)
            return forward(batch, trainable)

        def counting_isfinite(arr, *args, **kwargs):
            if np.ndim(arr) == 2 and np.shape(arr)[1] == 5:  # rows of x
                scans.append(np.shape(arr))
            return isfinite(arr, *args, **kwargs)

        monkeypatch.setattr(model, "forward", recording_forward)
        monkeypatch.setattr(np, "isfinite", counting_isfinite)
        records = nn.train(model, nn.TrainConfig(epochs=2, batch_size=10, val_split=0.25,
                                                 seed=0), (x, labels))
        assert len(records) == 2 and len(batches) == 8  # 3 training and 1 evaluation batch
        assert scans == []
        assert all(not f.writeable and f.c_contiguous for f in batches)

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

    # dense0.W (8 elements), dense0.b (4) and act1.z_k (1) come first, so the
    # bounded parameter is element 13 of the vector.
    _LEAKY = [nn.Dense(2, 4), nn.Activation(act.preset("l_ash")), nn.Dense(4, 2)]
    _ALPHA = [nn.Dense(2, 4), nn.Activation(act.ActivationSpec(
        "smooth_ash", ash=act.AshParams(trainable_alpha=True))), nn.Dense(4, 2)]

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_bounded_parameter_at_minus_inf_is_divergence(self, kind, monkeypatch):
        # The finiteness check runs before the bound, which would lift -inf to 0.
        with pytest.raises(nn.DivergenceError) as err:
            _train_edited(monkeypatch, self._LEAKY, kind, lambda w: w.put(13, -np.inf))
        assert str(err.value) == "non-finite value at epoch 0, batch 0, in act1.leak (training)"

    @pytest.mark.parametrize("layers,pname,value,want", [
        (_LEAKY, "act1.leak", -0.5, 0.0),
        (_LEAKY, "act1.leak", -5e-324, 0.0),
        (_LEAKY, "act1.leak", -0.0, -0.0),  # not below +0.0: its bits stay
        (_LEAKY, "act1.leak", 0.25, 0.25),
        (_ALPHA, "act1.alpha", 0.0, 1e-6),
        (_ALPHA, "act1.alpha", -0.0, 1e-6),
        (_ALPHA, "act1.alpha", 1e-6, 1e-6),
    ], ids=["leak-below", "leak-subnormal", "leak-minus-zero", "leak-above", "alpha-zero",
            "alpha-minus-zero", "alpha-at"])
    def test_bound_lifts_only_values_below_it(self, layers, pname, value, want, monkeypatch):
        model = _train_edited(monkeypatch, layers, "sgd", lambda w: w.put(13, value))
        assert _bits(model.params[pname].data) == _bits([want])
        assert not model.params[pname].data.flags.writeable

    def test_epoch_frees_each_step_before_the_next(self, alloc_peak):
        # Tooling, not timing: at 64 x 16384 one full-batch step's tape (the
        # gathered rows, the gate's buffers, the logits and their grad) is
        # freed before the epoch's validation pass, the loss walks its rows
        # through a block scratch, and the walked gate keeps only its output
        # (about 3.2).
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((64, 16384)))
        labels = rng.integers(0, 16384, 64)
        config = nn.TrainConfig(epochs=1, batch_size=64, seed=1)

        def run():
            nn.train(nn.Model([nn.Activation(act.preset("ash"))], seed=1), config, (x, labels))

        peak = alloc_peak(run, x.data.nbytes)
        assert peak <= 3.5, f"peak {peak:.2f}x the input"

    def test_model_without_parameters_trains(self):
        model = nn.Model([nn.Activation(act.preset("relu"))], seed=0)
        assert model.params == {}
        recs = nn.train(model, nn.TrainConfig(epochs=2, batch_size=16),
                        datasets.two_moons(40, 0.1, 0))
        assert len(recs) == 2 and recs[0].val_loss == recs[1].val_loss
        assert model.params == {}

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

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    def test_evaluate_builds_no_tape(self, kind, monkeypatch):
        def no_tape(*args, **kwargs):
            raise AssertionError("evaluate built a tape")

        x, labels = datasets.two_moons(40, 0.1, 2)
        model = nn.Model(mlp("ash"), seed=0)
        want = nn.evaluate(model, x, labels, kind, batch_size=16)
        monkeypatch.setattr(ad.Tape, "__init__", no_tape)
        monkeypatch.setattr(ad.Variable, "__init__", no_tape)
        monkeypatch.setattr(ad, "record", no_tape)
        assert nn.evaluate(model, x, labels, kind, batch_size=16) == want

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    @pytest.mark.parametrize("one_hot", [False, True])
    def test_evaluate_checks_each_batch_once(self, kind, one_hot, monkeypatch):
        # The loss and accuracy share one checked copy of a batch's labels,
        # with the bits of the public loss_fn and accuracy of each batch.
        x, labels = datasets.two_moons(40, 0.1, 2)
        targets = np.eye(2)[labels] if one_hot else labels
        model = nn.Model(mlp("ash"), seed=0)
        total, correct = 0.0, 0.0
        for start in range(0, 40, 16):
            xb = Tensor(x.data[start:start + 16])
            logits, _ = model.forward(xb, trainable=False)
            yb = targets[start:start + 16]
            total += nn.loss_fn(kind, logits, yb).item() * xb.shape[0]
            correct += nn.accuracy(logits, yb) * xb.shape[0]
        calls = []
        checked = nn._targets
        monkeypatch.setattr(nn, "_targets", lambda *a: calls.append(a) or checked(*a))
        got = nn.evaluate(model, x, targets, kind, batch_size=16)
        assert len(calls) == 3
        assert _bits(got) == _bits([total / 40, correct / 40])

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    @pytest.mark.parametrize("labels,error,message", [
        ([0, 5], ValueError, "class label 5 is out of range for 2 classes"),
        ([0.5, 1.0], ValueError, "class label 0.5 is not an integer"),
        (np.eye(3)[[0, 1]], ShapeError, "one-hot targets have 3 columns, logits 2"),
        ([[[0, 1]], [[1, 0]]], ShapeError, "4 targets for 2 logits rows"),
        ([[np.nan, 1.0], [0.0, 1.0]], ValueError, "target value nan is not finite"),
        ([[0.5, 0.5], [np.inf, 0.0]], ValueError, "target value inf is not finite")])
    def test_evaluate_keeps_the_label_error_class(self, kind, labels, error, message):
        model = nn.Model([nn.Dense(2, 2)], seed=0)
        with pytest.raises(error, match=re.escape(message)) as err:
            nn.evaluate(model, Tensor([[0.0, 1.0], [1.0, 0.0]]), np.array(labels), kind)
        assert not isinstance(err.value, nn.DivergenceError)

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    def test_train_names_a_non_finite_target(self, kind):
        x, labels = datasets.two_moons(8, 0.1, 2)
        targets = np.eye(2)[labels]
        targets[5, 1] = np.nan
        config = nn.TrainConfig(epochs=1, batch_size=8, seed=1, loss=kind)
        with pytest.raises(ValueError, match="target value nan is not finite") as err:
            nn.train(nn.Model([nn.Dense(2, 2)], seed=0), config, (x, targets))
        assert not isinstance(err.value, nn.DivergenceError)

    def test_evaluate_peaks_near_its_input(self, alloc_peak):
        # Tooling, not timing: the batch runs in 8-row blocks, and each
        # block's output, gate scratch, loss scratch and accuracy bool are
        # an eighth of the input each (0.50). The whole batch's forward
        # would be one input size, and np.argmax's copy of the read-only
        # logits one more (2.00).
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((64, 4096)))
        labels = rng.integers(0, 4096, 64)
        model = nn.Model([nn.Activation(act.preset("ash"))], seed=1)
        peak = alloc_peak(lambda: nn.evaluate(model, x, labels), x.data.nbytes)
        assert peak <= 0.6, f"peak {peak:.2f}x the input"

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    def test_evaluate_takes_the_one_hot_targets_its_loss_takes(self, kind):
        x, labels = datasets.two_moons(40, 0.1, 2)
        model = nn.Model(mlp("ash"), seed=0)
        want = nn.evaluate(model, x, labels, kind, batch_size=16)
        got = nn.evaluate(model, x, np.eye(2)[labels], kind, batch_size=16)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    def test_train_takes_the_one_hot_targets_its_loss_takes(self, kind):
        # train reads each batch's label rows through the loss, so one-hot
        # rows train as the class indices they encode, bit for bit.
        x, labels = datasets.two_moons(40, 0.1, 2)
        runs = []
        for targets in (labels, np.eye(2)[labels]):
            model = nn.Model(mlp("ash"), seed=0)
            config = nn.TrainConfig(epochs=3, batch_size=16, seed=1, loss=kind, val_split=0.25)
            runs.append([(r.train_loss, r.val_loss, r.val_acc, r.zk_snapshot)
                         for r in nn.train(model, config, (x, targets))])
        assert runs[1] == runs[0]
        assert all(_bits(a[:3]) == _bits(b[:3]) for a, b in zip(*runs))

    def test_standalone_evaluate_divergence_is_public(self):
        model = nn.Model([nn.Dense(2, 2)], seed=0)
        model.params["dense0.W"] = Tensor(np.full((2, 2), 1e308))
        x = Tensor([[0.0, 0.0], [1.0, 1.0]])  # the second row overflows
        with pytest.raises(nn.DivergenceError) as err:
            nn.evaluate(model, x, np.array([0, 1]), batch_size=1)
        assert (err.value.epoch, err.value.batch, err.value.where) == (None, 1, "dense0")
        assert err.value.phase == "evaluation"
        assert str(err.value) == "non-finite value at batch 1, in dense0 (evaluation)"

    def test_direct_forward_divergence_is_public(self):
        model = nn.Model([nn.Dense(2, 2), nn.Activation(act.preset("relu"))], seed=0)
        model.params["dense0.W"] = Tensor(np.full((2, 2), 1e308))
        with pytest.raises(nn.DivergenceError) as err:
            model.forward(Tensor([[1.0, 1.0]]))
        assert (err.value.where, err.value.epoch, err.value.batch, err.value.phase) == \
            ("dense0", None, None, None)
        assert str(err.value) == "non-finite value in dense0"

    def test_non_finite_grad_is_named_at_its_parameter(self):
        model, data = _overflowing_grad_run()
        cfg = nn.TrainConfig(epochs=1, batch_size=1,
                             optimizer=nn.OptimizerSpec(kind="sgd", lr=1e-3))
        with pytest.raises(nn.DivergenceError) as err:
            nn.train(model, cfg, data)
        assert str(err.value) == "non-finite value at epoch 0, batch 0, in dense0.W (training)"

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

    def test_fractional_label_is_not_trained_as_its_floor(self):
        model = nn.Model([nn.Dense(2, 2)], seed=0)
        data = (Tensor([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match="class label 0.5 is not an integer") as err:
            nn.train(model, nn.TrainConfig(epochs=1, batch_size=1), data)
        assert not isinstance(err.value, nn.DivergenceError)

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
        assert isinstance(out, Tensor)
        rep = st.normality_report(out)
        assert abs(rep.skewness) < 0.2
        assert abs(rep.excess_kurtosis) < 0.3


def _whole_batch_evaluate(model, x, targets, kind, batch_size=256):
    """evaluate written out: each batch's whole forward, then the public
    loss_fn and accuracy of its logits."""
    n = x.shape[0]
    total, correct = 0.0, 0.0
    for start in range(0, n, batch_size):
        xb = Tensor(x.data[start:start + batch_size])
        logits, _ = model.forward(xb, trainable=False)
        yb = targets[start:start + batch_size]
        total += nn.loss_fn(kind, logits, yb).item() * xb.shape[0]
        correct += nn.accuracy(logits, yb) * xb.shape[0]
    return total / n, correct / n


def _one_hot(labels, classes):
    rows = np.zeros((labels.size, classes))
    rows[np.arange(labels.size), labels] = 1.0
    return rows


def _ash_case(cols):
    rng = np.random.default_rng(cols)
    x = Tensor(rng.standard_normal((64, cols)))
    return nn.Model([nn.Activation(act.preset("ash"))], seed=1), x, rng.integers(0, cols, 64)


def _mlp_case():
    x, labels = datasets.two_moons(40, 0.1, 2)
    return nn.Model(mlp("ash"), seed=0), x, labels


def _per_channel_conv_case():
    # 147456 input elements, above _WHOLE_ELEMS, but per-channel stats.
    rng = np.random.default_rng(12)
    spec = act.spec_from_json({"kind": "smooth_ash", "stats_mode": "per-channel"})
    layers = [nn.Conv2d(2, 2, 1, 2), nn.Activation(spec), nn.Flatten(),
              nn.Dense(63 * 47 * 2, 3)]
    x = Tensor(rng.standard_normal((48, 64, 48, 1)))
    return nn.Model(layers, seed=3), x, rng.integers(0, 3, 48)


class TestRowBlockEvaluate:
    """evaluate runs a row-wise model's large batches in row blocks, with the
    bits of the whole batch's forward, loss and accuracy."""

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    @pytest.mark.parametrize("one_hot", [False, True], ids=["indices", "one_hot"])
    @pytest.mark.parametrize("case,batch_size,forwards", [
        (functools.partial(_ash_case, 4096), 256, 8),      # blocks of 8 rows
        (functools.partial(_ash_case, 16384), 256, 32),    # blocks of 2 rows
        (functools.partial(_ash_case, 16384), 24, 32),     # 24, 24 and 16 rows by 2
        (_mlp_case, 16, 3),                                # one block per batch
        (_per_channel_conv_case, 256, 1),                  # the whole batch
    ], ids=["ash_64x4096", "ash_64x16384", "ash_64x16384_batches", "mlp", "per_channel_conv"])
    def test_matches_the_whole_batch_bits(self, case, batch_size, forwards, kind, one_hot,
                                          monkeypatch):
        model, x, labels = case()
        classes = model.forward(Tensor(x.data[:1]), trainable=False)[0].shape[1]
        targets = _one_hot(labels, classes) if one_hot else labels
        want = _whole_batch_evaluate(model, x, targets, kind, batch_size)
        calls = []
        forward = nn.Model.forward
        monkeypatch.setattr(nn.Model, "forward",
                            lambda self, *a, **k: calls.append(a[0].shape) or forward(self, *a, **k))
        got = nn.evaluate(model, x, targets, kind, batch_size)
        assert _bits(got) == _bits(want)
        # Plain floats: the comparison CSVs write their repr.
        assert [type(v) for v in got] == [float, float]
        assert len(calls) == forwards

    @pytest.mark.parametrize("kind", nn.LOSS_KINDS)
    @pytest.mark.parametrize("val_split", [0.0, 0.25])
    def test_train_records_match_a_whole_batch_validation(self, kind, val_split):
        # 16 or 64 validation rows of 16384: above _WHOLE_ELEMS, so walked.
        model, x, labels = _ash_case(16384)
        config = nn.TrainConfig(epochs=2, batch_size=64, seed=5, loss=kind, val_split=val_split)
        order = tensor.RngState(5, counter=nn._DATA_STREAM_OFFSET).permutation(64)
        n_val = int(round(val_split * 64))
        val = order[64 - n_val:] if n_val else order
        want = []

        def on_epoch(record):
            want.append(_whole_batch_evaluate(model, Tensor(x.data[val]), labels[val], kind, 64))

        records = nn.train(model, config, (x, labels), on_epoch=on_epoch)
        assert len(records) == 2
        assert [_bits((r.val_loss, r.val_acc)) for r in records] == [_bits(w) for w in want]

    def test_overflow_names_the_whole_batchs_layer(self):
        # One-row blocks: block 0 overflows in act1 only, block 2 in act0
        # already. The whole batch's forward, and so evaluate, names act0.
        x = np.zeros((4, 65536))
        x[0], x[2] = 1.7e308, 1.75e308
        x = Tensor(x)
        model = nn.Model([nn.Activation(act.preset("selu"))] * 2, seed=0)
        for rows, where in ((x.data[:1], "act1"), (x.data, "act0")):
            with pytest.raises(nn.DivergenceError) as err:
                model.forward(Tensor(rows), trainable=False)
            assert err.value.where == where
        with pytest.raises(nn.DivergenceError) as err:
            nn.evaluate(model, x, np.zeros(4, dtype=int))
        assert str(err.value) == "non-finite value at batch 0, in act0 (evaluation)"

    def test_overflow_comes_before_a_label_error(self):
        # Block 0 runs and then fails the label check; block 2 overflows.
        # The whole batch's forward overflows before any label is read.
        x = np.zeros((4, 65536))
        x[2] = 1.75e308
        model = nn.Model([nn.Activation(act.preset("selu"))] * 2, seed=0)
        with pytest.raises(nn.DivergenceError, match=r"batch 0, in act0 \(evaluation\)"):
            nn.evaluate(model, Tensor(x), np.full(4, 70000))

    def test_walked_evaluate_peaks_at_a_fifth_of_its_input(self, alloc_peak):
        # Tooling, not timing: 2-row blocks, each gathered, run and summed
        # through block-sized buffers; the whole batch's forward alone is
        # one input size.
        model, x, labels = _ash_case(16384)
        peak = alloc_peak(lambda: nn.evaluate(model, x, labels), x.data.nbytes)
        assert peak <= 0.2, f"peak {peak:.2f}x the input"

    def test_train_holds_no_gathered_split_while_it_validates(self, monkeypatch):
        # Tooling, not timing: train hands evaluate the split as row indices,
        # so what is allocated when validation starts is under a tenth of the
        # split (one split size if train gathered it whole).
        model, x, labels = _ash_case(16384)
        config = nn.TrainConfig(epochs=1, batch_size=64, seed=5)
        held, evaluate = [], nn.evaluate
        monkeypatch.setattr(nn, "evaluate", lambda *a, **k: held.append(
            tracemalloc.get_traced_memory()[0]) or evaluate(*a, **k))
        nn.train(model, config, (x, labels))  # warm-up
        tracemalloc.start()
        try:
            nn.train(model, config, (x, labels))
        finally:
            tracemalloc.stop()
        held = held[-1] / x.data.nbytes
        assert held <= 0.1, f"{held:.3f}x the split held"

    @pytest.mark.parametrize("batch_size,n_labels,rows,message", [
        (-1, 4, None, "batch_size must be an integer >= 1, got -1"),
        (0, 4, None, "batch_size must be an integer >= 1, got 0"),
        (2.5, 4, None, "batch_size must be an integer >= 1, got 2.5"),
        (float("nan"), 4, None, "batch_size must be an integer >= 1, got nan"),
        (True, 4, None, "batch_size must be an integer >= 1, got True"),
        (2, 6, None, "dataset has 4 rows but 6 labels"),
        (2, 3, None, "dataset has 4 rows but 3 labels"),
        (2, 4, np.array([], dtype=int), "rows selects no row of the dataset"),
    ], ids=["negative", "zero", "fraction", "nan", "bool", "more-labels", "fewer-labels",
            "no-rows"])
    def test_evaluate_checks_its_arguments(self, batch_size, n_labels, rows, message):
        model = nn.Model([nn.Dense(2, 2)], seed=0)
        x = Tensor(np.arange(8.0).reshape(4, 2))
        with pytest.raises(ValueError, match=re.escape(message)):
            nn.evaluate(model, x, np.arange(n_labels) % 2, batch_size=batch_size, rows=rows)
