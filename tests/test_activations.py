"""Activation zoo and the threshold-adaptive family.

Expected values were frozen from high-precision evaluations of the
defining formulas; structural identities are checked against
independently computed routes (brute-force statistics, the generalized
form, finite differences).
"""

import functools
import itertools
import json

import numpy as np
import pytest

from ashlab import _normal, tensor
from ashlab import activations as act
from ashlab import autodiff as ad
from ashlab import nn
from ashlab import stats as st
from ashlab.tensor import RngState, Tensor, moments, randn

SIGMOID_2 = 0.8807970779778823
SWISH_1 = 0.7310585786300049     # S(1)
PHI_1 = 0.8413447460685429
SOFTPLUS_1 = 1.3132616875182228
ELU_M1 = -0.6321205588285577     # e^-1 - 1

KIND_NAMES = ("relu", "lrelu", "prelu", "softplus", "elu", "selu", "gelu", "swish",
              "hard_ash", "heaviside_ash", "smooth_ash", "gen_swish", "leaky_ash", "fixed_ash")
PRESET_NAMES = ("relu", "lrelu", "prelu", "softplus", "elu", "selu", "gelu", "swish",
                "ash", "smooth_ash", "hard_ash", "heaviside_ash", "l_ash", "leaky_ash",
                "gen_swish", "gen_swish_frozen", "f_ash_10", "f_ash_50", "f_ash_90", "f_ash_2.5")


class TestSigmoid:
    def test_half_at_zero(self):
        assert act.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_reference_value(self):
        assert act.sigmoid(Tensor([2.0])).data[0] == pytest.approx(SIGMOID_2, abs=1e-15)

    def test_symmetry_identity(self):
        x = np.linspace(-30, 30, 2001)
        s = act.sigmoid(Tensor(x)).data + act.sigmoid(Tensor(-x)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-15)

    def test_no_overflow_at_700(self):
        out = act.sigmoid(Tensor([-700.0, 700.0, -745.0, 745.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-300)
        assert out[1] == 1.0


class TestBaselines:
    def test_relu(self):
        assert act.relu(Tensor([-3.0])).data[0] == 0.0
        assert act.relu(Tensor([3.0])).data[0] == 3.0

    def test_lrelu(self):
        out = act.lrelu(Tensor([-2.0, 2.0]), 0.01).data
        np.testing.assert_allclose(out, [-0.02, 2.0], atol=1e-15)

    def test_softplus(self):
        assert act.softplus(Tensor([1.0])).data[0] == pytest.approx(SOFTPLUS_1, abs=1e-14)
        big = act.softplus(Tensor([800.0])).data[0]
        assert big == pytest.approx(800.0, abs=1e-9)

    def test_elu(self):
        out = act.elu(Tensor([-1.0, 2.0])).data
        assert out[0] == pytest.approx(ELU_M1, abs=1e-14)
        assert out[1] == 2.0

    def test_selu_at_one(self):
        assert act.selu(Tensor([1.0])).data[0] == pytest.approx(1.0507, abs=1e-4)

    def test_gelu_and_swish_at_zero(self):
        assert act.gelu(Tensor([0.0])).data[0] == 0.0
        assert act.swish(Tensor([0.0])).data[0] == 0.0

    def test_gelu_uses_exact_normal_cdf(self):
        assert act.gelu(Tensor([1.0])).data[0] == pytest.approx(PHI_1, abs=1e-12)

    def test_swish_reference(self):
        assert act.swish(Tensor([1.0])).data[0] == pytest.approx(SWISH_1, abs=1e-14)

    def test_baseline_dispatch_unknown(self):
        with pytest.raises(ValueError):
            act.preset("mish")


class TestHeaviside:
    def test_values(self):
        assert act.heaviside(Tensor([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 1.0]

    def test_gate_recovers_relu_off_zero(self):
        x = np.array([-2.0, -0.1, 0.3, 5.0])
        prod = act.heaviside(Tensor(x)).data * x
        assert np.array_equal(prod, np.maximum(x, 0.0))

    def test_gradient_blocked(self):
        t = ad.Tape()
        xv = t.variable(Tensor([-1.0, 0.5]), requires_grad=True)
        ad.backward(ad.sum_all(act.heaviside(xv)))
        assert np.all(xv.grad.data == 0.0)


class TestHardForm:
    def test_one_to_ten_top30(self):
        x = Tensor(np.arange(1.0, 11.0))
        z = st.z_from_percentile(30.0)
        assert st.compute_stats(x).threshold(z) == pytest.approx(7.006, abs=1e-3)
        out = act.hard_ash(x, z)
        assert out.tolist() == [0, 0, 0, 0, 0, 0, 0, 8, 9, 10]

    def test_huge_negative_z_is_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=64))
        assert np.array_equal(act.hard_ash(x, -1e6).data, x.data)

    def test_huge_positive_z_zeroes_bounded_input(self):
        x = Tensor(np.random.default_rng(0).normal(size=64))
        assert np.all(act.hard_ash(x, 1e6).data == 0.0)

    def test_boundary_element_is_kept(self):
        # mu = 2, sigma floored comparison: with z = 0, threshold = mu,
        # and the element equal to it must pass through.
        x = Tensor([1.0, 2.0, 3.0])
        out = act.hard_ash(x, 0.0)
        assert out.tolist() == [0.0, 2.0, 3.0]

    def test_step_form_drops_boundary(self):
        x = Tensor([1.0, 2.0, 3.0])
        out = act.heaviside_ash(x, 0.0)
        assert out.tolist() == [0.0, 0.0, 3.0]

    def test_purity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            data = rng.normal(size=100)
            out = act.hard_ash(Tensor(data), float(rng.normal()))
            assert np.all((out.data == 0.0) | (out.data == data))

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            data = rng.normal(size=100)
            c = float(rng.uniform(0.05, 20.0))
            z = float(rng.normal())
            lhs = act.hard_ash(Tensor(c * data), z).data
            rhs = c * act.hard_ash(Tensor(data), z).data
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 10, 128])
    @pytest.mark.parametrize("v", [0.1, 1 / 3, -2.7, 1e-8])
    def test_constant_rows_sit_on_the_boundary(self, v, n):
        # A constant group's threshold at z = 0 is its own value exactly:
        # the hard form keeps every element, the step form drops them all.
        x = Tensor(np.full((2, n), v))
        assert np.all(act.hard_ash(x, 0.0).data == v)
        assert np.all(act.heaviside_ash(x, 0.0).data == 0.0)

    def test_trainable_z_gets_zero_grad(self):
        t = ad.Tape()
        xv = t.variable(Tensor(np.random.default_rng(1).normal(size=32)), requires_grad=True)
        zv = t.variable(Tensor([0.3]), requires_grad=True)
        ad.backward(ad.sum_all(act.hard_ash(xv, zv)))
        assert np.all(zv.grad.data == 0.0)
        assert set(np.unique(xv.grad.data)) <= {0.0, 1.0}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_tensor_and_variable_inputs_agree_bitwise(name):
    # Rank-2 input: a model applies its activation to a Variable batch,
    # and apply_spec on the same Tensor must give the same bits.
    x = Tensor(np.random.default_rng(8).normal(size=(4, 6)))
    spec = act.preset(name)
    on_tensor = act.apply_spec(spec, x).data
    on_variable = act.apply_spec(spec, ad.Tape().variable(x)).value.data
    assert on_tensor.tobytes() == on_variable.tobytes()


@pytest.mark.parametrize("call", [
    lambda x, p: act.prelu(x, p),
    lambda x, p: act.gen_swish(x, p, 0.3),
    lambda x, p: act.conditional_unit(x, p, 0.1),
    lambda x, p: act.smooth_ash(x, p),
    lambda x, p: act.hard_ash(x, p),
], ids=["prelu", "gen_swish", "conditional_unit", "smooth_ash", "hard_ash"])
def test_tensor_input_records_on_the_parameter_tape(call):
    # A Tensor x with a Variable parameter: the output is recorded on the
    # parameter's tape, and the parameter grad has the bits it has when x
    # is a Variable that needs no grad.
    rng = np.random.default_rng(12)
    x, g = Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(4, 6)))

    def param_grad(wrap):
        tape = ad.Tape()
        p = tape.variable(Tensor([0.3]), requires_grad=True)
        out = call(tape.variable(x) if wrap else x, p)
        assert isinstance(out, ad.Variable) and out.tape is tape
        ad.backward(ad.sum_all(ad.mul(out, g)))
        return out.value.data.tobytes(), p.grad.data.tobytes()

    assert param_grad(False) == param_grad(True)


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("value", [1.5, -1.5])
def test_rank0_input_stays_rank0(name, value):
    # A rank-0 Tensor is one element: its output is rank 0 and carries the
    # bits of the same call on the one-element vector. Through a rank-0
    # Variable, with every (1,) parameter trainable, the output and the x
    # grad are rank 0, and the output, x grad and parameter grads carry the
    # bits of the one-element call.
    spec = act.preset(name)
    out = act.apply_spec(spec, Tensor(value))
    assert out.shape == ()
    assert out.data.tobytes() == act.apply_spec(spec, Tensor([value])).data.tobytes()
    # The same parameters given as (1,) Tensors, not numbers, change nothing.
    out = act.apply_spec(spec, Tensor(value), act.trainable_params(spec))
    assert out.shape == ()
    assert out.data.tobytes() == act.apply_spec(spec, Tensor([value])).data.tobytes()

    def run(x):
        tape = ad.Tape()
        params = {key: tape.variable(v, requires_grad=True)
                  for key, v in act.trainable_params(spec).items()}
        xv = tape.variable(x, requires_grad=True)
        out = act.apply_spec(spec, xv, params)
        ad.backward(ad.sum_all(out))
        return (out.value.data, xv.grad.data,
                {key: p.grad.data.tobytes() for key, p in params.items()})

    out0, gx0, params0 = run(Tensor(value))
    out1, gx1, params1 = run(Tensor([value]))
    assert out0.shape == () and gx0.shape == ()
    assert out0.tobytes() == out1.tobytes()
    assert gx0.tobytes() == gx1.tobytes()
    assert params0 == params1


class TestSmoothForm:
    def test_unit_element_value(self):
        # Input [1, -1] has mu = 0, sigma = 1, so the element at 1 with
        # z = 0, alpha = 1 is 1 * S(2).
        out = act.smooth_ash(Tensor([1.0, -1.0]), z_k=0.0, alpha=1.0)
        assert out.data[0] == pytest.approx(SIGMOID_2, abs=1e-15)

    def test_zeros_stay_zero(self):
        out = act.smooth_ash(Tensor(np.zeros(16)), z_k=0.7)
        assert np.all(out.data == 0.0)

    def test_zk_gradient_matches_fd(self):
        xx = Tensor(np.random.default_rng(10).normal(size=300))

        def f(zv):
            return ad.sum_all(act.smooth_ash(zv.tape.variable(xx), z_k=zv, alpha=1.2))

        rep = ad.fd_check(f, Tensor([0.4]))
        assert rep.max_rel_err < 1e-4
        assert abs(rep.analytic[0]) > 0.0

    def test_x_gradient_matches_fd_through_stats(self):
        x = Tensor(np.random.default_rng(11).normal(0, 1.5, 64))
        rep = ad.fd_check(lambda v: ad.sum_all(act.smooth_ash(v, z_k=0.2, alpha=1.5)), x)
        assert rep.max_rel_err < 1e-4

    def test_stop_stats_equals_frozen_threshold_gradient(self):
        # Freezing mu and sigma must give exactly the gradient of the
        # generalized form with constant a = 2*alpha, b = -2*alpha*thr.
        data = Tensor(np.random.default_rng(12).normal(size=128))
        alpha, z = 1.3, 0.25
        stats = st.compute_stats(data)

        t = ad.Tape()
        xv = t.variable(data, requires_grad=True)
        ad.backward(ad.sum_all(act.smooth_ash(xv, z_k=z, alpha=alpha, grad_mode="stop-stats")))
        g_stop = xv.grad.data.copy()

        t = ad.Tape()
        xv = t.variable(data, requires_grad=True)
        a = 2.0 * alpha
        b = -2.0 * alpha * (stats.mu + z * stats.sigma)
        ad.backward(ad.sum_all(act.gen_swish(xv, a, b)))
        np.testing.assert_allclose(g_stop, xv.grad.data, rtol=1e-9, atol=1e-12)

    def test_scale_relation(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            data = rng.normal(size=80)
            c = float(rng.uniform(0.1, 4.0))
            alpha = float(rng.uniform(0.5, 2.0))
            z = float(rng.normal() * 0.6)
            lhs = act.smooth_ash(Tensor(c * data), z_k=z, alpha=alpha).data
            rhs = c * act.smooth_ash(Tensor(data), z_k=z, alpha=alpha * c).data
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_sandwich_bound(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            data = rng.normal(size=80)
            z = float(rng.normal() * 0.6)
            smooth = act.smooth_ash(Tensor(data), z_k=z).data
            hard = act.hard_ash(Tensor(data), z).data
            assert np.all(np.abs(smooth - hard) <= np.abs(data) + 1e-15)

    def test_tanh_and_sigmoid_forms_agree(self):
        x = Tensor(np.random.default_rng(15).normal(0, 3, 1000))
        for alpha in (0.5, 1.0, 4.0):
            sig = act.smooth_ash(x, z_k=0.3, alpha=alpha).data
            tnh = act.smooth_ash_tanh(x, z_k=0.3, alpha=alpha).data
            assert np.max(np.abs(sig - tnh)) < 1e-12

    def test_sharpness_limit(self):
        x = randn([5000], RngState(16))
        stats = st.compute_stats(x)
        thr = stats.threshold(0.25)
        off_band = np.abs(x.data - thr) >= 0.01
        smooth = act.smooth_ash(x, z_k=0.25, alpha=1000.0).data
        hard = act.hard_ash(x, 0.25).data
        assert np.max(np.abs(smooth - hard)[off_band]) < 1e-3

    def test_constant_input_uses_sigma_floor(self):
        out = act.smooth_ash(Tensor(np.full(8, 2.0)), z_k=0.0)
        # threshold = 2.0 exactly (z = 0), so the gate is S(0) = 1/2
        np.testing.assert_allclose(out.data, 1.0, atol=1e-15)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tobytes()


def _where_sigmoid(u):
    # The branchy writing stable_sigmoid replaced.
    t = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))


def _ash_reference(x, z, alpha, leak, stats_mode, grad_mode, g):
    """Out-of-place smooth-ASH forward and its four grads for upstream g,
    as the primitive computed them before it ran in place."""
    axes = act._stats_axes(x.ndim, stats_mode)
    n, mu, centered, m2 = moments(x, axes)
    sigma_raw = np.sqrt(m2 / n)
    sigma = np.maximum(sigma_raw, st.SIGMA_FLOOR)
    z_b = z if z.size == 1 else z.reshape((1,) * (x.ndim - 1) + (-1,))
    u = centered - z_b * sigma
    u *= 2.0 * alpha
    s = _where_sigmoid(u)
    gate = (1.0 - leak) * s
    gate += leak
    out = x * gate
    floored = sigma_raw < st.SIGMA_FLOOR
    sigma_safe = np.where(floored, 1.0, sigma_raw)
    w = g * x * (1.0 - leak) * s * (1.0 - s)
    gx = g * gate + 2.0 * alpha * w
    if grad_mode == "through-stats":
        a_sum = w.sum(axis=axes, keepdims=True)
        gx = gx - 2.0 * alpha * a_sum / n
        b_sum = (w * z_b).sum(axis=axes, keepdims=True)
        chain = np.where(floored, 0.0, b_sum / (n * sigma_safe))
        gx = gx - 2.0 * alpha * centered * chain
    gz = (-2.0 * alpha) * (sigma * w)
    gz = np.sum(gz).reshape(z.shape) if z.size == 1 else gz.reshape(-1, z.size).sum(axis=0)
    return out, {"x": 0.0 + gx, "z": 0.0 + gz,
                 "leak": 0.0 + np.sum(g * x * (1.0 - s)).reshape(1),
                 "alpha": 0.0 + (np.sum(w * u) / alpha).reshape(1)}


class TestInPlaceAshBits:
    """The in-place smooth-ASH primitive keeps every bit of the out-of-place one."""

    SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        -2.2250738585072014e-308, 1e-17, -1e-17, 36.7, -36.7, 700.0, -700.0,
                        745.2, -745.2, 1e300, -1e300, 1.7976931348623157e308,
                        -1.7976931348623157e308])

    def test_sigmoid_matches_where_formula_on_special_values(self):
        grid = np.concatenate([self.SPECIAL, np.random.default_rng(3).normal(size=4096)
                               * np.repeat(10.0 ** np.arange(-17, 303, 20), 256)])
        want = _bits(_where_sigmoid(grid))
        assert _bits(ad.stable_sigmoid(grid)) == want
        buf = grid.copy()
        assert ad.stable_sigmoid(buf, out=buf) is buf
        assert _bits(buf) == want

    def test_sigmoid_keeps_the_copysign_bits_on_every_float(self):
        # -|u| as abs then negative: the bits of copysign(u, -1), NaN payloads
        # and signs, infinities and subnormals included.
        bits = np.random.default_rng(5).integers(0, 2**64, size=1 << 16, dtype=np.uint64)
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFF4000000000123, 0x7FF0000000000000, 0xFFF0000000000000],
                        dtype=np.uint64)
        u = np.concatenate([self.SPECIAL, np.concatenate([bits, nans]).view(np.float64)])
        with np.errstate(over="ignore", invalid="ignore"):
            t = np.copysign(u, -1.0)
            want = np.exp(np.minimum(u, 0.0)) / (1.0 + np.exp(t))
            got = ad.stable_sigmoid(u)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("grad_mode", act.GRAD_MODES)
    @pytest.mark.parametrize("shape,stats_mode", [
        ((23,), "per-sample"), ((6, 5), "per-sample"), ((2, 3, 4, 5), "per-sample"),
        ((2, 3, 4, 5), "per-channel"),
        # The benchmark's gate inputs: a 32-row step and the dataset
        # pre-activations of the 2-16-16-2 MLP, and a 64-row step of the
        # 128-wide one.
        ((32, 16), "per-sample"), ((256, 16), "per-sample"), ((64, 128), "per-sample")])
    def test_output_and_grads_match_out_of_place_formulas(self, shape, stats_mode, grad_mode):
        rng = np.random.default_rng(sum(shape))
        for leak, alpha, per_channel, constant in itertools.product(
                (0.0, 0.3), (1.0, 2.5), (False, True), (False, True)):
            x = rng.normal(size=shape) * 3.0
            if constant:  # the first sample; a rank-1 input is one sample
                x[0 if x.ndim > 1 else slice(None)] = 1.7
            z = rng.normal(size=shape[-1]) if per_channel else np.array([0.4])
            g = rng.normal(size=shape)
            case = f"leak={leak} alpha={alpha} per_channel={per_channel} constant={constant}"
            want_out, want = _ash_reference(x, z, alpha, leak, stats_mode, grad_mode, g)

            t = ad.Tape()
            xv, zv, lv, av = (t.variable(Tensor(v), requires_grad=True)
                              for v in (x, z, [leak], [alpha]))
            out = act.leaky_ash(xv, zv, leak=lv, alpha=av, stats_mode=stats_mode,
                                grad_mode=grad_mode)
            ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            assert _bits(out.value.data) == _bits(want_out), case
            for key, var in (("x", xv), ("z", zv), ("leak", lv), ("alpha", av)):
                assert _bits(var.grad.data) == _bits(want[key]), f"{key} grad, {case}"

            # Constant leak and alpha, x alone trainable: s shares u's buffer.
            t = ad.Tape()
            xv = t.variable(Tensor(x), requires_grad=True)
            zc = t.variable(Tensor(z))
            out = act.leaky_ash(xv, zc, leak=leak, alpha=alpha, stats_mode=stats_mode,
                                grad_mode=grad_mode)
            ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            assert _bits(out.value.data) == _bits(want_out), case
            assert _bits(xv.grad.data) == _bits(want["x"]), f"x-only grad, {case}"

            # Forward only: a Tensor input (scalar z) and a Variable that needs no grad.
            if not per_channel:
                fwd = act.leaky_ash(Tensor(x), float(z[0]), leak=leak, alpha=alpha,
                                    stats_mode=stats_mode, grad_mode=grad_mode)
                assert _bits(fwd.data) == _bits(want_out), case
            t = ad.Tape()
            fwd = act.leaky_ash(t.variable(Tensor(x)), t.variable(Tensor(z)), leak=leak,
                                alpha=alpha, stats_mode=stats_mode, grad_mode=grad_mode)
            assert _bits(fwd.value.data) == _bits(want_out), case
            assert len(t) == 0

    def test_tensor_input_builds_no_tape(self, monkeypatch):
        def no_tape(*args, **kwargs):
            raise AssertionError("a forward-only call built a tape")

        x = Tensor(np.random.default_rng(4).normal(size=(8, 6)))
        calls = {name: functools.partial(act.apply_spec, act.preset(name))
                 for name in PRESET_NAMES}
        calls.update(sigmoid=act.sigmoid, heaviside=act.heaviside,
                     conditional_unit=functools.partial(act.conditional_unit, scale=1.5,
                                                        threshold=0.2))
        want = {name: call(x).data for name, call in calls.items()}
        monkeypatch.setattr(ad.Tape, "__init__", no_tape)
        monkeypatch.setattr(ad, "record", no_tape)
        for name, call in calls.items():
            out = call(x)
            assert isinstance(out, Tensor), name
            assert _bits(out.data) == _bits(want[name]), name

    def test_no_grad_model_forward_records_nothing(self, monkeypatch):
        def no_tape(*args, **kwargs):
            raise AssertionError("a forward-only call built a tape")

        layers = [nn.Dense(3, 8), nn.Activation(act.preset("ash")),
                  nn.Activation(act.preset("l_ash")), nn.Dense(8, 2)]
        model = nn.Model(layers, seed=2)
        monkeypatch.setattr(ad.Tape, "__init__", no_tape)
        monkeypatch.setattr(ad, "record", no_tape)
        out, params = model.forward(
            Tensor(np.random.default_rng(5).normal(size=(4, 3))), trainable=False)
        assert isinstance(out, Tensor) and out.shape == (4, 2)
        assert params is model.params

    def test_forward_allocates_at_most_three_inputs(self, alloc_peak):
        # Tooling, not timing: the peak of traced allocations of one forward.
        x = Tensor(np.random.default_rng(6).normal(size=1 << 16))
        spec = act.preset("ash")
        peak = alloc_peak(lambda: act.apply_spec(spec, x), x.data.nbytes)
        assert peak <= 3, f"peak {peak:.2f}x the input"


    def test_forward_backward_allocates_at_most_seven_and_a_half_inputs(self, alloc_peak):
        # Tooling, not timing: x and a scalar z_k trainable, loss = sum, grad read.
        x = Tensor(np.random.default_rng(8).normal(size=(16, 4096)))

        def forward_backward():
            t = ad.Tape()
            xv = t.variable(x, requires_grad=True)
            ad.backward(ad.sum_all(act.smooth_ash(xv, t.variable(Tensor([0.3]),
                                                                 requires_grad=True))))
            return xv.grad

        peak = alloc_peak(forward_backward, x.data.nbytes)
        assert peak <= 7.5, f"peak {peak:.2f}x the input"

    def test_zk_only_forward_backward_allocates_at_most_two_and_a_fifth_inputs(self, alloc_peak):
        # Tooling, not timing: only z_k trainable, so no x grad is formed.
        x = Tensor(np.random.default_rng(9).normal(size=(64, 16384)))

        def forward_backward():
            t = ad.Tape()
            zv = t.variable(Tensor([0.3]), requires_grad=True)
            ad.backward(ad.sum_all(act.smooth_ash(t.variable(x), zv)))
            return zv.grad

        peak = alloc_peak(forward_backward, x.data.nbytes)
        assert peak <= 2.2, f"peak {peak:.2f}x the input"

    @pytest.mark.parametrize("shape", [(256, 16), (64, 16384)])
    @pytest.mark.parametrize("spec", [
        act.preset("ash"), act.preset("l_ash"),
        act.spec_from_json({"kind": "smooth_ash", "trainable_alpha": True})],
        ids=["ash", "l_ash", "ash_alpha"])
    def test_param_grads_do_not_depend_on_x_needing_a_grad(self, shape, spec):
        # Without an x grad, 1 - s goes to a block scratch instead of gx.
        x = Tensor(np.random.default_rng(shape[1]).normal(size=shape) * 2.0)
        up = Tensor(np.random.default_rng(3).normal(size=shape))

        def param_grads(x_trainable):
            t = ad.Tape()
            params = {key: t.variable(v, requires_grad=True)
                      for key, v in act.trainable_params(spec).items()}
            xv = t.variable(x, requires_grad=x_trainable)
            out = act.apply_spec(spec, xv, params)
            ad.backward(ad.sum_all(ad.mul(out, up)))
            return {key: _bits(p.grad.data) for key, p in params.items()}

        assert param_grads(False) == param_grads(True)


def _gate_reference(x, z, stats_axes, keep_boundary):
    # The out-of-place margin the in-place gate replaced.
    n, _, centered, m2 = moments(x, stats_axes)
    sigma = np.maximum(np.sqrt(m2 / n), st.SIGMA_FLOOR)
    margin = centered - z * sigma
    mask = (margin >= 0.0) if keep_boundary else (margin > 0.0)
    return np.where(mask, x, 0.0), mask


class TestInPlaceGate:
    """hard_ash and heaviside_ash: tape-free on Tensors, in place, same bits."""

    @pytest.mark.parametrize("gate,keep_boundary", [(act.hard_ash, True),
                                                    (act.heaviside_ash, False)])
    @pytest.mark.parametrize("shape,stats_mode,stats_axes", [
        ((23,), "per-sample", (0,)), ((6, 5), "per-sample", (1,)),
        ((2, 3, 4, 5), "per-channel", (1, 2))])
    def test_matches_out_of_place_margin_and_builds_no_tape(
            self, monkeypatch, gate, keep_boundary, shape, stats_mode, stats_axes):
        rng = np.random.default_rng(len(shape))
        x = rng.normal(size=shape) * 3.0
        x[0 if x.ndim > 1 else slice(None)] = -1.7  # constant: a margin of exactly 0 at z = 0
        g = rng.normal(size=shape)
        for z in (0.0, 0.4):
            want, mask = _gate_reference(x, z, stats_axes, keep_boundary)
            t = ad.Tape()
            xv = t.variable(Tensor(x), requires_grad=True)
            out = gate(xv, t.variable(Tensor([z]), requires_grad=True), stats_mode=stats_mode)
            ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            assert _bits(out.value.data) == _bits(want)
            assert _bits(xv.grad.data) == _bits(0.0 + g * mask)  # a first grad lands on 0.0

        def no_tape(*args, **kwargs):
            raise AssertionError("a forward-only call built a tape")

        monkeypatch.setattr(ad.Tape, "__init__", no_tape)
        monkeypatch.setattr(ad, "record", no_tape)
        for z in (0.0, 0.4):
            want, _ = _gate_reference(x, z, stats_axes, keep_boundary)
            assert _bits(gate(Tensor(x), z, stats_mode=stats_mode).data) == _bits(want)
            assert _bits(gate(x, z, stats_mode=stats_mode).data) == _bits(want)

    @pytest.mark.parametrize("gate,keep_boundary", [(act.hard_ash, True),
                                                    (act.heaviside_ash, False)])
    def test_kept_negative_zero_stays_negative_zero(self, monkeypatch, gate, keep_boundary):
        # Each row's mean is below zero, so its -0.0 entries are kept as x.
        rng = np.random.default_rng(12)
        x = -np.abs(rng.normal(size=(9, 40))) - 0.5
        x[:, ::3] = -0.0
        want, mask = _gate_reference(x, 0.2, (1,), keep_boundary)
        assert mask[:, ::3].all() and np.signbit(want[:, ::3]).all()
        assert not mask.all()
        for whole, block in ((1 << 62, 1 << 15), (0, 80), (0, 1)):
            monkeypatch.setattr(tensor, "_WHOLE_ELEMS", whole)
            monkeypatch.setattr(tensor, "_BLOCK_ELEMS", block)
            assert _bits(gate(Tensor(x), 0.2).data) == _bits(want)

    @pytest.mark.parametrize("gate", [act.hard_ash, act.heaviside_ash])
    def test_forward_allocates_at_most_two_and_a_quarter_inputs(self, gate, alloc_peak):
        # Tooling, not timing: the peak of traced allocations of one forward.
        x = Tensor(np.random.default_rng(7).normal(size=1 << 16))
        peak = alloc_peak(lambda: gate(x, 0.5), x.data.nbytes)
        assert peak <= 2.25, f"peak {peak:.2f}x the input"


def _gate_run(x, z, leak, alpha, stats_mode, grad_mode, g):
    """Bits of every output of the gates on x: the leaky smooth form with x,
    z, leak and alpha trainable, and tape-free, and hard_ash with its grad."""
    t = ad.Tape()
    xv, zv, lv, av = (t.variable(Tensor(v), requires_grad=True)
                      for v in (x, z, [leak], [alpha]))
    out = act.leaky_ash(xv, zv, leak=lv, alpha=av, stats_mode=stats_mode, grad_mode=grad_mode)
    ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
    bits = {"out": out.value.data}
    bits.update((key, v.grad.data) for key, v in (("x", xv), ("z", zv), ("leak", lv),
                                                 ("alpha", av)))
    bits["tensor"] = act.leaky_ash(Tensor(x), float(z[0]), leak=leak, alpha=alpha,
                                   stats_mode=stats_mode, grad_mode=grad_mode).data
    t = ad.Tape()
    xv = t.variable(Tensor(x), requires_grad=True)
    hard = act.hard_ash(xv, float(z[0]), stats_mode=stats_mode)
    ad.backward(ad.sum_all(ad.mul(hard, Tensor(g))))
    bits.update(hard=hard.value.data, hard_x=xv.grad.data)
    return {key: _bits(v) for key, v in bits.items()}


class TestRowBlocks:
    """The leading-axis block walk (tensor._row_blocks) moves no bit."""

    @pytest.mark.parametrize("grad_mode", act.GRAD_MODES)
    @pytest.mark.parametrize("shape,stats_mode", [
        ((37,), "per-sample"), ((7, 13), "per-sample"), ((7, 3, 11), "per-sample"),
        ((5, 3, 11), "per-channel"), ((7, 3, 4, 5), "per-sample"),
        ((7, 3, 4, 5), "per-channel")])
    def test_tiny_blocks_match_one_block(self, monkeypatch, shape, stats_mode, grad_mode):
        rng = np.random.default_rng(sum(shape))
        # Mixed magnitudes over non-power-of-two extents: a sum of block sums
        # would round differently from the one whole-array sum.
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        x.reshape(-1)[::5] = -0.0
        if len(shape) == 3 and stats_mode == "per-channel":
            x[..., 0] = 1.7  # a constant (sigma-floored) group
        elif len(shape) > 1:
            x[0] = 1.7
        g = rng.normal(size=shape)
        row = x.size // shape[0]
        for leak, per_channel in itertools.product((0.0, 0.3), (False, True)):
            z = rng.normal(size=shape[-1]) if per_channel else np.array([0.4])
            monkeypatch.setattr(tensor, "_WHOLE_ELEMS", 1 << 62)
            want = _gate_run(x, z, leak, 1.5, stats_mode, grad_mode, g)
            # 3 rows a block leaves a shorter last block (7 or 5 rows, 37 elements).
            for rows in (1, 3):
                monkeypatch.setattr(tensor, "_WHOLE_ELEMS", 0)
                monkeypatch.setattr(tensor, "_BLOCK_ELEMS", rows * row)
                got = _gate_run(x, z, leak, 1.5, stats_mode, grad_mode, g)
                for key in want:
                    assert got[key] == want[key], f"{key}: leak={leak} " \
                        f"per_channel={per_channel} rows={rows}"

    def test_constant_input_and_normal_kernels_match_one_block(self, monkeypatch):
        x = np.full(37, -2.5)
        g = np.random.default_rng(2).normal(size=37)
        p = RngState(4).uniform(1000)
        monkeypatch.setattr(tensor, "_WHOLE_ELEMS", 1 << 62)
        want = _gate_run(x, np.array([0.4]), 0.3, 1.5, "per-sample", "stop-stats", g)
        ppf, cdf = _normal.norm_ppf(p), _normal.norm_cdf(20.0 * p - 10.0)
        monkeypatch.setattr(tensor, "_WHOLE_ELEMS", 0)
        monkeypatch.setattr(tensor, "_BLOCK_ELEMS", 3)
        assert _gate_run(x, np.array([0.4]), 0.3, 1.5, "per-sample", "stop-stats", g) == want
        assert _bits(_normal.norm_ppf(p)) == _bits(ppf)
        assert _bits(_normal.norm_cdf(20.0 * p - 10.0)) == _bits(cdf)

    @pytest.mark.parametrize("shape,blocks", [
        ((32, 16), 1), ((256, 16), 1), ((64, 128), 1), ((1024, 128), 1), ((1 << 17,), 1),
        ((64, 16384), 32), ((1 << 18,), 8)])
    def test_small_inputs_run_as_one_block_of_the_arrays_themselves(
            self, monkeypatch, shape, blocks):
        # Structural, not timing: mlp_small- and mlp_wide-sized gates run one
        # pass over the whole arrays, with no slicing; larger ones are walked.
        walks = []
        real = act._row_blocks

        def recording(arrays, *args, **kwargs):
            out = real(arrays, *args, **kwargs)
            walks.append((arrays, out))
            return out

        monkeypatch.setattr(act, "_row_blocks", recording)
        x = Tensor(np.random.default_rng(1).normal(size=shape))
        t = ad.Tape()
        xv = t.variable(x, requires_grad=True)
        out = act.smooth_ash(xv, t.variable(Tensor([0.3]), requires_grad=True))
        ad.backward(ad.sum_all(out))
        act.smooth_ash(x, 0.3)
        act.hard_ash(x, 0.3)
        # Forward, VJP, tape-free forward, hard gate; a rank-1 through-stats
        # VJP spans axis 0 and is one block without a walk.
        assert len(walks) == (4 if len(shape) > 1 else 3)
        for arrays, walk in walks:
            assert len(walk) == blocks
            if blocks == 1:
                assert walk[0] is arrays
            else:
                assert sum(len(b[0]) for b in walk) == shape[0]
                assert max(b[0].size for b in walk) <= tensor._BLOCK_ELEMS

    @pytest.mark.parametrize("grad_mode", act.GRAD_MODES)
    @pytest.mark.parametrize("shape", [(100, 3000), (7, 40000)])
    def test_walked_param_grads_match_full_size_sums(self, monkeypatch, shape, grad_mode):
        # The z, leak and alpha grads go through a block scratch into one
        # pairwise tree (a channel z: a row-by-row sum); blocks of rows of
        # 1000-element leaves, or of 4099-element ones, do not line up with
        # the leaves. The reference sums full-size products, as np.sum does.
        rng = np.random.default_rng(shape[0])
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        x[1] = 1.7  # a constant (sigma-floored) row
        g = rng.normal(size=shape)
        monkeypatch.setattr(tensor, "_WHOLE_ELEMS", 0)
        for leaf, per_channel in itertools.product((1000, 4099), (False, True)):
            monkeypatch.setattr(tensor, "_BLOCK_ELEMS", leaf)
            z = rng.normal(size=shape[-1]) if per_channel else np.array([0.4])
            want_out, want = _ash_reference(x, z, 1.5, 0.3, "per-sample", grad_mode, g)
            t = ad.Tape()
            xv, zv, lv, av = (t.variable(Tensor(v), requires_grad=True)
                              for v in (x, z, [0.3], [1.5]))
            out = act.leaky_ash(xv, zv, leak=lv, alpha=av, grad_mode=grad_mode)
            ad.backward(ad.sum_all(ad.mul(out, Tensor(g))))
            case = f"leaf={leaf} per_channel={per_channel}"
            assert _bits(out.value.data) == _bits(want_out), case
            for key, var in (("x", xv), ("z", zv), ("leak", lv), ("alpha", av)):
                assert _bits(var.grad.data) == _bits(want[key]), f"{key} grad, {case}"

    def test_zk_only_backward_allocates_at_most_a_quarter_input(self, alloc_peak):
        # Tooling, not timing: above the forward's live set (x, its output and
        # the kept s), the z_k grad needs only block-sized scratch.
        x = Tensor(np.random.default_rng(9).normal(size=(64, 16384)))

        def forward():
            t = ad.Tape()
            zv = t.variable(Tensor([0.3]), requires_grad=True)
            return zv, ad.sum_all(act.smooth_ash(t.variable(x), zv))

        # Each call runs the backward of a forward built before either call.
        forwards, grads = [forward(), forward()], []

        def backward():
            zv, loss = forwards.pop(0)
            ad.backward(loss)
            grads.append(zv.grad)

        peak = alloc_peak(backward, x.data.nbytes)
        assert _bits(grads[1].data) == _bits(grads[0].data)
        assert peak <= 0.25, f"peak {peak:.2f}x the input"

    def test_walked_forward_backward_allocates_at_most_four_and_a_quarter_inputs(self, alloc_peak):
        # Tooling, not timing: above the one-block size, the backward's scratch
        # is block-sized. The same call on one block peaks near 5x.
        x = Tensor(np.random.default_rng(8).normal(size=(64, 4096)))
        assert x.size > tensor._WHOLE_ELEMS

        def forward_backward():
            t = ad.Tape()
            xv = t.variable(x, requires_grad=True)
            ad.backward(ad.sum_all(act.smooth_ash(xv, t.variable(Tensor([0.3]),
                                                                 requires_grad=True))))
            return xv.grad

        peak = alloc_peak(forward_backward, x.data.nbytes)
        assert peak <= 4.25, f"peak {peak:.2f}x the input"


class TestStatsModes:
    def test_per_sample_rows_independent(self):
        a = np.random.default_rng(17).normal(size=16)
        b = a + 7.5  # same mask by shift invariance
        batch = Tensor(np.stack([a, b]))
        out = act.smooth_ash(batch, z_k=0.2).data
        row0 = act.smooth_ash(Tensor(a), z_k=0.2).data
        np.testing.assert_allclose(out[0], row0, atol=1e-14)
        # gates match between the shifted rows
        gate0 = out[0] / np.where(a == 0, 1, a)
        gate1 = out[1] / np.where(b == 0, 1, b)
        np.testing.assert_allclose(gate0, gate1, atol=1e-10)

    def test_per_channel_grouping(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(2, 4, 4, 3))
        out = act.smooth_ash(Tensor(x), z_k=0.1, stats_mode="per-channel").data
        for b in range(2):
            for c in range(3):
                cell = x[b, :, :, c].reshape(-1)
                expect = act.smooth_ash(Tensor(cell), z_k=0.1).data
                np.testing.assert_allclose(out[b, :, :, c].reshape(-1), expect, atol=1e-13)

    def test_per_channel_needs_spatial_axes(self):
        with pytest.raises(ValueError):
            act.smooth_ash(Tensor(np.zeros((4, 8)) + 1.0), stats_mode="per-channel")

    def test_vector_z_per_channel(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(2, 4, 4, 3)))
        zvec = Tensor([0.1, -0.3, 0.6])
        t = ad.Tape()
        xv = t.variable(x)
        zv = t.variable(zvec, requires_grad=True)
        out = act.smooth_ash(xv, z_k=zv, stats_mode="per-channel")
        assert out.value.shape == (2, 4, 4, 3)
        ad.backward(ad.sum_all(out))
        assert zv.grad.shape == (3,)
        assert np.all(zv.grad.data != 0.0)

    def test_vector_z_gradients_match_fd(self):
        # A channel z varies inside per-sample stats groups, exercising
        # the group-sum coupling terms of the backward rule.
        rng = np.random.default_rng(20)
        zvec = Tensor([0.3, -0.4, 0.1, 0.5])
        for mode, shape in (("per-sample", (5, 4)), ("per-channel", (2, 3, 3, 4))):
            x = Tensor(rng.normal(size=shape))

            def f_x(v):
                zc = v.tape.variable(zvec)
                return ad.sum_all(act.smooth_ash(v, z_k=zc, stats_mode=mode))

            rep = ad.fd_check(f_x, x)
            assert rep.max_rel_err < 1e-4, f"{mode} x-grad: {rep.max_rel_err:.2e}"

            def f_z(zv):
                xc = zv.tape.variable(x)
                return ad.sum_all(act.smooth_ash(xc, z_k=zv, stats_mode=mode))

            rep = ad.fd_check(f_z, zvec)
            assert rep.max_rel_err < 1e-4, f"{mode} z-grad: {rep.max_rel_err:.2e}"


class TestGeneralizedSwish:
    def test_recovers_swish_exactly(self):
        grid = Tensor(np.linspace(-10, 10, 10_000))
        diff = np.abs(act.gen_swish(grid, 1.0, 0.0).data - act.swish(grid).data)
        assert np.max(diff) < 1e-12

    def test_a_zero_halves_input(self):
        x = Tensor(np.linspace(-5, 5, 101))
        np.testing.assert_array_equal(act.gen_swish(x, 0.0, 0.0).data, x.data / 2.0)

    def test_matches_smooth_form_algebraically(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            x = Tensor(rng.normal(rng.normal(), 1 + rng.uniform(), 400))
            alpha = float(rng.uniform(0.5, 2.5))
            z = float(rng.normal() * 0.7)
            s = st.compute_stats(x)
            lhs = act.gen_swish(x, 2 * alpha, -2 * alpha * (s.mu + z * s.sigma)).data
            rhs = act.smooth_ash(x, z_k=z, alpha=alpha, grad_mode="stop-stats").data
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_param_gradients(self):
        base = Tensor(np.random.default_rng(21).normal(size=100))
        for make in (lambda p: act.gen_swish(p.tape.variable(base), p, 0.2),
                     lambda p: act.gen_swish(p.tape.variable(base), 1.4, p)):
            rep = ad.fd_check(lambda p: ad.sum_all(make(p)), Tensor([0.8]))
            assert rep.max_rel_err < 1e-4


class TestLeakyForm:
    def test_zero_leak_identical_to_smooth(self):
        x = Tensor(np.random.default_rng(22).normal(size=64))
        lk = act.leaky_ash(x, z_k=0.5, leak=0.0).data
        sm = act.smooth_ash(x, z_k=0.5).data
        assert np.array_equal(lk, sm)

    def test_full_leak_is_identity(self):
        x = Tensor(np.random.default_rng(23).normal(size=64))
        assert np.max(np.abs(act.leaky_ash(x, z_k=0.5, leak=1.0).data - x.data)) < 1e-15

    def test_sharp_limit_passes_leak_below(self):
        x = Tensor(np.arange(1.0, 11.0))
        z = st.z_from_percentile(30.0)
        out = act.leaky_ash(x, z_k=z, leak=0.1, alpha=1000.0).data
        expect = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 8.0, 9.0, 10.0])
        np.testing.assert_allclose(out, expect, atol=1e-3)

    def test_negative_leak_rejected(self):
        with pytest.raises(ValueError):
            act.leaky_ash(Tensor([1.0, 2.0]), leak=-0.1)


class TestFixedForm:
    def test_fifty_percent_equals_zero_z(self):
        x = Tensor(np.random.default_rng(24).normal(size=256))
        fixed = act.fixed_ash(x, k=50.0).data
        smooth = act.smooth_ash(x, z_k=st.z_from_percentile(50.0)).data
        assert np.array_equal(fixed, smooth)

    def test_ninety_percent_sharp_gate_keeps_ninety(self):
        x = randn([20_000], RngState(3))
        out = act.fixed_ash(x, k=90.0, alpha=1000.0).data
        frac = float(np.mean(np.abs(out - x.data) < 1e-6))
        assert abs(frac - 0.9) < 0.02

    def test_no_trainable_parameters(self):
        spec = act.preset("f_ash_10")
        assert act.trainable_params(spec) == {}

    def test_k_validation(self):
        with pytest.raises(ValueError):
            act.fixed_ash(Tensor([1.0, 2.0]), k=0.0)
        with pytest.raises(ValueError):
            act.fixed_ash(Tensor([1.0, 2.0]), k=101.0)


class TestSpecSerialization:
    @pytest.mark.parametrize("obj", [
        {"kind": "relu"},
        {"kind": "lrelu", "slope": 0.2},
        {"kind": "prelu", "slope_init": 0.3},
        {"kind": "elu", "a": 0.7},
        {"kind": "smooth_ash", "alpha": 1.0, "z_k_init": 0.0, "grad_mode": "through-stats"},
        {"kind": "smooth_ash", "z_k_init": 0.5, "stats_mode": "per-channel",
         "trainable_alpha": True},
        {"kind": "smooth_ash", "per_channel_z": True, "channels": 8},
        {"kind": "gen_swish", "a_init": 2.0, "b_init": -1.0, "frozen": True},
        {"kind": "leaky_ash", "leak_init": 0.05},
        {"kind": "fixed_ash", "k": 25.0, "alpha": 4.0},
        {"kind": "hard_ash", "z_k_init": 0.1},
        {"kind": "heaviside_ash"},
    ] + [{"kind": kind} for kind in KIND_NAMES])
    def test_round_trip(self, obj):
        spec = act.spec_from_json(obj)
        again = act.spec_from_json(act.spec_to_json(spec))
        assert spec == again

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            act.spec_from_json({"kind": "mish"})

    @pytest.mark.parametrize("kind", [[1], {"a": 1}], ids=["list", "object"])
    def test_non_string_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="'kind' tag"):
            act.spec_from_json({"kind": kind})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            act.spec_from_json({"kind": "relu", "slope": 0.1})
        with pytest.raises(ValueError):
            act.spec_from_json({"kind": "smooth_ash", "zk": 0.0})

    @pytest.mark.parametrize("key,value", [
        ("alpha", None), ("z_k_init", None), ("stats_mode", None), ("trainable_alpha", None),
        ("per_channel_z", None), ("channels", None), ("alpha", [1.0]), ("stats_mode", {}),
        ("trainable_alpha", "false"), ("trainable_alpha", 0), ("alpha", "1.5"),
        ("alpha", True), ("channels", 2.5), ("channels", True), ("stats_mode", 1),
        ("alpha", float("inf")), ("z_k_init", float("nan")), ("z_k_init", float("-inf")),
    ])
    def test_wrong_type_field_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=repr(key)):
            act.spec_from_json({"kind": "smooth_ash", key: value})

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            act.spec_from_json({"kind": "smooth_ash", "alpha": -1.0})
        with pytest.raises(ValueError):
            act.spec_from_json({"kind": "fixed_ash", "k": 0.0})
        with pytest.raises(ValueError):
            act.spec_from_json({"kind": "smooth_ash", "per_channel_z": True})

    def test_presets(self):
        assert act.preset("ash").kind == "smooth_ash"
        assert act.preset("l_ash").kind == "leaky_ash"
        assert act.preset("f_ash_10").ash.k == 10.0
        assert act.preset("f_ash_90").ash.k == 90.0
        frozen = act.preset("gen_swish_frozen")
        assert frozen.gen == act.GeneralizedSwishParams(1.0, 0.0, True)
        with pytest.raises(ValueError):
            act.preset("not_an_activation")
        with pytest.raises(ValueError):
            act.preset("f_ash_abc")


@pytest.mark.parametrize("call,message", [
    (lambda: act.AshParams(alpha=float("nan")), "alpha must"),
    (lambda: act.AshParams(per_channel_z=True, channels=float("nan")), "channels >= 1"),
    (lambda: act.smooth_ash(Tensor([1.0, 2.0]), alpha=float("nan")), "alpha must"),
    (lambda: act.leaky_ash(Tensor([1.0, 2.0]), leak=float("nan")), "leak must"),
], ids=["AshParams-alpha", "AshParams-channels", "smooth_ash-alpha", "leaky_ash-leak"])
def test_nan_fails_range_check(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Per source (a preset name or a JSON object): the spec_to_json text with
# its key order, the trainable parameters' names and shapes in order, and
# the lower bounds. Captured from the per-kind code that the KINDS table
# replaced; the table must reproduce them exactly.
REGISTRY_PINS = [
    ("relu", '{"kind": "relu"}', [], []),
    ("lrelu", '{"kind": "lrelu", "slope": 0.01}', [], []),
    ("prelu", '{"kind": "prelu", "slope_init": 0.01}', [("slope", (1,))], []),
    ("softplus", '{"kind": "softplus"}', [], []),
    ("elu", '{"kind": "elu", "a": 1.0}', [], []),
    ("selu", '{"kind": "selu"}', [], []),
    ("gelu", '{"kind": "gelu"}', [], []),
    ("swish", '{"kind": "swish"}', [], []),
    ("ash", '{"kind": "smooth_ash", "z_k_init": 0.0, "alpha": 1.0, "stats_mode": "per-sample", '
            '"grad_mode": "through-stats", "trainable_alpha": false}', [("z_k", (1,))], []),
    ("smooth_ash", '{"kind": "smooth_ash", "z_k_init": 0.0, "alpha": 1.0, '
                   '"stats_mode": "per-sample", "grad_mode": "through-stats", '
                   '"trainable_alpha": false}', [("z_k", (1,))], []),
    ("hard_ash", '{"kind": "hard_ash", "z_k_init": 0.0, "stats_mode": "per-sample"}',
     [("z_k", (1,))], []),
    ("heaviside_ash", '{"kind": "heaviside_ash", "z_k_init": 0.0, "stats_mode": "per-sample"}',
     [("z_k", (1,))], []),
    ("l_ash", '{"kind": "leaky_ash", "z_k_init": 0.0, "alpha": 1.0, "leak_init": 0.01, '
              '"stats_mode": "per-sample", "grad_mode": "through-stats"}',
     [("z_k", (1,)), ("leak", (1,))], [("leak", 0.0)]),
    ("leaky_ash", '{"kind": "leaky_ash", "z_k_init": 0.0, "alpha": 1.0, "leak_init": 0.01, '
                  '"stats_mode": "per-sample", "grad_mode": "through-stats"}',
     [("z_k", (1,)), ("leak", (1,))], [("leak", 0.0)]),
    ("gen_swish", '{"kind": "gen_swish", "a_init": 1.0, "b_init": 0.0, "frozen": false}',
     [("a", (1,)), ("b", (1,))], []),
    ("gen_swish_frozen", '{"kind": "gen_swish", "a_init": 1.0, "b_init": 0.0, "frozen": true}',
     [], []),
    ("f_ash_10", '{"kind": "fixed_ash", "k": 10.0, "alpha": 1.0, "stats_mode": "per-sample", '
                 '"grad_mode": "through-stats"}', [], []),
    ("f_ash_50", '{"kind": "fixed_ash", "k": 50.0, "alpha": 1.0, "stats_mode": "per-sample", '
                 '"grad_mode": "through-stats"}', [], []),
    ("f_ash_90", '{"kind": "fixed_ash", "k": 90.0, "alpha": 1.0, "stats_mode": "per-sample", '
                 '"grad_mode": "through-stats"}', [], []),
    ("f_ash_2.5", '{"kind": "fixed_ash", "k": 2.5, "alpha": 1.0, "stats_mode": "per-sample", '
                  '"grad_mode": "through-stats"}', [], []),
    ({"kind": "smooth_ash", "z_k_init": 0.5, "stats_mode": "per-channel", "trainable_alpha": True},
     '{"kind": "smooth_ash", "z_k_init": 0.5, "alpha": 1.0, "stats_mode": "per-channel", '
     '"grad_mode": "through-stats", "trainable_alpha": true}',
     [("z_k", (1,)), ("alpha", (1,))], [("alpha", 1e-06)]),
    ({"kind": "smooth_ash", "per_channel_z": True, "channels": 8},
     '{"kind": "smooth_ash", "z_k_init": 0.0, "alpha": 1.0, "stats_mode": "per-sample", '
     '"grad_mode": "through-stats", "trainable_alpha": false, "per_channel_z": true, '
     '"channels": 8}', [("z_k", (8,))], []),
]


def test_registry_pins_cover_every_preset():
    assert [src for src, *_ in REGISTRY_PINS if isinstance(src, str)] == list(PRESET_NAMES)


@pytest.mark.parametrize("source,text,shapes,bounds", REGISTRY_PINS)
def test_registry_contract_pinned(source, text, shapes, bounds):
    spec = act.preset(source) if isinstance(source, str) else act.spec_from_json(source)
    assert json.dumps(act.spec_to_json(spec)) == text
    assert [(name, t.shape) for name, t in act.trainable_params(spec).items()] == shapes
    assert list(act.param_lower_bounds(spec).items()) == bounds


class TestZooGradients:
    """Every differentiable activation passes the fd oracle off its kinks."""

    @pytest.mark.parametrize("name,f", [
        ("relu", lambda v: ad.sum_all(act.relu(v))),
        ("lrelu", lambda v: ad.sum_all(act.lrelu(v, 0.01))),
        ("softplus", lambda v: ad.sum_all(act.softplus(v))),
        ("elu", lambda v: ad.sum_all(act.elu(v))),
        ("selu", lambda v: ad.sum_all(act.selu(v))),
        ("gelu", lambda v: ad.sum_all(act.gelu(v))),
        ("swish", lambda v: ad.sum_all(act.swish(v))),
        ("gen_swish", lambda v: ad.sum_all(act.gen_swish(v, 1.3, -0.4))),
        ("smooth_ash", lambda v: ad.sum_all(act.smooth_ash(v, z_k=0.3, alpha=1.5))),
        ("leaky_ash", lambda v: ad.sum_all(act.leaky_ash(v, z_k=0.2, leak=0.1))),
        ("fixed_ash", lambda v: ad.sum_all(act.fixed_ash(v, k=30.0))),
    ])
    def test_fd(self, name, f):
        rng = np.random.default_rng(777)
        d = rng.normal(0, 2, 100)
        while np.any(np.abs(d) < 1e-5):
            d = np.where(np.abs(d) < 1e-5, rng.normal(0, 2, 100), d)
        # gelu alone uses h = 1e-4. At element 86 (x = -4.754, gradient
        # -2.25e-5) one ulp of the 100-term sum over 2h = 2e-6 is already
        # 1.58e-4 of the gradient, above the bound, so h = 1e-6 passes or
        # fails on the low bits of the CDF. gelu has no kink; at h = 1e-4 the
        # error is 4.5e-6.
        rep = ad.fd_check(f, Tensor(d), h=1e-4 if name == "gelu" else 1e-6)
        assert rep.max_rel_err < 1e-4, f"{name}: {rep.max_rel_err:.2e}"
