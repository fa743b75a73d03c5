"""Tape engine: recording, backward accumulation, the fd oracle, primitives."""

import gc
import weakref

import numpy as np
import pytest

from ashlab import activations as act
from ashlab import autodiff as ad
from ashlab import nn
from ashlab.autodiff import Tape, TapeMixError, backward, fd_check
from ashlab.tensor import NonFiniteError, Tensor

SWISH_GRAD_AT_1 = 0.9276705118714867  # S(1) + S(1)*(1 - S(1))


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tobytes()


class TestRecord:
    def test_add_forward_value(self):
        t = Tape()
        a = t.variable(Tensor([1.0, 2.0]))
        b = t.variable(Tensor([3.0, 4.0]))
        assert ad.add(a, b).value.tolist() == [4.0, 6.0]

    def test_no_grad_inputs_record_nothing(self):
        t = Tape()
        a = t.variable(Tensor([1.0]), requires_grad=False)
        out = ad.mul(a, a)
        assert len(t) == 0
        assert out.requires_grad is False

    def test_swish_graph_matches_hand_derivative(self):
        t = Tape()
        x = t.variable(Tensor([1.0]), requires_grad=True)
        y = ad.sum_all(ad.mul(x, ad.sigmoid(x)))
        backward(y)
        assert x.grad.data[0] == pytest.approx(SWISH_GRAD_AT_1, abs=1e-12)

    def test_mixing_tapes_raises(self):
        a = Tape().variable(Tensor([1.0]))
        b = Tape().variable(Tensor([1.0]))
        with pytest.raises(TapeMixError):
            ad.add(a, b)


class TestBackward:
    def test_sum_gives_ones(self):
        t = Tape()
        x = t.variable(Tensor([5.0, -2.0, 0.5]), requires_grad=True)
        backward(ad.sum_all(x))
        assert np.array_equal(x.grad.data, np.ones(3))

    def test_sum_of_squares(self):
        t = Tape()
        x = t.variable(Tensor([1.0, 2.0]), requires_grad=True)
        backward(ad.sum_all(ad.mul(x, x)))
        assert x.grad.tolist() == [2.0, 4.0]

    def test_matmul_grad_matches_fd(self):
        rng = np.random.default_rng(4)
        u = Tensor(rng.normal(size=(4, 4)))
        rep = fd_check(lambda w: ad.sum_all(ad.matmul(w, u)),
                       Tensor(rng.normal(size=(4, 4))))
        assert rep.max_rel_err < 1e-6

    @pytest.mark.parametrize("slot", ["a", "b", "bias"])
    @pytest.mark.parametrize("m,k,n", [(4, 4, 4), (5, 3, 1), (9, 2, 4)],
                             ids=["square", "n_is_1", "narrow_tall"])
    def test_matmul_slot_grad_matches_fd(self, slot, m, k, n):
        # n == 1 and n <= 4 < m send the VJP's products through the transposed
        # branch of tensor._matmul_arrays.
        rng = np.random.default_rng(5)
        operands = {"a": Tensor(rng.normal(size=(m, k))), "b": Tensor(rng.normal(size=(k, n))),
                    "bias": Tensor(rng.normal(size=n))}
        up = Tensor(rng.normal(size=(m, n)))

        def f(w):
            ops = dict(operands, **{slot: w})
            return ad.sum_all(ad.mul(ad.matmul(ops["a"], ops["b"], ops["bias"]), up))

        rep = fd_check(f, operands[slot])
        assert rep.max_rel_err < 1e-6

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        x = t.variable(Tensor([1.0, 2.0]), requires_grad=True)
        with pytest.raises(ValueError):
            backward(ad.mul(x, x))

    def test_constant_loss_backward_is_a_no_op(self):
        t = Tape()
        x = t.variable(Tensor([1.0, 2.0]), requires_grad=True)
        backward(ad.sum_all(Tensor([1.0, 2.0])))
        assert len(t) == 0 and x._grad_array().tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="loss must be scalar"):
            backward(Tensor([1.0, 2.0]))

    def test_fanout_accumulates(self):
        t = Tape()
        x = t.variable(Tensor([1.0, 1.0]), requires_grad=True)
        backward(ad.sum_all(ad.add(x, x)))
        assert np.array_equal(x.grad.data, np.full(2, 2.0))

    def test_tape_keeps_raw_grads_and_checks_on_read(self):
        # Finite forward (3.4e298), overflowing backward (2 * 1.7e308).
        t = Tape()
        x = t.variable(Tensor([1e-10]), requires_grad=True)
        a = ad.mul(x, 1.7e308)
        backward(ad.sum_all(ad.add(a, a)))
        assert np.isinf(x._grad_array()).all()
        with pytest.raises(NonFiniteError):
            x.grad

    def test_double_backward_doubles_grads(self):
        t = Tape()
        x = t.variable(Tensor([3.0]), requires_grad=True)
        y = ad.sum_all(ad.mul(x, x))
        backward(y)
        g1 = x.grad.data.copy()
        backward(y)
        assert np.array_equal(x.grad.data, 2.0 * g1)

    def test_intermediate_grad_reads_the_adjoint_plus_zero(self):
        # The tape keeps the adjoint as is; .grad adds the 0.0 it lands on,
        # so a -0.0 reads as +0.0.
        t = Tape()
        x = t.variable(Tensor([1.0, -2.0, 3.0, 0.5]), requires_grad=True)
        h = ad.mul(x, 2.0)
        up = np.array([-0.0, 1.5, -0.0, -3.0])
        backward(ad.sum_all(ad.mul(h, Tensor(up))))
        for v, adjoint in ((h, 1.0 * up), (x, (1.0 * up) * 2.0)):
            assert _bits(v._grad_array()) == _bits(adjoint)
            assert _bits(v.grad.data) == _bits(0.0 + adjoint)
            assert not np.signbit(v.grad.data[up == 0.0]).any()

    def test_two_replays_double_every_grad(self):
        # Leaves, intermediates and a fan-out node, with -0.0 adjoints.
        t = Tape()
        x = t.variable(Tensor([1.0, -2.0, 0.0]), requires_grad=True)
        w = t.variable(Tensor([0.5]), requires_grad=True)
        h = ad.mul(x, w)
        y = ad.add(ad.sigmoid(h), ad.mul(h, h))
        loss = ad.sum_all(ad.mul(y, Tensor([-0.0, 1.0, -1.5])))
        variables = (x, w, h, y)
        backward(loss)
        first = [v.grad.data for v in variables]
        backward(loss)
        for v, g in zip(variables, first):
            assert _bits(v.grad.data) == _bits(2.0 * g)

    def test_zero_grad_resets(self):
        t = Tape()
        x = t.variable(Tensor([3.0]), requires_grad=True)
        y = ad.sum_all(ad.mul(x, x))
        backward(y)
        x.zero_grad()
        assert np.all(x.grad.data == 0.0)
        backward(y)
        assert x.grad.tolist() == [6.0]  # starts again from zero, not doubled

    def test_variable_without_gradient_reads_zeros(self):
        t = Tape()
        x = t.variable(Tensor([1.0, 2.0]), requires_grad=True)
        unused = t.variable(Tensor(np.ones((2, 3))), requires_grad=True)
        blocked = t.variable(Tensor([4.0]), requires_grad=True)
        backward(ad.sum_all(ad.mul(x, ad.heaviside(blocked))))
        for v in (unused, blocked):
            assert v.grad.shape == v.value.shape
            assert np.array_equal(v.grad.data, np.zeros(v.value.shape))

    def test_negative_zero_contribution_reads_positive_zero(self):
        # The first contribution lands on 0.0, so -0.0 reads +0.0, as if
        # it had been added to an eagerly allocated zero grad.
        t = Tape()
        x = t.variable(Tensor([2.0]), requires_grad=True)
        backward(ad.sum_all(ad.mul(x, -0.0)))
        assert x.grad.data[0] == 0.0 and not np.signbit(x.grad.data[0])

    def test_intermediate_requires_grad_gets_adjoint(self):
        t = Tape()
        x = t.variable(Tensor([2.0]), requires_grad=True)
        mid = ad.mul(x, x)
        backward(ad.sum_all(mid))
        assert mid.grad.data[0] == 1.0


class TestFdCheck:
    def test_linear_is_exact(self):
        # No truncation error for a linear map, so a generous step keeps
        # the check below pure-roundoff scale.
        rep = fd_check(lambda v: ad.sum_all(v), Tensor(np.linspace(-2, 2, 20)), h=1e-3)
        assert rep.max_rel_err < 1e-10

    def test_swish_at_one(self):
        rep = fd_check(lambda v: ad.sum_all(ad.mul(v, ad.sigmoid(v))), Tensor([1.0]))
        assert rep.analytic[0] == pytest.approx(SWISH_GRAD_AT_1, abs=1e-10)
        assert rep.max_rel_err < 1e-6

    def test_hard_threshold_unit_disagrees_with_fd_only_at_kink(self):
        # Analytic d/d(theta) is identically zero. Central differences see
        # zero too, except when an element falls inside the +-h window
        # around theta, where the jump makes the numeric slope explode.
        h = 1e-6
        x_clear = Tensor([0.2, 0.9, -0.4])       # all far from theta=0.5
        def f(th):
            return ad.sum_all(act.conditional_unit(th.tape.variable(x_clear), 1.0, th))
        rep = fd_check(f, Tensor([0.5]), h=h)
        assert np.all(rep.analytic == 0.0)
        assert np.all(rep.numeric == 0.0)

        x_kink = Tensor([0.2, 0.5 + h / 4, -0.4])  # one element inside the window
        def g(th):
            return ad.sum_all(act.conditional_unit(th.tape.variable(x_kink), 1.0, th))
        rep = fd_check(g, Tensor([0.5]), h=h)
        assert np.all(rep.analytic == 0.0)
        assert np.any(rep.numeric != 0.0)

    def test_non_finite_evaluation_raises(self):
        with pytest.raises(ValueError):
            fd_check(lambda v: ad.sum_all(ad.exp(ad.mul(v, 1000.0))), Tensor([1.0]))

    def test_bad_h_rejected(self):
        with pytest.raises(ValueError):
            fd_check(lambda v: ad.sum_all(v), Tensor([1.0]), h=0.0)

    def test_nan_h_rejected(self):
        with pytest.raises(ValueError, match="h must be a finite number > 0"):
            fd_check(lambda v: ad.sum_all(v), Tensor([1.0]), h=float("nan"))


def _kink_free(seed, n=100, scale=2.0):
    rng = np.random.default_rng(seed)
    d = rng.normal(0, scale, n)
    while np.any(np.abs(d) < 1e-5):
        d = np.where(np.abs(d) < 1e-5, rng.normal(0, scale, n), d)
    return Tensor(d)


class TestPrimitiveGradients:
    """Every differentiable primitive vs central differences at 100 points."""

    X = _kink_free(2024)
    # Inside +-4 the normal density stays large enough that the fd
    # denominator is not dominated by erf's last-ulp wobble.
    XCDF = Tensor(np.clip(_kink_free(31).data, -4.0, 4.0))

    @pytest.mark.parametrize("name,f,x", [
        ("add", lambda v: ad.sum_all(ad.add(v, 1.5)), X),
        ("sub", lambda v: ad.sum_all(ad.sub(2.0, v)), X),
        ("mul", lambda v: ad.sum_all(ad.mul(v, v)), X),
        ("maximum", lambda v: ad.sum_all(ad.maximum(v, 0.0)), X),
        ("exp", lambda v: ad.sum_all(ad.exp(v)), X),
        ("sigmoid", lambda v: ad.sum_all(ad.sigmoid(v)), X),
        ("softplus", lambda v: ad.sum_all(ad.softplus(v)), X),
        ("gauss_cdf", lambda v: ad.sum_all(ad.gauss_cdf(v)), XCDF),
        ("mean", lambda v: ad.mean_all(ad.mul(v, v)), X),
        ("reshape", lambda v: ad.sum_all(ad.mul(ad.reshape(v, (10, 10)),
                                                ad.reshape(v, (10, 10)))), X),
    ])
    def test_primitive_fd(self, name, f, x):
        rep = fd_check(f, x)
        assert rep.max_rel_err < 1e-4, f"{name}: {rep.max_rel_err:.2e}"

    def test_scalar_broadcast_grad(self):
        def f(s):
            x = s.tape.variable(Tensor([1.0, 2.0, 3.0]))
            return ad.sum_all(ad.mul(x, s))
        rep = fd_check(f, Tensor([2.0]))
        assert rep.analytic[0] == pytest.approx(6.0, abs=1e-12)
        assert rep.max_rel_err < 1e-6


class TestGradBlockers:
    def test_heaviside_values(self):
        t = Tape()
        out = ad.heaviside(t.variable(Tensor([-1.0, 0.0, 2.0])))
        assert out.value.tolist() == [0.0, 0.0, 1.0]

    def test_heaviside_times_x_is_relu_off_zero(self):
        x = np.array([-3.0, -0.5, 0.7, 4.0])
        t = Tape()
        xv = t.variable(Tensor(x))
        prod = ad.mul(xv, ad.heaviside(xv))
        assert np.array_equal(prod.value.data, np.maximum(x, 0.0))

    def test_grad_through_heaviside_is_zero(self):
        t = Tape()
        x = t.variable(Tensor([-1.0, 0.5, 2.0]), requires_grad=True)
        backward(ad.sum_all(ad.heaviside(x)))
        assert np.all(x.grad.data == 0.0)


def _freed_without_collector(run) -> bool:
    """True if the tape of `run()` (which returns a weakref to it) is gone
    once `run` returns, with the cyclic garbage collector switched off."""
    gc.collect()
    gc.disable()
    try:
        return run()() is None
    finally:
        gc.enable()


class TestGraphFreedByRefcount:
    """The tape holds no Variable, so a finished graph is not a reference cycle."""

    def test_primitives(self):
        def run():
            t = Tape()
            x = t.variable(Tensor([0.5, 1.5, 2.0]), requires_grad=True)
            c = t.variable(Tensor([0.7]), requires_grad=True)
            y = ad.add(ad.sub(ad.mul(x, c), ad.heaviside(x)), ad.maximum(x, c))
            y = ad.sum_all(ad.exp(ad.sigmoid(ad.softplus(y))))
            m = ad.matmul(ad.reshape(x, (3, 1)), ad.reshape(ad.gauss_cdf(x), (1, 3)))
            backward(ad.add(y, ad.mean_all(m)))
            return weakref.ref(t)

        assert _freed_without_collector(run)

    @pytest.mark.parametrize("grad_mode", ["through-stats", "stop-stats"])
    def test_ash_family_with_trainable_parameters(self, grad_mode):
        def run():
            t = Tape()
            x = t.variable(Tensor(np.arange(12.0).reshape(3, 4)), requires_grad=True)
            z, leak, alpha, scale, thr = (t.variable(Tensor([v]), requires_grad=True)
                                          for v in (0.3, 0.05, 1.2, 2.0, 1.0))
            out = ad.add(act.leaky_ash(x, z_k=z, leak=leak, alpha=alpha, grad_mode=grad_mode),
                         act.conditional_unit(x, scale, thr))
            backward(ad.sum_all(ad.add(out, act.hard_ash(x, z))))
            return weakref.ref(t)

        assert _freed_without_collector(run)

    def test_model_training_step(self):
        model = nn.Model([nn.Dense(4, 3), nn.Activation(act.preset("ash"))], seed=0)
        batch = Tensor(np.random.default_rng(0).normal(size=(8, 4)))

        def run():
            logits, pvars = model.forward(batch)
            backward(nn.loss_fn("softmax_xent", logits, np.arange(8) % 3))
            assert pvars["act1.z_k"].grad.shape == (1,)
            return weakref.ref(logits.tape)

        assert _freed_without_collector(run)
