"""Tensor kernels: construction, elementwise ops, matmul, reductions, RNG."""

import math

import numpy as np
import pytest

from ashlab import tensor
from ashlab.tensor import NonFiniteError, RngState, ShapeError, Tensor, ewise, full, matmul, \
    randn, reduce


class TestConstruction:
    def test_full_constant_fill(self):
        assert full([2, 2], 0).tolist() == [[0, 0], [0, 0]]
        assert full([1], 1).tolist() == [1.0]
        assert full([3], 2.5).tolist() == [2.5, 2.5, 2.5]

    def test_row_major_round_trip(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        t = Tensor(data)
        flat = t.data.reshape(-1)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    assert t.data[i, j, k] == flat[i * 12 + j * 4 + k]
                    assert t.data[i, j, k] == data[i, j, k]

    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))
        Tensor(np.zeros((2, 2, 2, 2)))  # rank 4 is fine

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            full([0], 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            Tensor([np.inf])

    def test_non_finite_raises_its_own_value_error(self):
        # Both constructors share one class and one message.
        for make in (lambda: Tensor([np.nan]), lambda: Tensor._wrap(np.array([-np.inf]))):
            with pytest.raises(NonFiniteError) as err:
                make()
            assert isinstance(err.value, ValueError)
            assert str(err.value) == "tensor values must be finite (no NaN/Inf)"

    def test_buffer_is_read_only(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_constructor_copies(self):
        src = np.array([1.0, 2.0])
        t = Tensor(src)
        src[0] = 99.0
        assert t.data[0] == 1.0

    def test_item_and_reshape(self):
        assert Tensor([3.5]).item() == 3.5
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()
        assert Tensor([1.0, 2.0, 3.0, 4.0]).reshape((2, 2)).shape == (2, 2)


class TestRng:
    def test_normal_sample_mean(self):
        t = randn([100_000], RngState(7))
        assert abs(float(t.data.mean())) < 0.02

    def test_zero_std_gives_mean(self):
        t = randn([64], RngState(7), mean=3.25, std=0.0)
        assert np.all(t.data == 3.25)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            randn([4], RngState(0), std=-1.0)

    def test_identical_state_bit_identical(self):
        a = randn([1000], RngState(42, 5))
        b = randn([1000], RngState(42, 5))
        assert np.array_equal(a.data, b.data)

    def test_counter_batching_irrelevant(self):
        r1 = RngState(9)
        chunks = np.concatenate([r1.uniform(7), r1.uniform(13)])
        r2 = RngState(9)
        assert np.array_equal(chunks, r2.uniform(20))

    def test_uniform_open_interval(self):
        u = RngState(1).uniform(100_000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_permutation_is_permutation(self):
        p = RngState(3).permutation(257)
        assert np.array_equal(np.sort(p), np.arange(257))

    def test_clone_preserves_stream(self):
        r = RngState(11)
        r.uniform(5)
        c = r.clone()
        assert np.array_equal(r.uniform(5), c.uniform(5))


class TestEwise:
    def test_add(self):
        assert ewise("add", Tensor([1, 2]), Tensor([3, 4])).tolist() == [4, 6]

    def test_mul_identity(self):
        x = Tensor([[1.5, -2.0], [0.25, 7.0]])
        out = ewise("mul", x, Tensor([1.0]))
        assert np.array_equal(out.data, x.data)

    def test_max_with_scalar_zero_is_relu(self):
        assert ewise("max", Tensor([-1, 2]), Tensor([0.0])).tolist() == [0, 2]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ewise("add", Tensor([1, 2]), Tensor([1, 2, 3]))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ewise("div", Tensor([1.0]), Tensor([0.0]))

    def test_scalar_broadcast_both_sides(self):
        assert ewise("sub", Tensor([5.0]), Tensor([1, 2, 3])).tolist() == [4, 3, 2]
        assert ewise("sub", Tensor([1, 2, 3]), Tensor([5.0])).tolist() == [-4, -3, -2]

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            ewise("pow", Tensor([1.0]), Tensor([2.0]))


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.random.default_rng(0).normal(size=(2, 2)))
        out = matmul(Tensor(np.eye(2)), a)
        assert np.allclose(out.data, a.data)

    def test_hand_example(self):
        assert matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]])).tolist() == [[11.0]]

    def test_matches_triple_loop_exactly(self):
        # Bit-level equality (so -0.0 != +0.0) with a naive triple loop that
        # starts every element at 0.0 and adds the products in increasing k.
        limit = tensor._REDUCE_MAX_ELEMS
        shapes = [(s, s, s) for s in (3, 8, 17, 32)]
        shapes += [(32, 16, 2), (2, 32, 16), (5, 3, 7), (1, 6, 4), (4, 6, 1)]
        shapes += [(1, 7, 1), (1, 9, 1), (1, 128, 1)]  # m*n == 1
        shapes += [(64, 40, 64)]  # buffer above the switch
        assert (40 + 1) * 64 * 64 > limit >= (32 + 1) * 32 * 32
        rng = np.random.default_rng(8)
        for m, k, n in shapes:
            for heavy in (False, True):
                a = rng.normal(size=(m, k))
                b = rng.normal(size=(k, n))
                if heavy:
                    a *= np.exp(8.0 * rng.normal(size=(m, k)))
                    b *= np.exp(8.0 * rng.normal(size=(k, n)))
                if m > 1:
                    # Every product of out[0, 0] is -0.0, so only the
                    # leading 0.0 makes that element +0.0.
                    a[0] = -0.0
                    b[:, 0] = np.abs(b[:, 0])
                got = matmul(Tensor(a), Tensor(b)).data
                want = np.zeros((m, n))
                for i in range(m):
                    for j in range(n):
                        acc = 0.0
                        for kk in range(k):
                            acc += a[i, kk] * b[kk, j]
                        want[i, j] = acc
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
                    f"mismatch at {m}x{k}x{n}, heavy={heavy}"

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestReduce:
    def test_mean_one_to_ten(self):
        assert reduce("mean", Tensor(np.arange(1.0, 11.0))) == pytest.approx(5.5, abs=1e-12)

    def test_var_pop_one_to_ten(self):
        v = reduce("var_pop", Tensor(np.arange(1.0, 11.0)))
        assert v == pytest.approx(8.25, abs=1e-12)
        assert np.sqrt(v) == pytest.approx(2.8722813232690143, abs=1e-12)

    def test_var_of_constant(self):
        assert reduce("var_pop", full([17], 3.0)) == 0.0

    def test_min_max_sum(self):
        t = Tensor([4.0, -1.0, 2.5])
        assert reduce("min", t) == -1.0
        assert reduce("max", t) == 4.0
        assert reduce("sum", t) == 5.5

    def test_welford_matches_two_pass_large(self):
        # The reference sums exactly (fsum), so it is independent of the kernel.
        rng = np.random.default_rng(123)
        for n in (10, 1_000, 10**6):
            data = rng.normal(5.0, 3.0, n)
            n_, mu, m2 = tensor.welford(data)
            ref_mu = math.fsum(data) / n
            ref_var = math.fsum((data - ref_mu) ** 2) / n
            assert n_ == n
            assert mu == pytest.approx(ref_mu, rel=1e-12)
            assert m2 / n == pytest.approx(ref_var, rel=1e-12)

    @pytest.mark.parametrize("v", [0.1, 1 / 3, 1e-8])
    def test_moments_constant_group_exact_others_plain_two_pass(self, v):
        data = np.random.default_rng(8).normal(size=(6, 128))
        data[2] = v
        n, mu, centered, m2 = tensor.moments(data, (1,))
        assert n == 128 and mu[2, 0] == v and m2[2, 0] == 0.0
        assert np.all(centered[2] == 0.0)
        # Every other group is the plain two-pass, bit for bit.
        plain_mu = data.mean(axis=1, keepdims=True)
        plain_c = data - plain_mu
        plain_var = np.mean(plain_c * plain_c, axis=1, keepdims=True)
        rows = [0, 1, 3, 4, 5]
        assert mu[rows].tobytes() == plain_mu[rows].tobytes()
        assert centered[rows].tobytes() == plain_c[rows].tobytes()
        assert (m2 / n)[rows].tobytes() == plain_var[rows].tobytes()

    @pytest.mark.parametrize("shape,axes", [((1000,), None), ((3, 5, 7), None),
                                            ((2, 4, 4, 3), (1, 2)), ((2, 4, 4, 3), (1, 2, 3))])
    def test_moments_match_mean_and_sum_bits(self, shape, axes):
        data = np.random.default_rng(len(shape)).normal(2.0, 3.0, size=shape)
        n, mu, centered, m2 = tensor.moments(data, axes)
        plain_mu = data.mean(axis=axes, keepdims=True)
        plain_c = data - plain_mu
        assert n * mu.size == data.size
        assert mu.tobytes() == plain_mu.tobytes()
        assert centered.tobytes() == plain_c.tobytes()
        assert m2.tobytes() == np.sum(plain_c * plain_c, axis=axes, keepdims=True).tobytes()

    def test_welford_deterministic(self):
        data = np.random.default_rng(5).normal(size=12345)
        assert tensor.welford(data) == tensor.welford(data)

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            reduce("median", Tensor([1.0]))
