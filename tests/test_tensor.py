"""Tensor kernels: construction, elementwise ops, matmul, reductions, RNG."""

import math
import platform
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ashlab import _normal, tensor
from ashlab.nn import _DATA_STREAM_OFFSET
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

    def test_kernel_results_keep_rank_zero(self):
        # A rank-0 Tensor stays rank 0 through the kernels, as through Tensor().
        assert Tensor(2.0).shape == ()
        assert ewise("add", Tensor(2.0), Tensor(1.0)).shape == ()
        assert ewise("add", Tensor(2.0), Tensor(1.0)).item() == 3.0
        assert Tensor(2.0).reshape(()).shape == ()
        assert Tensor([2.0]).reshape(()).shape == ()
        assert Tensor._wrap(np.float64(2.0)).shape == ()


def _whole_array_uniform(seed, counter, n):
    """The splitmix64 stream's uniforms, every counter hashed at once."""
    idx = np.arange(n, dtype=np.uint64) + np.uint64(counter + 1)
    z = np.uint64(seed) + np.uint64(0x9E3779B97F4A7C15) * idx
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


# Around one block edge and across three, at counters whose seed +
# counter*golden wraps mod 2^64.
STREAM_SIZES = [0, 1, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7]
STREAM_STATES = [(2**63, 0), (2**63 + 11, _DATA_STREAM_OFFSET), (2**64 - 3, 2**63 + 5)]


class TestRng:
    @pytest.mark.parametrize("n", STREAM_SIZES)
    @pytest.mark.parametrize("seed,counter", STREAM_STATES)
    def test_uniform_is_the_whole_array_stream(self, n, seed, counter):
        rng = RngState(seed, counter)
        got = rng.uniform(n)
        want = _whole_array_uniform(seed, counter, n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rng.counter == counter + n

    @pytest.mark.parametrize("n", STREAM_SIZES)
    @pytest.mark.parametrize("seed,counter", STREAM_STATES)
    def test_normal_is_the_scaled_quantile_of_uniform(self, n, seed, counter):
        rng = RngState(seed, counter)
        want = _normal.norm_ppf(rng.clone().uniform(n)) * 2.5 + 0.75
        got = rng.normal(n, 0.75, 2.5)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert rng.counter == counter + n

    def test_draws_peak_near_their_output(self, alloc_peak):
        # Tooling, not timing: the walk's block scratches stay small beside
        # the 8 MiB output.
        n = 2**20
        for draw, bound in ((lambda: randn((n,), RngState(1)), 1.25),
                            (lambda: RngState(1).uniform(n), 1.125)):
            peak = alloc_peak(draw, 8 * n)
            assert peak <= bound, f"peak {peak:.3f}x the output"

    def test_normal_sample_mean(self):
        t = randn([100_000], RngState(7))
        assert abs(float(t.data.mean())) < 0.02

    def test_zero_std_gives_mean(self):
        t = randn([64], RngState(7), mean=3.25, std=0.0)
        assert np.all(t.data == 3.25)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            randn([4], RngState(0), std=-1.0)

    def test_nan_std_rejected(self):
        with pytest.raises(ValueError, match="std must"):
            RngState(0).normal(4, std=float("nan"))

    @pytest.mark.parametrize("kwargs,field", [
        ({"mean": float("nan")}, "mean"), ({"mean": float("inf")}, "mean"),
        ({"mean": -np.inf}, "mean"), ({"std": float("inf")}, "std"),
    ], ids=["mean-nan", "mean-inf", "mean-neg-inf", "std-inf"])
    def test_non_finite_parameters_rejected(self, kwargs, field):
        for draw in (lambda: RngState(0).normal(3, **kwargs),
                     lambda: randn([3], RngState(0), **kwargs)):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                draw()

    def test_identical_state_bit_identical(self):
        a = randn([1000], RngState(42, 5))
        b = randn([1000], RngState(42, 5))
        assert np.array_equal(a.data, b.data)

    def test_counter_batching_irrelevant(self):
        r1 = RngState(9)
        chunks = np.concatenate([r1.uniform(7), r1.uniform(13)])
        r2 = RngState(9)
        assert np.array_equal(chunks, r2.uniform(20))
        r3 = RngState(9)
        edge = np.concatenate([r3.uniform(2**15 - 3), r3.uniform(10)])
        assert np.array_equal(edge, RngState(9).uniform(2**15 + 7))

    def test_uniform_open_interval(self):
        u = RngState(1).uniform(100_000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_top_draw_stays_below_one(self):
        # (2^53 - 1) + 0.5 rounds to even, up to 2^53: the draw would read
        # exactly 1.0 and normal would take log(0). It reads 1 - 2^-53; its
        # neighbours keep the formula's bits.
        bits = np.array([2**53 - 1, 2**53 - 2, 2**52 + 1, 0], np.uint64)
        out = np.empty(bits.size)
        tensor._to_unit(bits, out)
        assert out[0] < 1.0 and out[0] == 1.0 - 2.0**-53
        want = (bits[1:].astype(np.float64) + 0.5) * 2.0**-53
        assert np.array_equal(out[1:].view(np.uint64), want.view(np.uint64))

    def test_normal_of_the_top_draw_is_finite(self):
        # The seed whose first draw hashes to all ones, found by running
        # splitmix64's finalizer (a bijection mod 2^64) backwards.
        def unshift(x, s):
            y = x
            for _ in range(64 // s):
                y = x ^ (y >> s)
            return y

        z = unshift((1 << 64) - 1, 31)
        z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) % (1 << 64), 27)
        z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) % (1 << 64), 30)
        seed = (z - 0x9E3779B97F4A7C15) % (1 << 64)
        assert _whole_array_uniform(seed, 0, 1)[0] == 1.0  # the unclamped formula
        assert RngState(seed).uniform(1)[0] == 1.0 - 2.0**-53
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draw = RngState(seed).normal(1)
        assert np.isfinite(draw).all() and draw[0] > 8.0

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

    @staticmethod
    def _operands(rng, m, k, n, heavy):
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        if heavy:
            a *= np.exp(8.0 * rng.normal(size=(m, k)))
            b *= np.exp(8.0 * rng.normal(size=(k, n)))
        if m > 1:
            # Every product of out[0, 0] is -0.0, so only the leading 0.0
            # makes that element +0.0.
            a[0] = -0.0
            b[:, 0] = np.abs(b[:, 0])
        return a, b

    @staticmethod
    def _triple_loop(a, b):
        # Every element starts at 0.0 and adds the products in increasing k.
        m, k = a.shape
        want = np.zeros((m, b.shape[1]))
        for i in range(m):
            for j in range(b.shape[1]):
                acc = 0.0
                for kk in range(k):
                    acc += a[i, kk] * b[kk, j]
                want[i, j] = acc
        return want

    @staticmethod
    def _rank1_loop(a, b):
        # The same order, one k at a time over the whole output.
        out = np.zeros((a.shape[0], b.shape[1]))
        for kk in range(a.shape[1]):
            out += a[:, kk : kk + 1] * b[kk : kk + 1, :]
        return out

    @staticmethod
    def _bits(x):
        return x.view(np.uint64)  # bit-level equality, so -0.0 != +0.0

    @pytest.fixture(params=["einsum", "loop"])
    def kernel(self, request, monkeypatch):
        # Every bit test runs on both kernels: einsum where the import probe
        # accepts it, and the rank-1 loop that replaces it where it does not.
        if request.param == "loop":
            monkeypatch.setattr(tensor, "_EINSUM_ORDERED", False)
        return request.param

    def test_matches_triple_loop_exactly(self, kernel):
        shapes = [(s, s, s) for s in (3, 8, 17, 32)]
        shapes += [(32, 16, 2), (2, 32, 16), (5, 3, 7), (1, 6, 4), (4, 6, 1)]
        shapes += [(1, 7, 1), (1, 9, 1), (1, 128, 1)]  # m*n == 1
        shapes += [(64, 40, 64)]
        # Narrow, tall outputs (n <= 4 < m) run transposed; m <= 4 does not.
        shapes += [(40, 9, 4), (33, 20, 2), (9, 130, 3), (5, 17, 4), (4, 7, 3)]
        rng = np.random.default_rng(8)
        for m, k, n in shapes:
            for heavy in (False, True):
                a, b = self._operands(rng, m, k, n, heavy)
                got = matmul(Tensor(a), Tensor(b)).data
                want = self._triple_loop(a, b)
                assert np.array_equal(self._bits(got), self._bits(want)), \
                    f"mismatch at {m}x{k}x{n}, heavy={heavy}"
                # C order, as the grads summed down axis 0 expect.
                assert tensor._matmul_arrays(a, b).flags.c_contiguous
                if m * n > 1:  # pins the rank-1 oracle to the triple loop
                    assert np.array_equal(self._bits(self._rank1_loop(a, b)), self._bits(want))

    def test_wide_and_tall_shapes_match_rank1_loop_exactly(self, kernel):
        # mlp_wide's layer shapes and their grads, n == 1 with several rows,
        # one row with long k, a very wide row, and tall small-k products: a
        # 3x3 conv's im2col product and its input grad on 32 28x28 images,
        # and 1024 rows into a 128-wide layer.
        shapes = [(64, 128, 128), (256, 128, 128), (40, 200, 100), (128, 64, 128)]
        shapes += [(17, 129, 1), (1, 300, 33), (33, 129, 65)]
        shapes += [(17, 8000, 1), (1, 5000, 40), (3, 2, 70000)]
        shapes += [(21632, 9, 4), (21632, 4, 9), (1024, 2, 128)]
        rng = np.random.default_rng(9)
        for m, k, n in shapes:
            for heavy in (False, True):
                a, b = self._operands(rng, m, k, n, heavy)
                got = matmul(Tensor(a), Tensor(b)).data
                want = self._rank1_loop(a, b)
                assert np.array_equal(self._bits(got), self._bits(want)), \
                    f"mismatch at {m}x{k}x{n}, heavy={heavy}"

    def test_kernel_traps_match_rank1_loop_exactly(self, kernel):
        # n == 1 with m >= 2 and k >= 16, which einsum would sum with several
        # accumulators; k and n above 8192 (einsum's buffer size); and
        # operands that are Fortran-ordered or transposed views, which could
        # put k innermost. The views reach the kernel as autodiff's grads do.
        shapes = [(5, 300, 1), (17, 8000, 1), (2, 16, 1), (300, 40, 1)]
        shapes += [(3, 8200, 5), (2, 20, 8200), (1, 9000, 3)]
        rng = np.random.default_rng(11)
        for m, k, n in shapes:
            a, b = self._operands(rng, m, k, n, heavy=True)
            want = self._bits(self._rank1_loop(a, b))
            views = [(a, b), (np.asfortranarray(a), b), (a, np.asfortranarray(b)),
                     (np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T)]
            for va, vb in views:
                got = tensor._matmul_arrays(va, vb)
                assert np.array_equal(self._bits(got), want), \
                    f"mismatch at {m}x{k}x{n}, strides {va.strides} {vb.strides}"

    def test_probe_accepts_einsum_and_rejects_fused_or_reordered_kernels(self):
        def fused(a, b):
            # A fused multiply-add: each step rounds the exact a*b + acc once.
            out = np.empty((a.shape[0], b.shape[1]))
            for i, j in np.ndindex(out.shape):
                acc = 0.0
                for x, y in zip(a[i], b[:, j]):
                    acc = float(Fraction(acc) + Fraction(x) * Fraction(y))
                out[i, j] = acc
            return out

        def pairwise(a, b):
            # Unfused, but numpy's multi-accumulator sum of each dot product.
            return np.array([[np.add.reduce(a[i] * b[:, j]) for j in range(b.shape[1])]
                             for i in range(a.shape[0])])

        def first_product_start(a, b):
            # In order, but starting from the first product instead of 0.0.
            out = a[:, :1] * b[0]
            for kk in range(1, a.shape[1]):
                out += a[:, kk:kk + 1] * b[kk]
            return out

        assert tensor._ordered(tensor._einsum) == tensor._EINSUM_ORDERED
        if platform.machine() in ("x86_64", "AMD64"):
            assert tensor._EINSUM_ORDERED  # numpy's wheels build einsum unfused here
        assert tensor._ordered(self._rank1_loop)
        for stand_in in (np.matmul, fused, pairwise, first_product_start):
            assert not tensor._ordered(stand_in), stand_in

    def test_bias_is_added_to_every_row(self):
        rng = np.random.default_rng(10)
        a, b, bias = rng.normal(size=(64, 128)), rng.normal(size=(128, 96)), rng.normal(size=96)
        got = matmul(Tensor(a), Tensor(b), Tensor(bias)).data
        want = matmul(Tensor(a), Tensor(b)).data + bias
        assert np.array_equal(self._bits(got), self._bits(want))
        with pytest.raises(ShapeError, match=r"bias must be \(96,\), got \(95,\)"):
            matmul(Tensor(a), Tensor(b), Tensor(bias[:95]))

    def test_overflowing_bias_add_is_a_finiteness_error_not_a_warning(self):
        # The product [[1e308, 1e308]] is finite; adding the bias overflows.
        with pytest.raises(NonFiniteError):
            matmul(Tensor([[1e308, 1.0]]), Tensor([[1.0, 1.0], [0.0, 0.0]]),
                   Tensor([1e308, 0.0]))

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

    # Group lengths straddle a leaf (2^15) and sizes straddle 2^17, above
    # which moments sums its squares block by block. One transposed and one
    # per-channel case keep the whole-array path.
    @pytest.mark.parametrize("shape,axes", [
        ((1 << 17,), (0,)), (((1 << 17) + 1,), (0,)), (((1 << 17) + 8,), None),
        (((3 << 15) + 5,), (0,)), ((1 << 20,), None),
        ((5, (1 << 15) - 1), (1,)), ((5, 1 << 15), (1,)), ((5, (1 << 15) + 1), (1,)),
        ((64, 1 << 14), (1,)), ((3, 70001), (-1,)), ((1025, 129), (1,)), ((3, 5, 9000), None),
        ((3, 200, 300), (1, 2)), ((300, 21, 23), (1, 2)), ((2, 30, 40, 60), (1, 2, 3)),
        ((40, 8, 16, 32), (1, 2, 3)), ((2, 30, 40, 60), (2, 3)), ((2, 30, 40, 60), (1, 2)),
        ((70001, 3), "transposed")])
    @pytest.mark.parametrize("kind", ["random", "signed_zeros", "constant_group"])
    def test_moments_sum_of_squares_is_numpy_pairwise(self, shape, axes, kind):
        # m2 must carry the bits of numpy's own pairwise sum of the squares.
        # If a numpy release changes that tree, this fails instead of letting
        # a bit move silently.
        rng = np.random.default_rng(sum(shape))
        data = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
        if kind == "signed_zeros":
            data.reshape(-1)[::7] = -0.0
        if axes == "transposed":
            data, axes = data.T, (1,)
        if kind == "constant_group":  # group 0, or the one group
            data[0 if axes is not None and 0 not in axes else ...] = 2.5
        n, mu, centered, m2 = tensor.moments(data, axes)
        assert m2.tobytes() == np.add.reduce(centered * centered, axis=axes,
                                             keepdims=True).tobytes()
        if kind == "constant_group":
            assert np.all(m2.reshape(-1)[0] == 0.0)

    def test_welford_deterministic(self):
        data = np.random.default_rng(5).normal(size=12345)
        assert tensor.welford(data) == tensor.welford(data)

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            reduce("median", Tensor([1.0]))


class TestTreeSum:
    """tensor._TreeSum: np.add.reduce of a run fed block by block, bit for bit."""

    @staticmethod
    def _run(rng, n):
        # Mixed magnitudes and signed zeros: any other order of the sum
        # rounds differently.
        values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
        values[::11] = -0.0
        return values

    @staticmethod
    def _fed(values, blocks):
        tree = tensor._TreeSum(values.size)
        start = 0
        for size in blocks:
            tree.add(values[start:start + size])
            start += size
        assert start >= values.size
        return np.float64(tree.total()).view(np.uint64)

    @pytest.mark.parametrize("leaf,lengths", [
        # n//2 is not a multiple of 8, so numpy's cut drops the remainder.
        (1024, [2 * 1024 + 2 * 5, 4 * 1024 + 2 * 7 + 1, 3 * 1024 + 13, 12345]),
        ((1 << 15), [(1 << 16) + 2 * 3, (1 << 20) + 24]),
        # One past a leaf: the tree's first cut makes a leaf of n//2 - n//2 % 8.
        (1024, [1025, 2049, 4097, 8193]),
        ((1 << 15), [(1 << 15) + 1, (1 << 17) + 1]),
        # Within one leaf the run is reduced whole.
        (1024, [1, 7, 128, 129, 1023, 1024])])
    def test_matches_numpy_pairwise_sum(self, monkeypatch, leaf, lengths):
        monkeypatch.setattr(tensor, "_BLOCK_ELEMS", leaf)
        rng = np.random.default_rng(leaf + len(lengths))
        for n in lengths:
            values = self._run(rng, n)
            want = np.add.reduce(values).view(np.uint64)
            tree = tensor._TreeSum(n)
            assert all(b - a <= leaf for a, b in tree.leaves)
            assert [a for a, _ in tree.leaves[1:]] == [b for _, b in tree.leaves[:-1]]
            # The leaves themselves, blocks that do not line up with them
            # (short, prime, longer than a leaf) and random cuts.
            feeds = [[b - a for a, b in tree.leaves], [n], [1] * min(n, 3000) + [n],
                     [997] * (n // 997 + 1), [3 * leaf + 5] * (n // leaf + 1),
                     list(rng.integers(1, 2 * leaf, size=2 * n // leaf + 4))]
            for blocks in feeds:
                assert self._fed(values, blocks) == want, f"n={n} blocks={blocks[:3]}"

    def test_a_left_fold_of_the_leaves_rounds_differently(self, monkeypatch):
        # The inputs above can tell the tree from a plain sum of leaf sums.
        monkeypatch.setattr(tensor, "_BLOCK_ELEMS", 1024)
        values = self._run(np.random.default_rng(1), 12345)
        tree = tensor._TreeSum(values.size)
        fold = 0.0
        for a, b in tree.leaves:
            fold += np.add.reduce(values[a:b])
        assert np.float64(fold) != np.add.reduce(values)
        assert self._fed(values, [values.size]) == np.add.reduce(values).view(np.uint64)
