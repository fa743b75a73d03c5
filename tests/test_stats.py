"""Threshold statistics: quantiles, Z-scores, exact selection, moments."""

import math

import numpy as np
import pytest

from ashlab import _normal
from ashlab import activations as act
from ashlab import autodiff as ad
from ashlab import stats as st
from ashlab.tensor import RngState, Tensor, randn, reduce

Z_TABLE = {  # high-precision standard-normal upper-tail quantiles
    2.5: 1.9599639845400545,
    10.0: 1.2815515655446004,
    30.0: 0.5244005127080407,
    80.0: -0.8416212335729142,
    1.0: 2.3263478740408411,
    5.0: 1.6448536269514727,
    25.0: 0.6744897501960817,
}


def cdf_oracle(z):
    """P(Z <= z) from the standard library's erfc, independent of _normal."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def bisect_ppf(p):
    """Independent quantile oracle: bisection on cdf_oracle over [-40, 40].

    The upper half is read by symmetry from 1 - p, which is exact for
    p >= 0.5, so the bisection always runs on a tail probability.
    """
    if p > 0.5:
        return -bisect_ppf(1.0 - p)
    lo, hi = -40.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if cdf_oracle(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_upper_z(k_percent):
    """The z with P(Z >= z) = k/100, from the bisection oracle."""
    return -bisect_ppf(k_percent / 100.0)


class TestComputeStats:
    def test_one_to_ten(self):
        s = st.compute_stats(Tensor(np.arange(1.0, 11.0)))
        assert s.mu == pytest.approx(5.5, abs=1e-12)
        assert s.sigma == pytest.approx(2.8722813232690143, abs=1e-12)
        assert s.n == 10

    def test_constant_input_floored_threshold(self):
        s = st.compute_stats(Tensor(np.full(8, 4.0)))
        assert s.mu == 4.0
        assert s.sigma == 0.0  # raw stats report the true zero
        assert s.threshold(1.0) == pytest.approx(4.0 + 1e-5)
        assert s.threshold(0.0) == 4.0

    def test_standard_normal_draws(self):
        x = randn([100_000], RngState(12))
        s = st.compute_stats(x)
        assert abs(s.mu) < 0.02
        assert abs(s.sigma - 1.0) < 0.02

    def test_threshold_monotone_in_mu_and_sigma(self):
        a = st.InputStats(mu=0.0, sigma=1.0, n=10)
        b = st.InputStats(mu=1.0, sigma=1.0, n=10)
        assert b.threshold(0.7) > a.threshold(0.7)
        wide = st.InputStats(mu=0.0, sigma=2.0, n=10)
        assert wide.threshold(0.7) > a.threshold(0.7)      # z > 0: increasing
        assert wide.threshold(-0.7) < a.threshold(-0.7)    # z < 0: decreasing


class TestZTable:
    def test_paper_anchor_k_2_5(self):
        assert st.z_from_percentile(2.5) == pytest.approx(1.95996, abs=1e-5)

    def test_median_is_zero(self):
        assert st.z_from_percentile(50.0) == pytest.approx(0.0, abs=1e-12)

    def test_k_10(self):
        assert st.z_from_percentile(10.0) == pytest.approx(1.28155, abs=1e-5)

    @pytest.mark.parametrize("k,expected", sorted(Z_TABLE.items()))
    def test_high_precision_anchors(self, k, expected):
        assert st.z_from_percentile(k) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("k", [0.5, 2.5, 10.0, 33.0, 50.0, 66.0, 90.0, 97.5, 99.5])
    def test_against_bisection_oracle(self, k):
        assert st.z_from_percentile(k) == pytest.approx(bisect_upper_z(k), abs=1e-9)

    def test_domain(self):
        for bad in (0.0, 100.0, -3.0, 250.0):
            with pytest.raises(ValueError):
                st.z_from_percentile(bad)

    def test_strictly_decreasing(self):
        ks = np.linspace(0.5, 99.5, 300)
        zs = [st.z_from_percentile(float(k)) for k in ks]
        assert all(a > b for a, b in zip(zs, zs[1:]))


class TestPercentileFromZ:
    def test_zero_maps_to_fifty(self):
        assert st.percentile_from_z(0.0) == pytest.approx(50.0, abs=1e-12)

    def test_paper_anchor_back(self):
        assert st.percentile_from_z(1.95996) == pytest.approx(2.5, abs=1e-4)
        assert st.percentile_from_z(st.z_from_percentile(2.5)) == pytest.approx(2.5, abs=1e-6)

    @pytest.mark.parametrize("k", [1.0, 5.0, 25.0, 75.0, 99.0])
    def test_round_trip(self, k):
        assert st.percentile_from_z(st.z_from_percentile(k)) == pytest.approx(k, abs=1e-7)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            st.percentile_from_z(math.inf)

    def test_relative_accuracy_into_the_tails(self):
        # The tail is read from erfc, never as 1 - p: at z = 10 it is 7.6e-22%.
        for z in np.linspace(-37.0, 37.0, 1481):
            ref = 50.0 * math.erfc(z / math.sqrt(2.0))
            got = st.percentile_from_z(float(z))
            assert abs(got - ref) <= 1e-14 * ref, (z, got, ref)
        assert st.percentile_from_z(10.0) == pytest.approx(7.619853024160527e-22, rel=1e-14)

    def test_small_k_round_trip(self):
        for k in (1e-10, 1e-6, 1e-3):
            assert st.z_from_percentile(k) == pytest.approx(bisect_upper_z(k), abs=1e-12)
            assert st.percentile_from_z(st.z_from_percentile(k)) == pytest.approx(k, rel=1e-12)


def _ppf_grid():
    """p over [2^-54, 1 - 2^-53]: both tails log-spaced, the middle linear."""
    lower = 2.0 ** -np.linspace(54.0, 1.0, 425)
    upper = 1.0 - 2.0 ** -np.linspace(1.0, 53.0, 417)
    return np.concatenate([lower, np.linspace(0.01, 0.99, 197), upper])


def _full_like_ratio(coeffs, x):
    """_normal._ratio as first written: Horner from a c0-filled array."""
    num_c, den_c = coeffs
    num = np.full_like(x, num_c[0])
    den = np.full_like(x, den_c[0])
    for a, b in zip(num_c[1:], den_c[1:]):
        num *= x
        num += a
        den *= x
        den += b
    num /= den
    return num


class TestNormalKernels:
    """_normal against the standard library's erfc, over the whole domain."""

    # Each rational on its branch's argument range: AS241 in 0.180625 - q^2,
    # r - 1.6 and r - 5 (r up to sqrt(-log(2^-1074))); Cody in y^2, |y| and 1/y^2.
    @pytest.mark.parametrize("name,lo,hi", [
        ("_PPF_CENTRAL", 0.0, 0.180625), ("_PPF_NEAR_TAIL", 0.0, 3.4),
        ("_PPF_FAR_TAIL", 0.0, 22.3), ("_ERF_SMALL", 0.0, 0.46875 ** 2),
        ("_ERFC_MID", 0.46875, 4.0), ("_ERFC_TAIL", 1.0 / 28.0 ** 2, 1.0 / 16.0)])
    def test_ratio_has_the_bits_of_the_filled_horner(self, name, lo, hi):
        coeffs = getattr(_normal, name)
        x = np.concatenate([np.linspace(lo, hi, 1 << 16),
                            np.random.default_rng(8).uniform(lo, hi, 1 << 16)])
        got = _normal._ratio(coeffs, x)
        assert np.array_equal(got.view(np.uint64), _full_like_ratio(coeffs, x).view(np.uint64))

    def test_ppf_within_documented_bound_on_the_whole_grid(self):
        ps = _ppf_grid()
        assert ps[0] == 2.0 ** -54 and ps[-1] == 1.0 - 2.0 ** -53
        zs = _normal.norm_ppf(ps)
        worst = max(abs(z - bisect_ppf(p)) for p, z in zip(ps, zs))
        assert worst < 1e-9

    def test_cdf_relative_accuracy(self):
        # Down to x = -37, where the CDF (5.7e-300) is still a normal float.
        xs = np.concatenate([np.linspace(-37.0, 9.0, 4601),
                             np.random.default_rng(4).normal(0.0, 3.0, 2000)])
        got = _normal.norm_cdf(xs)
        for x, c in zip(xs, got):
            ref = cdf_oracle(x)
            assert abs(c - ref) <= 2e-15 * ref, (x, c, ref)

    def test_cdf_limits(self):
        out = _normal.norm_cdf(np.array([-np.inf, -1e300, -40.0, 0.0, 40.0, 1e300, np.inf]))
        assert out.tolist() == [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0]
        assert np.isnan(_normal.norm_cdf(np.nan))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0, math.nan])
    def test_ppf_domain(self, bad):
        with pytest.raises(ValueError):
            _normal.norm_ppf(np.array([0.5, bad]))

    def test_scalar_in_float_out(self):
        for f, v in ((_normal.norm_ppf, 0.3), (_normal.norm_cdf, -1.2)):
            assert type(f(v)) is float
            assert type(f(np.float64(v))) is float
            assert type(f(np.array(v))) is float
            assert f(np.array([v])).shape == (1,)
            assert f(np.full((3, 5), v)).shape == (3, 5)

    @pytest.mark.parametrize("n", [1, 2**14 - 1, 2**14, 2**14 + 1, 3 * 2**14 + 5])
    def test_blocks_do_not_change_bits(self, n):
        rng = np.random.default_rng(n)
        p = rng.random(n)
        x = rng.normal(0.0, 8.0, n)
        # Every branch: both tails of AS241 (r > 5 below p = 1.4e-11) and
        # all three of Cody's erfc ranges, on both signs.
        p[: min(n, 6)] = [2.0 ** -54, 1e-12, 0.5, 0.05, 0.95, 1.0 - 2.0 ** -53][: min(n, 6)]
        x[: min(n, 6)] = [-30.0, -7.0, -0.3, 0.3, 7.0, 30.0][: min(n, 6)]
        for f, a in ((_normal.norm_ppf, p), (_normal.norm_cdf, x)):
            whole = f(a)
            cuts = list(range(0, n, 1237)) + [n]
            pieces = np.concatenate([f(a[i:j]) for i, j in zip(cuts, cuts[1:])])
            assert np.array_equal(whole.view(np.uint64), pieces.view(np.uint64))
            for i in range(0, n, max(1, n // 40)):
                assert f(float(a[i])) == whole[i]


class TestZScore:
    def test_one_to_ten_normalized(self):
        out = st.zscore(Tensor(np.arange(1.0, 11.0)))
        s = st.compute_stats(out)
        assert abs(s.mu) < 1e-10
        assert abs(s.sigma - 1.0) < 1e-10

    def test_constant_input_all_zero(self):
        assert np.all(st.zscore(Tensor(np.full(5, 2.0))).data == 0.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        base = st.zscore(Tensor(x)).data
        for a, b in [(2.0, 5.0), (0.1, -3.0), (17.0, 0.0)]:
            out = st.zscore(Tensor(a * x + b)).data
            np.testing.assert_allclose(out, base, atol=1e-10)

    def test_needs_two_elements(self):
        with pytest.raises(ValueError):
            st.zscore(Tensor([1.0]))


class TestExactTopK:
    def test_one_to_ten_k30(self):
        mask = st.exact_topk_mask(Tensor(np.arange(1.0, 11.0)), 30.0)
        assert mask.kept == 3
        assert np.flatnonzero(mask.mask).tolist() == [7, 8, 9]

    def test_k100_keeps_all(self):
        x = Tensor(np.random.default_rng(0).normal(size=57))
        mask = st.exact_topk_mask(x, 100.0)
        assert mask.kept == 57 and np.all(mask.mask)

    def test_tie_break_low_index_first(self):
        mask = st.exact_topk_mask(Tensor([5.0, 5.0, 5.0, 5.0]), 50.0)
        assert mask.kept == 2
        assert np.flatnonzero(mask.mask).tolist() == [0, 1]

    def test_matches_sort_oracle_with_ties(self):
        rng = np.random.default_rng(1312)
        for trial in range(60):
            n = int(rng.integers(1, 400))
            data = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
            k = float(rng.uniform(0.5, 100.0))
            got = st.exact_topk_mask(Tensor(data), k)
            m = st.topk_count(n, k)
            order = np.argsort(-data, kind="stable")
            want = np.zeros(n, dtype=bool)
            want[order[:m]] = True
            assert got.kept == m
            assert np.array_equal(got.mask, want), f"trial {trial} (n={n}, k={k})"

    def test_kth_largest_edges(self):
        data = np.array([3.0, -1.0, 7.0, 7.0, 0.0])
        assert st.kth_largest(data, 1) == 7.0
        assert st.kth_largest(data, 2) == 7.0
        assert st.kth_largest(data, 5) == -1.0
        with pytest.raises(ValueError):
            st.kth_largest(data, 6)

    @pytest.mark.parametrize("kind", ["random", "tied", "constant", "signed_zeros"])
    def test_kth_largest_matches_sort_oracle(self, kind):
        # The cut is the sorted array's m-th value from the top; a zero cut
        # is +0.0 whichever zero the selection leaves in place, and the mask
        # is the stable-argsort oracle's (ties kept lowest index first).
        rng = np.random.default_rng(77)
        for n in (1, 2, 3, 17, 1000, 4099):
            data = {"random": rng.normal(size=n),
                    "tied": np.round(rng.normal(size=n), 1),
                    "constant": np.full(n, -2.5),
                    "signed_zeros": rng.choice([0.0, -0.0, 1.0], size=n)}[kind]
            order = np.argsort(-data, kind="stable")
            for m in sorted({1, min(2, n), n // 3 + 1, n // 2 + 1, n}):
                got = st.kth_largest(data, m)
                want = np.sort(data)[-m]
                assert got == want, f"n={n}, m={m}"
                if got == 0.0:
                    assert np.float64(got).view(np.uint64) == 0, f"n={n}, m={m}: -0.0 cut"
                oracle = np.zeros(n, dtype=bool)
                oracle[order[:m]] = True
                mask = st.exact_topk_mask(Tensor(data), 100.0 * m / n)
                assert mask.kept == m and np.array_equal(mask.mask, oracle), f"n={n}, m={m}"

    @staticmethod
    def _path(data, m):
        """(view, other_side, where the cut lies from the view's first pick)
        that kth_largest takes, derived from a full sort of each view."""
        n = data.size
        view = np.int64 if 2 * m <= n else np.uint64
        r = m if view is np.int64 else n - m + 1
        pick = np.sort(data.view(view))[n - r].view(np.float64)
        other = bool(np.signbit(pick)) == (view is np.int64)
        cut = np.sort(data)[-m]
        where = "on" if cut == pick else "above" if cut > pick else "below"
        return view.__name__, other, where

    def test_kth_largest_bit_views_match_sort_oracle(self):
        # Both integer views of the bits, and the other-sign path whose cut
        # lies above, on or below the view's first pick, across the sign
        # boundary: the cut keeps the bits of np.sort(x)[-m] + 0.0, a Tensor
        # gives the bits an array does, and the mask is the stable-argsort one.
        rng = np.random.default_rng(2206)
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             -1e-310, np.inf, -np.inf])
        seen = set()
        for trial in range(1200):
            n = int(rng.integers(1, 90))
            kind = trial % 6
            if kind == 0:
                data = np.round(rng.normal(rng.choice([-3.0, 0.0, 3.0]), 1.0, n), 1)
            elif kind == 1:
                data = -np.abs(rng.normal(size=n))
            elif kind == 2:
                data = np.abs(rng.normal(size=n))
            elif kind == 3:
                data = rng.choice(specials, size=n)
            elif kind == 4:
                data = rng.choice([0.0, -0.0, 1.0, -1.0], size=n)
            else:
                data = rng.normal(size=n) * 1e-310  # subnormals
            order = np.argsort(-data, kind="stable")
            for m in sorted({1, n // 2, n // 2 + 1, n} - {0}):
                want = np.float64(np.sort(data)[-m] + 0.0).view(np.uint64)
                got = st.kth_largest(data, m)
                assert np.float64(got).view(np.uint64) == want, f"trial {trial}, m={m}"
                seen.add(self._path(data, m))
                if not np.all(np.isfinite(data)):
                    continue
                t = Tensor(data)
                assert np.float64(st.kth_largest(t, m)).view(np.uint64) == want
                if m < n:
                    mask = st.exact_topk_mask(t, 100.0 * m / n)
                    oracle = np.zeros(n, dtype=bool)
                    oracle[order[:mask.kept]] = True
                    assert np.array_equal(mask.mask, oracle), f"trial {trial}, m={m}"
        assert seen >= {("int64", False, "on"), ("int64", True, "above"), ("int64", True, "on"),
                        ("uint64", False, "on"), ("uint64", True, "below"),
                        ("uint64", True, "on")}, seen

    @pytest.mark.parametrize("data, m, want", [
        ([-1.0, -2.0, -3.0, -4.0, 5.0], 2, -1.0),  # int64, other sign, above the pick
        ([-1.0, -1.0, -1.0, -1.0, 5.0], 2, -1.0),  # int64, other sign, on the pick
        ([1.0, 2.0, 3.0, 4.0, -5.0], 4, 1.0),      # uint64, other sign, below the pick
        ([1.0, 2.0, 3.0], 2, 2.0),                 # uint64, other sign, the pick itself
        ([-0.0, 0.0, -0.0, 1.0], 2, 0.0),          # signed zeros at the cut
        ([-0.0, -0.0, -1.0], 1, 0.0),
        ([np.inf, -np.inf, 0.0], 1, np.inf),
        ([np.inf, -np.inf, 0.0], 3, -np.inf),
        ([-5e-324, 5e-324, -1.0], 2, -5e-324),
    ])
    def test_kth_largest_named_cases(self, data, m, want):
        got = st.kth_largest(np.array(data), m)
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_kth_largest_rejects_nan(self, sign):
        # A NaN has no rank, whichever its sign bit.
        data = np.array([1.0, np.copysign(np.nan, sign), -2.0, 3.0])
        for m in range(1, 5):
            with pytest.raises(ValueError):
                st.kth_largest(data, m)

    def test_one_partition_per_mask_and_no_scan_of_a_tensor(self, monkeypatch):
        # Counts, not timings, guard the two passes the cut costs: one
        # np.partition copy per mask, and no NaN or finiteness scan of a
        # Tensor, which is finite by invariant.
        calls = []
        partition = np.partition

        def counted(*args, **kwargs):
            calls.append(1)
            return partition(*args, **kwargs)

        monkeypatch.setattr(np, "partition", counted)
        rng = np.random.default_rng(8)
        for mean in (-3.0, 0.0, 3.0):
            x = Tensor(rng.normal(mean, 1.0, 4096))
            for k in (1.0, 30.0, 50.0, 80.0, 99.0):
                calls.clear()
                st.exact_topk_mask(x, k)
                assert len(calls) == 1, (mean, k)
        # Holds a NaN past the Tensor's own check: a scan would raise here.
        unscanned = Tensor._wrap(np.array([1.0, np.nan, -2.0, 3.0]), finite=True)
        for k in (25.0, 50.0, 75.0):
            st.exact_topk_mask(unscanned, k)

    def test_count_rounding(self):
        assert st.topk_count(10, 30.0) == 3
        assert st.topk_count(10, 25.0) == 3   # ceil(2.5)
        assert st.topk_count(10, 0.1) == 1    # floor at one element
        assert st.topk_count(101, 30.0) == 31  # ceil(30.3)


class TestGaussianVsExact:
    def test_percentile_fidelity(self):
        x = randn([100_000], RngState(2024))
        s = st.compute_stats(x)
        for k in (10.0, 30.0, 50.0, 80.0):
            thr = s.threshold(st.z_from_percentile(k))
            frac = float(np.mean(x.data >= thr))
            assert abs(frac - k / 100.0) <= 0.01, f"k={k}: kept {frac:.4f}"

    def test_jaccard_overlap(self):
        x = randn([10_000], RngState(7))
        for k in (10.0, 30.0, 50.0, 80.0):
            gauss = st.gaussian_topk_mask(x, k).mask
            exact = st.exact_topk_mask(x, k).mask
            jac = float(np.sum(gauss & exact)) / float(np.sum(gauss | exact))
            assert jac >= 0.90, f"k={k}: jaccard {jac:.4f}"

    def test_disagreement_confined_to_boundary(self):
        x = randn([10_000], RngState(7))
        k = 30.0
        gauss = st.gaussian_topk_mask(x, k)
        exact = st.exact_topk_mask(x, k)
        disagree = x.data[gauss.mask ^ exact.mask]
        if disagree.size:
            thr = st.compute_stats(x).threshold(st.z_from_percentile(k))
            assert np.max(np.abs(disagree - thr)) < 0.1

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(55)
        x = rng.normal(size=500)
        base = st.gaussian_topk_mask(Tensor(x), 40.0).mask
        for c in (1e-3, 2.0, 500.0, -7.0):
            shifted = st.gaussian_topk_mask(Tensor(x + c), 40.0).mask
            assert np.array_equal(base, shifted)
        for c in (1e-3, 0.5, 42.0):
            scaled = st.gaussian_topk_mask(Tensor(c * x), 40.0).mask
            assert np.array_equal(base, scaled)


def _hard_ash_keep(data: np.ndarray, z: float) -> np.ndarray:
    """hard_ash's keep set of the flattened input: where its x grad is 1."""
    xv = ad.Tape().variable(Tensor(data.reshape(-1)), requires_grad=True)
    ad.backward(ad.sum_all(act.hard_ash(xv, z)))
    return (xv.grad.data == 1.0).reshape(data.shape)


class TestOneKeepRule:
    def test_gaussian_mask_is_hard_ash_keep_set_on_the_boundary(self):
        # Each threshold is placed on an element: z = (x_i - mu)/sigma, and
        # its float neighbours, read back through k. A nonzero mean makes
        # mu + z*sigma round off the element, where x >= mu + z*sigma and
        # x - mu >= z*sigma disagree.
        rng = np.random.default_rng(1919)
        checked = 0
        for loc, scale, shape in [(3.0, 1.0, (200,)), (-50.0, 7.0, (4, 25)),
                                  (0.1, 1e-3, (10, 3, 5)), (1e4, 2.0, (64,))]:
            data = rng.normal(loc, scale, size=shape)
            s = st.compute_stats(Tensor(data))
            for xi in rng.choice(data.reshape(-1), size=20, replace=False):
                z0 = (xi - s.mu) / s.sigma
                for z in (np.nextafter(z0, -np.inf), z0, np.nextafter(z0, np.inf)):
                    k = st.percentile_from_z(float(z))
                    if not 0.0 < k < 100.0:
                        continue
                    mask = st.gaussian_topk_mask(Tensor(data), k)
                    keep = _hard_ash_keep(data, st.z_from_percentile(k))
                    assert np.array_equal(mask.mask, keep), f"loc={loc}, z={z!r}"
                    assert mask.kept == int(np.count_nonzero(keep))
                    checked += 1
        assert checked >= 200


class TestNormality:
    def test_standard_normal_draws(self):
        x = randn([100_000], RngState(99))
        rep = st.normality_report(x)
        assert abs(rep.skewness) < 0.05
        assert abs(rep.excess_kurtosis) < 0.1

    def test_symmetric_input_zero_skew(self):
        pattern = np.tile(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), 20)  # n = 100
        rep = st.normality_report(Tensor(pattern))
        assert rep.skewness == pytest.approx(0.0, abs=1e-14)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            st.normality_report(Tensor(np.arange(99.0)))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            st.normality_report(Tensor(np.full(128, 1.0)))


# A rounded mean misses most of these values by an ulp, so a plain
# two-pass reports a tiny nonzero variance; the kernel must not.
@pytest.mark.parametrize("n", [3, 10, 128, 4097, 100_000])
@pytest.mark.parametrize("v", [0.1, 1 / 3, 0.7, -2.7, 1e-8, 123456.789, 0.0])
def test_constant_input_is_exact(v, n):
    x = Tensor(np.full(n, v))
    s = st.compute_stats(x)
    assert s.sigma == 0.0 and s.mu == v
    assert np.all(st.zscore(x).data == 0.0)
    assert reduce("var_pop", x) == 0.0
    with pytest.raises(ValueError, match="constant" if n >= 100 else "N >= 100"):
        st.normality_report(x)
