"""Threshold statistics: quantiles, Z-scores, exact selection, moments."""

import math

import numpy as np
import pytest

from ashlab import _normal
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


def bisect_upper_z(k_percent):
    """Independent oracle: bisection on the erf-based CDF."""
    target = 1.0 - k_percent / 100.0
    lo, hi = -12.0, 12.0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if _normal.norm_cdf(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
        assert sorted(mask.indices().tolist()) == [7, 8, 9]

    def test_k100_keeps_all(self):
        x = Tensor(np.random.default_rng(0).normal(size=57))
        mask = st.exact_topk_mask(x, 100.0)
        assert mask.kept == 57 and np.all(mask.mask)

    def test_tie_break_low_index_first(self):
        mask = st.exact_topk_mask(Tensor([5.0, 5.0, 5.0, 5.0]), 50.0)
        assert mask.kept == 2
        assert mask.indices().tolist() == [0, 1]

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
