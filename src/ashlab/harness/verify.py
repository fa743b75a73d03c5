"""Self-contained property suites behind `ashlab verify`.

Each suite re-derives its expected values from an independent route
(bisection oracles, brute-force sorts, central differences, algebraic
identities) and raises SuiteFailure echoing the offending inputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .. import activations as act
from .. import autodiff as ad
from .. import stats as st
from .. import tensor
from ..tensor import RngState, Tensor, randn


class SuiteFailure(AssertionError):
    """One property suite failed; message carries the failing case."""


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    ms: float


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise SuiteFailure(msg)


def _bisect_ppf(p: float) -> float:
    """Independent quantile oracle: bisection on the standard library's
    0.5*erfc(-z/sqrt(2)) over [-40, 40]. The upper half is read by
    symmetry from 1 - p (exact for p >= 0.5), so the bisection always
    runs on a tail probability."""
    if p > 0.5:
        return -_bisect_ppf(1.0 - p)
    lo, hi = -40.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_upper_z(k_percent: float) -> float:
    return -_bisect_ppf(k_percent / 100.0)


# ---------------------------------------------------------------------------
# Suites.
# ---------------------------------------------------------------------------

def suite_z_table() -> None:
    anchors = {2.5: 1.9599639845400545, 10.0: 1.2815515655446004,
               30.0: 0.5244005127080407, 80.0: -0.8416212335729142}
    for k, expected in anchors.items():
        z = st.z_from_percentile(k)
        _check(abs(z - expected) < 1e-9, f"z({k}%) = {z!r}, expected {expected!r}")
    _check(abs(st.z_from_percentile(50.0)) < 1e-12,
           f"z(50%) = {st.z_from_percentile(50.0)!r}, expected 0")
    for k in (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 97.5, 99.5):
        z = st.z_from_percentile(k)
        oracle = _bisect_upper_z(k)
        _check(abs(z - oracle) < 1e-9, f"z({k}%) = {z!r} vs bisection oracle {oracle!r}")
        back = st.percentile_from_z(z)
        _check(abs(back - k) < 1e-6, f"round-trip k={k} -> z -> {back}")
    for k in (1e-12, 1e-8, 1e-4, 100.0 - 1e-4):  # the tails, where 1 - p cancels
        z = st.z_from_percentile(k)
        oracle = _bisect_upper_z(k)
        _check(abs(z - oracle) < 1e-9, f"z({k}%) = {z!r} vs bisection oracle {oracle!r}")
    for z in (-37.0, -10.0, 10.0, 37.0):
        ref = 50.0 * math.erfc(z / math.sqrt(2.0))
        got = st.percentile_from_z(z)
        _check(abs(got - ref) <= 1e-14 * ref, f"percentile_from_z({z}) = {got!r}, expected {ref!r}")
    grid = np.linspace(0.5, 99.5, 199)
    zs = [st.z_from_percentile(float(k)) for k in grid]
    _check(all(a > b for a, b in zip(zs, zs[1:])),
           "z_from_percentile is not strictly decreasing in k")


def suite_percentile_fidelity() -> None:
    x = randn([100_000], RngState(2024))
    stats = st.compute_stats(x)
    for k in (10.0, 30.0, 50.0, 80.0):
        thr = stats.threshold(st.z_from_percentile(k))
        frac = float(np.mean(x.data >= thr))
        _check(abs(frac - k / 100.0) <= 0.01,
               f"kept fraction {frac:.4f} for k={k}% (threshold {thr:.4f}, "
               f"mu={stats.mu:.4f}, sigma={stats.sigma:.4f})")


def suite_selection_oracle() -> None:
    x = randn([10_000], RngState(7))
    for k in (10.0, 30.0, 50.0, 80.0):
        gauss = st.gaussian_topk_mask(x, k).mask
        exact = st.exact_topk_mask(x, k).mask
        inter = float(np.sum(gauss & exact))
        union = float(np.sum(gauss | exact))
        jac = inter / union
        _check(jac >= 0.90, f"Jaccard {jac:.4f} < 0.90 at k={k}% "
                            f"(|gauss|={int(gauss.sum())}, |exact|={int(exact.sum())})")
    # Exact mask against a brute-force full sort, including tie handling.
    # Shifted data puts the cut on either sign, so both bit views of the
    # selection run, and so does their other-sign path.
    rng = np.random.default_rng(11)
    for mean in (0.0, -2.0, 2.0):
        for trial in range(25):
            data = np.round(rng.normal(mean, size=rng.integers(5, 200)), 1)  # force ties
            k = float(rng.uniform(1, 100))
            t = Tensor(data)
            got = st.exact_topk_mask(t, k)
            m = st.topk_count(data.size, k)
            order = np.argsort(-data, kind="stable")
            want = np.zeros(data.size, dtype=bool)
            want[order[:m]] = True
            _check(np.array_equal(got.mask, want) and got.kept == m,
                   f"trial {trial}: quickselect mask != sort oracle "
                   f"(mean={mean}, k={k}, n={data.size})")


def suite_tensor_kernels() -> None:
    rng = np.random.default_rng(3)
    for n in (1, 2, 17, 1000, 4096, 12345):
        data = rng.normal(3.0, 2.0, n)
        cnt, mu, m2 = tensor.welford(data)
        # Exactly rounded sums (fsum) are independent of the kernel's order.
        ref_mu = math.fsum(data) / n
        ref_var = math.fsum((data - ref_mu) ** 2) / n
        _check(abs(mu - ref_mu) <= 1e-12 * max(1.0, abs(ref_mu)),
               f"kernel mean {mu} vs fsum {ref_mu} at n={n}")
        _check(abs(m2 / cnt - ref_var) <= 1e-12 * max(1.0, ref_var),
               f"kernel var {m2 / cnt} vs fsum {ref_var} at n={n}")
    # Square products, an n == 1 product (which the kernel runs transposed)
    # and a transposed operand, as autodiff's grads pass them.
    cases = [(rng.normal(size=(s, s)), rng.normal(size=(s, s))) for s in (2, 5, 8, 16, 96)]
    cases += [(rng.normal(size=(5, 300)), rng.normal(size=(300, 1))),
              (rng.normal(size=(24, 40)), rng.normal(size=(24, 40)).T)]
    for a, b in cases:
        got = tensor._matmul_arrays(a, b)
        # Python floats round each * and + as float64 does, and are faster
        # to index than numpy scalars.
        al, bl = a.tolist(), b.tolist()
        want = np.zeros(got.shape)
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                acc = 0.0
                for kk in range(a.shape[1]):
                    acc += al[i][kk] * bl[kk][j]
                want[i, j] = acc
        _check(np.array_equal(got, want),
               f"matmul differs from triple loop at {a.shape} x {b.shape}, strides {b.strides}")
    t1 = randn([64], RngState(5, 123))
    t2 = randn([64], RngState(5, 123))
    _check(np.array_equal(t1.data, t2.data), "randn is not bit-deterministic")
    # 40,000 draws cross a block edge of the RNG's walk; two draws of a
    # cloned state, cut elsewhere, must give the same bits.
    rng = RngState(5, 123)
    whole = randn([40_000], rng.clone()).data
    parts = np.concatenate([randn([n], rng).data for n in (25_000, 15_000)])
    _check(np.array_equal(whole.view(np.uint64), parts.view(np.uint64)),
           "randn depends on how the draws are chunked")


def _kink_free(rng: np.ndarray, n: int, scale: float = 2.0, margin: float = 1e-5) -> Tensor:
    draws = rng.normal(0.0, scale, n)
    while np.any(np.abs(draws) < margin):
        draws = np.where(np.abs(draws) < margin, rng.normal(0.0, scale, n), draws)
    return Tensor(draws)


def suite_gradient_checks() -> None:
    rng = np.random.default_rng(99)
    x = _kink_free(rng, 100)
    cases = [
        ("relu", lambda v: ad.sum_all(act.relu(v))),
        ("lrelu", lambda v: ad.sum_all(act.lrelu(v, 0.01))),
        ("softplus", lambda v: ad.sum_all(act.softplus(v))),
        ("elu", lambda v: ad.sum_all(act.elu(v))),
        ("selu", lambda v: ad.sum_all(act.selu(v))),
        ("gelu", lambda v: ad.sum_all(act.gelu(v))),
        ("swish", lambda v: ad.sum_all(act.swish(v))),
        ("sigmoid", lambda v: ad.sum_all(act.sigmoid(v))),
        ("gen_swish", lambda v: ad.sum_all(act.gen_swish(v, 1.3, -0.4))),
        ("smooth_ash", lambda v: ad.sum_all(act.smooth_ash(v, z_k=0.3, alpha=1.5))),
        ("leaky_ash", lambda v: ad.sum_all(act.leaky_ash(v, z_k=0.2, leak=0.1, alpha=2.0))),
        ("fixed_ash", lambda v: ad.sum_all(act.fixed_ash(v, k=30.0))),
    ]
    for name, f in cases:
        rep = ad.fd_check(f, x)
        _check(rep.max_rel_err < 1e-4,
               f"{name}: max rel err {rep.max_rel_err:.3e} at index {rep.worst_index} "
               f"(x={x.data[rep.worst_index]!r})")
    # Trainable scalar parameters.
    base = Tensor(rng.normal(0.0, 1.0, 128))
    param_cases = [
        ("prelu slope", Tensor([0.2]),
         lambda p: ad.sum_all(act.prelu(base, p))),
        ("gen_swish a", Tensor([1.1]),
         lambda p: ad.sum_all(act.gen_swish(base, p, 0.3))),
        ("gen_swish b", Tensor([0.3]),
         lambda p: ad.sum_all(act.gen_swish(base, 1.1, p))),
        ("smooth_ash z_k", Tensor([0.25]),
         lambda p: ad.sum_all(act.smooth_ash(base, p))),
        ("leaky_ash leak", Tensor([0.15]),
         lambda p: ad.sum_all(act.leaky_ash(base, 0.2, p))),
    ]
    for name, p0, f in param_cases:
        rep = ad.fd_check(f, p0)
        _check(rep.max_rel_err < 1e-4,
               f"{name}: max rel err {rep.max_rel_err:.3e} (param {p0.data!r})")


def suite_hard_threshold_gradients() -> None:
    rng = np.random.default_rng(17)
    for trial in range(100):
        data = Tensor(rng.normal(0.0, 1.0, 64))
        tape = ad.Tape()
        xv = tape.variable(data, requires_grad=True)
        alpha_v = tape.variable(Tensor([1.5]), requires_grad=True)
        theta_v = tape.variable(Tensor([rng.normal() * 0.5]), requires_grad=True)
        out = ad.sum_all(act.conditional_unit(xv, alpha_v, theta_v))
        ad.backward(out)
        mask = data.data >= theta_v.value.data[0]
        _check(np.all(theta_v.grad.data == 0.0),
               f"trial {trial}: threshold grad {theta_v.grad.data!r} != 0")
        _check(np.array_equal(xv.grad.data, np.where(mask, 1.5, 0.0)),
               f"trial {trial}: x grad is not alpha on the active set")
        _check(abs(alpha_v.grad.data[0] - data.data[mask].sum()) < 1e-9,
               f"trial {trial}: alpha grad != sum of active x")

        tape = ad.Tape()
        xv = tape.variable(data, requires_grad=True)
        zv = tape.variable(Tensor([0.2]), requires_grad=True)
        ad.backward(ad.sum_all(act.hard_ash(xv, zv)))
        _check(np.all(zv.grad.data == 0.0),
               f"trial {trial}: hard-form z_k grad {zv.grad.data!r} != 0")

    # The smooth form restores a usable z gradient that matches central
    # differences.
    xx = Tensor(rng.normal(0.0, 1.0, 256))

    def f_z(zv):
        return ad.sum_all(act.smooth_ash(xx, z_k=zv))

    rep = ad.fd_check(f_z, Tensor([0.1]))
    _check(float(np.max(np.abs(rep.analytic))) > 0.0, "smooth-form z_k grad is zero")
    _check(rep.max_rel_err < 1e-4,
           f"smooth-form z_k grad vs central differences: rel err {rep.max_rel_err:.3e}")


def suite_swish_generalization() -> None:
    grid = Tensor(np.linspace(-10.0, 10.0, 10_000))
    diff = np.max(np.abs(act.gen_swish(grid, 1.0, 0.0).data - act.swish(grid).data))
    _check(diff < 1e-12, f"gen_swish(1,0) vs x*S(x): max diff {diff:.3e}")
    rng = np.random.default_rng(23)
    for trial in range(20):
        x = Tensor(rng.normal(rng.normal(), 1.0 + rng.uniform(), 400))
        alpha = float(rng.uniform(0.5, 2.5))
        z = float(rng.normal() * 0.7)
        stats = st.compute_stats(x)
        a = 2.0 * alpha
        b = -2.0 * alpha * (stats.mu + z * stats.sigma)
        lhs = act.gen_swish(x, a, b).data
        rhs = act.smooth_ash(x, z_k=z, alpha=alpha, grad_mode="stop-stats").data
        diff = np.max(np.abs(lhs - rhs))
        _check(diff < 1e-12,
               f"trial {trial}: gen_swish(2a, -2a(mu+z*sigma)) vs smooth form: {diff:.3e}")


def suite_sharpness_limit() -> None:
    x = randn([10_000], RngState(31))
    x = Tensor(np.clip(x.data * 3.0, -10.0, 10.0))
    stats = st.compute_stats(x)
    delta = 0.01
    thr = stats.threshold(0.25)
    off_band = np.abs(x.data - thr) >= delta
    hard = act.hard_ash(x, 0.25).data
    for alpha in (1.0, 10.0, 100.0, 1000.0):
        smooth = act.smooth_ash(x, z_k=0.25, alpha=alpha).data
        gate = 1.0 / (1.0 + np.exp(min(2.0 * alpha * delta, 700.0)))
        bound = np.abs(x.data) * gate * (1.0 + 1e-9) + 1e-12
        bad = off_band & (np.abs(smooth - hard) > bound)
        _check(not np.any(bad),
               f"alpha={alpha}: |smooth-hard| exceeds |x|*S(-2*alpha*delta) at "
               f"{int(bad.sum())} points, worst x={x.data[bad][:3]!r}")
        if alpha == 1000.0:
            worst = float(np.max(np.abs(smooth - hard)[off_band]))
            _check(worst < 1e-3,
                   f"alpha=1000: |smooth-hard| off the boundary band is {worst:.3e} >= 1e-3")
    for alpha in (0.7, 1.0, 5.0):
        sig_form = act.smooth_ash(x, z_k=0.25, alpha=alpha).data
        # The half-tanh writing x/2 + x/2 * tanh(alpha*(x - thr)) of the same gate.
        tanh_form = 0.5 * x.data + 0.5 * x.data * np.tanh(alpha * (x.data - thr))
        diff = np.max(np.abs(sig_form - tanh_form))
        _check(diff < 1e-12, f"alpha={alpha}: tanh form vs sigmoid form differ by {diff:.3e}")


def suite_mask_invariances() -> None:
    rng = np.random.default_rng(41)
    for trial in range(200):
        data = rng.normal(rng.normal(), 0.5 + rng.uniform(), 128)
        x = Tensor(data)
        z = float(rng.normal() * 0.8)
        k = float(rng.uniform(5.0, 95.0))
        shift = float(rng.normal() * 10.0)
        c = float(rng.uniform(0.1, 4.0))

        m0 = st.gaussian_topk_mask(x, k)
        m_shift = st.gaussian_topk_mask(Tensor(data + shift), k)
        _check(np.array_equal(m0.mask, m_shift.mask),
               f"trial {trial}: shift c={shift} changed the threshold mask")
        m_scale = st.gaussian_topk_mask(Tensor(data * c), k)
        _check(np.array_equal(m0.mask, m_scale.mask),
               f"trial {trial}: scale c={c} changed the threshold mask")

        hard_scaled = act.hard_ash(Tensor(data * c), z).data
        scaled_hard = c * act.hard_ash(x, z).data
        _check(np.allclose(hard_scaled, scaled_hard, rtol=1e-12, atol=1e-12),
               f"trial {trial}: hard form not positively homogeneous (c={c})")

        alpha = float(rng.uniform(0.5, 2.0))
        lhs = act.smooth_ash(Tensor(data * c), z_k=z, alpha=alpha).data
        rhs = c * act.smooth_ash(x, z_k=z, alpha=alpha * c).data
        _check(np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12),
               f"trial {trial}: smooth(c*X; a) != c*smooth(X; a*c) (c={c}, alpha={alpha})")

        smooth = act.smooth_ash(x, z_k=z, alpha=alpha).data
        hard = act.hard_ash(x, z).data
        _check(np.all(np.abs(smooth - hard) <= np.abs(data) + 1e-15),
               f"trial {trial}: sandwich bound |smooth-hard| <= |x| violated")

        out = act.hard_ash(x, z).data
        _check(np.all((out == 0.0) | (out == data)),
               f"trial {trial}: hard form altered a kept element")

    x = randn([20_000], RngState(51))
    stats = st.compute_stats(x)
    fracs = [float(np.mean(x.data >= stats.threshold(z)))
             for z in np.linspace(-3.0, 3.0, 25)]
    _check(all(a >= b for a, b in zip(fracs, fracs[1:])),
           "kept fraction is not non-increasing in z")
    lifted = st.compute_stats(Tensor(x.data + 2.5))
    _check(lifted.threshold(0.5) > stats.threshold(0.5),
           "threshold did not increase with the input mean")
    _check(lifted.threshold(0.5) != stats.threshold(0.5),
           "inputs with different statistics share a threshold")


def suite_zscore_normalization() -> None:
    rng = np.random.default_rng(61)
    for trial in range(50):
        data = rng.normal(rng.normal() * 5, 0.1 + rng.uniform() * 9, 512)
        out = st.zscore(Tensor(data))
        stats = st.compute_stats(out)
        _check(abs(stats.mu) < 1e-10, f"trial {trial}: zscore mean {stats.mu:.2e}")
        _check(abs(stats.sigma - 1.0) < 1e-10, f"trial {trial}: zscore std {stats.sigma}")
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.normal() * 3.0)
        affine = st.zscore(Tensor(a * data + b))
        _check(np.allclose(out.data, affine.data, atol=1e-10),
               f"trial {trial}: zscore not affine-invariant (a={a}, b={b})")
    flat = st.zscore(Tensor(np.full(16, 3.25)))
    _check(np.all(flat.data == 0.0), "zscore of constant input is not all-zero")


SUITES = [
    ("z_table", suite_z_table),
    ("percentile_fidelity", suite_percentile_fidelity),
    ("selection_oracle", suite_selection_oracle),
    ("tensor_kernels", suite_tensor_kernels),
    ("gradient_checks", suite_gradient_checks),
    ("hard_threshold_gradients", suite_hard_threshold_gradients),
    ("swish_generalization", suite_swish_generalization),
    ("sharpness_limit", suite_sharpness_limit),
    ("mask_invariances", suite_mask_invariances),
    ("zscore_normalization", suite_zscore_normalization),
]


def run_all(names: list[str] | None = None) -> list[SuiteResult]:
    wanted = set(names) if names else None
    if wanted is not None:
        unknown = wanted - {name for name, _ in SUITES}
        if unknown:
            raise ValueError(f"unknown suites {sorted(unknown)}; "
                             f"valid: {[name for name, _ in SUITES]}")
    results = []
    for name, fn in SUITES:
        if wanted is not None and name not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            fn()
            results.append(SuiteResult(name, True, "", (time.perf_counter() - t0) * 1e3))
        except SuiteFailure as exc:
            results.append(SuiteResult(name, False, str(exc), (time.perf_counter() - t0) * 1e3))
    return results
