"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` (or -s for the PASS
lines); each test prints a one-line verdict when it completes.
"""

from pathlib import Path

import numpy as np

from ashlab import activations as act
from ashlab import autodiff as ad
from ashlab import nn
from ashlab import stats as st
from ashlab.harness import cli, datasets
from ashlab.tensor import RngState, Tensor, randn


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


class TestC01ZTableAnchor:
    def test_table_cli_prints_196(self, capsys):
        assert cli.main(["table", "--k", "2.5"]) == 0
        printed = capsys.readouterr().out.strip()
        assert abs(float(printed) - 1.95996) <= 0.00001
        assert printed == "1.95996"
        report("C01 z-table anchor (k=2.5% -> 1.95996)")


class TestC02PercentileFidelity:
    def test_kept_fraction_within_one_point(self):
        x = randn([100_000], RngState(2024))
        stats = st.compute_stats(x)
        for k in (10.0, 30.0, 50.0, 80.0):
            thr = stats.threshold(st.z_from_percentile(k))
            frac = float(np.mean(x.data >= thr))
            assert abs(frac - k / 100.0) <= 0.01, f"k={k}: kept {frac:.4f}"
        report("C02 percentile fidelity on 1e5 draws (k in {10,30,50,80})")


class TestC03OracleAgreement:
    def test_jaccard_at_least_090(self):
        x = randn([10_000], RngState(7))
        for k in (10.0, 30.0, 50.0, 80.0):
            gauss = st.gaussian_topk_mask(x, k).mask
            exact = st.exact_topk_mask(x, k).mask
            jac = float(np.sum(gauss & exact)) / float(np.sum(gauss | exact))
            assert jac >= 0.90, f"k={k}: jaccard {jac:.4f}"
        report("C03 Gaussian-threshold vs quickselect Jaccard >= 0.90")


class TestC04SwishGeneralization:
    def test_pointwise_identity(self):
        grid = Tensor(np.linspace(-10.0, 10.0, 10_000))
        diff = np.max(np.abs(act.gen_swish(grid, 1.0, 0.0).data - act.swish(grid).data))
        assert diff < 1e-12

    def test_end_to_end_training_curves_match(self, tmp_path):
        out = str(tmp_path / "cmp")
        code = cli.main(["compare", "--activations", "swish,gen_swish_frozen",
                         "--dataset", "two_moons(n=128,noise=0.1,seed=3)",
                         "--seeds", "1", "--epochs", "25", "--out", out])
        assert code == 0
        rows = [l.split(",") for l in
                Path(out, "curves.csv").read_text().splitlines()[1:]]
        swish = [float(r[4]) for r in rows if r[1] == "swish"]
        gen = [float(r[4]) for r in rows if r[1] == "gen_swish_frozen"]
        assert len(swish) == len(gen) == 25
        worst = max(abs(a - b) for a, b in zip(swish, gen))
        assert worst < 1e-9, f"per-epoch val-loss diff {worst:.2e}"
        report("C04 generalized form recovers swish (grid < 1e-12, curves < 1e-9)")


class TestC05SharpnessLimit:
    def test_alpha_1000_matches_hard_form_off_band(self):
        x = randn([50_000], RngState(31))
        stats = st.compute_stats(x)
        thr = stats.threshold(0.3)
        off_band = np.abs(x.data - thr) >= 0.01
        smooth = act.smooth_ash(x, z_k=0.3, alpha=1000.0).data
        hard = act.hard_ash(x, 0.3).data
        worst = float(np.max(np.abs(smooth - hard)[off_band]))
        assert worst < 1e-3, f"off-band diff {worst:.2e}"

    def test_tanh_and_sigmoid_writings_agree(self):
        x = randn([20_000], RngState(32))
        thr = st.compute_stats(x).threshold(0.3)
        for alpha in (1.0, 10.0, 1000.0):
            sig = act.smooth_ash(x, z_k=0.3, alpha=alpha).data
            tnh = 0.5 * x.data + 0.5 * x.data * np.tanh(alpha * (x.data - thr))
            assert np.max(np.abs(sig - tnh)) < 1e-12
        report("C05 sharp-gate limit (alpha=1e3) and tanh/sigmoid identity")


class TestC06ConditionalGradients:
    def test_hard_theta_grad_zero_and_smooth_z_grad_live(self):
        rng = np.random.default_rng(606)
        for _ in range(100):
            data = Tensor(rng.normal(0, 1, 64))
            tape = ad.Tape()
            xv = tape.variable(data, requires_grad=True)
            theta = tape.variable(Tensor([float(rng.normal() * 0.5)]), requires_grad=True)
            ad.backward(ad.sum_all(act.conditional_unit(xv, 1.0, theta)))
            assert np.all(theta.grad.data == 0.0)

        xx = Tensor(rng.normal(0, 1, 512))

        def f(zv):
            return ad.sum_all(act.smooth_ash(zv.tape.variable(xx), z_k=zv))

        rep = ad.fd_check(f, Tensor([0.15]))
        assert float(np.max(np.abs(rep.analytic))) > 0.0
        assert rep.max_rel_err < 1e-4, f"z grad rel err {rep.max_rel_err:.2e}"
        report("C06 conditional threshold grad == 0; smooth z grad matches fd")


class TestC07GradientSuite:
    ZOO = [
        ("relu", lambda v: ad.sum_all(act.relu(v))),
        ("lrelu", lambda v: ad.sum_all(act.lrelu(v, 0.01))),
        ("prelu", None),  # handled separately with a trainable slope
        ("softplus", lambda v: ad.sum_all(act.softplus(v))),
        ("elu", lambda v: ad.sum_all(act.elu(v))),
        ("selu", lambda v: ad.sum_all(act.selu(v))),
        ("gelu", lambda v: ad.sum_all(act.gelu(v))),
        ("swish", lambda v: ad.sum_all(act.swish(v))),
        ("gen_swish", lambda v: ad.sum_all(act.gen_swish(v, 1.3, -0.4))),
        ("smooth_ash", lambda v: ad.sum_all(act.smooth_ash(v, z_k=0.3, alpha=1.5))),
        ("leaky_ash", lambda v: ad.sum_all(act.leaky_ash(v, z_k=0.2, leak=0.1))),
        ("fixed_ash", lambda v: ad.sum_all(act.fixed_ash(v, k=30.0))),
    ]

    def test_whole_zoo_passes_fd(self):
        rng = np.random.default_rng(1234)
        d = rng.normal(0, 2, 100)
        while np.any(np.abs(d) < 1e-5):
            d = np.where(np.abs(d) < 1e-5, rng.normal(0, 2, 100), d)
        x = Tensor(d)
        for name, f in self.ZOO:
            if f is None:
                continue
            rep = ad.fd_check(f, x, h=1e-6)
            assert rep.max_rel_err < 1e-4, f"{name}: {rep.max_rel_err:.2e}"
        base = Tensor(rng.normal(0, 1, 100))
        rep = ad.fd_check(lambda p: ad.sum_all(act.prelu(p.tape.variable(base), p)),
                          Tensor([0.2]), h=1e-6)
        assert rep.max_rel_err < 1e-4, f"prelu slope: {rep.max_rel_err:.2e}"
        report("C07 gradient suite over the zoo (rel err < 1e-4 at h=1e-6)")


class TestC08Trainability:
    def test_two_moons_accuracy_and_moving_threshold(self):
        data = datasets.two_moons(256, noise=0.1, seed=1)
        layers = [
            nn.Dense(2, 16), nn.Activation(act.preset("ash")),
            nn.Dense(16, 16), nn.Activation(act.preset("ash")),
            nn.Dense(16, 2),
        ]
        model = nn.Model(layers, seed=0)
        cfg = nn.TrainConfig(epochs=500, batch_size=32, seed=0,
                             optimizer=nn.OptimizerSpec(kind="adam", lr=1e-3))
        records = nn.train(model, cfg, data)
        _, train_acc = nn.evaluate(model, *data)
        assert train_acc >= 0.95, f"train accuracy {train_acc:.3f}"
        final_z = [abs(v) for vs in records[-1].zk_snapshot.values() for v in vs]
        assert max(final_z) > 1e-3, f"z_k stayed at init: {records[-1].zk_snapshot}"
        report(f"C08 trainability (acc {train_acc:.3f}, max |z_k| {max(final_z):.3f})")


class TestC09GaussianOutputDiagnostic:
    def test_dense_layer_outputs_near_normal(self):
        model = nn.Model([nn.Dense(256, 1)], seed=42)
        x = Tensor(np.random.default_rng(42).uniform(0.0, 1.0, size=(100_000, 256)))
        out, _ = model.forward(x, trainable=False)
        assert isinstance(out, Tensor)
        rep = st.normality_report(out)
        assert abs(rep.skewness) < 0.2, f"skew {rep.skewness:.4f}"
        assert abs(rep.excess_kurtosis) < 0.3, f"exkurt {rep.excess_kurtosis:.4f}"
        report(f"C09 dense-output normality (skew {rep.skewness:+.3f}, "
               f"exkurt {rep.excess_kurtosis:+.3f})")


class TestC10ComparisonRun:
    ACTIVATIONS = "relu,swish,ash,l_ash,f_ash_10,f_ash_50,f_ash_90"

    def test_comparison_is_deterministic_and_well_formed(self, tmp_path):
        outs = [str(tmp_path / f"cmp{i}") for i in range(2)]
        for out in outs:
            code = cli.main(["compare", "--activations", self.ACTIVATIONS,
                             "--dataset", "two_moons(n=256,noise=0.1,seed=1)",
                             "--seeds", "5", "--epochs", "30", "--out", out])
            assert code == 0
        for name in ("curves.csv", "mean_curves.csv", "convergence.csv"):
            a = Path(outs[0], name).read_text()
            b = Path(outs[1], name).read_text()
            assert a == b, f"{name} not deterministic"

        curves = Path(outs[0], "curves.csv").read_text().splitlines()
        assert curves[0] == "epoch,activation,seed,train_loss,val_loss,val_acc"
        assert len(curves) == 1 + 7 * 5 * 30
        mean = Path(outs[0], "mean_curves.csv").read_text().splitlines()
        assert mean[0] == "epoch,activation,mean_train_loss,mean_val_loss,mean_val_acc"
        assert len(mean) == 1 + 7 * 30
        for line in mean[1:]:
            cols = line.split(",")
            assert cols[1] in self.ACTIVATIONS.split(",")
            float(cols[2]), float(cols[3]), float(cols[4])

        conv = Path(outs[0], "convergence.csv").read_text().splitlines()
        assert conv[0] == "activation,seed,status,cut,epochs_to_threshold"
        assert len(conv) == 1 + 7 * 5
        statuses = {line.split(",")[2] for line in conv[1:]}
        assert statuses <= {"ok", "failed"}
        # Report (not assert) the mean-final-loss ordering.
        finals = {}
        for line in mean[1:]:
            cols = line.split(",")
            if int(cols[0]) == 29:
                finals[cols[1]] = float(cols[3])
        ordering = sorted(finals, key=finals.get)
        print(f"  final mean val_loss ordering: {ordering}")
        report("C10 comparison run (7 activations x 5 seeds, deterministic CSVs)")


class TestC11InvarianceSuite:
    def test_two_hundred_randomized_trials_each(self):
        rng = np.random.default_rng(1111)
        for trial in range(200):
            data = rng.normal(rng.normal(), 0.5 + rng.uniform(), 100)
            x = Tensor(data)
            z = float(rng.normal() * 0.8)
            k = float(rng.uniform(5.0, 95.0))
            c = float(rng.uniform(0.1, 4.0))
            alpha = float(rng.uniform(0.5, 2.0))
            shift = float(rng.normal() * 10.0)

            base_mask = st.gaussian_topk_mask(x, k).mask
            assert np.array_equal(base_mask, st.gaussian_topk_mask(Tensor(data + shift), k).mask), \
                f"trial {trial}: shift invariance"
            assert np.array_equal(base_mask, st.gaussian_topk_mask(Tensor(c * data), k).mask), \
                f"trial {trial}: scale invariance"

            np.testing.assert_allclose(
                act.hard_ash(Tensor(c * data), z).data, c * act.hard_ash(x, z).data,
                rtol=1e-12, atol=1e-12, err_msg=f"trial {trial}: homogeneity")

            np.testing.assert_allclose(
                act.smooth_ash(Tensor(c * data), z_k=z, alpha=alpha).data,
                c * act.smooth_ash(x, z_k=z, alpha=alpha * c).data,
                rtol=1e-12, atol=1e-12, err_msg=f"trial {trial}: scale relation")

            smooth = act.smooth_ash(x, z_k=z, alpha=alpha).data
            hard = act.hard_ash(x, z).data
            assert np.all(np.abs(smooth - hard) <= np.abs(data) + 1e-15), \
                f"trial {trial}: sandwich bound"
        report("C11 invariance suite (shift/scale/homogeneity/sandwich, 200 trials)")
