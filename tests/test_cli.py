"""Command-line surface: subcommands, exit codes, artifacts."""

import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from ashlab import autodiff as ad
from ashlab.harness import bench as bench_mod
from ashlab.harness import cli, journal
from ashlab.tensor import Tensor

CONFIG = {
    "model": {"layers": [
        {"kind": "dense", "in": 2, "out": 8},
        {"kind": "activation", "spec": {"kind": "smooth_ash"}},
        {"kind": "dense", "in": 8, "out": 2},
    ]},
    "train": {"optimizer": {"kind": "adam", "lr": 0.001}, "batch_size": 32,
              "epochs": 3, "seed": 0, "loss": "softmax_xent", "val_split": 0.25},
    "dataset": {"builtin": "two_moons", "n": 64, "noise": 0.1, "seed": 1},
}


def write_config(tmp_path, doc=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc or CONFIG))
    return str(path)


class TestTable:
    def test_paper_anchor(self, capsys):
        assert cli.main(["table", "--k", "2.5"]) == 0
        assert capsys.readouterr().out.strip() == "1.95996"

    def test_median(self, capsys):
        assert cli.main(["table", "--k", "50"]) == 0
        assert capsys.readouterr().out.strip() == "0.00000"

    def test_k10(self, capsys):
        assert cli.main(["table", "--k", "10"]) == 0
        assert capsys.readouterr().out.strip() == "1.28155"

    @pytest.mark.parametrize("k", ["0", "100", "-5", "250"])
    def test_out_of_range_is_usage_error(self, k, capsys):
        assert cli.main(["table", "--k", k]) == 2

    def test_missing_argument(self, capsys):
        assert cli.main(["table"]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2


class TestVerifyCommand:
    def test_fast_suites_pass(self, capsys):
        code = cli.main(["verify", "--suite", "z_table", "--suite", "tensor_kernels",
                         "--suite", "swish_generalization"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 3
        assert "3/3 suites passed" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert cli.main(["verify", "--suite", "not_a_suite"]) == 2

    def test_fault_injection_fails_gradient_suite(self, capsys, monkeypatch):
        # Flip one backward rule: sigmoid's vjp loses its s*(1-s) factor.
        real_record = ad.record

        def broken_sigmoid(a):
            x = a.value.data
            t = np.exp(-np.abs(x))
            s = np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))
            return real_record(a.tape, "sigmoid", (a,), Tensor._wrap(s),
                               lambda g, needs: (g,))  # wrong rule

        monkeypatch.setattr(ad, "sigmoid", broken_sigmoid)
        code = cli.main(["verify", "--suite", "gradient_checks"])
        captured = capsys.readouterr()
        assert code == 1
        assert "gradient_checks" in captured.out
        assert "FAIL" in captured.out
        assert "rel err" in captured.err  # failing case echoed


class TestTrainCommand:
    def test_zero_epochs_empty_journal(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG))
        doc["train"]["epochs"] = 0
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "run")
        assert cli.main(["train", "--config", cfg, "--out", out]) == 0
        assert Path(out, "metrics.jsonl").read_text() == ""

    def test_journals_identical_modulo_wall_time(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        outs = [str(tmp_path / f"run{i}") for i in range(2)]
        for out in outs:
            assert cli.main(["train", "--config", cfg, "--out", out]) == 0
        strip = lambda line: {k: v for k, v in json.loads(line).items() if k != "wall_ms"}
        a, b = ([strip(l) for l in Path(out, "metrics.jsonl").read_text().splitlines()]
                for out in outs)
        assert a == b and len(a) == 3

    def test_model_dump_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert cli.main(["train", "--config", cfg, "--out", out]) == 0
        params = journal.load_model_dump(os.path.join(out, "model.bin"))
        assert "dense0.W" in params and params["dense0.W"].shape == (2, 8)
        assert "act1.z_k" in params

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG))
        doc["typo"] = True
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(tmp_path / "none.json"),
                         "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_is_exit_3(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG))
        doc["train"]["optimizer"] = {"kind": "sgd", "lr": 1e200}
        doc["train"]["epochs"] = 5
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence_during_validation_is_exit_3(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG))
        doc["model"]["layers"] = [
            {"kind": "dense", "in": 2, "out": 16},
            {"kind": "activation", "spec": {"kind": "elu"}},
            {"kind": "dense", "in": 16, "out": 2},
        ]
        doc["train"].update(optimizer={"kind": "sgd", "lr": 1e40}, val_split=0.0)
        doc["dataset"]["seed"] = 0
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        assert "in dense2 (validation)" in capsys.readouterr().err

    def test_out_of_range_label_is_exit_2(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("x0,x1,label\n0.1,0.2,0\n0.3,0.1,5\n0.5,0.5,1\n0.2,0.9,0\n")
        doc = json.loads(json.dumps(CONFIG))
        doc["dataset"] = {"csv": str(data)}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "class label 5 is out of range for 2 classes" in err
        assert "diverged" not in err

    def test_empty_training_split_is_exit_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG))
        doc["dataset"] = {"builtin": "two_moons", "n": 2}
        doc["train"]["val_split"] = 0.75
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "error: val_split 0.75 leaves no training rows: 2 of 2 rows go to validation\n")

    @pytest.mark.parametrize("mistake", ["label", "split"])
    def test_data_mistake_writes_nothing(self, tmp_path, capsys, mistake):
        doc = json.loads(json.dumps(CONFIG))
        if mistake == "label":
            data = tmp_path / "labels.csv"
            data.write_text("x0,x1,label\n" + "0.1,0.2,0\n0.5,0.5,1\n" * 4 + "0.3,0.1,5\n")
            doc["dataset"] = {"csv": str(data)}
        else:
            doc["dataset"] = {"builtin": "two_moons", "n": 2}
            doc["train"]["val_split"] = 0.75
        out = tmp_path / "x"
        assert cli.main(["train", "--config", write_config(tmp_path, doc),
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_divergence_prints_no_runtime_warning(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG))
        doc["train"]["optimizer"] = {"kind": "sgd", "lr": 1e200}
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        assert "diverged" in capsys.readouterr().err
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []

    def test_layer_shape_mismatch_is_exit_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG))
        doc["model"]["layers"][0]["in"] = 3
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "dense0" in err and "diverged" not in err

    @pytest.mark.parametrize("spec", [
        {"kind": "smooth_ash", "stats_mode": "per-channel"},   # rank-2 input
        {"kind": "smooth_ash", "per_channel_z": True, "channels": 5},  # 8 channels
    ])
    def test_activation_shape_mismatch_is_exit_2(self, tmp_path, capsys, spec):
        doc = json.loads(json.dumps(CONFIG))
        doc["model"]["layers"][1]["spec"] = spec
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "diverged" not in capsys.readouterr().err

    def test_activation_shape_error_names_its_layer(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG))
        doc["model"]["layers"][1]["spec"] = {"kind": "smooth_ash", "per_channel_z": True,
                                             "channels": 5}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "act1: z must be" in capsys.readouterr().err

    def test_null_activation_field_is_exit_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CONFIG))
        doc["model"]["layers"][1]["spec"] = {"kind": "smooth_ash", "alpha": None}
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "'alpha'" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["train"].update(epochs=None),
         "train: field 'epochs' must be an integer, got None"),
        (lambda d: d["model"]["layers"].insert(
            0, {"kind": "conv2d", "kh": 0, "kw": 1, "cin": 1, "cout": 1}),
         "model.layers[0]: kh must be >= 1, got 0"),
        (lambda d: d["train"]["optimizer"].update(beta1=1.0),
         "train.optimizer: beta1 must lie in [0, 1), got 1.0"),
        (lambda d: d["train"]["optimizer"].update(lr=float("nan")),
         "train.optimizer: field 'lr' must be a finite number, got nan"),
    ], ids=["epochs-null", "conv-kh-0", "beta1-1", "lr-nan"])
    def test_malformed_config_is_exit_2(self, tmp_path, capsys, mutate, message):
        doc = json.loads(json.dumps(CONFIG))
        mutate(doc)
        cfg = write_config(tmp_path, doc)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        base, alt = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["train", "--config", cfg, "--out", base]) == 0
        monkeypatch.setenv("ASHLAB_SEED", "123")
        assert cli.main(["train", "--config", cfg, "--out", alt]) == 0
        a, b = ([json.loads(l)["train_loss"]
                 for l in Path(out, "metrics.jsonl").read_text().splitlines()]
                for out in (base, alt))
        assert a != b

    def test_bad_env_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("ASHLAB_SEED", "not-a-number")
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_conv_model_on_idx_dataset(self, tmp_path, capsys):
        import struct

        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(24, 5, 5), dtype=np.uint8)
        labels = rng.integers(0, 2, size=24, dtype=np.uint8)
        images_path = tmp_path / "images.idx"
        labels_path = tmp_path / "labels.idx"
        images_path.write_bytes(struct.pack(">IIII", 0x803, 24, 5, 5) + pixels.tobytes())
        labels_path.write_bytes(struct.pack(">II", 0x801, 24) + labels.tobytes())

        doc = {
            "model": {"layers": [
                {"kind": "conv2d", "kh": 3, "kw": 3, "cin": 1, "cout": 4},
                {"kind": "activation", "spec": {"kind": "smooth_ash",
                                                "stats_mode": "per-channel"}},
                {"kind": "flatten"},
                {"kind": "dense", "in": 36, "out": 2},
            ]},
            "train": {"optimizer": {"kind": "adam", "lr": 0.01}, "batch_size": 8,
                      "epochs": 3, "seed": 0, "loss": "softmax_xent", "val_split": 0.0},
            "dataset": {"idx": {"images": str(images_path), "labels": str(labels_path)}},
        }
        cfg = write_config(tmp_path, doc, name="conv.json")
        out = str(tmp_path / "run")
        assert cli.main(["train", "--config", cfg, "--out", out]) == 0
        recs = [json.loads(l) for l in Path(out, "metrics.jsonl").read_text().splitlines()]
        assert len(recs) == 3 and all(np.isfinite(r["train_loss"]) for r in recs)
        params = journal.load_model_dump(os.path.join(out, "model.bin"))
        assert params["conv0.W"].shape == (9, 4)


class TestCompareCommand:
    def test_single_run_row_count(self, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        code = cli.main(["compare", "--activations", "relu",
                         "--dataset", "two_moons(n=64,noise=0.1,seed=1)",
                         "--seeds", "1", "--epochs", "4", "--out", out])
        assert code == 0
        lines = Path(out, "curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,activation,seed,train_loss,val_loss,val_acc"
        assert len(lines) == 1 + 4  # exactly `epochs` data rows

    def test_swish_equals_frozen_generalized_end_to_end(self, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        code = cli.main(["compare", "--activations", "swish,gen_swish_frozen",
                         "--dataset", "two_moons(n=96,noise=0.1,seed=2)",
                         "--seeds", "1", "--epochs", "6", "--out", out])
        assert code == 0
        rows = [l.split(",") for l in Path(out, "curves.csv").read_text().splitlines()[1:]]
        swish = [float(r[4]) for r in rows if r[1] == "swish"]
        gen = [float(r[4]) for r in rows if r[1] == "gen_swish_frozen"]
        assert len(swish) == len(gen) == 6
        assert max(abs(a - b) for a, b in zip(swish, gen)) < 1e-9

    def test_env_seed_shifts_sweep(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "cmp")
        monkeypatch.setenv("ASHLAB_SEED", "7")
        code = cli.main(["compare", "--activations", "relu",
                         "--dataset", "two_moons(n=64,noise=0.1,seed=1)",
                         "--seeds", "2", "--epochs", "2", "--out", out])
        assert code == 0
        rows = [l.split(",") for l in Path(out, "curves.csv").read_text().splitlines()[1:]]
        assert sorted({r[2] for r in rows}) == ["7", "8"]

    def test_unknown_activation_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["compare", "--activations", "relu,bogus",
                         "--dataset", "two_moons", "--seeds", "1",
                         "--out", str(tmp_path / "x")]) == 2

    def test_bad_dataset_spec_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["compare", "--activations", "relu",
                         "--dataset", "two_moons(n=64", "--seeds", "1",
                         "--out", str(tmp_path / "x")]) == 2
        assert cli.main(["compare", "--activations", "relu",
                         "--dataset", "two_moons(frobs=2)", "--seeds", "1",
                         "--out", str(tmp_path / "x")]) == 2

    def test_empty_training_split_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["compare", "--activations", "relu",
                         "--dataset", "two_moons(n=2)", "--val-split", "0.9",
                         "--out", str(tmp_path / "x")]) == 2
        assert "val_split 0.9 leaves no training rows: 2 of 2" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", ["nan", "inf", "-inf"])
    def test_non_finite_cut_is_usage_error_before_training(self, tmp_path, capsys, cut):
        out = tmp_path / "x"
        assert cli.main(["compare", "--activations", "relu",
                         "--dataset", "two_moons(n=16)", "--epochs", "1",
                         f"--cut={cut}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --cut must be a finite number, got {float(cut)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("dataset,message", [
        ("two_moons(n=1e3)", "dataset: field 'n' must be an integer, got '1e3'"),
        ("two_moons(noise=nan)", "dataset: field 'noise' must be a finite number, got nan"),
        ("two_moons(frobs=2)", "unknown keys ['frobs'] in dataset"),
    ])
    def test_dataset_options_go_through_the_config_reader(self, tmp_path, capsys,
                                                          dataset, message):
        assert cli.main(["compare", "--activations", "relu", "--dataset", dataset,
                         "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestBenchCommand:
    def test_single_size_csv(self, capsys):
        assert cli.main(["bench", "--activation", "ash", "--sizes", "1000"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "size,method,ns_per_elem"
        assert len(lines) == 4  # three methods for one size
        methods = {l.split(",")[1] for l in lines[1:]}
        assert methods == {"ash", "quickselect", "full_sort"}
        for line in lines[1:]:
            size, _, ns = line.split(",")
            assert int(size) == 1000 and float(ns) > 0.0
        assert "full_sort/quickselect" in captured.err  # ratio on stderr

    def test_scientific_notation_sizes(self, capsys):
        assert cli.main(["bench", "--activation", "relu", "--sizes", "1e3,2e3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 6

    def test_zero_size_is_usage_error(self, capsys):
        assert cli.main(["bench", "--activation", "ash", "--sizes", "0"]) == 2

    def test_infinite_size_is_usage_error(self, capsys):
        assert cli.main(["bench", "--activation", "ash", "--sizes", "inf"]) == 2

    def test_unknown_activation_is_usage_error(self, capsys):
        assert cli.main(["bench", "--activation", "bogus", "--sizes", "10"]) == 2

    @pytest.mark.parametrize("k", [math.nan, 0.0, -5.0, 250.0])
    def test_bad_k_rejected_before_any_timing(self, k, monkeypatch):
        calls = []
        monkeypatch.setattr(bench_mod, "_median_time_ns",
                            lambda fn, reps=9: calls.append(fn) or 1.0)
        with pytest.raises(ValueError, match="percentile"):
            bench_mod.run_bench("ash", [4096], k=k)
        assert calls == []

    def test_bad_k_is_usage_error(self, capsys):
        assert cli.main(["bench", "--activation", "ash", "--sizes", "10", "--k", "nan"]) == 2
