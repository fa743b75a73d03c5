"""Config schema, metrics journal, model dump, comparison CSVs."""

import json
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ashlab import nn
from ashlab.harness import compare, config, journal
from ashlab.harness.config import ConfigError
from ashlab.tensor import Tensor

GOOD_DOC = {
    "model": {"layers": [
        {"kind": "dense", "in": 2, "out": 8},
        {"kind": "activation", "spec": {"kind": "smooth_ash", "alpha": 1.0,
                                        "z_k_init": 0.0, "grad_mode": "through-stats"}},
        {"kind": "dense", "in": 8, "out": 2},
    ]},
    "train": {"optimizer": {"kind": "adam", "lr": 0.001}, "batch_size": 32,
              "epochs": 5, "seed": 0, "loss": "softmax_xent", "val_split": 0.25},
    "dataset": {"builtin": "two_moons", "n": 64, "noise": 0.1, "seed": 1},
    "out_dir": "runs/demo",
}
NAN = float("nan")


class TestConfig:
    def test_parse_and_round_trip_identity(self):
        cfg = config.parse_config(GOOD_DOC)
        again = config.parse_config(config.config_to_json(cfg))
        assert cfg == again

    def test_parse_from_json_text(self):
        cfg = config.parse_config(json.dumps(GOOD_DOC))
        assert cfg.train.epochs == 5
        assert cfg.dataset.builtin == "two_moons"
        assert isinstance(cfg.layers[1], nn.Activation)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(extra=1),
        lambda d: d["model"].update(name="x"),
        lambda d: d["model"]["layers"][0].update(bias=True),
        lambda d: d["train"].update(lr=0.1),
        lambda d: d["train"]["optimizer"].update(nesterov=True),
        lambda d: d["dataset"].update(shuffle=True),
        lambda d: d["model"]["layers"][1]["spec"].update(beta=2.0),
    ])
    def test_unknown_keys_rejected(self, mutate):
        doc = json.loads(json.dumps(GOOD_DOC))
        mutate(doc)
        with pytest.raises(ConfigError):
            config.parse_config(doc)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("model"),
        lambda d: d.pop("train"),
        lambda d: d.pop("dataset"),
        lambda d: d["train"].pop("epochs"),
        lambda d: d["model"]["layers"][0].pop("out"),
    ])
    def test_missing_keys_rejected(self, mutate):
        doc = json.loads(json.dumps(GOOD_DOC))
        mutate(doc)
        with pytest.raises(ConfigError):
            config.parse_config(doc)

    def test_bad_values_rejected(self):
        doc = json.loads(json.dumps(GOOD_DOC))
        doc["train"]["optimizer"]["lr"] = 0.0
        with pytest.raises(ConfigError):
            config.parse_config(doc)
        doc = json.loads(json.dumps(GOOD_DOC))
        doc["dataset"] = {"builtin": "imagenet"}
        with pytest.raises(ConfigError):
            config.parse_config(doc)
        doc = json.loads(json.dumps(GOOD_DOC))
        doc["train"]["loss"] = "hinge"
        with pytest.raises(ConfigError):
            config.parse_config(doc)

    def test_sgd_and_file_datasets_round_trip(self):
        doc = json.loads(json.dumps(GOOD_DOC))
        doc["train"]["optimizer"] = {"kind": "sgd", "lr": 0.1, "momentum": 0.9}
        doc["dataset"] = {"idx": {"images": "a.idx", "labels": "b.idx"}}
        cfg = config.parse_config(doc)
        assert cfg == config.parse_config(config.config_to_json(cfg))
        doc["dataset"] = {"csv": "data.csv"}
        cfg = config.parse_config(doc)
        assert cfg == config.parse_config(config.config_to_json(cfg))

    @pytest.mark.parametrize("where,key,mutate", [
        pytest.param("train", "epochs", lambda d: d["train"].update(epochs=None),
                     id="train-epochs-null"),
        pytest.param("train", "epochs", lambda d: d["train"].update(epochs=2.7),
                     id="train-epochs-fractional"),
        pytest.param("train", "batch_size", lambda d: d["train"].update(batch_size=True),
                     id="train-batch_size-bool"),
        pytest.param("train", "seed", lambda d: d["train"].update(seed="5"),
                     id="train-seed-string"),
        pytest.param("train", "val_split", lambda d: d["train"].update(val_split=NAN),
                     id="train-val_split-nan"),
        pytest.param("train", "loss", lambda d: d["train"].update(loss=5),
                     id="train-loss-number"),
        pytest.param("train.optimizer", "lr", lambda d: d["train"]["optimizer"].update(lr="0.1"),
                     id="adam-lr-string"),
        pytest.param("train.optimizer", "lr", lambda d: d["train"]["optimizer"].update(lr=NAN),
                     id="adam-lr-nan"),
        pytest.param("train.optimizer", "eps", lambda d: d["train"]["optimizer"].update(eps=None),
                     id="adam-eps-null"),
        pytest.param("train.optimizer", "momentum",
                     lambda d: d["train"].update(optimizer={"kind": "sgd", "momentum": True}),
                     id="sgd-momentum-bool"),
        pytest.param("dataset", "n", lambda d: d["dataset"].update(n=64.5),
                     id="builtin-n-fractional"),
        pytest.param("dataset", "noise", lambda d: d["dataset"].update(noise="0.1"),
                     id="builtin-noise-string"),
        pytest.param("dataset", "noise", lambda d: d["dataset"].update(noise=float("inf")),
                     id="builtin-noise-inf"),
        pytest.param("dataset", "seed", lambda d: d["dataset"].update(seed=True),
                     id="builtin-seed-bool"),
        pytest.param("dataset", "builtin", lambda d: d["dataset"].update(builtin=5),
                     id="builtin-name-number"),
        pytest.param("dataset.idx", "images",
                     lambda d: d.update(dataset={"idx": {"images": 1, "labels": "b.idx"}}),
                     id="idx-images-number"),
        pytest.param("dataset.idx", "labels",
                     lambda d: d.update(dataset={"idx": {"images": "a.idx", "labels": None}}),
                     id="idx-labels-null"),
        pytest.param("dataset", "csv", lambda d: d.update(dataset={"csv": None}),
                     id="csv-path-null"),
        pytest.param("dataset", "csv", lambda d: d.update(dataset={"csv": 3}),
                     id="csv-path-number"),
        pytest.param("model.layers[0]", "in", lambda d: d["model"]["layers"][0].update({"in": 2.5}),
                     id="dense-in-fractional"),
        pytest.param("model.layers[0]", "out", lambda d: d["model"]["layers"][0].update(out=True),
                     id="dense-out-bool"),
        pytest.param("model.layers[0]", "in", lambda d: d["model"]["layers"][0].update({"in": "2"}),
                     id="dense-in-string"),
        pytest.param("model.layers[0]", "kh", lambda d: d["model"]["layers"].insert(
                         0, {"kind": "conv2d", "kh": None, "kw": 1, "cin": 1, "cout": 1}),
                     id="conv2d-kh-null"),
        pytest.param("model.layers[0]", "cin", lambda d: d["model"]["layers"].insert(
                         0, {"kind": "conv2d", "kh": 1, "kw": 1, "cin": 1.5, "cout": 1}),
                     id="conv2d-cin-fractional"),
        pytest.param("model.layers[1]", "alpha",
                     lambda d: d["model"]["layers"][1]["spec"].update(alpha=float("-inf")),
                     id="activation-alpha-minus-inf"),
    ])
    def test_wrong_type_field_names_its_key(self, where, key, mutate):
        doc = json.loads(json.dumps(GOOD_DOC))
        mutate(doc)
        with pytest.raises(ConfigError) as err:
            config.parse_config(doc)
        assert str(err.value).startswith(where + ":")
        assert repr(key) in str(err.value)

    @pytest.mark.parametrize("where,mutate", [
        ("model.layers[0]", lambda d: d["model"]["layers"][0].update({"in": 0})),
        ("model.layers[0]", lambda d: d["model"]["layers"][0].update(out=-3)),
        ("model.layers[0]", lambda d: d["model"]["layers"].insert(
            0, {"kind": "conv2d", "kh": 0, "kw": 1, "cin": 1, "cout": 1})),
        ("train.optimizer", lambda d: d["train"]["optimizer"].update(beta1=1.0)),
        ("train.optimizer", lambda d: d["train"]["optimizer"].update(beta2=-0.5)),
        ("train.optimizer", lambda d: d["train"]["optimizer"].update(eps=0.0)),
        ("train.optimizer",
         lambda d: d["train"].update(optimizer={"kind": "sgd", "momentum": -0.1})),
    ], ids=["dense-in-0", "dense-out-negative", "conv2d-kh-0", "adam-beta1-1",
            "adam-beta2-negative", "adam-eps-0", "sgd-momentum-negative"])
    def test_out_of_range_value_rejected(self, where, mutate):
        doc = json.loads(json.dumps(GOOD_DOC))
        mutate(doc)
        with pytest.raises(ConfigError, match=r"^" + re.escape(where) + ":"):
            config.parse_config(doc)

    def test_absent_keys_take_the_dataclass_defaults(self):
        cfg = config.parse_config({"model": {"layers": [{"kind": "dense", "in": 2, "out": 2}]},
                                   "train": {"epochs": 1}, "dataset": {"builtin": "blobs"}})
        assert cfg.train == nn.TrainConfig(epochs=1)
        assert cfg.dataset == config.DatasetSpec("builtin", builtin="blobs")

    # config_to_json text, key order included, as written before the
    # field-table reader replaced the hand-written section parsers.
    @pytest.mark.parametrize("doc,text", [
        ({"model": {"layers": [
            {"kind": "dense", "in": 2, "out": 4},
            {"kind": "activation", "spec": {"kind": "smooth_ash", "per_channel_z": True,
                                            "channels": 4, "trainable_alpha": True}},
            {"kind": "dense", "in": 4, "out": 2}]},
          "train": {"optimizer": {"kind": "sgd", "lr": 1, "momentum": 0.9}, "batch_size": 16,
                    "epochs": 3, "seed": 7, "loss": "mse", "val_split": 0.25},
          "dataset": {"builtin": "spirals", "n": 64, "noise": 0, "seed": 2},
          "out_dir": "runs/pin"},
         '{"model": {"layers": [{"kind": "dense", "in": 2, "out": 4}, {"kind": "activation", '
         '"spec": {"kind": "smooth_ash", "z_k_init": 0.0, "alpha": 1.0, "stats_mode": '
         '"per-sample", "grad_mode": "through-stats", "trainable_alpha": true, '
         '"per_channel_z": true, "channels": 4}}, {"kind": "dense", "in": 4, "out": 2}]}, '
         '"train": {"optimizer": {"kind": "sgd", "lr": 1.0, "momentum": 0.9}, "batch_size": 16, '
         '"epochs": 3, "seed": 7, "loss": "mse", "val_split": 0.25}, "dataset": {"builtin": '
         '"spirals", "n": 64, "noise": 0.0, "seed": 2}, "out_dir": "runs/pin"}'),
        ({"model": {"layers": [
            {"kind": "conv2d", "kh": 3, "kw": 2, "cin": 1, "cout": 4},
            {"kind": "activation", "spec": {"kind": "leaky_ash", "leak_init": 0.05}},
            {"kind": "flatten"},
            {"kind": "dense", "in": 36, "out": 2}]},
          "train": {"optimizer": {"kind": "adam", "lr": 0.01, "beta1": 0.8, "beta2": 0.99,
                                  "eps": 1e-7},
                    "epochs": 2},
          "dataset": {"idx": {"images": "a.idx", "labels": "b.idx"}}},
         '{"model": {"layers": [{"kind": "conv2d", "kh": 3, "kw": 2, "cin": 1, "cout": 4}, '
         '{"kind": "activation", "spec": {"kind": "leaky_ash", "z_k_init": 0.0, "alpha": 1.0, '
         '"leak_init": 0.05, "stats_mode": "per-sample", "grad_mode": "through-stats"}}, '
         '{"kind": "flatten"}, {"kind": "dense", "in": 36, "out": 2}]}, "train": {"optimizer": '
         '{"kind": "adam", "lr": 0.01, "beta1": 0.8, "beta2": 0.99, "eps": 1e-07}, '
         '"batch_size": 32, "epochs": 2, "seed": 0, "loss": "softmax_xent", "val_split": 0.0}, '
         '"dataset": {"idx": {"images": "a.idx", "labels": "b.idx"}}}'),
        ({"model": {"layers": [
            {"kind": "dense", "in": 3, "out": 5},
            {"kind": "activation", "spec": {"kind": "fixed_ash", "k": 10}},
            {"kind": "dense", "in": 5, "out": 2}]},
          "train": {"epochs": 0, "optimizer": {"kind": "adam"}},
          "dataset": {"csv": "data.csv"}},
         '{"model": {"layers": [{"kind": "dense", "in": 3, "out": 5}, {"kind": "activation", '
         '"spec": {"kind": "fixed_ash", "k": 10.0, "alpha": 1.0, "stats_mode": "per-sample", '
         '"grad_mode": "through-stats"}}, {"kind": "dense", "in": 5, "out": 2}]}, "train": '
         '{"optimizer": {"kind": "adam", "lr": 0.001, "beta1": 0.9, "beta2": 0.999, '
         '"eps": 1e-08}, "batch_size": 32, "epochs": 0, "seed": 0, "loss": "softmax_xent", '
         '"val_split": 0.0}, "dataset": {"csv": "data.csv"}}'),
        ({"model": {"layers": [{"kind": "dense", "in": 2, "out": 2}]}, "train": {"epochs": 1},
          "dataset": {"builtin": "blobs"}},
         '{"model": {"layers": [{"kind": "dense", "in": 2, "out": 2}]}, "train": {"optimizer": '
         '{"kind": "adam", "lr": 0.001, "beta1": 0.9, "beta2": 0.999, "eps": 1e-08}, '
         '"batch_size": 32, "epochs": 1, "seed": 0, "loss": "softmax_xent", "val_split": 0.0}, '
         '"dataset": {"builtin": "blobs", "n": 256, "noise": 0.1, "seed": 0}}'),
    ], ids=["sgd-builtin", "conv-adam-idx", "defaults-csv", "all-defaults"])
    def test_config_to_json_text_pinned(self, doc, text):
        cfg = config.parse_config(doc)
        assert json.dumps(config.config_to_json(cfg)) == text
        assert config.parse_config(text) == cfg

    def test_builds_runnable_model(self):
        cfg = config.parse_config(GOOD_DOC)
        model = cfg.build_model()
        data = cfg.dataset.load()
        recs = nn.train(model, cfg.train, data)
        assert len(recs) == 5


class TestJournal:
    def make_records(self, n=4):
        return [nn.EpochRecord(epoch=i, train_loss=1.0 / (i + 1), val_loss=1.1 / (i + 1),
                               val_acc=min(1.0, 0.2 * i), zk_snapshot={"act1": [0.01 * i]},
                               wall_ms=3.25)
                for i in range(n)]

    def test_lines_are_standalone_json_and_increasing(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        with journal.JournalWriter(path) as w:
            for r in self.make_records():
                w.append(r)
        raw = Path(path).read_text()
        assert raw.endswith("\n")
        lines = raw.splitlines()
        epochs = [json.loads(line)["epoch"] for line in lines]
        assert epochs == sorted(epochs) == [0, 1, 2, 3]

    def test_read_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        records = self.make_records()
        with journal.JournalWriter(path) as w:
            for r in records:
                w.append(r)
        assert journal.read_journal(path) == records

    def test_non_increasing_epochs_rejected(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        records = self.make_records(2)
        with journal.JournalWriter(path) as w:
            w.append(records[1])
            w.append(records[0])
        with pytest.raises(ValueError, match="non-increasing"):
            journal.read_journal(path)

    def test_torn_last_line_dropped_with_warning(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        records = self.make_records(3)
        with journal.JournalWriter(path) as w:
            for r in records:
                w.append(r)
        full = Path(path).read_text()
        with open(path, "w") as f:
            f.write(full[: len(full) - 20])  # a crash mid-append of epoch 2
        with pytest.warns(UserWarning, match="metrics.jsonl.*torn"):
            assert journal.read_journal(path) == records[:2]

    def test_unterminated_complete_last_line_kept(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        records = self.make_records(2)
        with journal.JournalWriter(path) as w:
            for r in records:
                w.append(r)
        full = Path(path).read_text()
        with open(path, "w") as f:
            f.write(full.rstrip("\n"))
        assert journal.read_journal(path) == records

    @pytest.mark.parametrize("key,raw", [
        ("epoch", 2.7), ("train_loss", "1.5"), ("val_loss", True),
        ("val_acc", None), ("wall_ms", "NaN"), ("epoch", True),
    ])
    def test_wrong_type_field_raises(self, tmp_path, key, raw):
        # Read back with bare int()/float(), these would be 2, 1.5, 1.0, ...
        path = str(tmp_path / "metrics.jsonl")
        with journal.JournalWriter(path) as w:
            w.append(self.make_records(1)[0])
        line = json.loads(Path(path).read_text())
        line[key] = raw
        with open(path, "w") as f:
            f.write(json.dumps(line) + "\n")
        with pytest.raises(ValueError, match=f"journal field '{key}'"):
            journal.read_journal(path)

    def test_wrong_type_zk_snapshot_value_raises(self):
        obj = asdict(self.make_records(1)[0])
        obj["zk_snapshot"] = {"act0.z_k": ["0.5"]}
        with pytest.raises(ValueError, match="zk_snapshot"):
            journal.record_from_dict(obj)

    def test_malformed_terminated_line_raises(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        with journal.JournalWriter(path) as w:
            w.append(self.make_records(1)[0])
        with open(path, "a") as f:
            f.write('{"epoch": 1, "train\n')
        with pytest.raises(json.JSONDecodeError):
            journal.read_journal(path)

    def test_flush_leaves_complete_lines(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        w = journal.JournalWriter(path)
        w.append(self.make_records(1)[0])
        # Before close, the line must already be on disk and parseable.
        line = Path(path).read_text().splitlines()[0]
        assert json.loads(line)["epoch"] == 0
        w.close()


class TestModelDump:
    def test_round_trip_names_shapes_values(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "dense0.W": Tensor(rng.normal(size=(3, 4))),
            "dense0.b": Tensor(rng.normal(size=4)),
            "act1.z_k": Tensor([0.125]),
        }
        path = str(tmp_path / "model.bin")
        journal.save_model_dump(path, params)
        loaded = journal.load_model_dump(path)
        assert list(loaded) == list(params)
        for name, t in params.items():
            assert loaded[name].shape == t.shape
            assert np.array_equal(loaded[name], t.data)

    def test_header_is_little_endian(self, tmp_path):
        path = str(tmp_path / "model.bin")
        journal.save_model_dump(path, {"w": Tensor([1.0, 2.0])})
        raw = Path(path).read_bytes()
        assert struct.unpack("<I", raw[:4])[0] == 1        # one parameter
        assert struct.unpack("<I", raw[4:8])[0] == 1       # name length
        assert raw[8:9] == b"w"
        assert struct.unpack("<I", raw[9:13])[0] == 1      # rank
        assert struct.unpack("<I", raw[13:17])[0] == 2     # dim
        np.testing.assert_array_equal(np.frombuffer(raw[17:], dtype="<f8"), [1.0, 2.0])
        # A rank-0 and a rank-2 parameter: both headers come before both buffers.
        journal.save_model_dump(path, {"s": Tensor(0.5), "m": Tensor([[1.0, 2.0, 3.0]])})
        raw = Path(path).read_bytes()
        assert raw[:30] == struct.pack("<II1sI", 2, 1, b"s", 0) + struct.pack(
            "<I1sIII", 1, b"m", 2, 1, 3)
        np.testing.assert_array_equal(np.frombuffer(raw[30:], dtype="<f8"), [0.5, 1.0, 2.0, 3.0])

    def test_truncated_dump_rejected(self, tmp_path):
        path = str(tmp_path / "model.bin")
        journal.save_model_dump(path, {"w": Tensor([1.0, 2.0])})
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="truncated"):
            journal.load_model_dump(path)


    def test_name_length_past_the_file_is_truncation(self, tmp_path):
        # The name length claims 100 bytes; the file holds 17 after it, the
        # last of them the float64 1.0 (00..F0 3F), which is not UTF-8.
        path = str(tmp_path / "model.bin")
        journal.save_model_dump(path, {"w": Tensor([1.0])})
        raw = bytearray(Path(path).read_bytes())
        raw[4:8] = struct.pack("<I", 100)
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated model dump"):
            journal.load_model_dump(path)


class TestComparisonCsvs:
    def fake_results(self):
        def rec(e, vl):
            return nn.EpochRecord(epoch=e, train_loss=vl + 0.1, val_loss=vl,
                                  val_acc=0.5, zk_snapshot={}, wall_ms=1.0)
        return [
            compare.RunResult("relu", 0, [rec(0, 1.0), rec(1, 0.5), rec(2, 0.4)]),
            compare.RunResult("ash", 0, [rec(0, 0.9), rec(1, 0.42), rec(2, 0.3)]),
            compare.RunResult("ash", 1, [], failed=True, error="diverged"),
        ]

    def test_headers_and_shapes(self, tmp_path):
        paths = compare.write_comparison(str(tmp_path), self.fake_results())
        curves = Path(paths["curves"]).read_text().splitlines()
        assert curves[0] == "epoch,activation,seed,train_loss,val_loss,val_acc"
        assert len(curves) == 1 + 6  # two ok runs x three epochs
        mean = Path(paths["mean_curves"]).read_text().splitlines()
        assert mean[0] == "epoch,activation,mean_train_loss,mean_val_loss,mean_val_acc"
        conv = Path(paths["convergence"]).read_text().splitlines()
        assert conv[0] == "activation,seed,status,cut,epochs_to_threshold"

    def test_failed_run_marked(self, tmp_path):
        paths = compare.write_comparison(str(tmp_path), self.fake_results())
        rows = [line.split(",") for line in Path(paths["convergence"]).read_text().splitlines()[1:]]
        failed = [r for r in rows if r[0] == "ash" and r[1] == "1"]
        assert failed and failed[0][2] == "failed"

    def test_relative_cut_uses_relu_best(self, tmp_path):
        paths = compare.write_comparison(str(tmp_path), self.fake_results())
        rows = [line.split(",") for line in Path(paths["convergence"]).read_text().splitlines()[1:]]
        relu_row = next(r for r in rows if r[0] == "relu")
        assert float(relu_row[3]) == pytest.approx(1.10 * 0.4)
        # relu first dips under 0.44 at epoch 2; ash (seed 0) at epoch 1
        assert relu_row[4] == "2"
        ash_row = next(r for r in rows if r[0] == "ash" and r[1] == "0")
        assert ash_row[4] == "1"

    def test_absolute_cut_override(self, tmp_path):
        paths = compare.write_comparison(str(tmp_path), self.fake_results(), cut=0.45)
        rows = [line.split(",") for line in Path(paths["convergence"]).read_text().splitlines()[1:]]
        assert next(r for r in rows if r[0] == "relu")[4] == "2"
        assert next(r for r in rows if r[0] == "ash" and r[1] == "0")[4] == "1"
