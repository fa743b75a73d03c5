"""Synthetic generators and file ingestion."""

import struct

import numpy as np
import pytest

from ashlab import nn
from ashlab.harness import datasets
from ashlab.harness.datasets import FormatError


class TestTwoMoons:
    def test_noise_free_points_on_half_circles(self):
        x, y = datasets.two_moons(100, noise=0.0, seed=1)
        pts = x.data
        upper = pts[y == 0]
        lower = pts[y == 1]
        np.testing.assert_allclose(np.hypot(upper[:, 0], upper[:, 1]), 1.0, atol=1e-12)
        assert np.all(upper[:, 1] >= -1e-12)
        np.testing.assert_allclose(
            np.hypot(lower[:, 0] - 1.0, lower[:, 1] + 0.5 - 1.0), 1.0, atol=1e-12)

    def test_balanced_within_one(self):
        for n in (99, 100, 7):
            _, y = datasets.two_moons(n, 0.1, 0)
            c0, c1 = int(np.sum(y == 0)), int(np.sum(y == 1))
            assert abs(c0 - c1) <= 1 and c0 + c1 == n

    def test_deterministic(self):
        a, ya = datasets.two_moons(64, 0.2, 9)
        b, yb = datasets.two_moons(64, 0.2, 9)
        assert np.array_equal(a.data, b.data) and np.array_equal(ya, yb)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            datasets.two_moons(10, -0.1, 0)

    @pytest.mark.parametrize("gen", [datasets.two_moons, datasets.spirals])
    def test_nan_noise_rejected(self, gen):
        with pytest.raises(ValueError, match="noise must"):
            gen(8, noise=float("nan"))

    @pytest.mark.parametrize("gen", [datasets.two_moons, datasets.spirals, datasets.blobs])
    def test_infinite_noise_rejected(self, gen):
        with pytest.raises(ValueError, match="noise must be a finite number"):
            gen(8, noise=float("inf"))

    @pytest.mark.parametrize("n", [8.5, True, float("inf")], ids=["fraction", "bool", "inf"])
    @pytest.mark.parametrize("gen", [datasets.two_moons, datasets.spirals, datasets.blobs])
    def test_sample_count_must_be_an_integer(self, gen, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            gen(n, 0.1)

    @pytest.mark.parametrize("gen", [datasets.two_moons, datasets.spirals, datasets.blobs])
    def test_too_few_samples_rejected(self, gen):
        with pytest.raises(ValueError, match="n must be an integer >= 2, got 1"):
            gen(1, 0.1)


class TestBlobsAndSpirals:
    def test_blobs_deterministic_and_balanced(self):
        a, ya = datasets.blobs(100, 0.1, 4)
        b, yb = datasets.blobs(100, 0.1, 4)
        assert np.array_equal(a.data, b.data) and np.array_equal(ya, yb)
        assert abs(int(np.sum(ya == 0)) - int(np.sum(ya == 1))) <= 1

    def test_blobs_centers(self):
        x, y = datasets.blobs(2000, 0.1, 0)
        np.testing.assert_allclose(x.data[y == 0].mean(axis=0), [-1.5, 0.0], atol=0.05)
        np.testing.assert_allclose(x.data[y == 1].mean(axis=0), [1.5, 0.0], atol=0.05)

    def test_spirals_not_linearly_separable(self):
        data = datasets.spirals(256, noise=0.0, seed=0)
        linear = nn.Model([nn.Dense(2, 2)], seed=0)
        nn.train(linear, nn.TrainConfig(epochs=80, seed=0), data)
        _, acc = nn.evaluate(linear, *data)
        assert acc < 0.7

    def test_gen_builtin_dispatch(self):
        x, y = datasets.gen_builtin("spirals", 50, 0.0, 1)
        assert x.shape == (50, 2) and y.shape == (50,)
        with pytest.raises(ValueError):
            datasets.gen_builtin("circles", 50, 0.0, 1)


def write_idx_pair(tmp_path, pixels, labels, image_magic=datasets.IDX_MAGIC_IMAGES,
                   label_magic=datasets.IDX_MAGIC_LABELS, truncate_images=False):
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    count, rows, cols = pixels.shape
    body = struct.pack(">IIII", image_magic, count, rows, cols) + pixels.tobytes()
    if truncate_images:
        body = body[:-3]
    images_path.write_bytes(body)
    labels_path.write_bytes(struct.pack(">II", label_magic, len(labels)) + bytes(labels))
    return str(images_path), str(labels_path)


class TestIdx:
    def test_fixture_round_trip(self, tmp_path):
        pixels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        ip, lp = write_idx_pair(tmp_path, pixels, [0, 1])
        x, y = datasets.ingest_idx(ip, lp)
        assert x.shape == (2, 2, 2)
        np.testing.assert_allclose(x.data.reshape(-1), np.arange(8) / 255.0, atol=1e-15)
        assert y.tolist() == [0, 1]

    def test_wrong_magic_named_in_error(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, pixels, [0], image_magic=0xDEADBEEF)
        with pytest.raises(FormatError, match="0xDEADBEEF"):
            datasets.ingest_idx(ip, lp)

    def test_wrong_label_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, pixels, [0], label_magic=0x00000802)
        with pytest.raises(FormatError, match="0x00000802"):
            datasets.ingest_idx(ip, lp)

    def test_truncated_file(self, tmp_path):
        pixels = np.zeros((2, 3, 3), dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, pixels, [0, 1], truncate_images=True)
        with pytest.raises(FormatError, match="truncated"):
            datasets.ingest_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, pixels, [0, 1, 1])
        with pytest.raises(FormatError, match="labels"):
            datasets.ingest_idx(ip, lp)


class TestCsv:
    def test_with_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,label\n0.5,1.5,0\n-1.0,2.0,1\n")
        x, y = datasets.load_csv(str(p))
        assert x.shape == (2, 2)
        assert y.tolist() == [0, 1]

    def test_without_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,1.5,0\n-1.0,2.0,1\n")
        x, y = datasets.load_csv(str(p))
        assert x.shape == (2, 2)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c\n1,2,0\n1,oops,1\n")
        with pytest.raises(FormatError):
            datasets.load_csv(str(p))

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(FormatError):
            datasets.load_csv(str(p))

    def test_ragged_row_names_its_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x1,x2,label\n0.5,1.5,0\n-1.0,1\n")
        with pytest.raises(FormatError, match="line 3"):
            datasets.load_csv(str(p))

    @pytest.mark.parametrize("label", ["0.7", "1.9", "nan", "inf"])
    def test_fractional_label_rejected(self, tmp_path, label):
        p = tmp_path / "d.csv"
        p.write_text(f"0.5,1.5,0\n-1.0,2.0,{label}\n")
        with pytest.raises(FormatError, match="line 2"):
            datasets.load_csv(str(p))
