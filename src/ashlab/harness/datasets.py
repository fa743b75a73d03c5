"""Dataset ingestion: 2-D synthetic generators, IDX files and CSV.

All generators are deterministic per seed and keep the two classes
balanced within one sample.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from ..tensor import RngState, Tensor, check_number

BUILTIN_KINDS = ("two_moons", "blobs", "spirals")

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


class FormatError(ValueError):
    """An input file does not match its declared binary/text format."""


def _split_counts(n: int, noise: float) -> tuple[int, int]:
    """Class sizes for n samples, after checking n and noise."""
    check_number("noise", noise, ge=0)
    check_number("n", n, integer=True, ge=2)
    return (n + 1) // 2, n // 2


def two_moons(n: int, noise: float = 0.1, seed: int = 0) -> tuple[Tensor, np.ndarray]:
    """Two interleaved half-circles; class 0 is the upper arc."""
    n0, n1 = _split_counts(n, noise)
    rng = RngState(seed)
    t0 = rng.uniform(n0) * np.pi
    t1 = rng.uniform(n1) * np.pi
    upper = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    lower = np.stack([1.0 - np.cos(t1), 1.0 - np.sin(t1) - 0.5], axis=1)
    points = np.concatenate([upper, lower])
    if noise > 0:
        points = points + rng.normal(points.size, 0.0, noise).reshape(points.shape)
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Tensor._wrap(points), labels


def blobs(n: int, noise: float = 0.5, seed: int = 0) -> tuple[Tensor, np.ndarray]:
    """Two isotropic Gaussian blobs at (-1.5, 0) and (1.5, 0); std = noise."""
    n0, n1 = _split_counts(n, noise)
    rng = RngState(seed)
    left = rng.normal(2 * n0, 0.0, noise).reshape(n0, 2) + np.array([-1.5, 0.0])
    right = rng.normal(2 * n1, 0.0, noise).reshape(n1, 2) + np.array([1.5, 0.0])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Tensor._wrap(np.concatenate([left, right])), labels


def spirals(n: int, noise: float = 0.0, seed: int = 0) -> tuple[Tensor, np.ndarray]:
    """Two interleaved Archimedean spiral arms (not linearly separable)."""
    n0, n1 = _split_counts(n, noise)
    rng = RngState(seed)

    def arm(count: int, flip: float) -> np.ndarray:
        theta = np.sqrt(rng.uniform(count)) * 3.0 * np.pi
        r = theta / (3.0 * np.pi)
        pts = np.stack([flip * r * np.cos(theta), flip * r * np.sin(theta)], axis=1)
        if noise > 0:
            pts = pts + rng.normal(pts.size, 0.0, noise).reshape(pts.shape)
        return pts

    points = np.concatenate([arm(n0, 1.0), arm(n1, -1.0)])
    labels = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Tensor._wrap(points), labels


def gen_builtin(kind: str, n: int, noise: float, seed: int) -> tuple[Tensor, np.ndarray]:
    table = {"two_moons": two_moons, "blobs": blobs, "spirals": spirals}
    if kind not in table:
        raise ValueError(f"unknown builtin dataset {kind!r}; expected one of {BUILTIN_KINDS}")
    return table[kind](n, noise, seed)


# ---------------------------------------------------------------------------
# IDX (big-endian) ingestion.
# ---------------------------------------------------------------------------

def _read_exact(f, count: int, what: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise FormatError(f"truncated IDX file: expected {count} bytes for {what}, "
                          f"got {len(buf)}")
    return buf


def ingest_idx(images_path: str, labels_path: str) -> tuple[Tensor, np.ndarray]:
    """Parse an IDX image/label file pair.

    Images: big-endian u32 magic 0x00000803, three u32 dims (count,
    rows, cols), then unsigned bytes scaled to [0, 1]. Labels: magic
    0x00000801, one u32 count, then unsigned byte class indices.
    """
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, "image magic"))
        if magic != IDX_MAGIC_IMAGES:
            raise FormatError(
                f"bad image magic 0x{magic:08X} (expected 0x{IDX_MAGIC_IMAGES:08X})")
        count, rows, cols = struct.unpack(">III", _read_exact(f, 12, "image dims"))
        raw = _read_exact(f, count * rows * cols, "image pixels")
    images = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0

    with open(labels_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, "label magic"))
        if magic != IDX_MAGIC_LABELS:
            raise FormatError(
                f"bad label magic 0x{magic:08X} (expected 0x{IDX_MAGIC_LABELS:08X})")
        (n_labels,) = struct.unpack(">I", _read_exact(f, 4, "label count"))
        labels = np.frombuffer(_read_exact(f, n_labels, "labels"), dtype=np.uint8)

    if n_labels != count:
        raise FormatError(f"{count} images but {n_labels} labels")
    return Tensor._wrap(images.reshape(count, rows, cols)), labels.astype(np.int64)


def load_csv(path: str) -> tuple[Tensor, np.ndarray]:
    """Numeric CSV, optional header; last column is the integer class label."""
    rows: list[list[float]] = []
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), 1):
            if not row:
                continue
            try:
                values = [float(v) for v in row]
            except ValueError:
                if lineno == 1:
                    continue  # header
                raise FormatError(f"non-numeric value on line {lineno} of {path}")
            if rows and len(values) != len(rows[0]):
                raise FormatError(f"line {lineno} of {path} has {len(values)} fields, "
                                  f"expected {len(rows[0])}")
            if values[-1] % 1.0 != 0.0:
                raise FormatError(f"label {row[-1]!r} on line {lineno} of {path} is not an integer")
            rows.append(values)
    if not rows:
        raise FormatError(f"no data rows in {path}")
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape[1] < 2:
        raise FormatError("CSV needs at least one feature column plus a label column")
    return Tensor._wrap(np.ascontiguousarray(arr[:, :-1])), arr[:, -1].astype(np.int64)
