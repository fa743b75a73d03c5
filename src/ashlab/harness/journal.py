"""Run artifacts: metrics journal, model dumps, curve CSVs.

The journal is append-only JSON-lines (one EpochRecord per line, LF
terminated, flushed per epoch so a crash leaves only complete lines).
The model dump is a self-describing little-endian binary: a header of
UTF-8 parameter names and u32 shapes, then the raw float64 buffers.
"""

from __future__ import annotations

import csv
import json
import struct
import warnings
from dataclasses import asdict

import numpy as np

from ..activations import json_value
from ..nn import EpochRecord
from ..tensor import Tensor

CURVES_HEADER = ["epoch", "activation", "seed", "train_loss", "val_loss", "val_acc"]
MEAN_CURVES_HEADER = ["epoch", "activation", "mean_train_loss", "mean_val_loss", "mean_val_acc"]
CONVERGENCE_HEADER = ["activation", "seed", "status", "cut", "epochs_to_threshold"]


def record_from_dict(obj: dict) -> EpochRecord:
    """One journal line as an EpochRecord, with no coercion: a field of the
    wrong JSON type raises a ValueError naming it (see `json_value`)."""
    def value(raw, typ: type, key: str):
        return json_value(raw, typ, f"journal field {key!r}")

    return EpochRecord(
        epoch=value(obj["epoch"], int, "epoch"),
        train_loss=value(obj["train_loss"], float, "train_loss"),
        val_loss=value(obj["val_loss"], float, "val_loss"),
        val_acc=value(obj["val_acc"], float, "val_acc"),
        zk_snapshot={k: [value(v, float, f"zk_snapshot.{k}") for v in vs]
                     for k, vs in obj["zk_snapshot"].items()},
        wall_ms=value(obj["wall_ms"], float, "wall_ms"),
    )


class JournalWriter:
    """Appends one JSON line per epoch and flushes immediately."""

    def __init__(self, path: str):
        self._f = open(path, "w", encoding="utf-8", newline="\n")

    def append(self, record: EpochRecord) -> None:
        self._f.write(json.dumps(asdict(record)) + "\n")
        self._f.flush()

    def close(self) -> None:
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_journal(path: str) -> list[EpochRecord]:
    """Journal records. A torn last line (no LF, unparsable) is dropped with a warning."""
    with open(path, encoding="utf-8") as f:
        *lines, tail = f.read().split("\n")
    records = [record_from_dict(json.loads(line)) for line in lines if line.strip()]
    if tail.strip():
        try:
            records.append(record_from_dict(json.loads(tail)))
        except json.JSONDecodeError:
            warnings.warn(f"journal {path}: dropped a torn last line ({len(tail)} characters)")
    epochs = [r.epoch for r in records]
    if any(b <= a for a, b in zip(epochs, epochs[1:])):
        raise ValueError(f"journal {path} has non-increasing epoch indices")
    return records


# ---------------------------------------------------------------------------
# Model parameter dump.
# ---------------------------------------------------------------------------

def save_model_dump(path: str, params: dict[str, Tensor]) -> None:
    """The count, per parameter its name length, name, rank and dims, then
    every float64 buffer in order: one header pack, one buffer write."""
    names = [name.encode("utf-8") for name in params]
    shapes = [t.shape for t in params.values()]
    header = struct.pack(
        "<I" + "".join(f"I{len(b)}sI{len(s)}I" for b, s in zip(names, shapes)), len(params),
        *(v for b, s in zip(names, shapes) for v in (len(b), b, len(s), *s)))
    with open(path, "wb") as f:
        f.write(header)
        f.writelines(np.ascontiguousarray(t.data, dtype="<f8") for t in params.values())


def load_model_dump(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        def read(fmt: str):
            size = struct.calcsize(fmt)
            buf = f.read(size)
            if len(buf) != size:
                raise ValueError(f"truncated model dump {path}")
            return struct.unpack(fmt, buf)

        (count,) = read("<I")
        headers = []
        for _ in range(count):
            (name_len,) = read("<I")
            name = read(f"<{name_len}s")[0].decode("utf-8")
            (rank,) = read("<I")
            shape = read(f"<{rank}I")
            headers.append((name, shape))
        out = {}
        for name, shape in headers:
            (buf,) = read(f"<{8 * int(np.prod(shape))}s")
            out[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return out


# ---------------------------------------------------------------------------
# Comparison CSVs.
# ---------------------------------------------------------------------------

def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
