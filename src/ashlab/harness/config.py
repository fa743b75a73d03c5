"""Experiment configuration: one strict JSON document.

Each section is read and written through one table of (JSON key,
dataclass attribute) rows; a field's type and default are the
dataclass's own, and values are never coerced. Unknown keys are rejected
at every level and parse -> serialize -> parse is the identity, so
configs double as reproducibility records.
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import MISSING, dataclass, fields

from .. import activations as act
from .. import nn
from . import datasets


class ConfigError(ValueError):
    """Configuration document violates the schema."""


@dataclass(frozen=True)
class DatasetSpec:
    """One of: builtin generator, IDX file pair, or CSV file."""

    source: str                       # "builtin" | "idx" | "csv"
    builtin: str = "two_moons"
    n: int = 256
    noise: float = 0.1
    seed: int = 0
    images: str = ""
    labels: str = ""
    csv_path: str = ""

    def __post_init__(self):
        if self.source not in _DATASETS:
            raise ValueError(f"unknown dataset source {self.source!r}")
        if self.builtin not in datasets.BUILTIN_KINDS:
            raise ValueError(f"unknown builtin {self.builtin!r}; "
                             f"expected one of {datasets.BUILTIN_KINDS}")

    def load(self):
        if self.source == "builtin":
            return datasets.gen_builtin(self.builtin, self.n, self.noise, self.seed)
        if self.source == "idx":
            return datasets.ingest_idx(self.images, self.labels)
        return datasets.load_csv(self.csv_path)


@dataclass(frozen=True)
class ExperimentConfig:
    layers: tuple[nn.Layer, ...]
    train: nn.TrainConfig
    dataset: DatasetSpec
    out_dir: str | None = None

    def build_model(self) -> nn.Model:
        return nn.Model(list(self.layers), seed=self.train.seed)


Rows = tuple[tuple[str, str], ...]  # (JSON key, dataclass attribute), in output order

# The "kind" tag picks the layer class and its rows.
_LAYERS: dict[str, tuple[type, Rows]] = {
    "dense": (nn.Dense, (("in", "in_dim"), ("out", "out_dim"))),
    "conv2d": (nn.Conv2d, (("kh", "kh"), ("kw", "kw"), ("cin", "cin"), ("cout", "cout"))),
    "flatten": (nn.Flatten, ()),
    "activation": (nn.Activation, (("spec", "spec"),)),
}
_LAYER_KINDS = {cls: kind for kind, (cls, _) in _LAYERS.items()}

# The "kind" tag picks the rows and is itself OptimizerSpec.kind.
_OPTIMIZERS: dict[str, Rows] = {
    "sgd": (("kind", "kind"), ("lr", "lr"), ("momentum", "momentum")),
    "adam": (("kind", "kind"), ("lr", "lr"), ("beta1", "beta1"), ("beta2", "beta2"),
             ("eps", "eps")),
}

_TRAIN: Rows = (("optimizer", "optimizer"), ("batch_size", "batch_size"), ("epochs", "epochs"),
                ("seed", "seed"), ("loss", "loss"), ("val_split", "val_split"))

# The one source key present picks the rows; "idx" nests its two paths.
_DATASETS: dict[str, Rows] = {
    "builtin": (("builtin", "builtin"), ("n", "n"), ("noise", "noise"), ("seed", "seed")),
    "idx": (("images", "images"), ("labels", "labels")),
    "csv": (("csv", "csv_path"),),
}


@functools.cache
def _fields(cls) -> dict[str, tuple[type, bool]]:
    """attribute -> (annotated type, has a default), resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is not MISSING or f.default_factory is not MISSING)
            for f in fields(cls)}


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _read(cls, rows: Rows, obj: dict, where: str, **fixed):
    """cls(**fixed, **values read over `rows`); a key whose attribute has no default is required."""
    types = _fields(cls)
    _require_keys(obj, {key for key, _ in rows},
                  {key for key, attr in rows if not types[attr][1]}, where)
    try:
        return cls(**fixed, **{attr: _value(types[attr][0], obj[key], key)
                               for key, attr in rows if key in obj})
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _value(typ, raw, key: str):
    if typ is act.ActivationSpec:
        return act.spec_from_json(raw)
    if typ is nn.OptimizerSpec:
        return _parse_optimizer(raw)
    return act.json_value(raw, typ, f"field {key!r}")


def _tag(obj, table: dict, where: str, what: str) -> str:
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise ConfigError(f"{where} must be an object with a 'kind' tag")
    if obj["kind"] not in table:
        raise ConfigError(f"{where}: unknown {what} kind {obj['kind']!r}")
    return obj["kind"]


def _parse_layer(obj: dict, index: int) -> nn.Layer:
    where = f"model.layers[{index}]"
    cls, rows = _LAYERS[_tag(obj, _LAYERS, where, "layer")]
    return _read(cls, rows, {k: v for k, v in obj.items() if k != "kind"}, where)


def _parse_optimizer(obj: dict) -> nn.OptimizerSpec:
    where = "train.optimizer"
    return _read(nn.OptimizerSpec, _OPTIMIZERS[_tag(obj, _OPTIMIZERS, where, "optimizer")],
                 obj, where)


def parse_dataset(obj: dict) -> DatasetSpec:
    """Read the `dataset` section: {"builtin": ...}, {"idx": {...}} or {"csv": ...}."""
    where = "dataset"
    sources = set(_DATASETS) & set(obj) if isinstance(obj, dict) else set()
    if len(sources) != 1:
        raise ConfigError(f"{where} must be an object with exactly one of 'builtin', 'idx', 'csv'")
    (source,) = sources
    if source == "idx":  # the two paths have defaults but are required
        _require_keys(obj, {"idx"}, set(), where)
        obj, where = obj["idx"], "dataset.idx"
        _require_keys(obj, {"images", "labels"}, {"images", "labels"}, where)
    return _read(DatasetSpec, _DATASETS[source], obj, where, source=source)


def dataset_option(key: str, text: str):
    """A builtin dataset option's text (`noise=.1`) as its field's type, else unchanged."""
    attr = dict(_DATASETS["builtin"]).get(key)
    try:
        return _fields(DatasetSpec)[attr][0](text) if attr else text
    except ValueError:
        return text  # parse_dataset rejects it, naming the key


def parse_config(doc) -> ExperimentConfig:
    """Parse a config document (dict or JSON text)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
    _require_keys(doc, {"model", "train", "dataset", "out_dir"},
                  {"model", "train", "dataset"}, "config")
    _require_keys(doc["model"], {"layers"}, {"layers"}, "model")
    layers = doc["model"]["layers"]
    if not isinstance(layers, list) or not layers:
        raise ConfigError("model.layers must be a non-empty list")
    out_dir = doc.get("out_dir")
    if out_dir is not None:
        try:
            act.json_value(out_dir, str, "out_dir")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        layers=tuple(_parse_layer(obj, i) for i, obj in enumerate(layers)),
        train=_read(nn.TrainConfig, _TRAIN, doc["train"], "train"),
        dataset=parse_dataset(doc["dataset"]),
        out_dir=out_dir,
    )


def _layer_to_json(layer: nn.Layer) -> dict:
    kind = _LAYER_KINDS[type(layer)]
    return {"kind": kind, **_write(_LAYERS[kind][1], layer)}


def _write(rows: Rows, obj) -> dict:
    return {key: _to_json(getattr(obj, attr)) for key, attr in rows}


def _to_json(value):
    if isinstance(value, act.ActivationSpec):
        return act.spec_to_json(value)
    if isinstance(value, nn.OptimizerSpec):
        return _write(_OPTIMIZERS[value.kind], value)
    return value


def config_to_json(cfg: ExperimentConfig) -> dict:
    dataset = _write(_DATASETS[cfg.dataset.source], cfg.dataset)
    doc = {
        "model": {"layers": [_layer_to_json(layer) for layer in cfg.layers]},
        "train": _write(_TRAIN, cfg.train),
        "dataset": {"idx": dataset} if cfg.dataset.source == "idx" else dataset,
    }
    if cfg.out_dir is not None:
        doc["out_dir"] = cfg.out_dir
    return doc


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return parse_config(f.read())
