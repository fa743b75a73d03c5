"""Command-line interface.

Subcommands: verify, table, train, compare, bench. Exit codes: 0 ok, 1
verification failure, 2 usage/config/data error, 3 nn.DivergenceError.
The ASHLAB_SEED environment variable (an integer) overrides the
configured seed for train and compare.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .. import activations as act
from .. import nn
from .. import stats as st
from . import bench as bench_mod
from . import compare as compare_mod
from . import config as config_mod
from . import journal, verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _env_seed() -> int | None:
    raw = os.environ.get("ASHLAB_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ASHLAB_SEED must be an integer, got {raw!r}") from None


def _parse_dataset_arg(spec: str) -> config_mod.DatasetSpec:
    """`name`, `name(n=...,noise=...,seed=...)`, `csv:path` or `idx:imgs,labels`.

    Only splits the text: the config's dataset reader checks the keys,
    types and values and supplies the defaults.
    """
    spec = spec.strip()
    if spec.startswith("csv:"):
        return config_mod.parse_dataset({"csv": spec[len("csv:"):]})
    if spec.startswith("idx:"):
        parts = spec[len("idx:"):].split(",")
        if len(parts) != 2:
            raise ValueError("idx dataset needs 'idx:<images>,<labels>'")
        return config_mod.parse_dataset({"idx": {"images": parts[0], "labels": parts[1]}})
    name, paren, body = spec.partition("(")
    if paren and not body.endswith(")"):
        raise ValueError(f"unbalanced parentheses in dataset spec {spec!r}")
    doc = {"builtin": name}
    for item in filter(None, (s.strip() for s in body[:-1].split(","))):
        if "=" not in item:
            raise ValueError(f"dataset option {item!r} is not key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        doc[key] = config_mod.dataset_option(key, value)
    return config_mod.parse_dataset(doc)


def _load_dataset(spec: config_mod.DatasetSpec):
    """spec.load(); a missing or malformed file is a usage error ("dataset: ...")."""
    try:
        return spec.load()
    except (FileNotFoundError, ValueError) as exc:
        raise ValueError(f"dataset: {exc}") from exc


def _cmd_verify(args) -> int:
    results = verify.run_all(args.suite or None)
    width = max(len(r.name) for r in results)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.ms:8.1f} ms")
    for r in failed:
        print(f"\n{r.name}: {r.detail}", file=sys.stderr)
    print(f"\n{len(results) - len(failed)}/{len(results)} suites passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _cmd_table(args) -> int:
    print(f"{st.z_from_percentile(args.k):.5f}")
    return EXIT_OK


def _cmd_train(args) -> int:
    try:
        cfg = config_mod.load_config(args.config)
    except FileNotFoundError:
        return _usage_error(f"config file not found: {args.config}")
    out_dir = args.out or cfg.out_dir
    if not out_dir:
        return _usage_error("no output directory (pass --out or set out_dir in the config)")
    env_seed = _env_seed()
    if env_seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=env_seed))
    data = _load_dataset(cfg.dataset)

    os.makedirs(out_dir, exist_ok=True)
    model = cfg.build_model()
    journal_path = os.path.join(out_dir, "metrics.jsonl")
    try:
        with journal.JournalWriter(journal_path) as writer:
            nn.train(model, cfg.train, data, on_epoch=writer.append)
    except nn.DivergenceError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    journal.save_model_dump(os.path.join(out_dir, "model.bin"), model.params)
    print(f"wrote {journal_path} and model.bin ({cfg.train.epochs} epochs)")
    return EXIT_OK


def _cmd_compare(args) -> int:
    names = [s.strip() for s in args.activations.split(",") if s.strip()]
    if not names:
        return _usage_error("--activations must name at least one activation")
    for name in names:
        act.preset(name)  # reject an unknown name before anything trains
    if args.cut is not None:
        act.json_value(args.cut, float, "--cut")  # nan and inf cut nothing
    data = _load_dataset(_parse_dataset_arg(args.dataset))
    env_seed = _env_seed()
    base = 0
    if env_seed is not None:
        # The explicit seed shifts the whole 0..seeds-1 sweep.
        base = env_seed
        print(f"ASHLAB_SEED={env_seed}: seeds run as {base}..{base + args.seeds - 1}",
              file=sys.stderr)

    results = compare_mod.run_comparison(
        names, data, seeds=[base + i for i in range(args.seeds)],
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        val_split=args.val_split)
    paths = compare_mod.write_comparison(args.out, results, cut=args.cut)
    print("wrote " + ", ".join(paths.values()))
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = [int(float(s)) for s in args.sizes.split(",") if s.strip()]
    except (ValueError, OverflowError):  # "x" and "nan" do not convert; "inf" overflows
        return _usage_error(f"--sizes must be a comma list of numbers, got {args.sizes!r}")
    rows = bench_mod.run_bench(args.activation, sizes, k=args.k)
    print(",".join(bench_mod.BENCH_HEADER))
    for r in rows:
        print(f"{r.size},{r.method},{r.ns_per_elem:.3f}")
    for line in bench_mod.ratio_lines(rows):
        print(line, file=sys.stderr)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ashlab",
        description="Percentile-adaptive activation workbench.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every property suite")
    p.add_argument("--suite", action="append", help="run only the named suite(s)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("table", help="standard-normal quantile lookup")
    p.add_argument("--k", type=float, required=True, help="upper-tail percent in (0, 100)")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("train", help="train one experiment config")
    p.add_argument("--config", required=True, help="path to the JSON experiment config")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("compare", help="train several activations on one dataset")
    p.add_argument("--activations", required=True,
                   help="comma list, e.g. relu,swish,ash,l_ash,f_ash_10")
    p.add_argument("--dataset", required=True,
                   help="two_moons | blobs | spirals, optionally name(n=..,noise=..,seed=..), "
                        "csv:<path>, idx:<images>,<labels>")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--batch-size", type=int, default=nn.TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=nn.OptimizerSpec.lr)
    p.add_argument("--val-split", type=float, default=0.25)
    p.add_argument("--cut", type=float, default=None,
                   help="absolute val-loss cut for epochs-to-threshold "
                        "(default: 110%% of the reference activation's best)")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("bench", help="throughput of gating vs explicit selection")
    p.add_argument("--activation", default="ash")
    p.add_argument("--sizes", required=True, help="comma list, e.g. 1e4,1e5,1e6")
    p.add_argument("--k", type=float, default=bench_mod.DEFAULT_K)
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ValueError as exc:  # every usage, config and dataset mistake
        return _usage_error(str(exc))


def entry() -> None:
    sys.exit(main())
