"""ashlab benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload mlp_small --seed 1 --seconds 30 --trace 0

Runs one workload in this process on one thread, closed loop: the next
iteration starts when the previous one ends, until --seconds have passed.
With --trace 0 it reports the end-to-end metrics, with times and rates
scaled by a host-speed probe (HOST_PROBE below); with --trace 1 it runs
half the time untraced, then half with spans around each layer's entry
points, and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON
object. The full result (environment, computed counters, fingerprints,
checks) is written to perfbench/out/<workload>-seed<seed>-trace<t>.json.
Exits 2 without a result when the ashlab sources are not beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("mlp_small", "mlp_wide", "gate_1m")
SETUP_REPEATS = 5
MIN_ITERATIONS = 3

# One thread: numpy's BLAS pool is never used by ashlab, so keep it idle.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

GATE_METRICS = {"ash_fwd_melem_per_s": "ash_fwd", "ash_fwdbwd_melem_per_s": "ash_fwdbwd",
                "topk_melem_per_s": "topk"}

# Host-speed probe: the bare-numpy ash gate (workloads.ash_reference) on a
# fixed array shaped like the workload's gate input, as (shape, calls per
# sample, median seconds per call on the reference host when the benchmark
# was defined). Other tenants of the host move the speed of whole runs by
# up to 2x. The probe runs after every iteration; times are scaled by
# nominal / median probe time and rates by its inverse, so they read as if
# the host ran at the reference speed.
HOST_PROBE = {"mlp_small": ((256, 16), 50, 7.8e-5),
              "mlp_wide": ((1024, 128), 3, 1.5e-3),
              "gate_1m": ((1 << 20,), 1, 1.5e-2)}
SCALED_TIMES = ("setup_s", "wall_s", "epoch_ms.p50")
SCALED_RATES = ("train_steps_per_s", "eval_rows_per_s") + tuple(GATE_METRICS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this fresh interpreter and print it")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def setup_once(name: str, seed: int):
    """Import ashlab, build the workload and make its warm-up call; timed."""
    t0 = time.perf_counter()
    import workloads
    w = workloads.WORKLOADS[name](seed, str(OUT))
    w.setup()
    return w, time.perf_counter() - t0


def make_probe(name: str, seed: int):
    """A callable returning seconds per call of the bare-numpy gate."""
    import numpy as np
    from workloads import ash_reference
    shape, calls, _ = HOST_PROBE[name]
    x = np.random.default_rng(seed).standard_normal(shape)

    def probe() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            ash_reference(x, 0.0)
        return (time.perf_counter() - t0) / calls

    return probe


def setup_in_fresh_interpreters(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def timed_loop(w, seconds: float, probe, probes: list[float]) -> list:
    """Iterate for `seconds`; one host-probe sample after each iteration."""
    iters = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(iters) < MIN_ITERATIONS:
        it = w.iterate()
        it.outputs.clear()  # only the reference iteration's outputs are checked
        iters.append(it)
        # Tapes are reference cycles; without a collection between iterations
        # gate_1m's RSS grows about 47 MiB per iteration until the cyclic
        # collector happens to run, and peak_rss_mb would track run length.
        gc.collect()
        probes.append(probe())
    return iters


def end_to_end(iters, setup_samples, rss_mb, pass_ratio) -> dict[str, float]:
    epochs = [ms for it in iters for ms in it.epoch_ms]
    m = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(it.wall_s for it in iters),
        "train_steps_per_s": statistics.median(it.train_steps_per_s() for it in iters),
        "epoch_ms.p50": statistics.median(epochs),
        "eval_rows_per_s": statistics.median(it.eval_rows / it.eval_s for it in iters),
    }
    for metric, op in GATE_METRICS.items():
        times = [t for it in iters for t in it.gate_s[op]]
        m[metric] = iters[0].gate_elems[op] / statistics.median(times) / 1e6
    m["peak_rss_mb"] = rss_mb
    m["pass_ratio"] = pass_ratio
    return m


def at_reference_speed(raw: dict, factor: float) -> dict:
    """Scale times by factor = nominal / measured probe time, rates by 1/factor."""
    m = dict(raw)
    for k in SCALED_TIMES:
        m[k] *= factor
    for k in SCALED_RATES:
        m[k] /= factor
    return m


def per_layer(tracer, iters, untraced_wall: float) -> dict[str, float]:
    n = len(iters)
    steps = max(tracer.steps, 1)

    acc = tracer.acc

    def per_iter_ms(name, field="self_ns"):
        return getattr(acc(name), field) / 1e6 / n

    def ns_per_elem(name):
        a = acc(name)
        return a.total_ns / a.elems if a.elems else 0.0

    mm = acc("tensor.matmul")
    zp = acc("stats.z_from_percentile")
    m = {
        "tensor.matmul.calls": mm.calls / n,
        "tensor.matmul.self_ms": per_iter_ms("tensor.matmul"),
        "tensor.matmul.gflop_per_s": mm.flop / mm.total_ns if mm.total_ns else 0.0,
        "tensor.matmul.flop_computed": mm.flop / n,
        "tensor.matmul.bytes_computed": mm.bytes / n,
        "tensor.ewise.calls": acc("tensor.ewise").calls / n,
        "tensor.ewise.self_ms": per_iter_ms("tensor.ewise"),
        "tensor.welford.ns_per_elem": ns_per_elem("tensor.welford"),
        "tensor.randn.ns_per_elem": ns_per_elem("tensor.randn"),
        "autodiff.ops_per_step": acc("autodiff.ops").calls / steps,
        "autodiff.tape_len_per_step": acc("autodiff.tape_len").calls / steps,
        "autodiff.backward.self_ms": per_iter_ms("autodiff.backward"),
        "activations.apply.self_ms": per_iter_ms("activations.apply"),
        "activations.hard_ash.ns_per_elem": ns_per_elem("activations.hard_ash"),
        "activations.gelu.ns_per_elem": ns_per_elem("activations.gelu"),
        "stats.compute_stats.self_ms": per_iter_ms("stats.compute_stats"),
        "stats.kth_largest.self_ms": per_iter_ms("stats.kth_largest"),
        "stats.gaussian_mask.ns_per_elem": ns_per_elem("stats.gaussian_mask"),
        "stats.z_from_percentile.calls": zp.calls / n,
        "stats.z_from_percentile.distinct_ratio": len(zp.distinct) / zp.calls if zp.calls else 0.0,
        "nn.forward.self_ms": per_iter_ms("nn.forward"),
        "nn.loss.self_ms": per_iter_ms("nn.loss"),
        "nn.optimizer.self_ms": per_iter_ms("nn.optimizer"),
        "nn.eval.self_ms": per_iter_ms("nn.eval"),
    }
    import workloads
    for activation in workloads.ACTIVATIONS:
        samples = [ms for it in iters for ms in it.epoch_ms_by_run.get(activation, [])]
        m[f"nn.epoch_ms.{activation}"] = statistics.median(samples) if samples else 0.0
    m["harness.dataset.ms"] = per_iter_ms("harness.dataset", "total_ns")
    m["harness.write.ms"] = per_iter_ms("harness.write", "total_ns")
    m["harness.write.bytes"] = acc("harness.write").bytes / n
    traced_wall = statistics.median(it.wall_s for it in iters)
    m["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    return m


def run_checks(workloads, reference, iters):
    """(check, failure or "") for every check; the reference gets the full set."""
    checks = [(f"run:{run}", failure) for it in [reference] + iters for run, failure in it.runs]
    checks += workloads.warm_checks(reference.outputs)
    for i, it in enumerate(iters):
        same = it.fingerprint == reference.fingerprint
        checks.append((f"fingerprint:{i}", "" if same else "outputs differ from the reference"))
    return checks


def environment(ashlab, numpy) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        llc = os.sysconf("SC_LEVEL3_CACHE_SIZE") or os.sysconf("SC_LEVEL2_CACHE_SIZE")
    except (ValueError, OSError):
        llc = 0
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    return {"cpu": cpu, "nproc": os.cpu_count(), "llc_bytes": llc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "ashlab": ashlab.__version__, "commit": commit}


def computed_counters(reference, metrics) -> dict:
    gate = {}
    import workloads
    for op, bpe in workloads.GATE_BYTES_PER_ELEM.items():
        if op in reference.gate_s:
            gate[op] = {"bytes_per_elem": bpe}
    for metric, op in GATE_METRICS.items():
        if metric in metrics:
            gate[op]["gb_per_s"] = metrics[metric] * 1e6 * gate[op]["bytes_per_elem"] / 1e9
    return {
        "label": "computed, not measured",
        "gate_ops": gate,
        "matmul": "per-iteration flop (2mkn) and bytes (8(mk+kn+mn)) are the "
                  "tensor.matmul.*_computed metrics of a traced run",
        "no_roofline": "No bandwidth or roofline ratio is given: it needs inputs "
                       "of 4x the LLC (>= 420 MiB), and the ASH forward and "
                       "backward keep about eight arrays of the input's size "
                       "alive, over 3 GiB, too much for a 2-vCPU guest with "
                       "7 GiB free that other tenants share.",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ashlab" / "__init__.py").is_file():
        print(f"ashlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    if args.setup_only:
        _, setup_s = setup_once(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_samples = [0.0] if args.trace else setup_in_fresh_interpreters(args)
    probe, probes = make_probe(args.workload, args.seed), []
    w, _ = setup_once(args.workload, args.seed)
    import numpy
    import ashlab
    import tracing
    import workloads

    reference = w.iterate()
    untraced = timed_loop(w, args.seconds / (2 if args.trace else 1), probe, probes)
    traced = []
    if args.trace:
        tracer = tracing.install(workloads.MODULES)
        try:
            traced = timed_loop(w, args.seconds / 2, probe, [])
        finally:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks = run_checks(workloads, reference, untraced + traced)
    failed = sum(1 for _, failure in checks if failure)
    raw = end_to_end(untraced, setup_samples, rss_mb, 1.0 - failed / len(checks))
    epochs = [ms for it in untraced for ms in it.epoch_ms]
    nominal = HOST_PROBE[args.workload][2]
    factor = nominal / statistics.median(probes)
    e2e = at_reference_speed(raw, factor)
    if args.trace:
        metrics = per_layer(tracer, traced, statistics.median(it.wall_s for it in untraced))
    else:
        metrics = e2e

    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                         "computed and declared in BENCHMARK.json")
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "epoch_samples": len(epochs),
        # Printed, not gated: the tail follows the host's interruptions, and
        # its spread over ten seeds reached 0.30 (raw) and 0.24 (scaled).
        "epoch_ms_p90_raw": statistics.quantiles(epochs, n=10)[8],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "raw_metrics": raw,
        "host_probe": {"nominal_s": nominal, "median_s": statistics.median(probes),
                       "factor": factor},
        "fail_ratio": failed / len(checks),
        "quickselect_over_ash": e2e["ash_fwd_melem_per_s"] / e2e["topk_melem_per_s"],
        "failures": [f"{name}: {failure}" for name, failure in checks if failure],
        "fingerprint": reference.fingerprint,
        "environment": environment(ashlab, numpy),
        "computed": computed_counters(reference, e2e),
        "setup_samples_s": setup_samples,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} host probe {result['host_probe']['median_s']:.4g} s per call "
          f"(reference {nominal:.4g} s): {', '.join(SCALED_TIMES)} scaled by {factor:.4f}, "
          f"rates by 1/{factor:.4f}; raw values are in the result file")
    print(f"{args.workload} epoch_ms.p90 {result['epoch_ms_p90_raw']:.6g} ms "
          f"(raw, of {len(epochs)} epochs; not gated)")
    print(f"{args.workload} fail_ratio {result['fail_ratio']:.6g} ratio "
          f"({failed} of {len(checks)} checks and runs failed)")
    print(f"{args.workload} quickselect/ash time ratio {result['quickselect_over_ash']:.4g} "
          f"(below 1: exact top-k is faster than the gate; not gated)")
    print(f"{args.workload} epoch samples {result['epoch_samples']}, "
          f"iterations {result['iterations']}, fingerprint {reference.fingerprint[:16]}")
    for line in result["failures"]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
