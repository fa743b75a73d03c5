"""Throughput benchmark: threshold activation vs. explicit selection.

For each input size, times (a) the named activation's forward pass
(the two-pass `moments` statistics, then the elementwise gate in row
blocks), (b) the exact top-k mask (method `quickselect`: numpy's
introselect on the input's bits read as integers, through
`stats.kth_largest`, then one compare), and (c) top-k selection via a
full sort. Reports the median of 9 runs in ns/element; rankings are
machine-dependent and deliberately not asserted anywhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import activations as act
from .. import stats as st
from ..tensor import RngState, Tensor, randn

BENCH_HEADER = ["size", "method", "ns_per_elem"]
DEFAULT_K = 30.0
REPS = 9


@dataclass(frozen=True)
class BenchRow:
    size: int
    method: str
    ns_per_elem: float


def _median_time_ns(fn, reps: int = REPS) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - t0)
    samples.sort()
    return float(samples[len(samples) // 2])


def _sort_topk_mask(x: Tensor, k: float) -> np.ndarray:
    data = x.data.reshape(-1)
    m = st.topk_count(data.size, k)
    order = np.argsort(-data, kind="stable")
    mask = np.zeros(data.size, dtype=bool)
    mask[order[:m]] = True
    return mask


def _activation_forward(name: str, x: Tensor):
    spec = act.preset(name)
    return lambda: act.apply_spec(spec, x)


def run_bench(activation: str, sizes: list[int], k: float = DEFAULT_K,
              seed: int = 0) -> list[BenchRow]:
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if any(s < 1 for s in sizes):
        raise ValueError(f"every size must be >= 1, got {sizes}")
    act.preset(activation)  # validate the name and k before timing anything
    st.topk_count(1, k)
    rows: list[BenchRow] = []
    for size in sizes:
        x = randn([size], RngState(seed))
        methods = [
            (activation, _activation_forward(activation, x)),
            ("quickselect", lambda: st.exact_topk_mask(x, k)),
            ("full_sort", lambda: _sort_topk_mask(x, k)),
        ]
        for name, fn in methods:
            fn()  # warm up
            rows.append(BenchRow(size, name, _median_time_ns(fn) / size))
    return rows


def ratio_lines(rows: list[BenchRow]) -> list[str]:
    """Sort-time / quickselect-time and activation ratios per size."""
    by_size: dict[int, dict[str, float]] = {}
    for r in rows:
        by_size.setdefault(r.size, {})[r.method] = r.ns_per_elem
    lines = []
    for size, methods in sorted(by_size.items()):
        quick = methods.get("quickselect")
        full = methods.get("full_sort")
        activation = next((v for k, v in methods.items()
                           if k not in ("quickselect", "full_sort")), None)
        if quick and full:
            lines.append(f"# size={size}: full_sort/quickselect = {full / quick:.2f}")
        if quick and activation:
            lines.append(f"# size={size}: quickselect/activation = {quick / activation:.2f}")
    return lines
