"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/diff.py PARENT_DIR CHANGE_DIR

Each directory holds the result files run.py writes (perfbench/out/*.json).
Per workload and metric it prints each side's median and quartiles, the
share of seed-matched pairs the change wins (ties count for neither) and
a verdict, by this rule:

  gain        the change wins >= 90% of pairs and the medians differ by
              more than the parent's own quartile spread
  regression  the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  either side's quartile spread exceeds the bound, unless
              every change run beats every parent run
  unpaired    no seed ran on both sides, so no gain can be claimed
  same        none of the above

Per-layer metrics (traced runs) have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    """{(workload, trace): {metric: {seed: value}}}"""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        r = json.loads(path.read_text(encoding="utf-8"))
        side = runs.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["metrics"].items():
            side.setdefault(name, {})[r["seed"]] = m["value"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound: float | None) -> tuple[float, str]:
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    win_share = wins / len(seeds) if seeds else float("nan")
    if bound is None:
        return win_share, ""
    p1, pm, p3 = quartiles(list(parent.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    if win_share >= 0.9 and sign * (cm - pm) > p3 - p1:
        return win_share, "gain"
    if sign * (cm - pm) < -bound * abs(pm):
        return win_share, "regression"
    if not seeds:
        return win_share, "unpaired"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    every = (min(change.values()) > max(parent.values()) if sign > 0
             else max(change.values()) < min(parent.values()))
    if spread > bound and not every:
        return win_share, "unresolved"
    return win_share, "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':10} {'metric':40} {'parent q1/median/q3':>32} "
          f"{'change q1/median/q3':>32} {'delta':>8} {'wins':>5}  verdict")
    for key in sorted(set(parent) & set(change)):
        for name, meta in declared.items():
            if name not in parent[key] or name not in change[key]:
                continue
            p, c = parent[key][name], change[key][name]
            win_share, v = verdict(p, c, meta["better"], meta.get("bound"))
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            delta = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else float("nan")
            print(f"{key[0]:10} {name:40} {pq[0]:10.4g} {pq[1]:10.4g} {pq[2]:10.4g} "
                  f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g} {delta:+8.1%} "
                  f"{win_share:5.2f}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
