"""Why threshold gating instead of explicit selection: throughput.

Times the smooth-gate forward pass (one statistics pass plus an
elementwise gate) against exact top-k selection by numpy's introselect
(method `quickselect`) and by a full sort. Absolute numbers are
machine-dependent; the point is the scaling behavior.
"""

from ashlab.harness.bench import run_bench, ratio_lines

rows = run_bench("ash", sizes=[10_000, 100_000, 1_000_000], k=30.0)

print(f"{'size':>9} {'method':>12} {'ns/elem':>9}")
for r in rows:
    print(f"{r.size:>9} {r.method:>12} {r.ns_per_elem:>9.2f}")

print()
for line in ratio_lines(rows):
    print(line)
