"""The quick demos run clean: each exits 0 with every warning an error.

Demos 01-03 call the public stats and activation API (`compute_stats`,
`gaussian_topk_mask`, `hard_ash`, `conditional_unit`, ...), so a renamed
or deleted entry point fails here rather than only when a demo is run by
hand. Demos 04-06 train or time for longer and are not run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ashlab

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = str(Path(ashlab.__file__).resolve().parents[1])


@pytest.mark.parametrize("name", ["01_percentile_thresholds", "02_activation_forms",
                                  "03_gradient_check"])
def test_demo_exits_zero_without_warnings(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", str(DEMOS / f"{name}.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
