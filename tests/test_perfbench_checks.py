"""Each benchmark workload still runs and passes its own checks.

perfbench/run.py scores a run by the share of checks that pass: each
training run's, the full checks on the reference iteration's outputs,
and the fingerprint of every later iteration against the reference's.
This runs each workload's set-up and one iteration at seed 1, untimed,
so that a change which fails them is seen in the tests.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
NAMES = ("mlp_small", "mlp_wide", "gate_1m")


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", NAMES)
def test_workload_passes_its_checks(monkeypatch, tmp_path, name):
    workloads = load_workloads(monkeypatch)
    assert tuple(workloads.WORKLOADS) == NAMES
    w = workloads.WORKLOADS[name](1, str(tmp_path))
    w.setup()
    it = w.iterate()
    checks = it.runs + workloads.warm_checks(it.outputs)
    assert it.runs and [c for c in checks if c[1]] == []
    if name == "gate_1m":
        # The only workload cheap enough to iterate twice here.
        assert w.iterate().fingerprint == it.fingerprint
