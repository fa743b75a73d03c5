"""The quick demos run clean: each exits 0 with every warning an error.

Demos 01-03 call the public stats and activation API (`compute_stats`,
`gaussian_topk_mask`, `hard_ash`, `conditional_unit`, ...), so a renamed
or deleted entry point fails here rather than only when a demo is run by
hand. Demos 04-06 train or time for longer and are not run here, so
every demo's ashlab names are also checked by parsing it.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
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


_MISSING = object()


def _lookup(module: str, name: str):
    """`from module import name` without the statement: an attribute or a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return _MISSING


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_ashlab_names_resolve(path):
    # Each `from ashlab... import name`, and each `alias.attr` read where
    # alias is bound to an ashlab module, without running the demo.
    tree = ast.parse(path.read_text(), str(path))
    modules, checked, missing = {}, [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ashlab":
            for a in node.names:
                obj = _lookup(node.module, a.name)
                checked.append(f"{node.module}.{a.name}")
                if obj is _MISSING:
                    missing.append(checked[-1])
                elif isinstance(obj, types.ModuleType):
                    modules[a.asname or a.name] = obj.__name__
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            checked.append(f"{node.value.id}.{node.attr}")
            if _lookup(modules[node.value.id], node.attr) is _MISSING:
                missing.append(checked[-1])
    assert checked, f"{path.name} reads no ashlab name"
    assert not missing, f"{path.name} uses names ashlab lacks: {missing}"
