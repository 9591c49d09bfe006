"""The functions that BENCHMARK.json's per-layer metrics trace still exist.

The benchmark's tracer looks up each ``<module>.<function>`` with
``getattr(qgames.<module>, function)``, so removing or renaming a traced
function breaks every traced run.  Its traced run imports ``qgames.cli``
alone and then finds every traced module in ``sys.modules``, so that import
must register them all.  This reads BENCHMARK.json only.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
TRACED = sorted({metric["name"].rsplit(".", 1)[0] for metric in SPEC["per_layer"]})


def test_per_layer_names_are_module_function_pairs():
    assert TRACED and all(name.count(".") == 1 for name in TRACED)


@pytest.mark.parametrize("name", TRACED)
def test_traced_function_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"qgames.{module}"), function, None))


def test_importing_the_cli_registers_every_traced_module_without_numpy():
    code = "import json, sys, qgames.cli; print(json.dumps(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout))
    assert {f"qgames.{name.split('.')[0]}" for name in TRACED} <= loaded
    assert "numpy" not in loaded
