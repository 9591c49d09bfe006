"""The functions that BENCHMARK.json's per-layer metrics trace still exist.

The benchmark's tracer looks up each ``<module>.<function>`` with
``getattr(qgames.<module>, function)``, so removing or renaming a traced
function breaks every traced run.  This reads BENCHMARK.json only.
"""

import importlib
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
TRACED = sorted({metric["name"].rsplit(".", 1)[0] for metric in SPEC["per_layer"]})


def test_per_layer_names_are_module_function_pairs():
    assert TRACED and all(name.count(".") == 1 for name in TRACED)


@pytest.mark.parametrize("name", TRACED)
def test_traced_function_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"qgames.{module}"), function, None))
