"""Per-layer spans recorded from outside qgames.

``Tracer.install`` rebinds every reference to the traced public functions in
every loaded ``qgames.*`` module (names brought in with ``from ... import``
and the entries of ``checks.ALL_CHECKS`` included) to a wrapper that records
one span per call: name, start, end, parent span and operation id.  Spans
stay in memory and are written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

HAAR = "quantum.haar_su2_batch"


class Tracer:
    def __init__(self, functions: list[str]):
        self.functions = functions  # "module.function" names
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.op = None
        self.haar_draws: list = []  # (seed, indices) of the current operation
        self.op_draws: dict = {}  # op -> (draws, distinct (seed, index) pairs)
        self._undo: list = []
        self._t0 = time.perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self.op, "parent": self.stack[-1] if self.stack else None}
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter() - self._t0
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self._t0
                self.stack.pop()
                if name == HAAR:
                    seed, indices = args[0], np.asarray(args[1], dtype=np.uint64)
                    span["draws"] = len(indices)
                    self.haar_draws.append((seed, indices.copy()))

        return traced

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "qgames" or n.startswith("qgames.")}
        wrappers = {}
        for name in self.functions:
            module, attr = name.split(".")
            original = getattr(modules[f"qgames.{module}"], attr)
            wrappers[id(original)] = self._wrap(name, original)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        checks = modules["qgames.checks"].ALL_CHECKS
        self._undo.append((checks, None, list(checks)))
        checks[:] = [wrappers.get(id(fn), fn) for fn in checks]

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if attr is None:
                owner[:] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def end_op(self) -> None:
        """Fold the current operation's Haar draws into (draws, distinct) counts."""
        by_seed = defaultdict(list)
        for seed, indices in self.haar_draws:
            by_seed[seed].append(indices)
        draws = sum(len(i) for _, i in self.haar_draws)
        distinct = sum(len(np.unique(np.concatenate(parts))) for parts in by_seed.values())
        self.op_draws[self.op] = (draws, distinct)
        self.haar_draws = []

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for op, (draws, distinct) in self.op_draws.items():
                fh.write(json.dumps({"op": op, "haar_draws": draws, "haar_distinct": distinct}) + "\n")

    def layer_metrics(self, names: list[str], passes: list[int]) -> tuple[dict, bool]:
        """Per-layer metric values, and whether counts repeat in every pass.

        Times are medians over the traced passes; counts come from one pass.
        A span's self time is its duration minus its children's durations.
        """
        per_pass = {p: defaultdict(float) for p in passes}
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for k, span in enumerate(self.spans):
            acc = per_pass[span["op"][0]]
            duration = span["end"] - span["start"]
            acc[span["name"] + ".s"] += duration
            acc[span["name"] + ".self_s"] += duration - child_time[k]
            acc[span["name"] + ".calls"] += 1
            acc[span["name"] + ".draws"] += span.get("draws", 0)
        for (p, _), (draws, distinct) in self.op_draws.items():
            per_pass[p]["distinct"] += distinct
        for acc in per_pass.values():
            draws = acc[HAAR + ".draws"]
            acc[HAAR + ".distinct_ratio"] = acc["distinct"] / draws if draws else 0.0
        counts = [n for n in names if not n.endswith((".s", ".self_s"))]
        repeat = all(per_pass[p][n] == per_pass[passes[0]][n] for p in passes for n in counts)
        values = {}
        for n in names:
            if n in counts:
                value = per_pass[passes[0]][n]
                values[n] = int(value) if n.endswith((".calls", ".draws")) else value
            else:
                values[n] = statistics.median(per_pass[p][n] for p in passes)
        return values, repeat
