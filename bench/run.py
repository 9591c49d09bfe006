"""Benchmark for qgames: end-to-end CLI timings and per-layer spans.

    python3 bench/run.py --workload paper-check|haar-mc|ce-lp|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; qgames is imported from ``src/``.
With ``--trace 0`` every operation runs as a fresh ``python -m qgames.cli``
process, one at a time (a closed loop with one client), in whole passes
over the workload for about ``--seconds``.  The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics of BENCHMARK.json.  With ``--trace 1`` one untimed pass of fresh
processes is followed by traced passes that call ``qgames.cli.main`` in
this process, and the metrics are the per-layer ones.  Every output is
checked by ``oracle`` and the checks are self-tested on it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import oracle
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable
IMPORT = "import sys, qgames; sys.stdout.write(qgames.__file__)"
SETUP_REPEATS = 9
OP_TIMEOUT_S = 120


class Outcome(NamedTuple):
    returncode: int
    stdout: bytes
    stderr: bytes = b""
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0


class Pass(NamedTuple):
    outcomes: list
    wall: float


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QGAMES_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], env: dict) -> Outcome:
    """Run one process to its end; its own rusage gives CPU and peak RSS."""
    # stderr goes to a file so that a full stderr pipe cannot stall stdout.
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        with subprocess.Popen(args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err) as proc:
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        err.seek(0)
        return Outcome(
            proc.returncode, out, err.read(), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024
        )


def run_pass(ops: list[list[str]], env: dict) -> Pass:
    start = time.perf_counter()
    outcomes = [run_child([PY, "-m", "qgames.cli", *argv], env) for argv in ops]
    return Pass(outcomes, time.perf_counter() - start)


def repeat_passes(run_one, seconds: float, minimum: int) -> list:
    """Whole passes, at least ``minimum``, while the next one should end in time."""
    passes: list = []
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(run_one())
    return passes


def evaluate(ops: list[list[str]], passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass.

    An operation fails when its process exits non-zero.  The outputs of the
    others must agree byte for byte across passes, meet every oracle claim,
    and every claim must reject its own breach of the output (self-test).
    """
    attempted = failed = 0
    problems = []
    for i, argv in enumerate(ops):
        outcomes = [p.outcomes[i] for p in passes]
        attempted += len(outcomes)
        good = [o for o in outcomes if o.returncode == 0]
        for o in outcomes:
            if o.returncode != 0:
                failed += 1
                print(f"failed (exit {o.returncode}): qgames {' '.join(argv)}\n"
                      f"{o.stderr.decode(errors='replace')[-2000:]}", file=sys.stderr)
        if not good:
            continue
        if any(o.stdout != good[0].stdout for o in good):
            problems.append(f"qgames {' '.join(argv)}: stdout differs between repeats")
        try:
            report = json.loads(good[0].stdout)
        except json.JSONDecodeError:
            problems.append(f"qgames {' '.join(argv)}: stdout is not JSON")
            continue
        claims = oracle.claims_for(argv, ROOT)
        for label in oracle.failures(report, claims):
            problems.append(f"qgames {' '.join(argv)}: wrong output: {label}")
        for label in oracle.self_test(report, claims):
            problems.append(f"qgames {' '.join(argv)}: check accepts a wrong output: {label}")
    return attempted, failed, problems


def measure_setup(env: dict) -> float:
    """Median wall time of fresh interpreters that import qgames."""
    times = []
    for _ in range(SETUP_REPEATS):
        o = run_child([PY, "-c", IMPORT], env)
        if o.returncode != 0 or Path(o.stdout.decode()).resolve() != (SRC / "qgames" / "__init__.py").resolve():
            raise SystemExit(f"bench: cannot import qgames from {SRC}: {o.stderr.decode(errors='replace')}")
        times.append(o.wall)
    return statistics.median(times)


def timed_run(ops, seconds: int, env: dict, spec: dict) -> dict:
    setup_s = measure_setup(env)
    # At least three passes, so that the median is not the mean of two: on
    # shared virtual CPUs one pass can run 20% slower than the next.
    passes = repeat_passes(lambda: run_pass(ops, env), seconds, 3)
    for k, p in enumerate(passes):
        print(
            f"pass {k + 1}: wall {p.wall:.3f} s, cpu {sum(o.cpu for o in p.outcomes):.3f} s, "
            f"peak rss {max(o.rss_mb for o in p.outcomes):.1f} MB"
        )
    attempted, failed, problems = evaluate(ops, passes)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p.outcomes) for p in passes),
    }
    return result(attempted, failed, problems, values, spec["end_to_end"])


def traced_run(ops, seconds: int, env: dict, spec: dict, trace_path: Path) -> dict:
    reference = run_pass(ops, env)
    sys.path.insert(0, str(SRC))
    import qgames.cli  # noqa: F401  (loads every qgames module)

    names = [m["name"] for m in spec["per_layer"]]
    tracer = Tracer(sorted({n.rsplit(".", 1)[0] for n in names}))
    tracer.install()

    numbers = itertools.count()

    def traced_pass() -> Pass:
        number = next(numbers)
        start = time.perf_counter()
        outcomes = []
        for i, argv in enumerate(ops):
            tracer.op = (number, i)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = sys.modules["qgames.cli"].main(list(argv))
            tracer.end_op()
            outcomes.append(Outcome(code, buf.getvalue().encode()))
        return Pass(outcomes, time.perf_counter() - start)

    try:
        passes = repeat_passes(traced_pass, seconds - reference.wall, 2)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    for k, p in enumerate(passes):
        print(f"traced pass {k + 1}: wall {p.wall:.3f} s (untraced processes: {reference.wall:.3f} s)")
    attempted, failed, problems = evaluate(ops, [reference, *passes])
    values, repeat = tracer.layer_metrics(names, list(range(len(passes))))
    if not repeat:
        problems.append("per-layer counts differ between traced passes")
    return result(attempted, failed, problems, values, spec["per_layer"])


def result(attempted, failed, problems, values: dict, metrics: list[dict]) -> dict:
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    if not (SRC / "qgames" / "cli.py").is_file():
        print(f"bench: no qgames sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    env = child_env()
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        print(f"workload {name}, seed {args.seed}, trace {args.trace}")
        ops = workloads.operations(name, args.seed, ROOT, OUT)
        if args.trace:
            trace_path = OUT / f"trace-{name}-seed{args.seed}.jsonl"
            results[name] = traced_run(ops, args.seconds, env, spec, trace_path)
        else:
            results[name] = timed_run(ops, args.seconds, env, spec)
        print(json.dumps({"workload": name, **results[name]}) if len(names) > 1 else json.dumps(results[name]))
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
