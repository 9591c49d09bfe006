"""Every function under ``src/qgames`` runs in some command, or is named here.

A fixed sweep of command lines runs in process through ``cli.main`` under
``sys.setprofile``.  It covers every command on the builtins and on 2x2 to
5x5 game files, text and JSON output, each option, exit codes 0, 1 and 2,
and input and usage errors.  The functions it never enters must be exactly
``UNREACHED``: a function that no command runs belongs in the tests, as an
oracle, or nowhere.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import qgames
from qgames import cli

SRC = Path(qgames.__file__).parent

UNREACHED = {
    # The package's PEP 562 hooks and the CLI's lazy loader run at import,
    # before the sweep starts.
    "__init__.__getattr__",
    "__init__.__dir__",
    "cli._lazy",
    # The exact simplex's cold start, run when the float pass proposes no basis.
    "lp._Tableau.objective",
    # BENCHMARK.json traces these per layer, so they stay in src/ until the
    # benchmark drops their names.
    "equilibria.security_scan",
    "ewl.scan_payoffs",
    "ewl.sample_payoffs_at",
    "quantum.su2_grid",
    # The finite-mixture path of ewl.moment, which no command builds yet.
    "quantum.Unitary2.quaternion",
    "quantum.Unitary2.from_matrix",
}

_GAMES = {
    # Exact strings, decimals and integers, with ties.
    "g2x2.json": [[["1/2", 0.1], [0, 3]], [[2, "-1/3"], [0.25, 0.25]]],
    "g2x3.json": [[[3, 1], [0, 0], [1, 2]], [[0, 2], [2, 1], [1, 1]]],
    "g3x3.json": [[[1, 1], [0, 2], [2, 0]], [[2, 0], [1, 1], [0, 2]], [[0, 2], [2, 0], [1, 1]]],
    "g4x4.json": [[[(3 * i + 5 * j) % 7 - 3, (2 * i + 3 * j + 1) % 5 - 2] for j in range(4)] for i in range(4)],
    "g5x5.json": [[[(i * j + 2 * i) % 6 - 2, (i + 4 * j) % 7 - 3] for j in range(5)] for i in range(5)],
}
_BAD_FILES = {
    "malformed.json": "{",
    "no-players.json": "[]",
    "three-players.json": json.dumps({"players": [{"strategies": ["a"]}] * 3, "payoffs": [[[0, 0]]]}),
    "ragged.json": json.dumps({"players": [{"strategies": ["a", "b"]}] * 2, "payoffs": [[[0, 0], [1, 1]]]}),
    "bad-rational.json": json.dumps({"players": [{"strategies": ["a"]}] * 2, "payoffs": [[["1/0", 0]]]}),
    "eleven.json": json.dumps(
        {"players": [{"strategies": [f"s{k}" for k in range(11)]}] * 2, "payoffs": [[[0, 0]] * 11] * 11}
    ),
}


def _game_file(payoffs) -> str:
    players = [{"name": f"P{p + 1}", "strategies": [f"s{k}" for k in range(n)]}
               for p, n in enumerate((len(payoffs), len(payoffs[0])))]
    return json.dumps({"players": players, "payoffs": payoffs})


def sweep(directory: Path) -> list[list[str]]:
    """The command lines of the sweep, with its game files written to ``directory``."""
    for name, payoffs in _GAMES.items():
        (directory / name).write_text(_game_file(payoffs))
    for name, text in _BAD_FILES.items():
        (directory / name).write_text(text)
    files = [str(directory / name) for name in _GAMES]
    builtins = ["pd", "poker", "chicken"]
    two_by_two = [*builtins, files[0]]
    commands = []
    for game in builtins + files:
        commands += [["analyze", "--game", game], ["analyze", "--game", game, "--json"]]
        commands += [["correlated", "--game", game], ["correlated", "--game", game, "--objective", "player2"]]
    commands += [
        ["analyze", "--game", "pd", "--mixed", "1/3,1/2"],
        ["analyze", "--game", "chicken", "--mixed", "0.5,0.5", "--json"],
        ["analyze", "--game", "pd", "--gamma", "0.7", "--gamma", "max"],
        ["analyze", "--game", files[0], "--gamma", "0", "--json"],
        ["analyze", "--game", files[2], "--gamma", "max"],
        ["analyze", "--game", files[2], "--mixed", "1/2,1/2"],
        ["analyze", "--game", "pd", "--mixed", "a,b"],
        ["analyze", "--game", "pd", "--gamma", "2"],
        ["analyze", "--game", "pd", "--gamma", "abc"],
        ["correlated", "--game", "pd", "--rho", "0,0,0,1"],
        ["correlated", "--game", "pd", "--rho", "1/4,1/4,1/4,1/4"],
        ["correlated", "--game", "chicken", "--rho", "1/3,1/3,1/3,0"],
        ["correlated", "--game", "chicken", "--objective", "player1"],
        ["correlated", "--game", "poker", "--objective", "custom:1,0,0,1"],
        ["correlated", "--game", files[1], "--rho", "1/6,1/6,1/6,1/6,1/6,1/6"],
        ["correlated", "--game", "pd", "--objective", "nobody"],
        ["correlated", "--game", "pd", "--rho", "1,1"],
        ["correlated", "--game", "pd", "--rho", "1/2,1/2,1/2,-1/2"],
    ]
    for game in two_by_two:
        for check in ("proper", "complete"):
            commands += [["ewl", "--game", game, "--gamma", "0.7", "--check", check]]
            commands += [["ewl", "--game", game, "--gamma", "max", "--check", check, "--json"]]
        commands += [
            ["ewl", "--game", game, "--gamma", "max"],
            ["ewl", "--game", game, "--gamma", "0.3", "--uA", "1.2,0.4,2.0", "--uB", "0.5,1,3", "--json"],
            ["ewl", "--game", game, "--gamma", "max", "--mixture", "haar", "--samples", "2000", "--seed", "1"],
            ["verify", "--game", game, "--profile", "haar", "--samples", "2000"],
        ]
    commands += [
        ["ewl", "--game", "pd", "--gamma", "0.7", "--mixture", "haar", "--samples", "2000", "--json"],
        # More draws than one chunk (ewl.CHUNK), so that chunk Moments merge.
        ["ewl", "--game", "chicken", "--gamma", "max", "--mixture", "haar", "--samples", "9000", "--json"],
        ["ewl", "--game", "pd", "--gamma", "max", "--uA", "3.14159,0,0"],
        ["ewl", "--game", "pd", "--gamma", "max", "--samples", "1"],
        ["ewl", "--game", "pd", "--gamma", "max", "--check", "proper", "--samples", "5"],
        ["ewl", "--game", "pd", "--gamma", "max", "--mixture", "haar", "--uA", "0,0,0"],
        ["ewl", "--game", "pd", "--gamma", "max", "--seed", "3"],
        ["ewl", "--game", "pd", "--gamma", "max", "--uA", "1,2"],
        ["ewl", "--game", "pd", "--gamma", "max", "--uA", "1e400,0,0"],
        ["ewl", "--game", files[2], "--gamma", "max"],
        ["verify", "--game", "pd", "--profile", "classical:0,0"],
        ["verify", "--game", "pd", "--profile", "classical:1,1"],
        ["verify", "--game", "chicken", "--profile", "classical:1/2,1/2"],
        ["verify", "--game", files[0], "--profile", "classical:1/3,2/3"],
        ["verify", "--game", "pd", "--gamma", "0.7", "--profile", "haar", "--samples", "2000", "--seed", "2"],
        ["verify", "--game", "poker", "--gamma", "0", "--profile", "haar", "--samples", "2000"],
        ["verify", "--game", "pd", "--profile", "mixed"],
        ["verify", "--game", "pd", "--gamma", "1", "--profile", "classical:0,0"],
        ["verify", "--game", files[2], "--profile", "haar", "--samples", "2000"],
        ["verify", "--game", files[2], "--profile", "classical:1,0"],
        ["paper-check", "--samples", "1"],
        [],
        ["bogus"],
        ["analyze"],
        ["analyze", "--game", str(directory / "missing.json")],
    ]
    for seed in ("0", "3"):
        commands += [["paper-check", "--samples", "2000", "--seed", seed]]
        commands += [["paper-check", "--samples", "2000", "--seed", seed, "--json"]]
    commands += [["analyze", "--game", str(directory / name)] for name in _BAD_FILES]
    return commands


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """One command line through ``cli.main``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def defined_functions() -> set[str]:
    """Every function and method under ``src/qgames`` as module.qualname."""
    names = set()

    def visit(node, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}.{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return names


def test_the_sweep_enters_every_function_but_the_named_ones(tmp_path):
    commands = sweep(tmp_path)
    entered, codes = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in commands:
            codes.add(run_command(argv)[0])
    finally:
        sys.setprofile(previous)
    reached = {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in entered if Path(c.co_filename).parent == SRC}
    assert len(commands) >= 95 and codes == {0, 1, 2}
    assert defined_functions() - reached == UNREACHED
