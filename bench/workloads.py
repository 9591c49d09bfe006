"""The benchmark's workloads: the qgames command lines each one runs.

Every workload is a fixed list of argument vectors for ``qgames.cli``,
built from the workload seed alone.  The ``ce-lp`` workload also writes the
game files it analyzes; the program sees only those JSON files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Samples per Monte-Carlo operation.  200k is the paper-check default; the
# haar-mc operations use a few hundred thousand so that sampling, not
# process start-up, sets their time and memory.
PAPER_CHECK_SAMPLES = 200_000
HAAR_MC_SAMPLES = 250_000

# An intermediate entanglement, where Haar-vs-Haar cells are still uniform
# but no single-sided identity makes them so.
INTERMEDIATE_GAMMA = "0.7"

BUILTINS = ("pd", "poker", "chicken")

# ce-lp game files: (rows, cols) of the seeded games, and of the fixed panel.
# 5x5 LP time varies 0.03-2 s from one random game to the next (Bland's rule
# pivot counts), so 5x5 games drawn per seed would make wall_s swing by tens
# of percent between seeds.  The 5x5 games therefore come from a panel drawn
# once from a constant seed; the seed varies the 3x3 and 4x4 games, whose
# time spread averages out over the pass.
SEEDED_SHAPES = [(3, 3)] * 8 + [(4, 4)] * 8
PANEL_SHAPES = [(5, 5)] * 3
PANEL_SEED = "qgames-ce-lp-panel"
PAYOFF_RANGE = (-9, 9)


def random_game(rng: random.Random, rows: int, cols: int) -> dict:
    """A game file with integer payoffs drawn uniformly from PAYOFF_RANGE."""
    lo, hi = PAYOFF_RANGE
    return {
        "players": [
            {"name": "Row", "strategies": [f"r{i + 1}" for i in range(rows)]},
            {"name": "Column", "strategies": [f"c{j + 1}" for j in range(cols)]},
        ],
        "payoffs": [
            [[rng.randint(lo, hi), rng.randint(lo, hi)] for _ in range(cols)]
            for _ in range(rows)
        ],
    }


def write_games(root: Path, directory: Path, seed: int) -> list[str]:
    """Write the ce-lp game files; returns their paths relative to ``root``."""
    directory.mkdir(parents=True, exist_ok=True)
    seeded = random.Random(f"qgames-ce-lp-{seed}")
    panel = random.Random(PANEL_SEED)
    games = [random_game(seeded, r, c) for r, c in SEEDED_SHAPES]
    games += [random_game(panel, r, c) for r, c in PANEL_SHAPES]
    paths = []
    for k, game in enumerate(games):
        path = directory / f"game{k:02d}_{len(game['payoffs'])}x{len(game['payoffs'][0])}.json"
        path.write_text(json.dumps(game) + "\n", encoding="utf-8")
        paths.append(path.relative_to(root).as_posix())
    return paths


def operations(name: str, seed: int, root: Path, out: Path) -> list[list[str]]:
    """The argument vectors of one pass over workload ``name``."""
    s = str(seed)
    if name == "paper-check":
        return [["paper-check", "--json", "--samples", str(PAPER_CHECK_SAMPLES), "--seed", s]]
    if name == "haar-mc":
        n = str(HAAR_MC_SAMPLES)
        ops = [
            ["ewl", "--game", g, "--gamma", "max", "--mixture", "haar", "--samples", n,
             "--seed", s, "--json"]
            for g in BUILTINS
        ]
        ops.append(
            ["ewl", "--game", "chicken", "--gamma", INTERMEDIATE_GAMMA, "--mixture", "haar",
             "--samples", n, "--seed", s, "--json"]
        )
        ops += [
            ["verify", "--game", g, "--profile", "haar", "--samples", n, "--seed", s]
            for g in BUILTINS
        ]
        return ops
    if name == "ce-lp":
        ops = [
            ["correlated", "--game", g, "--objective", objective]
            for g in BUILTINS
            for objective in ("welfare", "player1")
        ]
        ops += [["analyze", "--json", "--game", path] for path in write_games(root, out / f"games-{seed}", seed)]
        return ops
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("paper-check", "haar-mc", "ce-lp")
