"""Finite 2-player games: payoff tables, dominance, pure Nash.

A game is a dense table mapping a (row, column) pure-strategy profile to a
pair of utilities.  Every utility is an exact rational (``Fraction``), read
by ``numeric.parse_scalar``, so equilibrium arithmetic stays exact.  All
values are immutable and every operation here is pure.

``Game.replies`` is the one place a unilateral pure deviation is written:
pure Nash, dominance and the obedience rows of ``mediated`` all read a
player's payoffs through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from .numeric import BadRationalError, parse_scalar

PureProfile = tuple[int, int]

# Largest payoff magnitude a game may have.  Monte-Carlo standard errors sum
# up to 1e6 squared deviations of at most twice a payoff, which stays below
# the float maximum (1.8e308) for payoffs within 1e150.
MAX_PAYOFF = 10**150

# Most strategies per player in a game file, so that no file asks for unbounded run time:
# ``analyze`` took up to 3.1 s on 10x10 files, payoffs in [-9, 9], and 17.8 s on 12x12 (2-vCPU Xeon).
MAX_STRATEGIES = 10


class GameError(Exception):
    pass


class InvalidProfileError(GameError):
    """A strategy index out of range for its player."""


def check_player(player: int) -> None:
    if player not in (0, 1):
        raise InvalidProfileError(f"player index {player!r} must be 0 or 1")


class GameFormatError(GameError):
    """A game description that does not meet the file contract.

    ``code`` is machine-readable: one of ``malformed-json``, ``bad-structure``,
    ``player-count``, ``ragged-payoffs``, ``bad-rational``, ``not-found``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Game:
    """A finite 2-player game in normal form.

    payoffs[row][col] is the pair (row player's utility, column player's
    utility).  Construction normalizes nested lists to tuples and every payoff
    entry (int, float, decimal or 'a/b' string) to a Fraction.
    """

    strategy_names: tuple[tuple[str, ...], tuple[str, ...]]
    payoffs: tuple[tuple[tuple[Fraction, Fraction], ...], ...]
    player_names: tuple[str, str] = ("Player 1", "Player 2")
    name: str = ""

    def __post_init__(self):
        names = tuple(tuple(str(s) for s in per_player) for per_player in self.strategy_names)
        if len(names) != 2:
            raise GameFormatError("player-count", f"expected 2 players, got {len(names)}")
        if any(len(per_player) == 0 for per_player in names):
            raise GameFormatError("bad-structure", "each player needs at least one strategy")
        rows, cols = len(names[0]), len(names[1])

        table = []
        if len(self.payoffs) != rows:
            raise GameFormatError(
                "ragged-payoffs", f"expected {rows} payoff rows, got {len(self.payoffs)}"
            )
        for row in self.payoffs:
            if len(row) != cols:
                raise GameFormatError(
                    "ragged-payoffs", f"expected {cols} entries per row, got {len(row)}"
                )
            fixed_row = []
            for entry in row:
                entry = tuple(entry) if not isinstance(entry, tuple) else entry
                if len(entry) != 2:
                    raise GameFormatError(
                        "ragged-payoffs", f"payoff entry {entry!r} must have 2 components"
                    )
                pair = tuple(parse_scalar(u) for u in entry)
                if any(abs(u) > MAX_PAYOFF for u in pair):
                    raise BadRationalError(f"payoff {entry!r} outside [-1e150, 1e150]")
                fixed_row.append(pair)
            table.append(tuple(fixed_row))

        object.__setattr__(self, "strategy_names", names)
        object.__setattr__(self, "payoffs", tuple(table))
        object.__setattr__(self, "player_names", tuple(str(p) for p in self.player_names))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.strategy_names[0]), len(self.strategy_names[1])

    def check_profile(self, profile: PureProfile) -> None:
        if len(profile) != 2:
            raise InvalidProfileError(f"profile {profile!r} must have one choice per player")
        for player, choice in enumerate(profile):
            if not isinstance(choice, int) or not 0 <= choice < self.shape[player]:
                raise InvalidProfileError(
                    f"strategy {choice!r} out of range for player {player + 1}"
                )

    def payoff(self, profile: PureProfile) -> tuple[Fraction, Fraction]:
        """The outcome pair at a pure-strategy profile."""
        self.check_profile(profile)
        return self.payoffs[profile[0]][profile[1]]

    def profiles(self) -> list[PureProfile]:
        """All pure profiles in lexicographic (row-major) order."""
        rows, cols = self.shape
        return [(i, j) for i in range(rows) for j in range(cols)]

    def is_2x2(self) -> bool:
        return self.shape == (2, 2)

    def label(self, profile: PureProfile) -> str:
        return f"({self.strategy_names[0][profile[0]]},{self.strategy_names[1][profile[1]]})"

    def replies(self, player: int, other: int) -> tuple[Fraction, ...]:
        """``player``'s payoff from each own strategy, in index order, against
        the opponent's pure strategy ``other``."""
        check_player(player)
        if not isinstance(other, int) or not 0 <= other < self.shape[1 - player]:
            raise InvalidProfileError(f"strategy {other!r} out of range for player {2 - player}")
        cells = [row[other] for row in self.payoffs] if player == 0 else self.payoffs[other]
        return tuple(cell[player] for cell in cells)


def is_nash(game: Game, profile: PureProfile) -> tuple[bool, tuple[Fraction, Fraction]]:
    """Whether every player's choice is a best reply, plus each player's
    maximum unilateral improvement (0 when there is none)."""
    current = game.payoff(profile)
    gains = tuple(max(game.replies(player, profile[1 - player])) - current[player] for player in (0, 1))
    return gains == (0, 0), gains


def pure_nash_all(game: Game) -> list[PureProfile]:
    """All pure Nash profiles, in lexicographic order."""
    return [p for p in game.profiles() if is_nash(game, p)[0]]


class Dominance(NamedTuple):
    dominating: int
    dominated: int
    strict: bool


def dominance(game: Game, player: int) -> list[Dominance]:
    """Ordered pairs (a, b) where strategy a dominates b for ``player``.

    strict=True when a beats b against every opponent strategy; strict=False
    for weak dominance (never worse, better at least once).
    """
    check_player(player)
    columns = [game.replies(player, other) for other in range(game.shape[1 - player])]
    results = []
    for a, b in permutations(range(game.shape[player]), 2):
        diffs = [column[a] - column[b] for column in columns]
        if all(d > 0 for d in diffs):
            results.append(Dominance(a, b, True))
        elif all(d >= 0 for d in diffs) and any(d > 0 for d in diffs):
            results.append(Dominance(a, b, False))
    return results


# Built-in catalog: the three 2x2 games every analysis command accepts by name.

def prisoners_dilemma() -> Game:
    return Game(
        strategy_names=(("s1", "s2"), ("t1", "t2")),
        payoffs=((("3", "3"), ("0", "5")), (("5", "0"), ("1", "1"))),
        name="pd",
    )


def simplified_poker() -> Game:
    return Game(
        strategy_names=(("s1", "s2"), ("t1", "t2")),
        payoffs=((("5/4", "-5/4"), ("0", "0")), (("0", "0"), ("5/2", "-5/2"))),
        name="poker",
    )


def chicken() -> Game:
    return Game(
        strategy_names=(("s1", "s2"), ("t1", "t2")),
        payoffs=((("2", "2"), ("0", "3")), (("3", "0"), ("-1", "-1"))),
        name="chicken",
    )


BUILTIN_GAMES = {
    "pd": prisoners_dilemma,
    "poker": simplified_poker,
    "chicken": chicken,
}


def game_from_dict(data, name: str = "") -> Game:
    """Build a Game from the JSON file structure; see load_game for the schema."""
    if not isinstance(data, dict):
        raise GameFormatError("bad-structure", "top level must be a JSON object")
    players = data.get("players")
    if not isinstance(players, list):
        raise GameFormatError("bad-structure", "missing 'players' array")
    if len(players) != 2:
        raise GameFormatError("player-count", f"expected 2 players, got {len(players)}")
    names = []
    strategies = []
    for i, p in enumerate(players):
        if not isinstance(p, dict) or not isinstance(p.get("strategies"), list):
            raise GameFormatError("bad-structure", f"player {i + 1} needs a 'strategies' array")
        player, labels = p.get("name", f"Player {i + 1}"), p["strategies"]
        if not all(isinstance(x, str) for x in (player, *labels)):
            raise GameFormatError("bad-structure", f"player {i + 1}'s names must be strings")
        if len(set(labels)) < len(labels):
            raise GameFormatError("bad-structure", f"player {i + 1} repeats a strategy name")
        if len(labels) > MAX_STRATEGIES:
            raise GameFormatError("bad-structure", f"player {i + 1} has more than {MAX_STRATEGIES} strategies")
        names.append(player)
        strategies.append(tuple(labels))
    payoffs = data.get("payoffs")
    if not isinstance(payoffs, list) or not all(isinstance(r, list) for r in payoffs):
        raise GameFormatError("bad-structure", "missing 'payoffs' 2-D array")
    if not all(isinstance(cell, list) for row in payoffs for cell in row):
        raise GameFormatError("bad-structure", "each payoff cell must be a [u1, u2] array")
    try:
        return Game(
            strategy_names=tuple(strategies),
            payoffs=tuple(tuple(tuple(cell) for cell in row) for row in payoffs),
            player_names=(names[0], names[1]),
            name=name,
        )
    except BadRationalError as exc:
        raise GameFormatError("bad-rational", str(exc)) from exc


def load_game(source: str) -> Game:
    """Load a game by builtin name (pd | poker | chicken) or from a JSON file.

    File schema: {"players": [{"name", "strategies": [...]}, ...2 of them],
    "payoffs": [[[u1, u2], ...] per row]}, each payoff an integer, a decimal
    number or an "a/b" string, read exactly: 0.1 is 1/10.
    """
    if source in BUILTIN_GAMES:
        return BUILTIN_GAMES[source]()
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GameFormatError(
            "not-found", f"{source!r} is neither a builtin game nor a readable file"
        ) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFormatError("malformed-json", f"{source}: {exc}") from exc
    return game_from_dict(data, name=source)
