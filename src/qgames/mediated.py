"""Mediated communication: referee-recommended play and correlated equilibria.

A referee draws a cell of the game from a published distribution rho and
whispers to each player only that player's own coordinate.  Players commit
to response rules; following the recommendation is an equilibrium of the
induced game exactly when rho is a correlated equilibrium of the base game.

Two independent characterizations are implemented: a direct best-reply check
over response rules (2x2 games), and Aumann's obedience inequalities (any
finite 2-player game).  Optimization over the correlated-equilibrium
polytope runs on the exact-rational simplex solver in ``lp``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from . import lp
from .distributions import Dist
from .games import Game, InvalidProfileError
from .numeric import Scalar

RefereeDist = Dist


class ResponseRule(Enum):
    """How a player converts the referee's recommendation into an action."""

    ALWAYS_FIRST = "always-first"
    ALWAYS_SECOND = "always-second"
    FOLLOW = "follow"
    INVERT = "invert"

    def respond(self, recommendation: int) -> int:
        if recommendation not in (0, 1):
            raise InvalidProfileError(f"recommendation {recommendation!r} must be 0 or 1")
        if self is ResponseRule.ALWAYS_FIRST:
            return 0
        if self is ResponseRule.ALWAYS_SECOND:
            return 1
        if self is ResponseRule.FOLLOW:
            return recommendation
        return 1 - recommendation


def referee_dist(game: Game, weights) -> Dist:
    """A distribution over the game's cells from row-major weights."""
    cells = tuple(game.profiles())
    weights = tuple(weights)
    if len(weights) != len(cells):
        raise InvalidProfileError(f"expected {len(cells)} cell weights, got {len(weights)}")
    return Dist(cells, weights)


def _require_2x2(game: Game) -> None:
    if not game.is_2x2():
        raise InvalidProfileError("response-rule analysis only supports 2x2 games")


def g_com(game: Game, rho: Dist, s1: ResponseRule, s2: ResponseRule) -> tuple[Scalar, Scalar]:
    """Expected payoff pair when players answer rho's recommendations with rules."""
    _require_2x2(game)
    totals = [Fraction(0), Fraction(0)]
    for (a, b), w in rho.items():
        game.check_profile((a, b))
        u = game.payoff((s1.respond(a), s2.respond(b)))
        totals[0] = totals[0] + w * u[0]
        totals[1] = totals[1] + w * u[1]
    return totals[0], totals[1]


def embed_f(strategy: int) -> ResponseRule:
    """Embed a pure strategy as the rule that plays it unconditionally."""
    if strategy == 0:
        return ResponseRule.ALWAYS_FIRST
    if strategy == 1:
        return ResponseRule.ALWAYS_SECOND
    raise InvalidProfileError(f"strategy index {strategy!r} must be 0 or 1")


def is_correlated_eq(game: Game, rho: Dist) -> tuple[bool, Scalar]:
    """Is following the referee a best reply for both players?

    Checks every unilateral deviation from (FOLLOW, FOLLOW) to the other
    three rules; for 2-strategy games those are all response maps, so the
    check is complete.  Returns (equilibrium?, worst improvement found),
    the latter <= 0 at equilibrium.
    """
    _require_2x2(game)
    base = g_com(game, rho, ResponseRule.FOLLOW, ResponseRule.FOLLOW)
    worst = None
    for rule in ResponseRule:
        if rule is ResponseRule.FOLLOW:
            continue
        gain1 = g_com(game, rho, rule, ResponseRule.FOLLOW)[0] - base[0]
        gain2 = g_com(game, rho, ResponseRule.FOLLOW, rule)[1] - base[1]
        for gain in (gain1, gain2):
            if worst is None or gain > worst:
                worst = gain
    return worst <= 0, worst


class AumannViolation(NamedTuple):
    player: int
    recommended: int
    alternative: int
    shortfall: Scalar  # positive amount by which obedience fails


def aumann_check(game: Game, rho: Dist) -> tuple[bool, list[AumannViolation]]:
    """Aumann's obedience inequalities for any finite 2-player game.

    For each player, recommended strategy and alternative: the expected
    payoff of obeying, over the cells where that strategy is recommended, must
    be at least that of switching, i.e. coeffs.rho >= 0 for every row of
    ``obedience_constraints``.  A recommendation that is never made gives
    coeffs.rho = 0.  Returns all violated triples.
    """
    for profile in rho.support:
        game.check_profile(profile)
    mass = dict(rho.items())
    weights = [mass.get(cell, 0) for cell in game.profiles()]
    violations = []
    for coeffs, player, rec, alt in obedience_constraints(game):
        margin = sum(c * w for c, w in zip(coeffs, weights))
        if margin < 0:
            violations.append(AumannViolation(player, rec, alt, -margin))
    return not violations, violations


def obedience_constraints(game: Game):
    """Rows (coeffs over cells, player, rec, alt) with coeffs.rho >= 0 required."""
    cells = game.profiles()
    index = {cell: k for k, cell in enumerate(cells)}
    rows_, cols = game.shape
    out = []
    for player, own_count in ((0, rows_), (1, cols)):
        for rec in range(own_count):
            for alt in range(own_count):
                if alt == rec:
                    continue
                coeffs = [Fraction(0)] * len(cells)
                for (a, b) in cells:
                    if (a if player == 0 else b) != rec:
                        continue
                    swapped = (alt, b) if player == 0 else (a, alt)
                    # In Fractions, so that float payoffs give exact coefficients too.
                    coeffs[index[(a, b)]] = Fraction(game.payoff((a, b))[player]) - Fraction(
                        game.payoff(swapped)[player]
                    )
                out.append((coeffs, player, rec, alt))
    return out


class ObedienceMultiplier(NamedTuple):
    player: int
    recommended: int
    alternative: int
    multiplier: Fraction  # dual multiplier of that obedience row, >= 0


class CeOptimum(NamedTuple):
    """An optimal correlated equilibrium and the dual certificate of its value.

    With coeffs_i the rows of ``obedience_constraints`` and u_i their
    multipliers, every cell k satisfies
    simplex_multiplier - sum_i u_i * coeffs_i[k] >= objective[k].  Summed
    against any correlated equilibrium rho this bounds objective.rho by
    simplex_multiplier, which equals value: the value is optimal.
    """

    value: Fraction
    rho: Dist
    obedience_multipliers: tuple[ObedienceMultiplier, ...]
    simplex_multiplier: Fraction


def ce_optimize(game: Game, objective) -> CeOptimum:
    """Maximize a linear objective over the correlated-equilibrium polytope.

    ``objective`` gives one coefficient per cell, row-major.  Returns the
    optimal value, an optimal vertex as a cell distribution and the dual
    multipliers that certify the value, all exact.  The polytope is never
    empty (a Nash equilibrium always provides a point), so infeasibility
    indicates a bug.
    """
    cells = game.profiles()
    objective = [Fraction(v) for v in objective]
    if len(objective) != len(cells):
        raise InvalidProfileError(f"objective needs {len(cells)} coefficients")
    constraints = obedience_constraints(game)
    a_ub = [[-v for v in coeffs] for coeffs, _, _, _ in constraints]
    b_ub = [Fraction(0)] * len(a_ub)
    a_eq = [[Fraction(1)] * len(cells)]
    b_eq = [Fraction(1)]
    try:
        result = lp.maximize(objective, a_ub, b_ub, a_eq, b_eq)
    except lp.LpInfeasible as exc:  # pragma: no cover - CE polytope is never empty
        raise RuntimeError("correlated-equilibrium polytope reported empty") from exc
    *obedience, simplex = result.duals
    multipliers = tuple(
        ObedienceMultiplier(player, rec, alt, u)
        for (_, player, rec, alt), u in zip(constraints, obedience)
    )
    return CeOptimum(result.value, Dist(tuple(cells), result.x), multipliers, simplex)
