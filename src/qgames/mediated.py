"""Mediated communication: referee-recommended play and correlated equilibria.

A referee draws a cell of the game from a published distribution rho and
whispers to each player only that player's own coordinate.  Players commit
to response rules; following the recommendation is an equilibrium of the
induced game exactly when rho is a correlated equilibrium of the base game.

Two independent characterizations are implemented: a direct best-reply check
over response rules through the mediated payoff ``g_com`` (2x2 games), and
Aumann's obedience inequalities (any finite 2-player game).  Optimization
over the correlated-equilibrium polytope runs on the exact-rational simplex
solver in ``lp``.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from .distributions import Dist
from .games import Game, InvalidProfileError
from .numeric import Scalar, parse_scalar


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


def g_com(game: Game, rho: Dist, s1: ResponseRule, s2: ResponseRule) -> tuple[Scalar, Scalar]:
    """Expected payoff pair when players answer rho's recommendations with
    rules: the mediated payoff G_com, linear in rho's weights."""
    if not game.is_2x2():
        raise InvalidProfileError("response-rule analysis only supports 2x2 games")
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

    Compares ``g_com`` at (FOLLOW, FOLLOW) with each unilateral deviation to
    the other three rules; for 2-strategy games those are all response maps,
    so the check is complete.  Returns (equilibrium?, worst improvement
    found), the latter <= 0 at equilibrium.
    """
    follow = ResponseRule.FOLLOW
    base = g_com(game, rho, follow, follow)
    gains = []
    for rule in ResponseRule:
        if rule is not follow:
            gains.append(g_com(game, rho, rule, follow)[0] - base[0])
            gains.append(g_com(game, rho, follow, rule)[1] - base[1])
    worst = max(gains)
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
    """Rows (coeffs over cells, player, rec, alt) with coeffs.rho >= 0 required.

    At a cell that recommends rec to the player, the coefficient is what
    obeying pays them over playing alt against the same opponent strategy.
    """
    cells, zero = game.profiles(), Fraction(0)
    out = []
    for player in (0, 1):
        columns = [game.replies(player, other) for other in range(game.shape[1 - player])]
        for rec, alt in permutations(range(game.shape[player]), 2):
            gains = [column[rec] - column[alt] for column in columns]
            coeffs = [gains[cell[1 - player]] if cell[player] == rec else zero for cell in cells]
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

    ``objective`` gives one coefficient per cell, row-major, each read by
    ``numeric.parse_scalar`` (a float 0.1 is 1/10).  Returns the
    optimal value, an optimal vertex as a cell distribution and the dual
    multipliers that certify the value, all exact.  The polytope is never
    empty (a Nash equilibrium always provides a point), so infeasibility
    indicates a bug.
    """
    from . import lp  # only here, so that checking referees never loads the simplex

    cells = game.profiles()
    objective = [parse_scalar(v) for v in objective]
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
