"""Equilibrium computation and certification, classical and quantum.

Classical 2x2 equilibria are solved exactly in rationals (support
enumeration plus indifference conditions).  Quantum equilibria cannot be
enumerated, so they are certified numerically: unilateral deviations are
scanned over a 3-angle grid of pure unitaries and the certification
tolerance (3 standard errors plus an empirical Lipschitz-times-spacing grid
allowance) is reported inside every result.  Scanning pure deviations
suffices: the deviating player's expected payoff is linear in their own
mixture, so no mixture can beat the best pure deviation.  The opponent
enters every scan in its one form (``ewl.Stack``), through a 4x4 Gram
matrix weighted by its support weights: a finite support is summed exactly
and a Haar mixture averaged over its draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import Dist, MixedProfile, embed_pure, g_mix
from .ewl import (
    EwlConfig,
    HaarMixture,
    QuantumMixture,
    Stack,
    g_mq,
    mean_se,
    mixture_draws,
    mixture_stack,
    sample_payoffs_at,
    scan_payoffs,
)
from .games import Game, InvalidProfileError, pure_nash_all
from .numeric import Scalar, format_scalar, scalar_to_json
from .quantum import su2_grid

_DEVIATION_NOTE = (
    "pure deviations suffice: expected payoff is linear in the deviating "
    "player's own mixture"
)


@dataclass(frozen=True)
class MixedEquilibrium:
    profile: MixedProfile
    payoff: tuple[Scalar, Scalar]
    degenerate: bool = False
    note: str = ""


@dataclass(frozen=True)
class EquilibriumReport:
    """A certified (or refuted) equilibrium claim with its tolerance."""

    description: str
    payoff: tuple
    payoff_se: tuple
    max_deviation_gain: tuple
    epsilon: Scalar
    certified: bool
    method: str  # exact | grid | monte_carlo
    samples: int | None = None
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.certified and any(g > self.epsilon for g in self.max_deviation_gain):
            raise ValueError("certified report with deviation gain above epsilon")

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "payoff": [scalar_to_json(v) for v in self.payoff],
            "payoff_se": [float(v) for v in self.payoff_se],
            "max_deviation_gain": [scalar_to_json(v) for v in self.max_deviation_gain],
            "epsilon": scalar_to_json(self.epsilon),
            "certified": self.certified,
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            "details": self.details,
        }


def _indifference_weight(d_first: Scalar, d_second: Scalar):
    """Solve w*d_first + (1-w)*d_second = 0; returns (weight, degenerate?)."""
    a = d_first - d_second
    if a == 0:
        return (None, d_second == 0)
    return (-d_second / a, False)


def mixed_nash_2x2(game: Game) -> list[MixedEquilibrium]:
    """All pure equilibria plus the fully mixed one, solved exactly.

    Degenerate games (a player indifferent regardless of the opponent's mix)
    are reported as one-parameter families with the ``degenerate`` flag and a
    midpoint representative.
    """
    if not game.is_2x2():
        raise InvalidProfileError("mixed equilibrium solver only supports 2x2 games")
    u = game.payoff
    results = [
        MixedEquilibrium(
            MixedProfile(embed_pure(i, 2), embed_pure(j, 2)),
            g_mix(game, MixedProfile(embed_pure(i, 2), embed_pure(j, 2))),
            note=f"pure {game.label((i, j))}",
        )
        for i, j in pure_nash_all(game)
    ]

    # Row weight p makes the column player indifferent; column weight q makes
    # the row player indifferent.
    p, p_free = _indifference_weight(u((0, 0))[1] - u((0, 1))[1], u((1, 0))[1] - u((1, 1))[1])
    q, q_free = _indifference_weight(u((0, 0))[0] - u((1, 0))[0], u((0, 1))[0] - u((1, 1))[0])

    def interior(w) -> bool:
        return w is not None and 0 < w < 1

    half = Fraction(1, 2)
    if p_free and q_free:
        profile = MixedProfile.from_weights((half, half), (half, half))
        results.append(
            MixedEquilibrium(
                profile, g_mix(game, profile), True, "every mixed profile is an equilibrium"
            )
        )
    elif p_free and q is not None and 0 <= q <= 1:
        profile = MixedProfile.from_weights((half, half), (q, 1 - q))
        results.append(
            MixedEquilibrium(profile, g_mix(game, profile), True, "row weight free in [0, 1]")
        )
    elif q_free and p is not None and 0 <= p <= 1:
        profile = MixedProfile.from_weights((p, 1 - p), (half, half))
        results.append(
            MixedEquilibrium(profile, g_mix(game, profile), True, "column weight free in [0, 1]")
        )
    elif interior(p) and interior(q):
        profile = MixedProfile.from_weights((p, 1 - p), (q, 1 - q))
        results.append(MixedEquilibrium(profile, g_mix(game, profile), False, "fully mixed"))
    return results


def verify_classical_eq(game: Game, m: MixedProfile) -> EquilibriumReport:
    """Exact best-reply check of a mixed profile over pure deviations."""
    m.check_for(game)
    current = g_mix(game, m)
    gains = []
    for player in (0, 1):
        arity = game.shape[player]
        best = None
        for k in range(arity):
            alt = MixedProfile(embed_pure(k, arity), m.col) if player == 0 else MixedProfile(
                m.row, embed_pure(k, arity)
            )
            gain = g_mix(game, alt)[player] - current[player]
            if best is None or gain > best:
                best = gain
        gains.append(best)
    certified = all(g <= 0 for g in gains)
    row_text = ",".join(format_scalar(w) for w in m.row.weights)
    col_text = ",".join(format_scalar(w) for w in m.col.weights)
    return EquilibriumReport(
        description=f"classical mixed profile row=({row_text}) col=({col_text})",
        payoff=tuple(current),
        payoff_se=(0.0, 0.0),
        max_deviation_gain=tuple(gains),
        epsilon=Fraction(0),
        certified=certified,
        method="exact",
        details={"deviation_note": _DEVIATION_NOTE},
    )


def _rekey(m: QuantumMixture, samples: int | None, seed: int | None) -> QuantumMixture:
    if isinstance(m, HaarMixture):
        return HaarMixture(
            m.seed if seed is None else seed,
            m.sample_count if samples is None else samples,
        )
    return m


def _mixture_label(m: QuantumMixture) -> str:
    if isinstance(m, HaarMixture):
        return f"haar(seed={m.seed}, n={m.sample_count})"
    return f"finite({len(m.support)} unitaries)"


def _scan_deviations(
    config: EwlConfig, player: int, opponent: Stack, grid: np.ndarray
) -> tuple[np.ndarray, float]:
    """Deviating player's mean payoff per grid unitary, plus SE at the best one."""
    means = scan_payoffs(config, player, grid, opponent, player)
    best = sample_payoffs_at(config, player, grid[int(np.argmax(means))], opponent, player)
    return means, float(mean_se(best)[1])


def _grid_allowance(values: np.ndarray, grid_n: int) -> float:
    """Empirical Lipschitz bound times grid spacing, per the scan axes."""
    cube = values.reshape(grid_n, grid_n, grid_n)
    spacings = (math.pi / (grid_n - 1), 2 * math.pi / grid_n, 2 * math.pi / grid_n)
    slope = 0.0
    for axis, h in enumerate(spacings):
        diffs = np.abs(np.diff(cube, axis=axis))
        if diffs.size:
            slope = max(slope, float(diffs.max()) / h)
    return slope * max(spacings)


def verify_quantum_eq(
    config: EwlConfig,
    mA: QuantumMixture,
    mB: QuantumMixture,
    deviation_grid: int = 8,
    samples: int | None = None,
    seed: int | None = None,
) -> EquilibriumReport:
    """Certify a quantum mixture profile against gridded pure deviations.

    ``samples`` and ``seed`` override the corresponding fields of any Haar
    mixture (the two player slots draw from disjoint counter streams, so one
    seed serves both).  Certification tolerance is 3 standard errors of the
    gain estimate plus the empirical grid allowance.
    """
    mA = _rekey(mA, samples, seed)
    mB = _rekey(mB, samples, seed)
    # One set of draws serves the base estimate and both deviation scans.
    draws = mixture_draws(mA, mB)
    base, base_se = g_mq(config, mA, mB, draws)
    grid = su2_grid(deviation_grid)
    gains = []
    epsilons = []
    for player in (0, 1):
        means, best_se = _scan_deviations(config, player, draws[1 - player], grid)
        gain = float(means.max()) - base[player]
        se_gain = math.hypot(best_se, base_se[player])
        epsilons.append(3.0 * se_gain + _grid_allowance(means, deviation_grid))
        gains.append(gain)
    epsilon = max(epsilons)
    certified = all(g <= e for g, e in zip(gains, epsilons))
    drawn = max(len(s.unitaries) for s in draws)  # 1 exactly when no slot is Haar
    return EquilibriumReport(
        description=f"quantum profile A={_mixture_label(mA)} B={_mixture_label(mB)} gamma={config.gamma:.6g}",
        payoff=base,
        payoff_se=base_se,
        max_deviation_gain=tuple(gains),
        epsilon=epsilon,
        certified=certified,
        method="monte_carlo" if drawn > 1 else "grid",
        samples=drawn if drawn > 1 else None,
        seed=next((m.seed for m in (mA, mB) if isinstance(m, HaarMixture)), None),
        details={
            "deviation_grid": deviation_grid,
            "per_player_epsilon": [float(e) for e in epsilons],
            "deviation_note": _DEVIATION_NOTE,
        },
    )


def security_scan(
    config: EwlConfig,
    player: int,
    strategy: QuantumMixture,
    opponent_grid: int = 8,
    samples: int | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """The player's expected payoff against every opponent grid unitary."""
    if player not in (0, 1):
        raise InvalidProfileError("player index must be 0 or 1")
    strategy = _rekey(strategy, samples, seed)
    return scan_payoffs(
        config, 1 - player, su2_grid(opponent_grid), mixture_stack(strategy, player), player
    )


def security_level(
    subject: Game | EwlConfig,
    player: int,
    strategy,
    opponent_grid: int = 8,
    samples: int | None = None,
    seed: int | None = None,
) -> Scalar:
    """Guaranteed payoff floor for a strategy against scanned opponent play.

    Classical (``subject`` a Game, ``strategy`` the player's own Dist over
    strategy indices): exact minimum over the opponent's pure strategies.
    Quantum (``subject`` an EwlConfig, ``strategy`` a QuantumMixture):
    minimum over a 3-angle opponent unitary grid, Monte-Carlo under Haar.
    """
    if isinstance(subject, Game):
        if player not in (0, 1):
            raise InvalidProfileError("player index must be 0 or 1")
        if not isinstance(strategy, Dist):
            raise InvalidProfileError("classical security expects the player's own Dist")
        opp_count = subject.shape[1 - player]
        worst = None
        for j in range(opp_count):
            total = Fraction(0)
            for own, weight in strategy.items():
                profile = (own, j) if player == 0 else (j, own)
                total = total + weight * subject.payoff(profile)[player]
            if worst is None or total < worst:
                worst = total
        return worst
    values = security_scan(subject, player, strategy, opponent_grid, samples, seed)
    return float(values.min())
