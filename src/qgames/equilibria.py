"""Equilibrium computation and certification, classical and quantum.

Classical 2x2 equilibria are solved exactly in rationals by
``distributions.mixed_nash_2x2``, re-exported here.  Quantum equilibria cannot be
enumerated, so they are certified numerically: unilateral deviations are
scanned over a 3-angle grid of pure unitaries and the certification
tolerance (3 standard errors plus an empirical Lipschitz-times-spacing grid
allowance) is reported inside every result.  Scanning pure deviations
suffices: the deviating player's expected payoff is linear in their own
mixture, so no mixture can beat the best pure deviation.  The opponent
enters every scan through its 4x4 second moment (``ewl.moment``).
``verify_quantum_eq`` takes it from the drawn Stack, a weighted Gram
matrix, so that base and deviation estimates share their draws; a security
scan takes it exactly, so a finite strategy is summed exactly and a Haar
strategy is read from its moment I/2 with no draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import (  # noqa: F401  (re-exports the 2x2 solver)
    Dist,
    MixedEquilibrium,
    MixedProfile,
    embed_pure,
    g_mix,
    mixed_nash_2x2,
)
from .ewl import (
    EwlConfig,
    HaarMixture,
    QuantumMixture,
    Stack,
    g_mq,
    mean_se,
    mixture_draws,
    moment,
    sample_cells,
    sample_payoffs_at,
    scan_payoffs,
)
from .games import Game, InvalidProfileError
from .numeric import Scalar, format_scalar, scalar_to_json
from .quantum import su2_grid

_DEVIATION_NOTE = (
    "pure deviations suffice: expected payoff is linear in the deviating "
    "player's own mixture"
)


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


def _mixture_label(m: QuantumMixture) -> str:
    if isinstance(m, HaarMixture):
        return f"haar(seed={m.seed}, n={m.sample_count})"
    return f"finite({len(m.support)} unitaries)"


def _scan_deviations(
    config: EwlConfig, player: int, opponent: Stack, grid: np.ndarray
) -> tuple[np.ndarray, float]:
    """Deviating player's mean payoff per grid unitary, plus SE at the best one."""
    means = scan_payoffs(config, player, grid, moment(opponent), config.payoff_table()[:, player])
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
) -> EquilibriumReport:
    """Certify a quantum mixture profile against gridded pure deviations.

    Certification tolerance is 3 standard errors of the gain estimate plus
    the empirical grid allowance.
    """
    # One set of draws serves the base estimate and both deviation scans.
    draws = mixture_draws(mA, mB)
    base, base_se = g_mq(config, mA, mB, sample_cells(config, draws))
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
    config: EwlConfig, player: int, strategy: QuantumMixture, opponent_grid: int = 8
) -> np.ndarray:
    """The player's expected payoff against every opponent grid unitary.

    Exact up to float rounding: the strategy enters through its ``moment``,
    a weighted sum for a finite support and I/2 for a Haar mixture, whose
    seed and sample count are therefore unused.
    """
    if player not in (0, 1):
        raise InvalidProfileError("player index must be 0 or 1")
    column = config.payoff_table()[:, player]
    return scan_payoffs(config, 1 - player, su2_grid(opponent_grid), moment(strategy), column)


def security_level(
    subject: Game | EwlConfig, player: int, strategy, opponent_grid: int = 8
) -> Scalar:
    """Guaranteed payoff floor for a strategy against scanned opponent play.

    Classical (``subject`` a Game, ``strategy`` the player's own Dist over
    strategy indices): exact minimum over the opponent's pure strategies.
    Quantum (``subject`` an EwlConfig, ``strategy`` a QuantumMixture):
    minimum over a 3-angle opponent unitary grid of ``security_scan``, which
    reads the strategy through its exact moment (I/2 under Haar).
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
    values = security_scan(subject, player, strategy, opponent_grid)
    return float(values.min())
