"""Equilibrium computation and certification, classical and quantum.

Classical 2x2 equilibria are solved exactly in rationals by
``distributions.mixed_nash_2x2``, re-exported here.  Quantum best replies
are eigenvalues.  Both mixtures of a profile enter through their exact 4x4
second moments (``ewl.moment``): I/2 for a Haar mixture, with no draws, and
a weighted sum for a finite support.  Against the opponent's moment, a
unitary with unit quaternion q is paid q^T R q (``ewl.unitary_form``), so the
best deviation pays lambda_max(R), its eigenvector is the witness, and the
worst opponent unitary leaves lambda_min(R).  Pure deviations suffice: the
deviating player's expected payoff is linear in their own mixture, so no
mixture can beat the best pure deviation.  The tolerance of a quantum
certificate is the float-rounding bound ``SPECTRAL_TOL``; a Haar profile's
Monte-Carlo payoff is reported beside it as evidence.
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
    cell_form,
    cell_moments,
    g_mq,
    moment,
    scan_payoffs,
    unitary_form,
)
from .games import Game, InvalidProfileError
from .numeric import Scalar, format_scalar, scalar_to_json
from .quantum import su2_grid

_DEVIATION_NOTE = (
    "pure deviations suffice: expected payoff is linear in the deviating "
    "player's own mixture"
)

# Float rounding in a spectral gain, per unit of the payoff column's 1-norm:
# 2^16 u for the unit roundoff u = 2^-53, about 7.3e-12.  The entries of H
# and of T_c have modulus at most 1 and the rows of T_c norm at most 1, so
# an entry of M = ``ewl.cell_form`` is a sum of 64 products of a payoff and
# three such entries, whose moduli add up to at most 4 |column|_1; about 72
# roundings leave it within 2^9 u |column|_1 of exact (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., sections 3.1 and 3.6).  An
# entry of R = ``ewl.unitary_form`` adds four entries of M times +-1 or
# +-i, within 2^12 u |column|_1, so |R - R_exact|_2 <= 2^14 u |column|_1
# bounds the move of lambda_max (Weyl).  LAPACK's symmetric eigensolver is
# backward stable and adds a small multiple, at most 2^11 here, of
# u |R|_2 <= u |column|_1.  The exact payoff sum(M * H_own) adds 16 entries
# of M times entries of modulus at most 1, within (2^13 + 2^11) u |column|_1.
# The total, under 2^15 u |column|_1, is covered twice over.  The moments
# are taken as computed: I/2 is exact, and a finite support's Gram mean is
# within about its size times u.
SPECTRAL_TOL = 2.0**-37


@dataclass(frozen=True)
class EquilibriumReport:
    """A certified (or refuted) equilibrium claim with its tolerance."""

    description: str
    payoff: tuple
    payoff_se: tuple
    max_deviation_gain: tuple
    epsilon: Scalar
    certified: bool
    method: str  # how ``payoff`` was obtained: exact | spectral | monte_carlo
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


def _angles(q: np.ndarray) -> list[float]:
    """The (theta, alpha, beta) of ``quantum.su2_from_angles`` for unit
    quaternion q: a + ib = e^{i alpha} cos(theta/2), c + id = e^{i beta} sin(theta/2)."""
    a, b, c, d = (float(x) for x in q)
    return [2 * math.atan2(math.hypot(c, d), math.hypot(a, b)), math.atan2(b, a), math.atan2(d, c)]


def deviation_gain(
    config: EwlConfig, player: int, mA: QuantumMixture, mB: QuantumMixture
) -> tuple[float, float, np.ndarray]:
    """The largest gain of ``player`` from any unitary deviation from the
    profile (mA, mB), the profile's exact payoff to them, and the unit
    quaternion of a deviation that reaches the gain.

    Against the opponent's moment the deviation u = K q pays q^T R q
    (``ewl.unitary_form``), at most lambda_max(R), reached by its
    eigenvector.  The profile pays sum(M * H_own) for the form M of that same
    payoff (``ewl.cell_form``) and the player's own moment: the column mean
    when both slots are Haar.
    """
    if player not in (0, 1):
        raise InvalidProfileError("player index must be 0 or 1")
    own, opponent = moment((mA, mB)[player]), moment((mA, mB)[1 - player])
    column = config.payoff_table()[:, player]
    payoff = float(np.sum(cell_form(config, player, opponent, column) * own).real)
    values, vectors = np.linalg.eigh(unitary_form(config, player, opponent, column))
    return float(values[-1]) - payoff, payoff, vectors[:, -1]


def verify_quantum_eq(config: EwlConfig, mA: QuantumMixture, mB: QuantumMixture) -> EquilibriumReport:
    """Certify a quantum mixture profile against every unitary deviation.

    Each player's gain is exact up to float rounding (``deviation_gain``),
    and player p's tolerance is the bound SPECTRAL_TOL * |column_p|_1 on
    that rounding.  ``payoff`` and ``payoff_se`` are the Monte-Carlo estimate
    of one streamed pass over the draws when a slot is Haar, kept as evidence
    beside the exact payoff, and the exact sum otherwise.
    """
    cells = cell_moments(config, mA, mB)
    base, base_se = g_mq(config, mA, mB, cells)
    best = [deviation_gain(config, player, mA, mB) for player in (0, 1)]
    gains = tuple(gain for gain, _, _ in best)
    table = config.payoff_table()
    epsilons = [SPECTRAL_TOL * float(np.abs(table[:, player]).sum()) for player in (0, 1)]
    certified = all(g <= e for g, e in zip(gains, epsilons))
    drawn = cells.n  # 1 exactly when no slot is Haar
    return EquilibriumReport(
        description=f"quantum profile A={_mixture_label(mA)} B={_mixture_label(mB)} gamma={config.gamma:.6g}",
        payoff=base,
        payoff_se=base_se,
        max_deviation_gain=gains,
        epsilon=max(epsilons),
        certified=certified,
        method="monte_carlo" if drawn > 1 else "spectral",
        samples=drawn if drawn > 1 else None,
        seed=next((m.seed for m in (mA, mB) if isinstance(m, HaarMixture)), None),
        details={
            "exact_payoff": [exact for _, exact, _ in best],
            "witness": [_angles(q) for _, _, q in best],
            "per_player_epsilon": epsilons,
            "deviation_note": _DEVIATION_NOTE,
        },
    )


def security_scan(
    config: EwlConfig, player: int, strategy: QuantumMixture, opponent_grid: int = 8
) -> np.ndarray:
    """The player's expected payoff against every opponent grid unitary: the
    grid oracle of ``payoff_range``.  The strategy enters through its
    ``moment``, so a Haar mixture's seed and sample count are unused.
    """
    if player not in (0, 1):
        raise InvalidProfileError("player index must be 0 or 1")
    column = config.payoff_table()[:, player]
    return scan_payoffs(config, 1 - player, su2_grid(opponent_grid), moment(strategy), column)


def payoff_range(config: EwlConfig, player: int, strategy: QuantumMixture) -> tuple[float, float]:
    """The least and the greatest payoff of ``player`` playing ``strategy``
    against any opponent unitary: the extreme eigenvalues of the
    ``ewl.unitary_form`` in the opponent's slot, with the strategy entering
    through its exact moment (I/2 under Haar)."""
    if player not in (0, 1):
        raise InvalidProfileError("player index must be 0 or 1")
    column = config.payoff_table()[:, player]
    values = np.linalg.eigvalsh(unitary_form(config, 1 - player, moment(strategy), column))
    return float(values[0]), float(values[-1])


def security_level(subject: Game | EwlConfig, player: int, strategy) -> Scalar:
    """Guaranteed payoff floor for a strategy against any opponent play.

    Classical (``subject`` a Game, ``strategy`` the player's own Dist over
    strategy indices): exact minimum over the opponent's pure strategies.
    Quantum (``subject`` an EwlConfig, ``strategy`` a QuantumMixture): the
    least payoff of ``payoff_range``, over every opponent unitary.
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
    return payoff_range(subject, player, strategy)[0]
