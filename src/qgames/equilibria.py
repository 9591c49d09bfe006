"""Equilibrium computation and certification, classical and quantum.

Classical 2x2 equilibria are solved exactly in rationals by
``distributions.mixed_nash_2x2``, re-exported here.  Quantum best replies
are eigenvalues.  Both mixtures of a profile enter through the exact real
4x4 Gram matrices of their unit quaternions (``ewl.moment``): I/4 for a Haar
mixture, with no draws, and a weighted sum for a finite support.  Against
the opponent's moment, a unitary with unit quaternion q is paid q^T R q
(``ewl.unitary_form``), so the best deviation pays lambda_max(R), its
eigenvector is the witness, and the worst opponent unitary leaves
lambda_min(R).  Pure deviations suffice: the deviating player's expected
payoff is linear in their own mixture, so no mixture can beat the best pure
deviation.  The tolerance of a quantum certificate is the float-rounding
bound ``SPECTRAL_TOL``.  A report's payoff is exact for every profile; a Haar
x Haar profile verified with a sample count also carries its Monte-Carlo
estimate on a seed as evidence.
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
    haar_estimate,
    moment,
    scan_payoffs,
    unitary_form,
)
from .games import Game, InvalidProfileError, check_player
from .numeric import Scalar
from .quantum import su2_grid

_DEVIATION_NOTE = (
    "pure deviations suffice: expected payoff is linear in the deviating "
    "player's own mixture"
)

# Float rounding in a spectral gain, per unit of the payoff column's 1-norm:
# 2^16 u for the unit roundoff u = 2^-53, about 7.3e-12.  R =
# ``ewl.unitary_form`` is sum_c column[c] (A_c Y A_c^T + B_c Y B_c^T), where
# A_c = Re S_c and B_c = Im S_c hold at most one entry per row and column
# (+-1, +-sin gamma or +-cos gamma, within 3u of exact) and |Y_kl| <= 1 (Y is
# PSD of trace 1).  An entry of R adds at most 8 products, each of modulus at
# most |column[c]| (two per cell) and within 9u |column[c]| of exact, with 7
# roundings: within (18 + 14) u |column|_1 = 2^5 u |column|_1 (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.1 and
# 3.6).  So |R - R_exact|_2 <= 4 max |entry error| <= 2^7 u |column|_1 bounds
# the move of lambda_max (Weyl).  LAPACK's symmetric eigensolver is backward
# stable and adds at most 2^11 u |R|_2 <= 2^11 u |column|_1.  The exact payoff
# sum(R * Y_own) is within (2^9 + 2^8) u |column|_1.  The total, under
# 2^12 u |column|_1, is covered 16 times over.  The moments are taken as
# computed: I/4 is exact, a finite support's Gram mean within about its size
# times u.
SPECTRAL_TOL = 2.0**-37


@dataclass(frozen=True)
class EquilibriumReport:
    """A certified (or refuted) equilibrium claim with its tolerance.

    ``payoff``, ``max_deviation_gain`` and ``epsilon`` hold Fractions where
    the claim is decided exactly (``method`` exact) and floats otherwise; the
    CLI writes a Fraction as "a/b", or as an integer when b = 1.
    """

    description: str
    payoff: tuple
    max_deviation_gain: tuple
    epsilon: Scalar
    certified: bool
    method: str  # exact | spectral (no draws, Haar x Haar too) | monte_carlo (a sampled estimate in details)
    samples: int | None = None
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.certified and any(g > self.epsilon for g in self.max_deviation_gain):
            raise ValueError("certified report with deviation gain above epsilon")


def verify_classical_eq(game: Game, m: MixedProfile) -> EquilibriumReport:
    """Exact best-reply check of a mixed profile over pure deviations."""
    m.check_for(game)
    current = g_mix(game, m)
    mixes = (m.row, m.col)
    gains = []
    for player, n in enumerate(game.shape):
        deviations = (MixedProfile.of(player, embed_pure(k, n), mixes[1 - player]) for k in range(n))
        gains.append(max(g_mix(game, alt)[player] for alt in deviations) - current[player])
    certified = all(g <= 0 for g in gains)
    row_text = ",".join(map(str, m.row.weights))
    col_text = ",".join(map(str, m.col.weights))
    return EquilibriumReport(
        description=f"classical mixed profile row=({row_text}) col=({col_text})",
        payoff=tuple(current),
        max_deviation_gain=tuple(gains),
        epsilon=Fraction(0),
        certified=certified,
        method="exact",
        details={"deviation_note": _DEVIATION_NOTE},
    )


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

    Against the opponent's moment the deviation of unit quaternion q pays
    q^T R q (``ewl.unitary_form``), at most lambda_max(R), reached by its
    eigenvector.  The profile pays sum(R * Y_own), the mean of q^T R q over
    the player's own Gram matrix Y_own: the column mean when both slots are
    Haar.

    The witness is the projection onto the top eigenspace (eigenvalues
    within the rounding bound of lambda_max) of the first basis quaternion
    whose projection is largest, normalized: no eigenbasis choice moves it.
    """
    check_player(player)
    own, opponent = moment((mA, mB)[player]), moment((mA, mB)[1 - player])
    column = config.payoff_table()[:, player]
    form = unitary_form(config, player, opponent, column)
    values, vectors = np.linalg.eigh(form)
    payoff = float(np.sum(form * own))
    top = vectors[:, values >= values[-1] - SPECTRAL_TOL * float(np.abs(column).sum())]
    projector = top @ top.T
    # Squared projection lengths, in [0, 1]; another eigenbasis moves them by
    # rounding only, far below SPECTRAL_TOL, so exact ties (as at R = cI) hold.
    share = np.diag(projector)
    k = int(np.argmax(share >= share.max() - SPECTRAL_TOL))
    return float(values[-1]) - payoff, payoff, projector[:, k] / np.linalg.norm(projector[:, k])


def verify_quantum_eq(
    config: EwlConfig, mA: QuantumMixture, mB: QuantumMixture, samples: int | None = None, seed: int = 0
) -> EquilibriumReport:
    """Certify a quantum mixture profile against every unitary deviation.

    Each player's gain is exact up to float rounding (``deviation_gain``),
    and player p's tolerance is the bound SPECTRAL_TOL * |column_p|_1 on
    that rounding.  ``payoff`` is each player's exact payoff.  Given
    ``samples``, Haar x Haar play also carries the Monte-Carlo estimate of
    one streamed pass over that many draws on ``seed``, its payoffs and
    their standard errors, under ``details["estimate"]`` as evidence; no
    other profile is sampled.
    """
    sampled = samples is not None
    if sampled and not (isinstance(mA, HaarMixture) and isinstance(mB, HaarMixture)):
        raise InvalidProfileError("only Haar x Haar play is sampled")
    # The Born pass sets the peak memory, so it runs before the eigensolver
    # has grown the heap.
    estimate = haar_estimate(config, seed, samples) if sampled else None
    best = [deviation_gain(config, player, mA, mB) for player in (0, 1)]
    gains = tuple(gain for gain, _, _ in best)
    table = config.payoff_table()
    epsilons = [SPECTRAL_TOL * float(np.abs(table[:, player]).sum()) for player in (0, 1)]
    certified = all(g <= e for g, e in zip(gains, epsilons))
    details = {
        "witness": [_angles(q) for _, _, q in best],
        "per_player_epsilon": epsilons,
        "deviation_note": _DEVIATION_NOTE,
    }
    if sampled:
        details["estimate"] = {"payoff": estimate["payoff"], "payoff_se": estimate["payoff_se"]}
    haar = f"haar(seed={seed}, n={samples})" if sampled else "haar"
    labels = [haar if isinstance(m, HaarMixture) else f"finite({len(m.support)} unitaries)" for m in (mA, mB)]
    return EquilibriumReport(
        description=f"quantum profile A={labels[0]} B={labels[1]} gamma={config.gamma:.6g}",
        payoff=tuple(exact for _, exact, _ in best),
        max_deviation_gain=gains,
        epsilon=max(epsilons),
        certified=certified,
        method="monte_carlo" if sampled else "spectral",
        samples=samples,
        seed=seed if sampled else None,
        details=details,
    )


def security_scan(
    config: EwlConfig, player: int, strategy: QuantumMixture, opponent_grid: int = 8
) -> np.ndarray:
    """The player's expected payoff against every opponent grid unitary: the
    grid oracle of ``payoff_range``.  The strategy enters through its
    ``moment``."""
    check_player(player)
    column = config.payoff_table()[:, player]
    return scan_payoffs(config, 1 - player, su2_grid(opponent_grid), moment(strategy), column)


def payoff_range(config: EwlConfig, player: int, strategy: QuantumMixture) -> tuple[float, float]:
    """The least and the greatest payoff of ``player`` playing ``strategy``
    against any opponent unitary: the extreme eigenvalues of the
    ``ewl.unitary_form`` in the opponent's slot, with the strategy entering
    through its exact moment (I/4 under Haar)."""
    check_player(player)
    column = config.payoff_table()[:, player]
    values = np.linalg.eigvalsh(unitary_form(config, 1 - player, moment(strategy), column))
    return float(values[0]), float(values[-1])


def security_level(subject: Game | EwlConfig, player: int, strategy) -> Scalar:
    """Guaranteed payoff floor for a strategy against any opponent play.

    Classical (``subject`` a Game, ``strategy`` the player's own Dist over
    their strategy indices, as in a MixedProfile): the least ``g_mix``
    payoff against the opponent's embedded pure strategies, exact.
    Quantum (``subject`` an EwlConfig, ``strategy`` a QuantumMixture): the
    least payoff of ``payoff_range``, over every opponent unitary.
    """
    if isinstance(subject, Game):
        check_player(player)
        if not isinstance(strategy, Dist):
            raise InvalidProfileError("classical security expects the player's own Dist")
        arity = subject.shape[1 - player]
        profiles = (MixedProfile.of(player, strategy, embed_pure(j, arity)) for j in range(arity))
        return min(g_mix(subject, m)[player] for m in profiles)
    return payoff_range(subject, player, strategy)[0]
