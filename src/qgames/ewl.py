"""Entangled-referee quantization of 2x2 games.

The referee prepares J(gamma)|00>, each player applies a 2x2 unitary to
their qubit, and the referee measures in the entangled basis {J|xy>},
paying the cell (x, y).  gamma interpolates from a separable initial state
(gamma=0, classically equivalent play) to the maximally entangled one
(gamma=pi/2).

J(gamma) is generated by the tensor square of the SU(2) bit-flip
[[0,1],[-1,0]], so it commutes with every one-parameter classical strategy
su2(theta,0,0); that commutation is what makes the classical embeddings
reproduce the base game and its mixed extension exactly.

Scalar operations go through ``quantum``/``distributions`` literally as the
composition measure-then-pushforward-then-expectation; ``g_q_batch`` is the
vectorized equivalent used by the Monte-Carlo estimators (the two paths are
cross-checked in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import Dist, expectation, pushforward
from .games import Game, InvalidProfileError
from .quantum import (
    FLIP2,
    IDENTITY2,
    Superposition,
    Unitary2,
    haar_su2_batch,
    measure,
    su2_from_angles,
)

MAX_GAMMA = math.pi / 2

PROFILE_BASIS = ((0, 0), (0, 1), (1, 0), (1, 1))

_FLIP = FLIP2.matrix
_FLIP_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass(frozen=True)
class EwlConfig:
    """A 2x2 game together with the referee's entanglement parameter."""

    game: Game
    gamma: float

    def __post_init__(self):
        if not self.game.is_2x2():
            raise InvalidProfileError("the quantization protocol expects a 2x2 game")
        if not -1e-12 <= self.gamma <= MAX_GAMMA + 1e-12:
            raise InvalidProfileError(f"gamma {self.gamma!r} outside [0, pi/2]")

    def payoff_table(self) -> np.ndarray:
        """Float payoffs per cell, shape (4, 2), rows in PROFILE_BASIS order."""
        return np.array(
            [[float(u) for u in self.game.payoff(p)] for p in PROFILE_BASIS], dtype=float
        )


@dataclass(frozen=True)
class HaarMixture:
    """The uniform (Haar) mixture over pure quantum strategies.

    Draw j of player slot k is haar_su2(seed, 2*j + k), so the two slots use
    disjoint counter streams even under a shared seed.
    """

    seed: int
    sample_count: int

    def __post_init__(self):
        # Two draws are the fewest that give a standard error.
        if self.sample_count < 2:
            raise InvalidProfileError("sample_count must be at least 2")


QuantumMixture = Dist | HaarMixture


def point_mixture(u: Unitary2) -> Dist:
    return Dist((u,), (Fraction(1),))


def entangler(gamma: float) -> np.ndarray:
    """The referee's entangling unitary J(gamma) as a 4x4 matrix."""
    c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    return c * np.eye(4, dtype=complex) + 1j * s * np.kron(_FLIP, _FLIP)


def classical_unitary(p: float) -> Unitary2:
    """The embedding of the mixed strategy (p, 1-p) as a pure quantum strategy."""
    if not 0.0 <= p <= 1.0:
        raise InvalidProfileError(f"probability {p!r} outside [0, 1]")
    return su2_from_angles(2.0 * math.acos(math.sqrt(p)), 0.0, 0.0)


def protocol_state(config: EwlConfig, uA: Unitary2, uB: Unitary2) -> Superposition:
    """The joint state in the referee's observational basis {J|xy>}.

    Basis label (x, y) names the cell (row x+1, column y+1); amplitude of
    (x, y) is <J xy | (uA tensor uB) J |00>>.
    """
    j = entangler(config.gamma)
    psi = np.kron(uA.matrix, uB.matrix) @ j[:, 0]
    return Superposition(PROFILE_BASIS, tuple(j.conj().T @ psi))


def g_q(config: EwlConfig, uA: Unitary2, uB: Unitary2) -> tuple[float, float]:
    """Expected payoffs of a pure quantum profile.

    Literally expectation . pushforward . measure applied to the protocol
    state, so the quantization extends the base game by construction.
    """
    d = measure(protocol_state(config, uA, uB))
    value = expectation(pushforward(config.game, d))
    return float(value[0]), float(value[1])


def _probs_batch(gamma: float, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Measurement probabilities for stacked strategy pairs, shape (n, 4).

    Uses (A tensor B) vec(M) = vec(A M B^T): with P = diag(c, i*s) the initial
    state J|00> reshaped to 2x2, the amplitude matrix is c*W - i*s*(F W F^T)
    for W = uA P uB^T.  P is diagonal, so W is two outer products of columns,
    and vec(F W F^T) is vec(W) reversed with signs (1, -1, -1, 1).
    """
    c, i_s = np.diag(_initial_block(gamma))
    w = c * ua[:, :, 0, None] * ub[:, None, :, 0] + i_s * ua[:, :, 1, None] * ub[:, None, :, 1]
    w = w.reshape(-1, 4)
    amps = c * w - i_s * (w[:, ::-1] * _FLIP_SIGNS)
    probs = np.abs(amps) ** 2
    return probs / probs.sum(axis=1, keepdims=True)


def g_q_batch(config: EwlConfig, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Vectorized g_q over stacked (n, 2, 2) strategy arrays; returns (n, 2)."""
    return _probs_batch(config.gamma, ua, ub) @ config.payoff_table()


def haar_draws(m: HaarMixture, slot: int, n: int) -> np.ndarray:
    """The first n counter-based draws of a Haar mixture in player slot 0 or 1."""
    return haar_su2_batch(m.seed, np.arange(n, dtype=np.uint64) * np.uint64(2) + np.uint64(slot))


Draws = tuple[np.ndarray | None, np.ndarray | None]


def mixture_draws(mA: QuantumMixture, mB: QuantumMixture) -> Draws:
    """The draws of each Haar slot of a profile (None for a finite mixture).

    Both slots take as many draws as the larger Haar sample count, so one set
    of draws serves every estimate of the profile (common random numbers).
    """
    n = max((m.sample_count for m in (mA, mB) if isinstance(m, HaarMixture)), default=0)
    return tuple(
        haar_draws(m, slot, n) if isinstance(m, HaarMixture) else None
        for slot, m in enumerate((mA, mB))
    )


def _sample_probs(
    config: EwlConfig, mA: QuantumMixture, mB: QuantumMixture, draws: Draws | None
) -> np.ndarray:
    """Per-sample cell probabilities (n, 4) under at least one Haar mixture."""
    da, db = mixture_draws(mA, mB) if draws is None else draws
    if da is not None and db is not None:
        return _probs_batch(config.gamma, da, db)
    drawn = da if da is not None else db
    total = np.zeros((len(drawn), 4))
    for u, weight in (mB if da is not None else mA).items():
        fixed = np.broadcast_to(u.matrix, drawn.shape)
        pair = (drawn, fixed) if da is not None else (fixed, drawn)
        total += float(weight) * _probs_batch(config.gamma, *pair)
    return total


def _mean_se(per_sample: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means of per-sample values and the standard errors of those means."""
    return per_sample.mean(axis=0), per_sample.std(axis=0, ddof=1) / math.sqrt(len(per_sample))


def _finite_probs(config: EwlConfig, mA: Dist, mB: Dist) -> np.ndarray:
    total = np.zeros(4)
    for u, wu in mA.items():
        for v, wv in mB.items():
            d = measure(protocol_state(config, u, v))
            total += float(wu * wv) * np.array([d.prob(cell) for cell in PROFILE_BASIS])
    return total


def g_mq(
    config: EwlConfig, mA: QuantumMixture, mB: QuantumMixture, draws: Draws | None = None
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Expected payoffs under mixed quantum strategies, with standard errors.

    Finite mixtures are summed exactly (standard error 0); Haar mixtures are
    averaged over counter-based Monte-Carlo draws, reported with the standard
    error of the mean.  ``draws`` (from ``mixture_draws``) reuses draws that
    the caller already holds.
    """
    table = config.payoff_table()
    if isinstance(mA, Dist) and isinstance(mB, Dist):
        pay = _finite_probs(config, mA, mB) @ table
        return (float(pay[0]), float(pay[1])), (0.0, 0.0)
    mean, se = _mean_se(_sample_probs(config, mA, mB, draws) @ table)
    return (float(mean[0]), float(mean[1])), (float(se[0]), float(se[1]))


def outcome_dist_mq(
    config: EwlConfig, mA: QuantumMixture, mB: QuantumMixture, draws: Draws | None = None
) -> tuple[Dist, tuple[float, float, float, float]]:
    """The averaged measurement distribution over cells, before expectation."""
    if isinstance(mA, Dist) and isinstance(mB, Dist):
        probs = _finite_probs(config, mA, mB)
        se = np.zeros(4)
    else:
        probs, se = _mean_se(_sample_probs(config, mA, mB, draws))
    probs = probs / probs.sum()
    return Dist(PROFILE_BASIS, tuple(float(p) for p in probs)), tuple(float(x) for x in se)


def _amp_coefficients(gamma: float) -> np.ndarray:
    """L[c] with amp_cell(c) = sum_ab L[c,a,b] * W_ab for W = uA P uB^T.

    amp_cell(c) = <J c | vec(W)>, so L[c] is row c of J^dagger, reshaped.
    """
    return entangler(gamma).conj().T.reshape(4, 2, 2)


def _initial_block(gamma: float) -> np.ndarray:
    """J(gamma)|00> reshaped to 2x2, row-major."""
    return entangler(gamma)[:, 0].reshape(2, 2)


def scan_payoffs(
    config: EwlConfig,
    scan_slot: int,
    grid: np.ndarray,
    draws: np.ndarray,
    payoff_player: int,
) -> np.ndarray:
    """Monte-Carlo mean payoff of every grid unitary against fixed draws.

    ``grid`` (G, 2, 2) occupies player slot ``scan_slot``; ``draws`` (n, 2, 2)
    occupies the other slot and is shared across grid points (common random
    numbers).  Returns ``payoff_player``'s mean payoff per grid point.

    Each cell amplitude is bilinear in the two unitaries,
    amp_c = sum_xy uA_x T[c,x,y] uB_y with T[c,(a,e),(b,d)] = L[c,a,b] P[e,d],
    so the sample mean of the payoff is a Hermitian form u^T M conj(u) in the
    grid unitary.  M needs the draws only through their 4x4 Gram matrix
    H = V^T conj(V) / n, one BLAS product; each grid point then costs O(1).
    """
    if scan_slot not in (0, 1):
        raise InvalidProfileError("scan_slot must be 0 or 1")
    L = _amp_coefficients(config.gamma)
    p0 = _initial_block(config.gamma)
    t = np.einsum("cab,ed->caebd", L, p0).reshape(4, 4, 4)
    if scan_slot == 1:  # the grid plays B and the draws play A
        t = t.transpose(0, 2, 1)
    v = draws.reshape(-1, 4)
    h = v.T @ v.conj() / len(v)
    column = config.payoff_table()[:, payoff_player]
    moment = np.einsum("c,cxy,yz,cwz->xw", column, t, h, t.conj())
    u = grid.reshape(-1, 4)
    return np.real(np.einsum("gx,xw,gw->g", u, moment, u.conj()))


def sample_payoffs_at(
    config: EwlConfig,
    scan_slot: int,
    unitary: np.ndarray,
    draws: np.ndarray,
    payoff_player: int,
) -> np.ndarray:
    """Per-sample payoffs of one fixed unitary against the draws, shape (n,)."""
    n = draws.shape[0]
    rep = np.broadcast_to(np.asarray(unitary, dtype=complex), (n, 2, 2))
    pair = (rep, draws) if scan_slot == 0 else (draws, rep)
    return g_q_batch(config, *pair)[:, payoff_player]


def check_proper(config: EwlConfig, tol: float = 1e-9) -> bool:
    """Do the embedded pure strategies (identity, flip) reproduce the game?"""
    embed = (IDENTITY2, FLIP2)
    for x, y in PROFILE_BASIS:
        quantized = g_q(config, embed[x], embed[y])
        classical = [float(u) for u in config.game.payoff((x, y))]
        if max(abs(a - b) for a, b in zip(quantized, classical)) > tol:
            return False
    return True


def check_complete(
    config: EwlConfig, grid_steps: int = 20, tol: float = 1e-9
) -> tuple[bool, float]:
    """Do embedded mixed strategies reproduce the mixed extension on a grid?

    Compares g_q of the classical-unitary embeddings against the mixed payoff
    over a (grid_steps+1)^2 grid of (p, q); returns (within tol?, max gap).
    """
    if grid_steps < 2:
        raise InvalidProfileError("grid_steps must be at least 2")
    from .distributions import MixedProfile, g_mix

    worst = 0.0
    for i in range(grid_steps + 1):
        p = i / grid_steps
        for j in range(grid_steps + 1):
            q = j / grid_steps
            quantized = g_q(config, classical_unitary(p), classical_unitary(q))
            mixed = g_mix(config.game, MixedProfile.from_weights((p, 1 - p), (q, 1 - q)))
            gap = max(abs(a - float(b)) for a, b in zip(quantized, mixed))
            worst = max(worst, gap)
    return worst <= tol, worst


def coverage_scan(config: EwlConfig, samples: int, seed: int, bins: int = 10) -> dict:
    """Rough empirical scan of which cell distributions pure profiles reach.

    Samples Haar pairs, bins the first three cell probabilities, and reports
    the fraction of occupied bins among those meeting the simplex, plus the
    per-cell probability ranges seen.  Descriptive only; no claim is made
    about the exact image of the pure-profile map.
    """
    ua = haar_su2_batch(seed, np.arange(samples, dtype=np.uint64) * np.uint64(2))
    ub = haar_su2_batch(
        seed, np.arange(samples, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    )
    probs = _probs_batch(config.gamma, ua, ub)
    boxes = np.minimum((probs[:, :3] * bins).astype(int), bins - 1)
    occupied = {tuple(row) for row in boxes}
    valid = sum(
        1
        for i in range(bins)
        for j in range(bins)
        for k in range(bins)
        if (i + j + k) / bins <= 1.0
    )
    return {
        "samples": int(samples),
        "bins_per_axis": int(bins),
        "occupied_bins": len(occupied),
        "valid_bins": int(valid),
        "coverage": len(occupied) / valid,
        "cell_min": [float(x) for x in probs.min(axis=0)],
        "cell_max": [float(x) for x in probs.max(axis=0)],
    }
