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

``g_q`` goes through ``quantum``/``distributions`` literally as the
composition measure-then-pushforward-then-expectation, and the test suite
keeps it as the oracle of the real passes: the Gram form of mixed play, and
``sample_cells``, the vectorized Born pass of Haar draws and of the embedded
pure profiles that ``check_proper`` and ``check_complete`` read.

Each cell amplitude is a bilinear form q_A^T S_c q_B in the unit quaternions
of u / sqrt(det u) (no probability sees a global phase), whose real and
imaginary parts are integer tables in (1, cos gamma, sin gamma) (Landsburg,
Notices AMS 51, 2004).  So a cell probability is bilinear in q_A q_A^T and
q_B q_B^T, and an independent mixed profile enters only through its two
real Gram matrices Y = E[q q^T] (``moment``): sum w q q^T for a finite Dist,
and I/4 exactly for Haar, with no draws.  A unitary's payoff against Y is
q^T R q (``unitary_form``), so a profile's exact payoff is the mean of that
form over the player's own Gram matrix (``g_mq``, ``outcome_dist_mq``), and
the best and the worst unitary against a mixture are R's extreme
eigenvectors.  Haar's I/4 is also the Gram matrix of the uniform mixture
over the quaternion units {1, i, j, k}, the Pauli unitary 1-design (Gross,
Audenaert & Eisert, J. Math. Phys. 48, 2007): Haar mixing plays exactly as
that four-element mixture.

So Haar mixing is a measure with no parameter (``HAAR``).  Its Monte-Carlo
estimate, evidence beside the exact value, is the one place that takes a
seed and a sample count (``haar_estimate``, ``cell_moments``).  The Born pass
is one real product (``born_matrix``) over counter-based draws, taken CHUNK
sample indices at a time (``draw_chunks``) in one reused workspace and each
reduced to its ``Moments``, so memory does not grow with the sample count.
Draw i of a slot is a pure function of (seed, i), so the draws do not
depend on the chunk size either.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import Dist, expectation, pushforward
from .games import Game, InvalidProfileError, check_player
from .quantum import FLIP2, Superposition, Unitary2, haar_su2_batch, measure

MAX_GAMMA = math.pi / 2

# Sample indices per chunk of a Haar estimate.  Larger chunks raise peak
# memory (about 0.1 KB per sample index in flight) and run no faster.
CHUNK = 8192

BORN_BLOCK = 1024  # samples per block of the Born product (``sample_cells``): 192 KiB, in L2

PROFILE_BASIS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Cell c's amplitude is q_A^T S_c q_B for the unit quaternions q = (a, b, c, d)
# of the SU(2) unitaries [[a+ib, c+id], [-c+id, a-ib]] (the map of
# ``haar_su2_batch``), with Re S_c = _RE[c] + sin(gamma) _SIN[c] and
# Im S_c = cos(gamma) _COS[c]; the tests hold the tables to ``protocol_state``.
_RE = np.array([[[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                [[0, 0, -1, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]],
                [[0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, -1, 0, 0]],
                [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]])
_COS = np.array([[[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                 [[0, 0, 0, 1], [0, 0, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                 [[0, 0, 0, 0], [0, 0, 0, 0], [0, -1, 0, 0], [1, 0, 0, 0]],
                 [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]])
_SIN = np.array([[[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]],
                 [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
                 [[0, 0, 0, -1], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                 [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]])


@dataclass(frozen=True)
class EwlConfig:
    """A 2x2 game together with the referee's entanglement parameter.

    ``gamma`` may lie up to 1e-12 outside [0, pi/2] and is stored clamped
    into it, so that no report carries a gamma such as -0.0."""

    game: Game
    gamma: float

    def __post_init__(self):
        if not self.game.is_2x2():
            raise InvalidProfileError("the quantization protocol expects a 2x2 game")
        if not -1e-12 <= self.gamma <= MAX_GAMMA + 1e-12:
            raise InvalidProfileError(f"gamma {self.gamma!r} outside [0, pi/2]")
        # max(-0.0, 0.0) is -0.0, so 0.0 goes first.
        object.__setattr__(self, "gamma", min(MAX_GAMMA, max(0.0, self.gamma)))

    def payoff_table(self) -> np.ndarray:
        """Float payoffs per cell, shape (4, 2), rows in PROFILE_BASIS order."""
        return np.array(
            [[float(u) for u in self.game.payoff(p)] for p in PROFILE_BASIS], dtype=float
        )


@dataclass(frozen=True)
class HaarMixture:
    """The uniform (Haar) mixture over pure quantum strategies: a measure,
    read exactly through its Gram matrix I/4 (``moment``)."""


HAAR = HaarMixture()

QuantumMixture = Dist | HaarMixture


def entangler(gamma: float) -> np.ndarray:
    """The referee's entangling unitary J(gamma) as a 4x4 matrix."""
    c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    return c * np.eye(4, dtype=complex) + 1j * s * np.kron(FLIP2.matrix, FLIP2.matrix)


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


def haar_draws(seed: int, slot: int, lo: int, hi: int, work=None) -> np.ndarray:
    """Counter-based Haar draws lo..hi-1 of player slot 0 or 1 as unit
    quaternions, shape (hi - lo, 4), in row ``slot`` of a (3, 4 CHUNK) ``work``
    array when given, whose row 2 is the scratch of ``haar_su2_batch``."""
    indices = np.arange(2 * lo + slot, 2 * hi + slot, 2, dtype=np.uint64)
    buffers = () if work is None else (work[slot], work[2].view(np.uint64))
    return haar_su2_batch(seed, indices, *(b[: 4 * (hi - lo)].reshape(4, -1) for b in buffers))


def draw_chunks(seed: int, n: int, work=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Draws 0..n-1 of both slots, CHUNK sample indices at a time, in ``work`` if given."""
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        yield haar_draws(seed, 0, lo, hi, work), haar_draws(seed, 1, lo, hi, work)


class Moments(NamedTuple):
    """Sample count, mean and centred sum of outer products of real per-sample vectors.

    They give the mean and standard error of every linear read-out x^T k of
    the samples, and two chunks merge exactly (Chan, Golub & LeVeque, 1979),
    so an estimate streams over chunks with no draw kept.
    """

    n: int
    mean: np.ndarray
    m2: np.ndarray  # sum over samples of d d^T, d = x - mean

    @classmethod
    def of(cls, x: np.ndarray, overwrite: bool = False) -> Moments:
        """The Moments of the rows of x, shape (samples, dim); ``overwrite`` centres x in place."""
        mean = x.mean(axis=0)
        d = np.subtract(x, mean, out=x if overwrite else None)
        return cls(len(x), mean, d.T @ d)

    def merge(self, other: Moments) -> Moments:
        n = self.n + other.n
        delta = other.mean - self.mean
        spread = np.outer(delta, delta) * (self.n * other.n / n)
        return Moments(n, self.mean + delta * (other.n / n), self.m2 + other.m2 + spread)

    def se(self, k: np.ndarray) -> float:
        """Standard error of the mean of the per-sample values x^T k (n >= 2)."""
        var = max(float(k @ self.m2 @ k), 0.0)
        return math.sqrt(var / (self.n - 1) / self.n)


def born_matrix(config: EwlConfig) -> np.ndarray:
    """The real (16, 8) B with x^T B = (Re amp_0, Im amp_0, ..., Im amp_3) for
    x = q_A kron q_B, amp_c = q_A^T S_c q_B: row 4i + j holds S_c[i, j]."""
    c, s = math.cos(config.gamma / 2.0), math.sin(config.gamma / 2.0)  # J(gamma)'s half angles
    re, im = _RE + (2.0 * c * s) * _SIN, (c * c - s * s) * _COS
    return np.stack([re, im], axis=-1).transpose(1, 2, 0, 3).reshape(16, 8)


def sample_cells(born: np.ndarray, qa: np.ndarray, qb: np.ndarray, out=None, block=None) -> np.ndarray:
    """Per-sample cell probabilities (samples, 4) of the unit quaternions qa and
    qb, each (samples, 4) or (1, 4).  A pair's cells sum to |q_A|^2 |q_B|^2 = 1
    up to rounding, so no row is renormalized.  They fill ``out`` (4, samples),
    returned transposed, BORN_BLOCK samples at a time through ``block`` (24
    (BORN_BLOCK + 1) floats): x = q_A kron q_B, one row per component as
    ``haar_su2_batch`` holds them, and its product with ``born``.  A lone last
    column joins the block before it: gemv, used for one column, rounds unlike gemm."""
    n = max(len(qa), len(qb))
    out = np.empty((4, n)) if out is None else out
    block = np.empty(24 * (BORN_BLOCK + 1)) if block is None else block
    qa, qb = (np.broadcast_to(q, (n, 4)).T for q in (qa, qb))
    edges = [*range(0, max(n - 1, 1), BORN_BLOCK), n]
    for lo, hi in zip(edges, edges[1:]):
        m = hi - lo
        x = np.multiply(qa[:, None, lo:hi], qb[None, :, lo:hi], out=block[: 16 * m].reshape(4, 4, m))
        amp = np.matmul(born.T, x.reshape(16, m), out=block[-8 * m :].reshape(8, m))
        amp *= amp  # Re and Im of each amplitude, squared
        np.add(amp[0::2], amp[1::2], out=out[:, lo:hi])
    return out.T


def cell_moments(config: EwlConfig, seed: int, n: int) -> Moments:
    """The Moments of the per-sample cells of n Haar x Haar draws on ``seed``,
    merged in sample order: the one Monte-Carlo estimate.  Its chunks reuse
    one workspace: both slots' draws, the sampler's scratch (then the cells)
    and a Born block."""
    # Two draws are the fewest that give a standard error.
    if n < 2:
        raise InvalidProfileError("a Haar estimate needs at least 2 samples")
    # Draw j of player slot k is index 2*j + k of haar_su2_batch on seed, so the
    # two slots use disjoint counter streams under the one seed.
    born, total = born_matrix(config), None
    work, block = np.empty((3, 4 * CHUNK)), np.empty(24 * (BORN_BLOCK + 1))
    for qa, qb in draw_chunks(seed, n, work):
        cells = sample_cells(born, qa, qb, work[2, : 4 * len(qa)].reshape(4, -1), block)
        chunk = Moments.of(cells, overwrite=True)
        total = chunk if total is None else total.merge(chunk)
    return total


def haar_estimate(config: EwlConfig, seed: int, n: int) -> dict:
    """The sampled payoffs and cell probabilities of n Haar x Haar draws on
    ``seed``, each with the standard error of its mean, from one Born pass
    (``cell_moments``)."""
    cells = cell_moments(config, seed, n)
    table = config.payoff_table()
    return {
        "payoff": [float(v) for v in cells.mean @ table],
        "payoff_se": [cells.se(column) for column in table.T],
        "outcome_probs": [float(p) for p in cells.mean / cells.mean.sum()],
        "outcome_se": [cells.se(one_hot) for one_hot in np.eye(4)],
    }


def moment(m: QuantumMixture) -> np.ndarray:
    """The real 4x4 Gram matrix Y = E[q q^T] of a mixture's unit quaternions:
    sum w q q^T over a finite Dist's support, and a Haar mixture's I/4
    exactly, with no draw (q is uniform on the unit sphere of R^4, a law
    invariant under permuting and under negating coordinates)."""
    if isinstance(m, HaarMixture):
        return np.eye(4) / 4
    q = np.stack([u.quaternion for u in m.support])
    return np.einsum("ki,k,kj->ij", q, np.array([float(w) for w in m.weights]), q)


def _gram_value(config: EwlConfig, slot: int, grams: tuple, column: np.ndarray) -> float:
    """sum_c column[c] E[P(cell c)] under independent play of Gram matrices
    ``grams``: the ``unitary_form`` in ``slot`` against the other slot's Gram
    matrix, averaged over this slot's own."""
    return float(np.sum(unitary_form(config, slot, grams[1 - slot], column) * grams[slot]))


def g_mq(config: EwlConfig, mA: QuantumMixture, mB: QuantumMixture) -> tuple[float, float]:
    """Expected payoffs of independent mixed quantum strategies, exact up to
    float rounding: each player's payoff form in their own slot, as
    ``equilibria.deviation_gain`` reads it, so the two agree bit for bit."""
    grams, table = (moment(mA), moment(mB)), config.payoff_table()
    return _gram_value(config, 0, grams, table[:, 0]), _gram_value(config, 1, grams, table[:, 1])


def outcome_dist_mq(config: EwlConfig, mA: QuantumMixture, mB: QuantumMixture) -> Dist:
    """The exact measurement distribution over cells, before expectation.  A
    cell of probability 0 can round a few ulp below it, and is clipped to 0."""
    grams = (moment(mA), moment(mB))
    return Dist(PROFILE_BASIS, tuple(max(_gram_value(config, 0, grams, cell), 0.0) for cell in np.eye(4)))


def unitary_form(
    config: EwlConfig, scan_slot: int, opponent_moment: np.ndarray, column: np.ndarray
) -> np.ndarray:
    """The real symmetric 4x4 form R of one unitary's weighted cell probabilities.

    For a unitary of unit quaternion q in player slot ``scan_slot`` against
    an opponent of Gram matrix Y = ``opponent_moment``, q^T R q is
    sum_c column[c] E[P(cell c)]: the expected payoff for a payoff column, a
    cell's probability for a one-hot one.  E|amp_c|^2 sums the squares of
    Re amp_c and Im amp_c, so R = sum_c column[c] (Re S_c Y Re S_c^T +
    Im S_c Y Im S_c^T), with S_c transposed in slot 1.  A unitary's value is
    that of u / sqrt(det u), so R's extreme eigenpairs are the extremes over
    every unitary.
    """
    check_player(scan_slot)
    s = born_matrix(config).reshape(4, 4, 8)  # s[i, j] = Re and Im of each S_c[i, j]
    s = s if scan_slot == 0 else s.transpose(1, 0, 2)
    return np.einsum("p,ikp,kl,jlp->ij", np.repeat(column, 2), s, opponent_moment, s)


def scan_payoffs(
    config: EwlConfig,
    scan_slot: int,
    grid: np.ndarray,
    opponent_moment: np.ndarray,
    column: np.ndarray,
) -> np.ndarray:
    """The ``unitary_form`` of ``column`` at every SU(2) unitary of ``grid``
    (G, 2, 2) in player slot ``scan_slot``, against the opponent ``moment``:
    a payoff column gives that player's mean payoff per grid point, a
    one-hot column that cell's probability.  The test suite reads it as the
    grid oracle of ``unitary_form``'s spectrum."""
    form = unitary_form(config, scan_slot, opponent_moment, column)
    q = np.ascontiguousarray(grid[:, 0]).view(float)  # first rows a + bi, c + di
    return np.einsum("gi,ij,gj->g", q, form, q)


def sample_payoffs_at(
    config: EwlConfig, scan_slot: int, unitary: np.ndarray, opponent: np.ndarray, payoff_player: int
) -> np.ndarray:
    """Per-sample payoffs of one fixed 2x2 unitary against opponent unit
    quaternions (samples, 4), by the Born pass: an oracle for ``unitary_form``."""
    fixed = Unitary2.from_matrix(unitary).quaternion[None]
    pair = (fixed, opponent) if scan_slot == 0 else (opponent, fixed)
    return (sample_cells(born_matrix(config), *pair) @ config.payoff_table())[:, payoff_player]


def embedded_cells(config: EwlConfig) -> np.ndarray:
    """Cell probabilities (4, 4) of the embedded pure profiles (E_x, E_y) in
    PROFILE_BASIS order, E = (I, F) = the unit quaternions (1, j), rows 0 and 2
    of eye(4), by the Born pass.  The scalar oracle is
    ``measure(protocol_state(config, E_x, E_y))``."""
    return sample_cells(born_matrix(config), np.eye(4)[[0, 0, 2, 2]], np.eye(4)[[0, 2, 0, 2]])


def exact_embedding() -> bool:
    """Is amp_c(E_x, E_y) = +-delta_{c,(x,y)} at every gamma?  It reads rows and
    columns {1, j} of _RE + sin(gamma) _SIN + i cos(gamma) _COS: yes when _SIN
    and _COS vanish there and _RE is a signed identity in PROFILE_BASIS order."""
    re, sin, cos = (t[:, 0::2, 0::2].reshape(4, 4) for t in (_RE, _SIN, _COS))
    return not sin.any() and not cos.any() and bool((np.abs(re) == np.eye(4)).all())


def check_proper(config: EwlConfig, tol: float = 1e-9) -> bool:
    """Do the embedded pure strategies (identity, flip) reproduce the game?"""
    table = config.payoff_table()
    return bool(np.abs(embedded_cells(config) @ table - table).max() <= tol)


def check_complete(config: EwlConfig, tol: float = 1e-9) -> tuple[bool, float]:
    """Do embedded mixed strategies reproduce the mixed extension?

    Returns (within tol?, worst distance of the measured cells of an embedded
    pure profile (E_x, E_y), E = (I, F), from the point mass on cell (x, y)).

    That decides every game and every (p, q): the mixed strategy (p_0, p_1)
    embeds as the unitary sqrt(p_0) E_0 + sqrt(p_1) E_1, and every cell
    amplitude is bilinear in vec(uA) and vec(uB), so the embedded (p, q)
    gives cell c the amplitude sum_xy sqrt(p_x q_y) amp_c(E_x, E_y).  If each
    (E_x, E_y) lands on its own cell, amp_c(E_x, E_y) is 0 for c != (x, y)
    and of modulus 1 for c = (x, y), so cell (x, y) has probability exactly
    p_x q_y, as in the mixed extension.  In EWL play the integer tables show
    this at every gamma (``exact_embedding``), and the cells here are then
    exactly the identity.
    """
    worst = float(np.abs(embedded_cells(config) - np.eye(4)).max())
    return worst <= tol, worst
