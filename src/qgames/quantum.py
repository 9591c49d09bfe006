"""Finite-dimensional quantum state machinery.

Superpositions are projective: amplitudes are stored exactly as given and
never re-phased, while measurement is phase-invariant.
Haar sampling of SU(2) is counter-based, so sample ``index`` under ``seed``
is a pure function of the pair and Monte-Carlo runs are reproducible
regardless of evaluation order or parallelism.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Dist

_ATOL = 1e-12


class QuantumError(ValueError):
    pass


class DegenerateStateError(QuantumError):
    """A zero amplitude vector, which names no quantum state."""


@dataclass(frozen=True)
class Superposition:
    """A complex amplitude vector over an ordered finite basis.

    Two superpositions describe the same state when their amplitudes differ
    by one nonzero complex scalar, which no ``measure`` sees.
    """

    basis: tuple
    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        basis = tuple(self.basis)
        amps = tuple(complex(a) for a in self.amplitudes)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "amplitudes", amps)
        if len(basis) != len(amps):
            raise QuantumError("basis and amplitudes must have the same length")
        if len(basis) == 0 or all(a == 0 for a in amps):
            raise DegenerateStateError("zero amplitude vector")
        if len(set(basis)) != len(basis):
            raise QuantumError("basis elements must be distinct")

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)


def born_rule(amplitudes: np.ndarray) -> np.ndarray:
    """Born rule along the last axis: probability k is |amp_k|^2 / sum |amp_j|^2,
    for one amplitude vector or a stack of them."""
    probs = np.abs(amplitudes) ** 2
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def measure(s: Superposition) -> Dist:
    """The ``born_rule`` distribution over s's basis."""
    return Dist(s.basis, tuple(born_rule(s.vector).tolist()))


@dataclass(frozen=True)
class Unitary2:
    """A 2x2 unitary matrix (any phase; SU(2) members have determinant 1)."""

    entries: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self):
        entries = tuple(tuple(complex(v) for v in row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        m = self.matrix
        if m.shape != (2, 2):
            raise QuantumError("expected a 2x2 matrix")
        residual = np.linalg.norm(m.conj().T @ m - np.eye(2))
        if residual > _ATOL:
            raise QuantumError(f"not unitary: residual {residual:.2e}")
        if abs(abs(np.linalg.det(m)) - 1.0) > _ATOL:
            raise QuantumError("determinant modulus differs from 1")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex)

    @property
    def quaternion(self) -> np.ndarray:
        """The unit quaternion (a, b, c, d) of the SU(2) unitary u / sqrt(det u) =
        [[a+bi, c+di], [-c+di, a-bi]]: u up to a global phase."""
        (p, r), (t, s) = self.entries
        a, c = np.array([p, r]) / cmath.sqrt(p * s - r * t)
        return np.array([a.real, a.imag, c.real, c.imag])

    @classmethod
    def from_matrix(cls, m) -> "Unitary2":
        m = np.asarray(m, dtype=complex)
        return cls(((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1])))


IDENTITY2 = Unitary2(((1, 0), (0, 1)))

# The SU(2) bit-flip su2_from_angles(pi, 0, 0), exact.
FLIP2 = Unitary2(((0, 1), (-1, 0)))


def su2_from_angles(theta: float, alpha: float, beta: float) -> Unitary2:
    """The standard 3-angle SU(2) parametrization.

    Rows are [e^{ia}cos(t/2), e^{ib}sin(t/2)] and
    [-e^{-ib}sin(t/2), e^{-ia}cos(t/2)]; every SU(2) element is reached.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    ea, eb = complex(math.cos(alpha), math.sin(alpha)), complex(math.cos(beta), math.sin(beta))
    return Unitary2(((ea * c, eb * s), (-s / eb, c / ea)))


# Counter-based randomness: a SplitMix64 stream addressed by (seed, position).
# Word p of seed's stream is mix(mix(seed + G) + (p + 1) G), with G the golden
# gamma: every draw of the package, Haar or not, is a pure function of
# (seed, position).

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _gamma(k: int) -> np.uint64:
    """k * G modulo 2^64."""
    return np.uint64(k * _GOLDEN & _MASK64)


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on the uint64 array z (uint64 arrays
    wrap around silently); tmp is scratch of z's shape."""
    for shift, factor in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, factor, out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    return np.bitwise_xor(z, tmp, out=z)


def _uniforms_into(seed: int, words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the uniforms at positions p of seed's stream, given
    words = p * G (uint64, clobbered).  The seed is masked to 64 bits."""
    key = np.array([(seed + _GOLDEN) & _MASK64], dtype=np.uint64)
    words += _mix64(key, np.empty_like(key)) + _gamma(1)
    _mix64(words, out.view(np.uint64))
    # 53-bit mantissa; +1 keeps the value in (0, 1] so log() below is safe.
    # The shifted words fit in int64, whose conversion to float64 is exact
    # and faster than uint64's.
    words >>= np.uint64(11)
    np.add(words.view(np.int64), 1.0, out=out)
    out *= 2.0**-53
    return out


def uniforms(seed: int, positions) -> np.ndarray:
    """The uniforms in (0, 1] at an array of ``positions`` of seed's stream."""
    words = np.asarray(positions, dtype=np.uint64) * _gamma(1)
    return _uniforms_into(seed, words, np.empty(words.shape))


def standard_normals(seed: int, indices: np.ndarray, lanes: int, out=None, words=None) -> np.ndarray:
    """Box-Muller normals, shape (len(indices), lanes); lanes must be even.

    Entry [i, l] is built from positions indices[i] * lanes + l and its odd
    partner, so it depends only on (seed, indices[i], l).  The array is the
    transposed view of one contiguous row per lane, which keeps every
    elementwise pass over contiguous memory; every pass writes into ``out``
    or ``words``, (lanes, n) float64 and uint64 buffers made if not given.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    words = np.empty((lanes, len(indices)), dtype=np.uint64) if words is None else words
    out = np.empty(words.shape) if out is None else out
    for lane, row in enumerate(words):  # row = (index * lanes + lane) * G
        np.multiply(indices, _gamma(lanes), out=row)
        row += _gamma(lane)
    _uniforms_into(seed, words, out)
    r, phi = out[0::2], out[1::2]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    phi *= 2.0 * math.pi
    cos = words.view(np.float64)[0::2]
    np.cos(phi, out=cos)
    np.sin(phi, out=phi)
    phi *= r
    r *= cos
    return out.T


def haar_su2_batch(seed: int, indices, out=None, scratch=None) -> np.ndarray:
    """Haar-distributed SU(2) samples as unit quaternions, shape (n, 4).

    Four standard normals per index are normalized to a unit quaternion
    q = (a, b, c, d), the unitary [[a+bi, c+di], [-c+di, a-bi]].  Uniformity
    on the 3-sphere is exactly Haar measure on SU(2).  As in
    ``standard_normals``, each component is one contiguous row, divided in
    place; the squared norm is summed in np.linalg.norm's order.  Given
    ``out`` (4, n) and ``scratch`` (4, n, uint64), the draw is ``out.T`` and
    nothing of size n is allocated.
    """
    workspace = () if out is None else (out, scratch)
    z = standard_normals(seed, indices, 4, *workspace).T
    squares, term = np.empty((2, z.shape[1])) if out is None else scratch.view(np.float64)[:2]
    np.multiply(z[0], z[0], out=squares)
    for row in z[1:]:
        squares += np.multiply(row, row, out=term)
    if not squares.all():  # a zero quaternion (chance about 2^-106) is the identity
        z[0, squares == 0] = squares[squares == 0] = 1.0
    np.sqrt(squares, out=squares)
    z /= squares
    return z.T


def su2_grid(n: int) -> np.ndarray:
    """A deterministic (n^3, 2, 2) coverage grid over SU(2).

    theta takes n points on [0, pi] inclusive; alpha and beta take n points
    on [0, 2pi), so the identity and the flip are always grid members.
    """
    if n < 2:
        raise QuantumError("grid needs at least 2 points per angle")
    theta = np.linspace(0.0, math.pi, n)
    alpha = np.arange(n) * (2.0 * math.pi / n)
    beta = np.arange(n) * (2.0 * math.pi / n)
    t, a, b = np.meshgrid(theta, alpha, beta, indexing="ij")
    t, a, b = t.ravel(), a.ravel(), b.ravel()
    c, s = np.cos(t / 2.0), np.sin(t / 2.0)
    out = np.empty((n**3, 2, 2), dtype=complex)
    out[:, 0, 0] = np.exp(1j * a) * c
    out[:, 0, 1] = np.exp(1j * b) * s
    out[:, 1, 0] = -np.exp(-1j * b) * s
    out[:, 1, 1] = np.exp(-1j * a) * c
    return out
