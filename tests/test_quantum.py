import math

import numpy as np
import pytest

from qgames import quantum
from qgames.quantum import (
    FLIP2,
    IDENTITY2,
    DegenerateStateError,
    QuantumError,
    Superposition,
    Unitary2,
    born_rule,
    haar_su2_batch,
    measure,
    su2_from_angles,
    su2_grid,
)


def rand_state(rng, dim=2, basis=None):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Superposition(basis or tuple(range(dim)), tuple(amps))


def test_zero_state_rejected():
    with pytest.raises(DegenerateStateError):
        Superposition(("x", "y"), (0, 0))


def test_measure_two_term_formula():
    d = measure(Superposition(("x", "y"), (1, 1)))
    assert d.weights == (0.5, 0.5)
    d = measure(Superposition(("x", "y"), (3, 4j)))
    assert np.allclose(d.weights, (9 / 25, 16 / 25), atol=1e-15)


def test_measure_scale_invariant():
    rng = np.random.default_rng(12)
    for _ in range(100):
        s = rand_state(rng, dim=3)
        lam = complex(rng.normal(), rng.normal())
        if abs(lam) < 1e-9:
            continue
        scaled = Superposition(s.basis, tuple(lam * a for a in s.amplitudes))
        assert np.allclose(measure(s).weights, measure(scaled).weights, atol=1e-12)
        assert abs(sum(measure(s).weights) - 1.0) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_array_born_rule_matches_measure_per_state(dim):
    # Stacked states give, row by row, the bits that measure gives each one.
    rng = np.random.default_rng(18 + dim)
    amps = rng.normal(size=(500, dim)) + 1j * rng.normal(size=(500, dim))
    amps[:5] *= 1e-100  # states far from unit norm
    amps[5:10] *= 1e100
    probs = born_rule(amps)
    assert probs.shape == amps.shape
    for row, state in zip(probs, amps):
        assert row.tolist() == list(measure(Superposition(tuple(range(dim)), tuple(state))).weights)


def test_tensor_measure_factorizes():
    from qgames.distributions import product

    rng = np.random.default_rng(13)
    a, b = rand_state(rng), rand_state(rng, basis=("u", "v"))
    pairs = tuple((x, y) for x in a.basis for y in b.basis)
    joint = measure(Superposition(pairs, tuple(np.kron(a.vector, b.vector))))
    split = product(measure(a), measure(b))
    assert joint.support == split.support
    assert np.allclose(joint.weights, split.weights, atol=1e-12)


def test_su2_from_angles():
    assert np.allclose(su2_from_angles(0, 0, 0).matrix, np.eye(2))
    assert np.allclose(su2_from_angles(math.pi, 0, 0).matrix, [[0, 1], [-1, 0]], atol=1e-15)
    rng = np.random.default_rng(14)
    for _ in range(50):
        theta, alpha, beta = rng.uniform(0, 2 * math.pi, size=3)
        u = su2_from_angles(theta, alpha, beta).matrix
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def test_unitary2_rejects_non_unitary():
    with pytest.raises(QuantumError):
        Unitary2(((1, 0), (0, 2)))
    # any global phase is accepted (full U(2))
    Unitary2(((1j, 0), (0, 1j)))


def test_haar_deterministic(haar_su2):
    a = haar_su2(42, 7).matrix
    b = haar_su2(42, 7).matrix
    assert (a == b).all()
    assert not np.allclose(haar_su2(42, 8).matrix, a)
    assert not np.allclose(haar_su2(43, 7).matrix, a)


def test_haar_batch_agrees_with_scalar(haar_su2, su2_matrices):
    batch = su2_matrices(haar_su2_batch(5, np.arange(10)))
    for i in range(10):
        assert (haar_su2(5, i).matrix == batch[i]).all()


def row_major_normals(seed, indices, lanes):
    """``standard_normals`` computed one index per row, as a whole-array oracle
    of its lane-major layout."""
    indices = np.asarray(indices, dtype=np.uint64)
    pos = indices[:, None] * np.uint64(lanes) + np.arange(lanes, dtype=np.uint64)[None, :]
    u = quantum.uniforms(seed, pos)
    r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    phi = (2.0 * math.pi) * u[:, 1::2]
    out = np.empty_like(u)
    out[:, 0::2] = r * np.cos(phi)
    out[:, 1::2] = r * np.sin(phi)
    return out


def complex_haar_batch(seed, indices):
    """The Haar map as complex 2x2 matrices, normalized by np.linalg.norm."""
    z = row_major_normals(seed, indices, 4)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    z = np.where(norms > 0, z / np.where(norms == 0, 1.0, norms), [1.0, 0.0, 0.0, 0.0])
    a, b, c, d = z.T
    out = np.empty((len(z), 2, 2), dtype=complex)
    out[:, 0, 0], out[:, 0, 1] = a + 1j * b, c + 1j * d
    out[:, 1, 0], out[:, 1, 1] = -c + 1j * d, a - 1j * b
    return out


BIG_INDICES = np.array([2**40 + 5, 2**63 - 1, 2**64 - 1, 12345678901], dtype=np.uint64)


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("seed, indices", [(11, np.arange(50_000)), (5, BIG_INDICES)])
def test_quaternions_are_the_complex_matrices_first_row_bitwise(seed, indices, su2_matrices):
    quaternions = haar_su2_batch(seed, indices)
    matrices = complex_haar_batch(seed, indices)
    top = matrices[:, 0]
    first_row = np.stack([top[:, 0].real, top[:, 0].imag, top[:, 1].real, top[:, 1].imag], axis=-1)
    assert quaternions.shape == (len(indices), 4)
    assert (bits(quaternions) == bits(first_row)).all()
    assert (bits(su2_matrices(quaternions)) == bits(matrices)).all()


def splitmix_uniform(seed, position):
    """Uniform ``position`` of seed's stream, in Python integers."""
    mask, golden = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        return z ^ (z >> 31)

    key = mix((seed + golden) & mask)
    return ((mix((key + (position + 1) * golden) & mask) >> 11) + 1) * 2.0**-53


def test_uniforms_match_the_integer_splitmix_oracle():
    positions = [0, 1, 5, 3 * 2**60 + 7, 6 * 2**60 + 5, 2**64 - 1]
    for seed in (0, 3, -1, 2**64 - 7, 2**70 + 3):
        drawn = quantum.uniforms(seed, np.array(positions, dtype=np.uint64))
        assert drawn.tolist() == [splitmix_uniform(seed, p) for p in positions]


@pytest.mark.parametrize("lanes", [2, 4, 6])
def test_lane_major_normals_match_row_major_bitwise(lanes):
    for seed, indices in ((3, np.arange(10_000)), (2**64 - 7, BIG_INDICES)):
        lane_major = quantum.standard_normals(seed, indices, lanes)
        assert (bits(lane_major) == bits(row_major_normals(seed, indices, lanes))).all()


def test_zero_quaternion_maps_to_the_identity(monkeypatch):
    normals = quantum.standard_normals

    def with_zero_rows(seed, indices, lanes):
        z = np.ascontiguousarray(normals(seed, indices, lanes))
        z[[1, 4]] = 0.0
        return z

    monkeypatch.setattr(quantum, "standard_normals", with_zero_rows)
    batch = haar_su2_batch(8, np.arange(6))
    assert (batch[[1, 4]] == [1.0, 0.0, 0.0, 0.0]).all()
    monkeypatch.undo()
    rest = [0, 2, 3, 5]
    assert (bits(batch[rest]) == bits(haar_su2_batch(8, np.arange(6))[rest])).all()


def test_unitary_quaternion_is_that_of_u_over_root_det(haar_su2):
    for k, phase in enumerate((0.0, 0.9, 2.5, -1.3)):
        u = haar_su2(6, k)
        q = Unitary2.from_matrix(np.exp(1j * phase) * u.matrix).quaternion
        # sqrt(det) is e^{i phase} or its negative: q is u's quaternion up to sign.
        drawn = haar_su2_batch(6, [k])[0]
        assert min(np.abs(q - drawn).max(), np.abs(q + drawn).max()) < 1e-15
    assert (IDENTITY2.quaternion == [1, 0, 0, 0]).all() and (FLIP2.quaternion == [0, 0, 1, 0]).all()


def test_haar_unitarity_residuals(su2_matrices):
    batch = su2_matrices(haar_su2_batch(1, np.arange(20000)))
    residual = np.abs(np.einsum("nab,ncb->nac", batch, batch.conj()) - np.eye(2)).max()
    assert residual < 1e-12
    assert np.abs(np.linalg.det(batch) - 1.0).max() < 1e-12


def test_haar_first_entry_moment(su2_matrices):
    batch = su2_matrices(haar_su2_batch(2, np.arange(100000)))
    mean = (np.abs(batch[:, 0, 0]) ** 2).mean()
    assert abs(mean - 0.5) < 0.01


def _ks_p_value(x, y):
    """Two-sample Kolmogorov-Smirnov asymptotic p-value."""
    x, y = np.sort(x), np.sort(y)
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / len(x)
    cdf_y = np.searchsorted(y, grid, side="right") / len(y)
    d = np.abs(cdf_x - cdf_y).max()
    n = len(x) * len(y) / (len(x) + len(y))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    p = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 101))
    return min(max(p, 0.0), 1.0)


def test_haar_left_invariance(su2_matrices):
    # For fixed V, the law of V @ U matches the law of U; compare |u00|^2.
    # Frozen seed: a fixed draw from the null, verified against scipy's KS.
    n = 20000
    u = su2_matrices(haar_su2_batch(5, np.arange(n)))
    v = su2_from_angles(1.234, 0.7, 2.1).matrix
    shifted = np.einsum("ab,nbc->nac", v, su2_matrices(haar_su2_batch(5, np.arange(n, 2 * n))))
    p = _ks_p_value(np.abs(u[:, 0, 0]) ** 2, np.abs(shifted[:, 0, 0]) ** 2)
    assert p > 0.01


def test_su2_grid_contains_identity_and_flip():
    grid = su2_grid(4)
    assert grid.shape == (64, 2, 2)
    assert any(np.allclose(g, np.eye(2), atol=1e-12) for g in grid)
    assert any(np.allclose(g, FLIP2.matrix, atol=1e-12) for g in grid)
    prods = np.einsum("nab,ncb->nac", grid, grid.conj())
    assert np.abs(prods - np.eye(2)).max() < 1e-12
