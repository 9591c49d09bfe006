from fractions import Fraction

import numpy as np
import pytest

from qgames import checks, ewl


class HaarBatches(list):
    """The index count of every Haar batch drawn, in order; ``streams`` holds
    each batch's (seed, indices)."""

    def __init__(self):
        super().__init__()
        self.streams = []


@pytest.fixture
def haar_batches(monkeypatch) -> HaarBatches:
    """The Haar batches that qgames.ewl and qgames.checks draw."""
    calls = HaarBatches()
    original = ewl.haar_su2_batch

    def counting(seed, indices, *workspace):
        calls.append(len(indices))
        calls.streams.append((seed, np.array(indices, dtype=np.uint64)))
        return original(seed, indices, *workspace)

    for module in (ewl, checks):
        monkeypatch.setattr(module, "haar_su2_batch", counting)
    return calls


def _assert_certified(game, objective, optimum) -> None:
    """Strong duality for a ce_optimize result, checked in Fractions from the
    payoff table alone: the obedience multipliers are >= 0, every cell's
    dual constraint holds and the dual objective equals the value, so no
    correlated equilibrium does better.  ``optimum`` is a
    ``mediated.CeOptimum``.
    """
    rows, cols = game.shape
    u = game.payoff
    triples = {
        (player, rec, alt)
        for player, count in ((0, rows), (1, cols))
        for rec in range(count)
        for alt in range(count)
        if alt != rec
    }
    multipliers = optimum.obedience_multipliers
    assert sorted((m.player, m.recommended, m.alternative) for m in multipliers) == sorted(triples)
    assert all(m.multiplier >= 0 for m in multipliers)
    for k, (a, b) in enumerate(game.profiles()):
        pressure = Fraction(0)
        for player, rec, alt, multiplier in multipliers:
            if (a, b)[player] != rec:
                continue
            swapped = (alt, b) if player == 0 else (a, alt)
            pressure += multiplier * (u((a, b))[player] - u(swapped)[player])
        assert optimum.simplex_multiplier - pressure >= Fraction(objective[k])
    assert optimum.simplex_multiplier == optimum.value
    assert sum(Fraction(c) * w for c, w in zip(objective, optimum.rho.weights)) == optimum.value


@pytest.fixture(scope="session")
def certify():
    return _assert_certified


def _obedience_rows(game) -> list:
    """Independent oracle of ``mediated.obedience_constraints``: each row
    written out cell by cell, against the profile with the player's own
    strategy swapped for the alternative."""
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
                    coeffs[index[(a, b)]] = game.payoff((a, b))[player] - game.payoff(swapped)[player]
                out.append((coeffs, player, rec, alt))
    return out


@pytest.fixture(scope="session")
def obedience_oracle():
    return _obedience_rows


@pytest.fixture(scope="session")
def finite_mixtures():
    """Two finite quantum mixtures with unequal supports.  One support element
    of each carries a non-unit global phase, which no payoff may see."""
    from qgames.distributions import Dist
    from qgames.quantum import FLIP2, Unitary2, su2_from_angles

    def phased(u, phase):
        return Unitary2.from_matrix(np.exp(1j * phase) * u.matrix)

    mix_a = Dist(
        (su2_from_angles(0.4, 1.1, 2.3), phased(su2_from_angles(2.0, 0.2, 4.0), 0.9)),
        (Fraction(1, 3), Fraction(2, 3)),
    )
    mix_b = Dist(
        (FLIP2, phased(su2_from_angles(1.2, 3.0, 0.5), 2.5), su2_from_angles(2.7, 5.1, 1.4)),
        (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
    )
    return mix_a, mix_b


def _side(m, slot: int, seed: int, n: int):
    """One slot of a profile as unit quaternions (samples, support, 4) and
    one weight per support element: a Haar slot's draws 0..n-1 on ``seed``
    over a one-element support, a finite Dist's quaternions as one sample."""
    if isinstance(m, ewl.HaarMixture):
        return ewl.haar_draws(seed, slot, 0, n)[:, None], np.ones(1)
    return np.stack([u.quaternion for u in m.support])[None], np.array([float(w) for w in m.weights])


def _born_pass(config, mA, mB, seed: int = 0, n: int = 1) -> np.ndarray:
    """The finite Born pass, the oracle of the Gram form: per-sample cells
    (n, 4) from ``ewl.sample_cells`` at every pair of support elements,
    summed with the product of their weights, with each Haar slot drawn n
    times on ``seed``.  A profile with no Haar slot is one sample (n = 1),
    its exact weighted sum."""
    (qa, wa), (qb, wb) = _side(mA, 0, seed, n), _side(mB, 1, seed, n)
    shape = (n, qa.shape[1], qb.shape[1], 4)
    pairs = [np.broadcast_to(q, shape).reshape(-1, 4) for q in (qa[:, :, None], qb[:, None])]
    cells = ewl.sample_cells(ewl.born_matrix(config), *pairs).reshape(shape)
    return np.einsum("sklc,kl->sc", cells, np.outer(wa, wb))


@pytest.fixture(scope="session")
def born_pass():
    return _born_pass


def _whole_cells(born, qa, qb) -> np.ndarray:
    """The Born pass as one whole-array product, the oracle of the blocked
    ``ewl.sample_cells``: x = q_A kron q_B as a (16, samples) array, its
    product with ``born`` in one matmul, squared and summed in pairs."""
    x = qa.T[:, None] * qb.T[None, :]  # (4, 4, samples)
    squares = born.T @ x.reshape(16, -1)  # Re and Im of each amplitude, squared in place
    squares *= squares
    return (squares[0::2] + squares[1::2]).T


@pytest.fixture(scope="session")
def whole_cells():
    return _whole_cells


@pytest.fixture(scope="session")
def four_units():
    """The uniform mixture over the quaternion units {1, i, j, k}: the SU(2)
    unitaries I, iZ, F and iX, whose Gram matrix is I/4, as Haar's is."""
    from qgames.distributions import Dist
    from qgames.quantum import Unitary2

    matrices = (np.eye(2), np.diag([1j, -1j]), [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]])
    return Dist.uniform(Unitary2.from_matrix(m) for m in matrices)
