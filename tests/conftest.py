from fractions import Fraction

import numpy as np
import pytest

from qgames import ewl


@pytest.fixture
def haar_batches(monkeypatch) -> list:
    """The index count of every Haar batch that qgames.ewl draws, in order."""
    calls = []
    original = ewl.haar_su2_batch

    def counting(seed, indices):
        calls.append(len(indices))
        return original(seed, indices)

    monkeypatch.setattr(ewl, "haar_su2_batch", counting)
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
