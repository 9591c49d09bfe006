from fractions import Fraction

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
