from fractions import Fraction

import numpy as np
import pytest

from qgames.distributions import (
    Dist,
    DistError,
    MixedProfile,
    embed_pure,
    expectation,
    g_mix,
    product,
    pushforward,
    realizable,
)
from qgames.games import chicken, prisoners_dilemma, simplified_poker
from qgames.mediated import referee_dist

F = Fraction


def test_dist_invariants():
    with pytest.raises(DistError):
        Dist((0, 1), (F(1, 2), F(1, 3)))  # does not sum to 1
    with pytest.raises(DistError):
        Dist((0, 1), (F(3, 2), F(-1, 2)))  # negative weight
    with pytest.raises(DistError):
        Dist((0, 0), (F(1, 2), F(1, 2)))  # duplicate support
    with pytest.raises(DistError):
        Dist((), ())


HALVES = (F(1, 2), F(1, 2))


@pytest.mark.parametrize(
    "support",
    [
        ((0, 1), (0, 1)),  # an exact duplicate tuple
        (F(1), 1),  # equal exact scalars of two types
        ((F(1, 2), 3), (0.5, 3)),  # a float equal to a Fraction
    ],
)
def test_dist_rejects_equal_support_elements(support):
    with pytest.raises(DistError, match="duplicate support element"):
        Dist(support, HALVES)


def test_dist_duplicate_error_names_the_element():
    with pytest.raises(DistError, match=r"duplicate support element \('b', 2\)$"):
        Dist((("a", 1), ("b", 2), ("c", 3), ("b", 2)), (F(1, 4),) * 4)


@pytest.mark.parametrize(
    "support", [((0, 1), (1, 0)), (F(1), F(2)), (1.0, 1.0 + 1e-9), ("a", "b")]
)
def test_dist_accepts_distinct_support_elements(support):
    assert Dist(support, HALVES).support == support


def test_embed_pure():
    assert embed_pure(0, 2).weights == (1, 0)
    assert embed_pure(1, 2).weights == (0, 1)
    with pytest.raises(DistError):
        embed_pure(2, 2)


def test_product_matches_two_parameter_tableau():
    p, q = F(2, 5), F(3, 7)
    row = Dist((0, 1), (p, 1 - p))
    col = Dist((0, 1), (1 - q, q))  # q is the weight on the second column
    cells = product(row, col)
    assert cells.support == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert cells.weights == (p * (1 - q), p * q, (1 - p) * (1 - q), (1 - p) * q)


def test_product_point_and_uniform(uniform_dist, prob):
    a = embed_pure(1, 2)
    b = embed_pure(0, 2)
    assert prob(product(a, b), (1, 0)) == 1
    u = uniform_dist((0, 1))
    assert set(product(u, u).weights) == {F(1, 4)}


def test_pushforward_point_mass():
    pd = prisoners_dilemma()
    d = referee_dist(pd, (1, 0, 0, 0))
    out = pushforward(pd, d)
    assert out.support == ((F(3), F(3)),)
    assert out.weights == (1,)


def test_pushforward_merges_equal_outcomes(uniform_dist, prob):
    poker = simplified_poker()
    out = pushforward(poker, uniform_dist(poker.profiles()))
    # the two (0,0) cells collapse into one atom of mass 1/2
    assert len(out.support) == 3
    assert prob(out, (F(0), F(0))) == F(1, 2)
    assert prob(out, (F(5, 4), F(-5, 4))) == F(1, 4)
    assert prob(out, (F(5, 2), F(-5, 2))) == F(1, 4)


def test_pushforward_preserves_mass():
    chick = chicken()
    third = F(1, 3)
    d = referee_dist(chick, (third, third, third, 0))
    out = pushforward(chick, d)
    assert sum(out.weights) == 1
    assert len(out.support) == 3


def test_expectation(uniform_dist):
    chick = chicken()
    third = F(1, 3)
    d = pushforward(chick, referee_dist(chick, (third, third, third, 0)))
    assert expectation(d) == (F(5, 3), F(5, 3))
    assert expectation(Dist(((F(1), F(1)),), (F(1),))) == (1, 1)
    # uniform over the four dilemma outcomes, against a by-hand average
    pd = prisoners_dilemma()
    outcomes = [pd.payoff(p) for p in pd.profiles()]
    mean = tuple(sum(v[k] for v in outcomes) / F(4) for k in (0, 1))
    assert mean == (F(9, 4), F(9, 4))
    assert expectation(pushforward(pd, uniform_dist(pd.profiles()))) == mean


def test_g_mix_values():
    chick = chicken()
    half = F(1, 2)
    assert g_mix(chick, MixedProfile.from_weights((half, half), (half, half))) == (1, 1)

    poker = simplified_poker()
    m = MixedProfile.from_weights((F(2, 3), F(1, 3)), (F(2, 3), F(1, 3)))
    # direct four-term sum as the oracle
    expected = tuple(
        sum(
            F(2, 3) ** (2 - i - j) * F(1, 3) ** (i + j) * poker.payoff((i, j))[k]
            for i in (0, 1)
            for j in (0, 1)
        )
        for k in (0, 1)
    )
    assert expected == (F(5, 6), F(-5, 6))
    assert g_mix(poker, m) == expected


def test_g_mix_extends_the_game():
    for game in (prisoners_dilemma(), simplified_poker(), chicken()):
        for i, j in game.profiles():
            m = MixedProfile(embed_pure(i, 2), embed_pure(j, 2))
            assert g_mix(game, m) == game.payoff((i, j))


def test_g_mix_is_affine_in_each_player():
    rng = np.random.default_rng(4)
    game = chicken()
    for _ in range(20):
        a, b, c, lam_n = (int(x) for x in rng.integers(1, 9, size=4))
        p1, p2, lam = F(a, 9), F(b, 9), F(lam_n, 9)
        col = Dist((0, 1), (F(c, 9), 1 - F(c, 9)))
        blend = lam * p1 + (1 - lam) * p2
        left = g_mix(game, MixedProfile.from_weights((blend, 1 - blend), col.weights))
        right = tuple(
            lam * x + (1 - lam) * y
            for x, y in zip(
                g_mix(game, MixedProfile.from_weights((p1, 1 - p1), col.weights)),
                g_mix(game, MixedProfile.from_weights((p2, 1 - p2), col.weights)),
            )
        )
        assert left == right


def test_realizable_antidiagonal_is_not():
    pd = prisoners_dilemma()
    half = F(1, 2)
    ok, witness = realizable(pd, referee_dist(pd, (half, 0, 0, half)))
    assert not ok and witness is None


def test_realizable_recovers_products():
    pd = prisoners_dilemma()
    target = product(Dist((0, 1), (F(1, 3), F(2, 3))), Dist((0, 1), (F(1, 4), F(3, 4))))
    ok, (p, q) = realizable(pd, target)
    assert ok
    assert abs(p - 1 / 3) < 1e-9 and abs(q - 1 / 4) < 1e-9


def test_realizable_point_mass():
    pd = prisoners_dilemma()
    ok, (p, q) = realizable(pd, product(embed_pure(0, 2), embed_pure(1, 2)))
    assert ok
    assert abs(p - 1.0) < 1e-9 and abs(q - 0.0) < 1e-9


def _tv_to_product(p, q, cells):
    product_cells = (p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q))
    return 0.5 * sum(abs(a - b) for a, b in zip(product_cells, cells))


def _grid_search_tv(cells):
    """The smallest total variation from ``cells`` to a product distribution
    that a grid search finds: a 101x101 grid of (p, q), then 50 alternating
    ternary line searches.  An upper bound on the optimum."""

    def line_minimize(fn, lo=0.0, hi=1.0):
        for _ in range(100):
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            lo, hi = (lo, m2) if fn(m1) <= fn(m2) else (m1, hi)
        return (lo + hi) / 2

    axis = np.linspace(0.0, 1.0, 101)
    tv = _tv_to_product(axis[:, None], axis[None, :], cells)
    i, j = np.unravel_index(np.argmin(tv), tv.shape)
    p, q = float(axis[i]), float(axis[j])
    for step in range(50):
        if step % 2 == 0:
            p = line_minimize(lambda x: _tv_to_product(x, q, cells))
        else:
            q = line_minimize(lambda x: _tv_to_product(p, x, cells))
    return _tv_to_product(p, q, cells)


def test_realizable_within_three_times_the_grid_search():
    pd = prisoners_dilemma()
    rng = np.random.default_rng(26)
    for trial in range(60):
        p, q = rng.uniform(0, 1, size=2)
        cells = np.array([p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)])
        # Exact products, products pushed off by a little, and arbitrary targets.
        noise = (0.0, 1e-3, 1.0)[trial % 3]
        cells = cells + noise * rng.dirichlet(np.ones(4))
        cells = [float(c) for c in cells / cells.sum()]
        target = referee_dist(pd, tuple(cells))
        searched = _grid_search_tv(cells)
        ok, witness = realizable(pd, target, tolerance=3 * searched + 1e-12)
        assert ok
        # Soundness: the witness's product lies within the tolerance it passed.
        assert _tv_to_product(*witness, cells) <= 3 * searched + 1e-12
        if noise == 0.0:
            assert searched <= 1e-9 and realizable(pd, target)[0]
            assert abs(witness[0] - p) < 1e-12 and abs(witness[1] - q) < 1e-12


def test_realizable_rational_targets_are_exact():
    pd = prisoners_dilemma()
    product_target = referee_dist(pd, (F(1, 12), F(1, 4), F(1, 6), F(1, 2)))
    assert realizable(pd, product_target) == (True, (1 / 3, 1 / 4))
    # Within any float tolerance of that product, yet not a product.
    nudge = F(1, 10**12)
    near = referee_dist(pd, (F(1, 12) + nudge, F(1, 4) - nudge, F(1, 6), F(1, 2)))
    assert realizable(pd, near) == (False, None)


def test_realizable_float_tolerance_is_total_variation():
    # Moving eps from the off-diagonal to the diagonal keeps the marginals,
    # so the marginals' product lies exactly 2 * eps away in total variation.
    pd = prisoners_dilemma()
    eps = 1e-9
    cells = (0.12 + eps, 0.28 - eps, 0.18 - eps, 0.42 + eps)
    target = referee_dist(pd, cells)
    assert realizable(pd, target, tolerance=1.9 * eps) == (False, None)
    ok, (p, q) = realizable(pd, target, tolerance=2.1 * eps)
    assert ok and abs(p - 0.4) < 1e-15 and abs(q - 0.3) < 1e-15
