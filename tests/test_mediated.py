import random
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qgames import lp
from qgames.distributions import Dist, expectation, pushforward
from qgames.games import Game, chicken, prisoners_dilemma, simplified_poker
from qgames.mediated import (
    ResponseRule,
    aumann_check,
    ce_optimize,
    embed_f,
    g_com,
    is_correlated_eq,
    obedience_constraints,
    referee_dist,
)

F = Fraction
GAMES = [prisoners_dilemma(), simplified_poker(), chicken()]


def obedience_by_hand(game: Game, rho: Dist) -> bool:
    """Independent oracle: write out all obedience inequalities directly."""
    w = {cell: rho.prob(cell) for cell in game.profiles()}
    u = game.payoff
    checks = []
    for rec, alt in ((0, 1), (1, 0)):
        checks.append(sum(w[(rec, b)] * (u((rec, b))[0] - u((alt, b))[0]) for b in (0, 1)) >= 0)
        checks.append(sum(w[(a, rec)] * (u((a, rec))[1] - u((a, alt))[1]) for a in (0, 1)) >= 0)
    return all(checks)


def random_rho(game, rng):
    nums = [int(v) for v in rng.integers(0, 20, size=4)]
    if sum(nums) == 0:
        nums[0] = 1
    total = sum(nums)
    return referee_dist(game, tuple(F(v, total) for v in nums))


def test_follow_follow_is_expected_outcome():
    rng = np.random.default_rng(2)
    for game in GAMES:
        for _ in range(10):
            rho = random_rho(game, rng)
            expected = expectation(pushforward(game, rho))
            assert g_com(game, rho, ResponseRule.FOLLOW, ResponseRule.FOLLOW) == expected


def test_g_com_invert():
    pd = prisoners_dilemma()
    rho = Dist.point_mass((0, 0), pd.profiles())
    assert g_com(pd, rho, ResponseRule.FOLLOW, ResponseRule.INVERT) == (F(0), F(5))


def test_constant_rules_ignore_recommendations():
    rng = np.random.default_rng(3)
    for game in GAMES:
        rho = random_rho(game, rng)
        for i, j in game.profiles():
            rules = (
                ResponseRule.ALWAYS_FIRST if i == 0 else ResponseRule.ALWAYS_SECOND,
                ResponseRule.ALWAYS_FIRST if j == 0 else ResponseRule.ALWAYS_SECOND,
            )
            assert g_com(game, rho, *rules) == game.payoff((i, j))


def test_embed_f():
    assert embed_f(0) is ResponseRule.ALWAYS_FIRST
    assert embed_f(1) is ResponseRule.ALWAYS_SECOND
    # the mediated game extends the base game, for any referee distribution
    rng = np.random.default_rng(5)
    for game in GAMES:
        for _ in range(5):
            rho = random_rho(game, rng)
            for i, j in game.profiles():
                assert g_com(game, rho, embed_f(i), embed_f(j)) == game.payoff((i, j))


def test_chicken_referee_distribution_is_correlated_eq():
    chick = chicken()
    third = F(1, 3)
    rho = referee_dist(chick, (third, third, third, 0))
    ok, worst = is_correlated_eq(chick, rho)
    assert ok and worst <= 0
    assert aumann_check(chick, rho)[0]
    assert g_com(chick, rho, ResponseRule.FOLLOW, ResponseRule.FOLLOW) == (F(5, 3), F(5, 3))


def test_pd_rejects_any_mass_off_equilibrium():
    pd = prisoners_dilemma()
    rng = np.random.default_rng(6)
    for _ in range(50):
        rho = random_rho(pd, rng)
        off_mass = 1 - rho.prob((1, 1))
        assert is_correlated_eq(pd, rho)[0] == (off_mass == 0)
    assert is_correlated_eq(pd, Dist.point_mass((1, 1), pd.profiles()))[0]


def test_uniform_chicken_referee_is_a_correlated_eq():
    # The uniform cell distribution is the product of the (1/2,1/2) mixed
    # equilibrium, so both oracles must accept it.
    chick = chicken()
    rho = referee_dist(chick, (F(1, 4),) * 4)
    assert obedience_by_hand(chick, rho)
    assert aumann_check(chick, rho)[0]
    assert is_correlated_eq(chick, rho)[0]


def test_chicken_cooperative_point_mass_is_not_correlated_eq():
    chick = chicken()
    rho = Dist.point_mass((0, 0), chick.profiles())
    assert not obedience_by_hand(chick, rho)
    ok, violations = aumann_check(chick, rho)
    assert not ok and violations


def test_point_mass_on_pure_nash_is_correlated_eq():
    for game in (prisoners_dilemma(), chicken()):
        from qgames.games import pure_nash_all

        for profile in pure_nash_all(game):
            rho = Dist.point_mass(profile, game.profiles())
            assert aumann_check(game, rho)[0]
            assert is_correlated_eq(game, rho)[0]


def test_oracles_agree_on_random_distributions():
    rng = np.random.default_rng(7)
    for game in GAMES:
        for _ in range(300):
            rho = random_rho(game, rng)
            by_hand = obedience_by_hand(game, rho)
            assert aumann_check(game, rho)[0] == by_hand
            assert is_correlated_eq(game, rho)[0] == by_hand


def _grid_ce_maximum(game, objective, steps):
    """Brute-force oracle: max objective over a simplex grid filtered by the
    obedience inequalities, all in integer arithmetic."""
    best = None
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            for k in range(steps + 1 - i - j):
                nums = (i, j, k, steps - i - j - k)
                rho = referee_dist(game, tuple(F(v, steps) for v in nums))
                if obedience_by_hand(game, rho):
                    value = sum(F(c) * w for c, w in zip(objective, rho.weights))
                    if best is None or value > best:
                        best = value
    return best


def test_ce_optimize_chicken_welfare():
    chick = chicken()
    objective = [sum(chick.payoff(p)) for p in chick.profiles()]
    value, rho, *_ = ce_optimize(chick, objective)
    # grid oracle with a step count divisible by 3 so the optimum is on-grid
    assert _grid_ce_maximum(chick, objective, 30) == F(10, 3)
    assert value == F(10, 3)
    assert rho.weights == (F(1, 3), F(1, 3), F(1, 3), 0)
    assert aumann_check(chick, rho)[0]


def test_ce_optimize_pd_welfare_is_the_nash_point():
    pd = prisoners_dilemma()
    objective = [sum(pd.payoff(p)) for p in pd.profiles()]
    value, rho, *_ = ce_optimize(pd, objective)
    assert value == 2
    assert rho.weights == (0, 0, 0, 1)


def test_ce_optimize_zero_objective():
    value, rho, *_ = ce_optimize(chicken(), [0, 0, 0, 0])
    assert value == 0
    assert aumann_check(chicken(), rho)[0]


def test_ce_optimize_results_satisfy_obedience_exactly():
    rng = np.random.default_rng(8)
    for game in GAMES:
        for _ in range(5):
            objective = [F(int(v)) for v in rng.integers(-4, 5, size=4)]
            _, rho, *_ = ce_optimize(game, objective)
            ok, violations = aumann_check(game, rho)
            assert ok and not violations


def test_poker_correlated_equilibrium_is_unique():
    # The obedience chain forces rho = (4/9, 2/9, 2/9, 1/9), the product of
    # the mixed equilibrium strategies; any objective must optimize to its
    # expectation.
    poker = simplified_poker()
    point = (F(4, 9), F(2, 9), F(2, 9), F(1, 9))
    rng = np.random.default_rng(9)
    for _ in range(8):
        objective = [F(int(v)) for v in rng.integers(-5, 6, size=4)]
        value, rho, *_ = ce_optimize(poker, objective)
        assert rho.weights == point
        assert value == sum(c * w for c, w in zip(objective, point))


def test_obedience_constraint_count():
    assert len(obedience_constraints(chicken())) == 4


def integer_game(draw_int, rows, cols):
    return Game(
        (tuple(f"r{i}" for i in range(rows)), tuple(f"c{j}" for j in range(cols))),
        [[(draw_int(), draw_int()) for _ in range(cols)] for _ in range(rows)],
    )


@st.composite
def games_with_objectives(draw):
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    game = integer_game(lambda: draw(st.integers(-9, 9)), rows, cols)
    objective = draw(st.lists(st.integers(-5, 5), min_size=rows * cols, max_size=rows * cols))
    return game, objective


@settings(max_examples=40, deadline=None)
@given(games_with_objectives())
def test_warm_started_ce_matches_cold_exact_simplex(certify, case):
    game, objective = case
    optimum = ce_optimize(game, objective)
    with mock.patch.object(lp, "_propose_basis", return_value=None):
        cold = ce_optimize(game, objective)
    assert optimum.value == cold.value
    assert aumann_check(game, optimum.rho) == (True, [])
    if game.is_2x2():
        assert is_correlated_eq(game, optimum.rho)[0]
    certify(game, objective, optimum)


def test_ce_optimize_8x8_is_certified_optimal(certify, monkeypatch):
    # The cold exact simplex is too slow to serve as the reference here, so
    # the certificate alone proves the value optimal.
    confirmed = []
    warm_start = lp._Tableau.warm_start

    def recording(self, *args):
        confirmed.append(warm_start(self, *args))
        return confirmed[-1]

    monkeypatch.setattr(lp._Tableau, "warm_start", recording)
    rng = random.Random(8)
    game = integer_game(lambda: rng.randint(-9, 9), 8, 8)
    objective = [sum(game.payoff(p)) for p in game.profiles()]
    optimum = ce_optimize(game, objective)
    assert confirmed == [True]  # the float proposal held; no cold start
    assert aumann_check(game, optimum.rho) == (True, [])
    certify(game, objective, optimum)
