"""Unilateral deviations on random integer games, from 1x1 to 4x5.

``Game.replies`` and ``MixedProfile.of`` write every deviation the exact
layers check.  Each function built on them is compared here with its
definition written from ``Game.payoff`` alone.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgames.distributions import Dist, MixedProfile
from qgames.games import Dominance, Game, InvalidProfileError, best_replies, dominance, is_nash
from qgames.mediated import obedience_constraints

players = st.sampled_from((0, 1))


@st.composite
def integer_games(draw) -> Game:
    """A game with payoffs in [-3, 3], so that ties and weak dominance occur."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cell = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    payoffs = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    names = (tuple(f"r{i}" for i in range(rows)), tuple(f"c{j}" for j in range(cols)))
    return Game(strategy_names=names, payoffs=payoffs)


def deviation_payoff(game: Game, player: int, own: int, other: int) -> Fraction:
    """``player``'s payoff when they play ``own`` and the opponent ``other``."""
    profile = [None, None]
    profile[player], profile[1 - player] = own, other
    return game.payoff(tuple(profile))[player]


@given(integer_games())
def test_obedience_rows_equal_the_cell_by_cell_oracle(obedience_oracle, game):
    rows = obedience_constraints(game)
    assert rows == obedience_oracle(game)
    assert all(isinstance(c, Fraction) for coeffs, *_ in rows for c in coeffs)


@given(integer_games(), players, st.data())
def test_replies_are_the_payoffs_of_each_own_strategy(game, player, data):
    other = data.draw(st.integers(0, game.shape[1 - player] - 1))
    expected = tuple(deviation_payoff(game, player, own, other) for own in range(game.shape[player]))
    assert game.replies(player, other) == expected


@given(integer_games(), players, st.data())
def test_best_replies_are_every_maximizer(game, player, data):
    other = data.draw(st.integers(0, game.shape[1 - player] - 1))
    own = range(game.shape[player])
    u = [deviation_payoff(game, player, a, other) for a in own]
    assert best_replies(game, player, other) == tuple(a for a in own if all(u[a] >= u[b] for b in own))


@given(integer_games(), st.data())
def test_is_nash_gains_are_the_largest_improvements(game, data):
    profile = data.draw(st.sampled_from(game.profiles()))
    best = [max(deviation_payoff(game, p, own, profile[1 - p]) for own in range(game.shape[p])) for p in (0, 1)]
    gains = tuple(b - u for b, u in zip(best, game.payoff(profile)))
    assert is_nash(game, profile) == (gains == (0, 0), gains)


@given(integer_games(), players)
def test_dominance_pairs_match_their_definition(game, player):
    others = range(game.shape[1 - player])
    expected = []
    for a in range(game.shape[player]):
        for b in range(game.shape[player]):
            diffs = [deviation_payoff(game, player, a, o) - deviation_payoff(game, player, b, o) for o in others]
            if a != b and all(d > 0 for d in diffs):
                expected.append(Dominance(a, b, True))
            elif a != b and all(d >= 0 for d in diffs) and any(d > 0 for d in diffs):
                expected.append(Dominance(a, b, False))
    assert dominance(game, player) == expected


@given(players, st.integers(1, 4), st.integers(1, 5))
def test_mixed_profile_of_puts_own_in_the_row_slot_exactly_when_player_is_0(player, n_own, n_other):
    own, other = Dist.uniform(range(n_own)), Dist.uniform(range(n_other))
    m = MixedProfile.of(player, own, other)
    assert (m.row, m.col) == ((own, other) if player == 0 else (other, own))


@given(integer_games(), st.sampled_from((-1, 2, 5)))
def test_an_invalid_player_is_rejected_with_its_index(game, bad):
    message = f"player index {bad} must be 0 or 1"
    for call in (
        lambda: game.replies(bad, 0),
        lambda: best_replies(game, bad, 0),
        lambda: dominance(game, bad),
        lambda: MixedProfile.of(bad, Dist.uniform([0]), Dist.uniform([0])),
    ):
        with pytest.raises(InvalidProfileError) as caught:
            call()
        assert str(caught.value) == message


@given(integer_games(), players, st.data())
def test_an_opponent_strategy_out_of_range_names_the_opponent(game, player, data):
    n = game.shape[1 - player]
    bad = data.draw(st.sampled_from((-1, n, n + 3, 0.5, 1.0)))
    for call in (lambda: game.replies(player, bad), lambda: best_replies(game, player, bad)):
        with pytest.raises(InvalidProfileError) as caught:
            call()
        assert str(caught.value) == f"strategy {bad!r} out of range for player {2 - player}"
