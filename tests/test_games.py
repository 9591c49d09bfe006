import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qgames.games import (
    MAX_STRATEGIES,
    Dominance,
    Game,
    GameFormatError,
    InvalidProfileError,
    chicken,
    dominance,
    is_nash,
    load_game,
    prisoners_dilemma,
    pure_nash_all,
    simplified_poker,
)
from qgames.numeric import BadRationalError, parse_scalar

F = Fraction


def test_payoff_table_values():
    assert prisoners_dilemma().payoff((1, 1)) == (F(1), F(1))
    assert simplified_poker().payoff((0, 0)) == (F(5, 4), F(-5, 4))
    assert chicken().payoff((0, 0)) == (F(2), F(2))


def test_payoff_total_over_all_profiles():
    for game in (prisoners_dilemma(), simplified_poker(), chicken()):
        for profile in game.profiles():
            u = game.payoff(profile)
            assert len(u) == 2


def test_payoff_rejects_bad_profile():
    with pytest.raises(InvalidProfileError):
        prisoners_dilemma().payoff((0, 2))
    with pytest.raises(InvalidProfileError):
        prisoners_dilemma().payoff((-1, 0))


def test_is_nash():
    ok, gains = is_nash(prisoners_dilemma(), (1, 1))
    assert ok and gains == (0, 0)
    ok, gains = is_nash(prisoners_dilemma(), (0, 0))
    assert not ok and gains == (F(2), F(2))
    assert all(not is_nash(simplified_poker(), p)[0] for p in simplified_poker().profiles())


def test_is_nash_gain_matches_boolean():
    for game in (prisoners_dilemma(), simplified_poker(), chicken()):
        for profile in game.profiles():
            ok, gains = is_nash(game, profile)
            assert ok == (gains[0] == 0 and gains[1] == 0)


def test_pure_nash_all():
    assert pure_nash_all(prisoners_dilemma()) == [(1, 1)]
    assert pure_nash_all(chicken()) == [(0, 1), (1, 0)]
    assert pure_nash_all(simplified_poker()) == []


def test_pure_nash_affine_invariance():
    # argmax is unchanged by a positive affine rescaling of one player's utilities
    base = chicken()
    scaled = Game(
        strategy_names=base.strategy_names,
        payoffs=tuple(
            tuple((F(7, 3) * u1 + F(11), u2) for u1, u2 in row) for row in base.payoffs
        ),
    )
    assert pure_nash_all(scaled) == pure_nash_all(base)


def test_dominance():
    assert dominance(prisoners_dilemma(), 0) == [Dominance(1, 0, True)]
    assert dominance(prisoners_dilemma(), 1) == [Dominance(1, 0, True)]
    assert dominance(simplified_poker(), 0) == []


def test_weak_dominance():
    game = Game(
        strategy_names=(("a", "b"), ("c", "d")),
        payoffs=(((1, 0), (0, 0)), ((1, 0), (1, 0))),
    )
    assert dominance(game, 0) == [Dominance(1, 0, False)]


def test_parse_scalar_reads_a_float_as_the_decimal_it_prints():
    assert parse_scalar(0.1) == F(1, 10) == parse_scalar("0.1")
    assert parse_scalar(-0.0) == 0


@given(st.floats(-1e150, 1e150))
def test_parse_scalar_of_a_float_is_exact_and_rounds_back(x):
    # float(value) == x is why reading payoffs exactly moves no float report.
    value = parse_scalar(x)
    assert value == Fraction(repr(x)) and float(value) == x


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_parse_scalar_rejects_nan_and_infinities(x):
    with pytest.raises(BadRationalError):
        parse_scalar(x)


def test_a_game_built_from_floats_holds_fractions():
    game = Game((("a", "b"), ("c", "d")), [[(0.1, -2.2), (1, "1/3")], [(2.5e-7, -0.0), (3.0, 7)]])
    assert all(type(u) is Fraction for row in game.payoffs for pair in row for u in pair)
    assert game.payoff((0, 0)) == (F(1, 10), F(-11, 5)) and game.payoff((1, 0)) == (F(1, 4000000), 0)


def test_load_game_builtins():
    assert load_game("pd").payoffs == prisoners_dilemma().payoffs
    assert load_game("chicken").payoffs == chicken().payoffs


def test_load_game_file_with_rationals(tmp_path):
    doc = {
        "players": [
            {"name": "I", "strategies": ["s1", "s2"]},
            {"name": "II", "strategies": ["t1", "t2"]},
        ],
        "payoffs": [[["5/4", "-5/4"], [0, 0]], [[0, 0], ["5/2", "-5/2"]]],
    }
    path = tmp_path / "poker.json"
    path.write_text(json.dumps(doc))
    game = load_game(str(path))
    assert game.payoff((0, 0)) == (F(5, 4), F(-5, 4))
    assert game.payoff((1, 1))[0] == F(5, 2)


@pytest.mark.parametrize("named", [True, False])
def test_a_game_file_is_named_by_its_path(tmp_path, named):
    doc = {
        "players": [{"strategies": ["s1", "s2"]}, {"strategies": ["t1", "t2"]}],
        "payoffs": [[[1, 1], [0, 0]], [[0, 0], [2, 2]]],
    }
    if named:
        doc["players"][0]["name"], doc["players"][1]["name"] = "Row", "Column"
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    game = load_game(str(path))
    assert game.name == str(path)
    assert game.player_names == (("Row", "Column") if named else ("Player 1", "Player 2"))


def _set_player(i, key, value):
    """A mutation that sets player i's ``key`` to ``value``."""
    return lambda d: d["players"][i].__setitem__(key, value)


@pytest.mark.parametrize(
    "mutate,code",
    [
        (lambda d: d["players"].append({"name": "III", "strategies": ["x"]}), "player-count"),
        (lambda d: d["payoffs"][0].pop(), "ragged-payoffs"),
        (lambda d: d["payoffs"][0].__setitem__(0, ["5/", 1]), "bad-rational"),
        (lambda d: d.pop("payoffs"), "bad-structure"),
        pytest.param(lambda d: d["payoffs"][0].__setitem__(0, "35"), "bad-structure", id="string-cell"),
        pytest.param(
            lambda d: d["payoffs"][0].__setitem__(0, {"x": 1, "y": 2}), "bad-structure", id="dict-cell"
        ),
        pytest.param(lambda d: d["payoffs"][1].__setitem__(1, 7), "bad-structure", id="number-cell"),
        pytest.param(_set_player(0, "strategies", [[1], {"a": 2}]), "bad-structure", id="json-strategies"),
        pytest.param(_set_player(1, "strategies", [None, True]), "bad-structure", id="null-strategy"),
        pytest.param(_set_player(0, "name", ["x"]), "bad-structure", id="list-name"),
        pytest.param(_set_player(1, "name", 2), "bad-structure", id="number-name"),
        pytest.param(_set_player(0, "strategies", ["a", "a"]), "bad-structure", id="repeated-strategy"),
        pytest.param(
            _set_player(1, "strategies", [f"t{k}" for k in range(MAX_STRATEGIES + 1)]),
            "bad-structure",
            id="too-many-strategies",
        ),
    ],
)
def test_load_game_error_codes(tmp_path, mutate, code):
    doc = {
        "players": [
            {"name": "I", "strategies": ["s1", "s2"]},
            {"name": "II", "strategies": ["t1", "t2"]},
        ],
        "payoffs": [[[1, 1], [0, 0]], [[0, 0], [2, 2]]],
    }
    mutate(doc)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GameFormatError) as err:
        load_game(str(path))
    assert err.value.code == code


def test_load_game_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GameFormatError) as err:
        load_game(str(path))
    assert err.value.code == "malformed-json"


def test_load_game_missing():
    with pytest.raises(GameFormatError) as err:
        load_game("nonexistent")
    assert err.value.code == "not-found"
