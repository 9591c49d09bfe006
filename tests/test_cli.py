import json
import sys
from fractions import Fraction

import pytest

from qgames.cli import MAX_GRID, MAX_GRID_STEPS, MAX_SAMPLES, MAX_SCAN, main
from qgames.games import load_game
from qgames.mediated import CeOptimum, ObedienceMultiplier, referee_dist


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def test_analyze_pd(capsys):
    code, report = run_json(capsys, "analyze", "--game", "pd", "--json")
    assert code == 0
    assert report["pure_nash"] == [{"profile": [1, 1], "label": "(s2,t2)"}]
    assert report["correlated_welfare"]["value"] == 2
    assert {d["dominating"] for d in report["dominance"]} == {"s2", "t2"}


def test_analyze_chicken_with_gamma_and_mixed(capsys):
    code, report = run_json(
        capsys,
        "analyze", "--game", "chicken", "--mixed", "1/2,1/2",
        "--gamma", "0", "--gamma", "max", "--json",
    )
    assert code == 0
    assert report["mixed_payoff"]["payoff"] == [1, 1]
    assert report["correlated_welfare"]["value"] == "10/3"
    assert [e["proper"] for e in report["ewl"]] == [True, True]
    assert [e["complete"] for e in report["ewl"]] == [True, True]


def test_analyze_table_output(capsys):
    code, out, err = run_cli(capsys, "analyze", "--game", "poker")
    assert code == 0
    assert "5/6" in out  # rationals stay lossless in tables
    assert "pure nash" in out


def test_analyze_game_file(capsys, tmp_path):
    doc = {
        "players": [
            {"name": "I", "strategies": ["a", "b"]},
            {"name": "II", "strategies": ["c", "d"]},
        ],
        "payoffs": [[["5/4", "-5/4"], [0, 0]], [[0, 0], ["5/2", "-5/2"]]],
    }
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "analyze", "--game", str(path), "--json")
    assert code == 0
    assert report["game"]["payoffs"][0][0] == ["5/4", "-5/4"]


def test_input_errors_exit_1(capsys, tmp_path):
    code, out, err = run_cli(capsys, "analyze", "--game", "nosuchgame")
    assert code == 1
    assert "not-found" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, out, err = run_cli(capsys, "analyze", "--game", str(bad))
    assert code == 1 and "malformed-json" in err


def test_usage_error_exit_1(capsys):
    assert main(["analyze"]) == 1  # --game is required
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_correlated_rho(capsys):
    code, result = run_json(
        capsys, "correlated", "--game", "chicken", "--rho", "1/3,1/3,1/3,0"
    )
    assert code == 0
    assert result["feasible"] is True
    assert result["value"] == "10/3"
    assert result["expected_outcome"] == ["5/3", "5/3"]
    assert result["violations"] == []


def test_correlated_rejects_bad_rho(capsys):
    code, result = run_json(
        capsys, "correlated", "--game", "chicken", "--rho", "1,0,0,0"
    )
    assert code == 0
    assert result["feasible"] is False
    assert result["violations"]


def test_correlated_optimize_custom_objective(capsys):
    code, result = run_json(
        capsys, "correlated", "--game", "pd", "--objective", "custom:1,0,0,0"
    )
    assert code == 0
    assert result["feasible"] is True
    assert result["value"] == 0  # no CE of the dilemma puts mass on (s1,t1)


def test_ewl_check_commands(capsys):
    code, result = run_json(capsys, "ewl", "--game", "pd", "--gamma", "0", "--check", "complete", "--json")
    assert code == 0 and result["result"] is True
    code, result = run_json(capsys, "ewl", "--game", "pd", "--gamma", "max", "--check", "proper", "--json")
    assert code == 0 and result["result"] is True


def test_ewl_pure_unitaries(capsys):
    code, result = run_json(
        capsys, "ewl", "--game", "pd", "--gamma", "max",
        "--uA", "3.141592653589793,0,0", "--json",
    )
    assert code == 0
    assert abs(result["payoff"][0] - 5.0) < 1e-9
    assert result["cells"] == ["(s1,t1)", "(s1,t2)", "(s2,t1)", "(s2,t2)"]


def test_ewl_haar_mixture(capsys):
    code, result = run_json(
        capsys, "ewl", "--game", "pd", "--gamma", "max",
        "--mixture", "haar", "--samples", "20000", "--seed", "4", "--json",
    )
    assert code == 0
    assert abs(result["payoff"][0] - 2.25) < 0.05
    assert max(abs(p - 0.25) for p in result["outcome_probs"]) < 0.02


def test_ewl_gamma_alias_and_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("QGAMES_SEED", "11")
    code, result = run_json(
        capsys, "ewl", "--game", "pd", "--gamma", "max",
        "--mixture", "haar", "--samples", "1000", "--json",
    )
    assert code == 0 and result["seed"] == 11


def test_ewl_coverage_scan(capsys):
    code, result = run_json(
        capsys, "ewl", "--game", "pd", "--gamma", "max", "--scan", "500", "--seed", "1", "--json"
    )
    assert code == 0
    assert 0 < result["coverage_scan"]["coverage"] <= 1


def test_verify_classical(capsys):
    code, report = run_json(capsys, "verify", "--game", "poker", "--profile", "classical:2/3,2/3")
    assert code == 0
    assert report["certified"] is True
    assert report["payoff"] == ["5/6", "-5/6"]


def test_verify_classical_failure_exits_2(capsys):
    code, report = run_json(capsys, "verify", "--game", "chicken", "--profile", "classical:1,1")
    assert code == 2
    assert report["certified"] is False


def test_verify_haar(capsys):
    code, report = run_json(
        capsys, "verify", "--game", "pd", "--gamma", "max", "--profile", "haar",
        "--grid", "6", "--samples", "20000", "--seed", "3",
    )
    assert code == 0
    assert report["certified"] is True
    assert abs(report["payoff"][0] - 2.25) < 0.05


def test_paper_check_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "paper-check", "--samples", "5000", "--seed", "42", "--json")
    code2, out2, _ = run_cli(capsys, "paper-check", "--samples", "5000", "--seed", "42", "--json")
    assert out1 == out2
    assert code1 == code2
    report = json.loads(out1)
    assert len(report["checks"]) == 10


def test_paper_check_passes_at_moderate_samples(capsys):
    code, out, err = run_cli(capsys, "paper-check", "--samples", "20000", "--seed", "42")
    assert code == 0
    assert out.count("[PASS]") == 10
    assert "all checks passed" in out


def test_ewl_haar_draws_each_stream_once(capsys, haar_batches):
    code, result = run_json(
        capsys, "ewl", "--game", "chicken", "--gamma", "0.7",
        "--mixture", "haar", "--samples", "3000", "--seed", "2", "--json",
    )
    assert code == 0
    assert haar_batches == [3000, 3000]


@pytest.mark.parametrize("value", ["0", "-3"])
def test_ewl_scan_below_one_rejected(capsys, value):
    code, out, err = run_cli(capsys, "ewl", "--game", "pd", "--gamma", "max", "--scan", value)
    assert code == 1
    assert out == ""
    assert "--scan" in err and "must be between 1 and" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ewl", "--game", "pd", "--gamma", "max", "--mixture", "haar", "--samples", "1"],
        ["verify", "--game", "pd", "--profile", "haar", "--samples", "1"],
    ],
)
def test_one_sample_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "--samples" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ewl", "--game", "pd", "--gamma", "max", "--mixture", "haar", "--samples", str(MAX_SAMPLES + 1)],
        ["verify", "--game", "pd", "--profile", "haar", "--samples", str(MAX_SAMPLES + 1)],
        ["paper-check", "--samples", str(MAX_SAMPLES + 1)],
        ["verify", "--game", "pd", "--profile", "haar", "--grid", str(MAX_GRID + 1)],
        ["ewl", "--game", "pd", "--gamma", "max", "--scan", str(MAX_SCAN + 1)],
        ["ewl", "--game", "pd", "--gamma", "max", "--check", "complete", "--grid-steps", str(MAX_GRID_STEPS + 1)],
        ["ewl", "--game", "pd", "--gamma", "max", "--check", "complete", "--grid-steps", "1"],
    ],
)
def test_size_caps_rejected(capsys, haar_batches, argv):
    # Rejected while parsing: nothing is drawn or allocated.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "must be between" in err
    assert haar_batches == []


def test_broken_pipe_exits_1_quietly(capsys, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["analyze", "--game", "chicken", "--json"])
    if not isinstance(sys.stdout, ClosedPipe):
        sys.stdout.close()  # the null device main switched to
    assert code == 1
    assert capsys.readouterr().err == ""


def _optimum_from_json(game, report) -> CeOptimum:
    names = game.strategy_names
    return CeOptimum(
        Fraction(report["value"]),
        referee_dist(game, [Fraction(w) for w in report["rho"]]),
        tuple(
            ObedienceMultiplier(
                m["player"] - 1,
                names[m["player"] - 1].index(m["recommended"]),
                names[m["player"] - 1].index(m["alternative"]),
                Fraction(m["multiplier"]),
            )
            for m in report["obedience_multipliers"]
        ),
        Fraction(report["simplex_multiplier"]),
    )


@pytest.mark.parametrize("name", ["pd", "poker", "chicken"])
def test_ce_reports_carry_a_dual_certificate(capsys, certify, name):
    game = load_game(name)
    for objective_name, column in (("welfare", None), ("player1", 0), ("player2", 1)):
        code, result = run_json(capsys, "correlated", "--game", name, "--objective", objective_name)
        assert code == 0
        objective = [sum(u) if column is None else u[column] for u in map(game.payoff, game.profiles())]
        certify(game, objective, _optimum_from_json(game, result))
    code, report = run_json(capsys, "analyze", "--game", name, "--json")
    assert code == 0
    welfare = [sum(game.payoff(p)) for p in game.profiles()]
    certify(game, welfare, _optimum_from_json(game, report["correlated_welfare"]))


# Payoff entries that float arithmetic cannot carry: NaN and the infinities
# (JSON extensions that Python's parser accepts), and finite entries whose
# difference, or Monte-Carlo sum of squares, overflows.
_UNREPRESENTABLE = {
    "inf": "[[[Infinity, 1], [0, 0]], [[0, 0], [1, 1]]]",
    "neg-inf": "[[[1, 1], [0, -Infinity]], [[0, 0], [1, 1]]]",
    "nan": "[[[NaN, 1], [0, 0]], [[0, 0], [1, 1]]]",
    "overflow": "[[[1e308, 1], [0, 0]], [[-1e308, 0], [1, 1]]]",
}


@pytest.mark.parametrize("name", sorted(_UNREPRESENTABLE))
@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "--json"],
        ["correlated"],
        ["ewl", "--gamma", "max", "--json"],
        ["ewl", "--gamma", "max", "--mixture", "haar", "--samples", "100", "--json"],
    ],
)
def test_unrepresentable_payoffs_rejected(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    players = '[{"strategies": ["a", "b"]}, {"strategies": ["c", "d"]}]'
    path.write_text(f'{{"players": {players}, "payoffs": {_UNREPRESENTABLE[name]}}}')
    code, out, err = run_cli(capsys, *command[:1], "--game", str(path), *command[1:])
    assert code == 1 and out == ""
    assert err.startswith("error[bad-rational]: ") and err.count("\n") == 1
