import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgames
from qgames import checks
from qgames.cli import MAX_SAMPLES, main
from qgames.games import MAX_STRATEGIES, load_game
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
    assert report["game"]["name"] == str(path)
    assert report["game"]["players"] == ["I", "II"]


@pytest.mark.parametrize("rows", [MAX_STRATEGIES, MAX_STRATEGIES + 1])
def test_analyze_caps_the_strategies_per_player(capsys, tmp_path, rows):
    doc = {
        "players": [{"strategies": [f"r{i}" for i in range(rows)]}, {"strategies": ["c1", "c2"]}],
        "payoffs": [[[i, -i], [-i, i]] for i in range(rows)],
    }
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "analyze", "--game", str(path), "--json")
    if rows == MAX_STRATEGIES:
        assert code == 0 and len(json.loads(out)["game"]["strategies"][0]) == rows
    else:
        assert code == 1 and out == "" and "bad-structure" in err


@pytest.mark.parametrize("gamma", ["abc", "5", "max"])
def test_analyze_rejects_gamma_on_a_game_that_is_not_2x2(capsys, tmp_path, gamma):
    code, out, err = run_cli(capsys, "analyze", "--game", _game_4x4(tmp_path), "--gamma", gamma)
    assert code == 1 and out == "" and err.startswith("error")


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


def test_verify_classical(capsys):
    code, report = run_json(capsys, "verify", "--game", "poker", "--profile", "classical:2/3,2/3")
    assert code == 0
    assert report["certified"] is True
    assert report["payoff"] == ["5/6", "-5/6"]


def test_verify_classical_failure_exits_2(capsys):
    code, report = run_json(capsys, "verify", "--game", "chicken", "--profile", "classical:1,1")
    assert code == 2
    assert report["certified"] is False


def test_verify_certifies_an_exact_equilibrium_of_decimal_payoffs(capsys, tmp_path):
    # 5/14 and 7/29 make each player exactly indifferent in the payoffs as
    # written.  Read as binary floats, column d gained 1.1e-16 and the profile
    # was refuted.
    doc = {
        "players": [{"strategies": ["a", "b"]}, {"strategies": ["c", "d"]}],
        "payoffs": [[[-2.2, 2.1], [1.6, -1.5]], [[-0.0, -0.3], [0.9, 1.7]]],
    }
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "verify", "--game", str(path), "--profile", "classical:5/14,7/29")
    assert code == 0 and report["certified"] is True
    assert report["max_deviation_gain"] == [0, 0] and report["epsilon"] == 0


def test_verify_haar(capsys):
    code, report = run_json(
        capsys, "verify", "--game", "pd", "--gamma", "max", "--profile", "haar",
        "--samples", "20000", "--seed", "3",
    )
    assert code == 0
    assert report["certified"] is True
    assert abs(report["payoff"][0] - 2.25) < 0.05


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--game", "pd", "--gamma", "-0", "--json"],
        ["ewl", "--game", "pd", "--gamma", "-0", "--check", "proper", "--json"],
        ["ewl", "--game", "pd", "--gamma=-1e-13", "--json"],
    ],
)
def test_reports_print_gamma_within_the_interval(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and '"gamma": 0.0' in out and "-0" not in out


def test_verify_describes_gamma_within_the_interval(capsys):
    code, report = run_json(capsys, "verify", "--game", "pd", "--gamma", "-0", "--profile", "haar")
    assert report["description"].endswith(" gamma=0")


def test_verify_haar_refutes_a_small_exact_gain(capsys):
    # Each player gains exactly 0.010891 by deviating from Haar x Haar at
    # gamma = 1.45.  A gridded scan with a fitted slope allowance certified
    # this profile; the spectral gain is judged by a rounding bound.
    code, report = run_json(
        capsys, "verify", "--game", "pd", "--gamma", "1.45", "--profile", "haar",
        "--samples", "100000", "--seed", "3",
    )
    assert code == 2
    assert report["certified"] is False
    assert all(abs(g - 0.010891) < 1e-6 for g in report["max_deviation_gain"])
    assert report["epsilon"] < 1e-9
    assert report["method"] == "monte_carlo"
    assert (report["samples"], report["seed"]) == (100000, 3)
    assert report["payoff"] == [2.25, 2.25]


def test_verify_has_no_grid_option(capsys):
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0 and "--grid" not in out
    code, out, err = run_cli(capsys, "verify", "--game", "pd", "--profile", "haar", "--grid", "8")
    assert code == 1 and out == "" and "--grid" in err


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


@pytest.mark.parametrize("samples", [50, 2000])
def test_paper_check_tolerances_scale_with_samples(capsys, samples):
    # Fixed tolerances failed check 7 here on sampling error alone.
    code, report = run_json(capsys, "paper-check", "--samples", str(samples), "--seed", "5", "--json")
    assert code == 0 and report["all_passed"]
    check7, check8 = report["checks"][6]["data"], report["checks"][7]["data"]
    # Hoeffding half-width at failure chance 1e-9: 4 cell means of range 1.
    cells = math.sqrt(math.log(8 / 1e-9) / (2 * samples))
    assert check7["both_haar_tolerance"] == pytest.approx(cells, rel=1e-12)
    assert check7["worst_cell_error_both_haar"] <= check7["both_haar_tolerance"]
    # Check 8 draws nothing: its bounds are those of its exact forms.
    assert check8["pd_payoff_tolerance"] == 8 * checks.FORM_TOL
    assert check8["pd_gain_tolerance"] == 16 * checks.FORM_TOL
    assert check7["one_sided_tolerance"] == 8 * checks.FORM_TOL


def test_ewl_haar_draws_each_stream_once(capsys, haar_batches, monkeypatch):
    from qgames import ewl

    born_passes = []
    born = ewl.sample_cells

    def counting(*args):
        born_passes.append(1)
        return born(*args)

    monkeypatch.setattr(ewl, "sample_cells", counting)
    code, result = run_json(
        capsys, "ewl", "--game", "chicken", "--gamma", "0.7",
        "--mixture", "haar", "--samples", "3000", "--seed", "2", "--json",
    )
    assert code == 0
    assert haar_batches == [3000, 3000]
    # Payoffs and cells both come from one Born pass over those draws.
    assert len(born_passes) == 1
    cfg = ewl.EwlConfig(load_game("chicken"), 0.7)
    estimate = ewl.haar_estimate(cfg, 2, 3000)
    assert result["estimate"]["payoff"] == [float(f"{v:.15g}") for v in estimate["payoff"]]
    assert result["payoff"] == [float(f"{v:.15g}") for v in ewl.g_mq(cfg, ewl.HAAR, ewl.HAAR)]


def _keys(x):
    """The key tree of a JSON value: a dict's keys, each mapped to the key
    tree of its value; a list's key trees, when it holds dicts; else None."""
    if isinstance(x, dict):
        return {k: _keys(v) for k, v in x.items()}
    if isinstance(x, list) and any(isinstance(v, dict) for v in x):
        return [_keys(v) for v in x]
    return None


_EWL_HAAR = {
    **dict.fromkeys(["gamma", "mixture", "samples", "seed", "payoff", "outcome_probs"]),
    "estimate": dict.fromkeys(["payoff", "payoff_se", "outcome_probs", "outcome_se"]),
}
_REPORT = dict.fromkeys(
    ["description", "payoff", "max_deviation_gain", "epsilon", "certified", "method", "samples", "seed"]
)
_CHECK_DATA = [
    ["pd", "poker", "chicken"],
    ["poker_row", "poker_value", "chicken_mixed_payoff"],
    ["pd_trials", "pd_rejected", "pd_point_mass_ok", "chicken_value", "chicken_worst_gain"],
    ["trials", "recovered", "worst_witness_error", "anti_diagonal_realizable"],
    ["proper_all_gammas", "complete_worst_gap"],
    ["worst_normalization", "worst_scale_invariance", "worst_two_term_formula"],
    [
        "samples", "worst_cell_error_both_haar", "both_haar_tolerance", "worst_cell_error_one_sided",
        "one_sided_tolerance", "fixed_opponents", "one_sided_form_error",
    ],
    [
        "pd_payoff", "pd_payoff_tolerance", "pd_max_gain", "pd_gain_tolerance", "pd_epsilon", "pd_certified",
        "pd_form_error", "poker_security", "poker_scan_spread", "poker_form_error", "pd_classical_ne_payoff",
        "poker_classical_security",
    ],
    ["is_correlated_equilibrium", "violated_constraints"],
    ["payoff", "replayed_samples"],
]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (
            ["ewl", "--game", "pd", "--gamma", "max", "--mixture", "haar", "--samples", "2000", "--json", "--seed", "3"],
            _EWL_HAAR,
        ),
        (
            ["verify", "--game", "pd", "--profile", "haar", "--samples", "2000", "--seed", "3"],
            {
                **_REPORT,
                "details": {
                    "witness": None,
                    "per_player_epsilon": None,
                    "deviation_note": None,
                    "estimate": {"payoff": None, "payoff_se": None},
                },
            },
        ),
        (
            ["verify", "--game", "poker", "--profile", "classical:2/3,2/3"],
            {**_REPORT, "details": {"deviation_note": None}},
        ),
        (
            ["paper-check", "--json", "--samples", "2000", "--seed", "3"],
            {
                "samples": None,
                "seed": None,
                "all_passed": None,
                "checks": [
                    {**dict.fromkeys(["number", "name", "passed", "detail"]), "data": dict.fromkeys(data)}
                    for data in _CHECK_DATA
                ],
            },
        ),
    ],
    ids=["ewl-haar", "verify-haar", "verify-classical", "paper-check"],
)
def test_json_report_shapes(capsys, argv, keys):
    # The exact key sets of each report, nested ones included: a change of
    # shape has to edit this table and docs/json_reports.md.
    _, report = run_json(capsys, *argv)
    assert _keys(report) == keys


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
    ],
)
def test_size_caps_rejected(capsys, haar_batches, argv):
    # Rejected while parsing: nothing is drawn or allocated.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == "" and "must be between" in err
    assert haar_batches == []


@pytest.mark.parametrize(
    "mode, stray",
    [
        (["--mixture", "haar"], ["--uA", "1,2,3"]),
        (["--mixture", "haar"], ["--uB", "0.5,0,0"]),
        (["--check", "proper"], ["--uA", "1,2,3"]),
        (["--check", "complete"], ["--uB", "0.5,0,0"]),
        (["--check", "proper"], ["--mixture", "haar"]),
    ],
)
def test_ewl_rejects_options_its_mode_ignores(capsys, haar_batches, mode, stray):
    for argv in (mode + stray, stray + mode):
        code, out, err = run_cli(capsys, "ewl", "--game", "pd", "--gamma", "max", *argv)
        assert code == 1 and out == ""
        assert f"{' '.join(mode)} ignores {stray[0]}" in err
    assert haar_batches == []


_EWL_PD = ["ewl", "--game", "pd", "--gamma", "max"]
_VERIFY_CLASSICAL = ["verify", "--game", "pd", "--profile", "classical:0,0"]


@pytest.mark.parametrize(
    "argv, stray, message",
    [
        (_EWL_PD + ["--check", "proper"], ["--samples", "5"], "--check proper ignores --samples"),
        (_EWL_PD + ["--check", "complete"], ["--seed", "3"], "--check complete ignores --seed"),
        (_EWL_PD + ["--check", "proper"], ["--seed", "3", "--samples", "5"], "--check proper ignores --samples and --seed"),
        (_EWL_PD + ["--uA", "1,2,3"], ["--samples", "5"], "pure play ignores --samples"),
        (_EWL_PD, ["--seed", "0"], "pure play ignores --seed"),
        (_VERIFY_CLASSICAL, ["--samples", "5"], "--profile classical ignores --samples"),
        (_VERIFY_CLASSICAL, ["--seed", "3"], "--profile classical ignores --seed"),
        (_VERIFY_CLASSICAL, ["--gamma", "max"], "--profile classical ignores --gamma"),
    ],
)
def test_sampling_options_rejected_where_nothing_is_drawn(capsys, haar_batches, argv, stray, message):
    code, out, err = run_cli(capsys, *argv, *stray)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    assert haar_batches == []


def test_seed_variable_is_read_only_where_a_command_draws(capsys, monkeypatch):
    monkeypatch.setenv("QGAMES_SEED", "abc")
    for argv in (_VERIFY_CLASSICAL, _EWL_PD + ["--check", "proper"], _EWL_PD):
        assert run_cli(capsys, *argv)[0] == 0
    for argv in (_EWL_PD + ["--mixture", "haar"], ["verify", "--game", "pd", "--profile", "haar"]):
        code, out, err = run_cli(capsys, *argv, "--samples", "2000")
        assert code == 1 and out == ""
        assert err == "error: QGAMES_SEED must be an integer, got 'abc'\n"


def test_haar_commands_default_to_100000_samples(capsys):
    for argv in (_EWL_PD + ["--mixture", "haar", "--json"], ["verify", "--game", "pd", "--profile", "haar"]):
        code, report = run_json(capsys, *argv)
        assert code == 0 and report["samples"] == 100000


def test_sampled_reports_are_the_recorded_bytes(capsys):
    # Full stdout of each Haar report at 2 CHUNK + 17 samples and seed 3, as
    # recorded when every Haar slot carried its own seed and sample count:
    # the sampling label, samples, seed and the estimate, byte for byte.
    from qgames.ewl import CHUNK

    golden = json.loads((Path(__file__).parent / "golden_sampled_reports.json").read_text())
    assert len(golden) == 3
    for command, stdout in golden.items():
        argv = command.split()
        assert argv[argv.index("--samples") + 1] == str(2 * CHUNK + 17)
        assert run_cli(capsys, *argv) == (0, stdout, "")


def test_quantization_reports_are_the_recorded_bytes(capsys):
    # Recorded when check_proper and check_complete still read a complex
    # J(gamma) pass: ewl --check for each builtin at gamma 0, 0.37 and max,
    # and analyze at gamma 0.3 and max.
    golden = json.loads((Path(__file__).parent / "golden_quantization_reports.json").read_text())
    assert len(golden) == 21
    for command, stdout in golden.items():
        assert run_cli(capsys, *command.split()) == (0, stdout, "")


def test_exact_reports_are_the_recorded_bytes(capsys, tmp_path, monkeypatch):
    # Recorded when the commands wrote each exact field through its own
    # scalar_to_json call: analyze, correlated, verify --profile classical
    # and paper-check, JSON and text.  The six reports on float2x2.json and
    # game5x5.json were recorded again once JSON float payoffs were read as
    # the decimals they print.  The game files are written under fixed
    # names, which the reports print as the game's name.
    golden = json.loads((Path(__file__).parent / "golden_exact_reports.json").read_text())
    _write_golden_files(tmp_path, monkeypatch)
    assert len(golden["reports"]) == 35
    for command, (code, stdout) in golden["reports"].items():
        assert run_cli(capsys, *command.split()) == (code, stdout, "")


def _write_golden_files(tmp_path, monkeypatch) -> dict:
    """Write the game files of golden_exact_reports.json into the working
    directory ``tmp_path``; returns each file's text by name."""
    golden = json.loads((Path(__file__).parent / "golden_exact_reports.json").read_text())
    monkeypatch.chdir(tmp_path)
    texts = {name: json.dumps(doc) for name, doc in golden["files"].items()}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return texts


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


def _literal_payoffs(text: str) -> list:
    """The payoff pairs of a game file, row-major, read in Fractions from the
    literals of its own text: json hands each decimal number over as written."""
    doc = json.loads(text, parse_float=Fraction)
    return [(Fraction(u1), Fraction(u2)) for row in doc["payoffs"] for u1, u2 in row]


@pytest.mark.parametrize("name", ["pd", "poker", "chicken", "float2x2.json", "game5x5.json"])
def test_ce_reports_carry_a_dual_certificate(capsys, certify, tmp_path, monkeypatch, name):
    # certify also checks that each value is the objective of its own rho.
    # The builtins are written in "a/b" strings, so their table is the literals.
    files = _write_golden_files(tmp_path, monkeypatch)
    game = load_game(name)
    table = list(map(game.payoff, game.profiles()))
    payoffs = _literal_payoffs(files[name]) if name in files else table
    assert payoffs == table  # the game holds its file's literals exactly
    for objective_name, column in (("welfare", None), ("player1", 0), ("player2", 1)):
        code, result = run_json(capsys, "correlated", "--game", name, "--objective", objective_name)
        assert code == 0
        objective = [sum(u) if column is None else u[column] for u in payoffs]
        certify(game, objective, _optimum_from_json(game, result))
    code, report = run_json(capsys, "analyze", "--game", name, "--json")
    assert code == 0
    certify(game, [sum(u) for u in payoffs], _optimum_from_json(game, report["correlated_welfare"]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=8, max_size=8))
def test_ce_values_are_the_welfare_of_their_rho_on_one_decimal_payoffs(tmp_path_factory, tenths):
    # 0.1 + 0.2 is not 0.3 in floats: a welfare summed from float payoffs
    # misstates the value that correlated and analyze print.
    doc = {
        "players": [{"strategies": ["a", "b"]}, {"strategies": ["c", "d"]}],
        "payoffs": [[[tenths[k] / 10, tenths[k + 1] / 10] for k in (i, i + 2)] for i in (0, 4)],
    }
    path = tmp_path_factory.getbasetemp() / "one-decimal.json"
    path.write_text(json.dumps(doc))
    welfare = [u1 + u2 for u1, u2 in _literal_payoffs(path.read_text())]
    for argv in (["correlated"], ["correlated", "--rho", "1/2,1/8,1/8,1/4"], ["analyze", "--json"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--game", str(path)]) == 0
        report = json.loads(out.getvalue())
        report = report.get("correlated_welfare", report)
        rho = [Fraction(w) for w in report["rho"]]
        assert Fraction(report["value"]) == sum(w * r for w, r in zip(welfare, rho))


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


# The exact commands run without numpy --------------------------------------

def _python(code: str, *argv: str, environ=None) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this qgames, under
    ``environ`` (by default this process's environment)."""
    environ = os.environ if environ is None else environ
    src = str(Path(qgames.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    env = {**environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )


def _without(*modules: str) -> str:
    """Code that runs the CLI with every import of ``modules`` failing:
    ``sys.modules[name] = None`` makes each ``import name`` raise."""
    blocked = "; ".join(f"sys.modules[{name!r}] = None" for name in modules)
    return f"import runpy, sys; {blocked}; runpy.run_module('qgames.cli', run_name='__main__')"


_WITHOUT_NUMPY = _without("numpy")


def _game_4x4(tmp_path) -> str:
    rng = random.Random(4)
    doc = {
        "players": [{"strategies": list("abcd")}, {"strategies": list("efgh")}],
        "payoffs": [[[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(4)] for _ in range(4)],
    }
    path = tmp_path / "game4x4.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("game", ["pd", "poker", "chicken", "4x4"])
def test_exact_commands_run_without_numpy(capsys, tmp_path, game):
    game = _game_4x4(tmp_path) if game == "4x4" else game
    for argv in (
        ["analyze", "--json", "--game", game],
        ["correlated", "--game", game, "--objective", "welfare"],
        ["correlated", "--game", game, "--objective", "player1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        isolated = _python(_WITHOUT_NUMPY, *argv)
        assert isolated.returncode == 0, isolated.stderr
        assert isolated.stdout == out


def test_paper_check_runs_without_numpy_random(capsys):
    # Every draw of the report comes from qgames.quantum's counter stream.
    argv = ["paper-check", "--samples", "2000", "--seed", "5", "--json"]
    code, out, _ = run_cli(capsys, *argv)
    isolated = _python(_without("numpy.random"), *argv)
    assert isolated.returncode == code == 0, isolated.stderr
    assert isolated.stdout == out


@pytest.mark.parametrize(
    "argv",
    [
        ["ewl", "--game", "pd", "--gamma", "max", "--mixture", "haar", "--samples", "3000",
         "--seed", "2", "--json"],
        ["verify", "--game", "chicken", "--profile", "haar", "--samples", "3000", "--seed", "3"],
    ],
)
def test_haar_commands_run_without_the_lp_modules(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    isolated = _python(_without("qgames.lp", "qgames.mediated"), *argv)
    assert isolated.returncode == code == 0, isolated.stderr
    assert isolated.stdout == out


@pytest.mark.parametrize("output", [[], ["--json"]])
def test_paper_check_runs_without_the_lp_module(capsys, output):
    # Only ce_optimize loads the simplex, and paper-check never calls it.
    argv = ["paper-check", "--samples", "2000", "--seed", "5", *output]
    code, out, _ = run_cli(capsys, *argv)
    isolated = _python(_without("qgames.lp"), *argv)
    assert isolated.returncode == code == 0, isolated.stderr
    assert isolated.stdout == out


def test_paper_check_inputs_do_not_depend_on_samples(capsys, haar_batches, monkeypatch):
    # Checks 3, 4 and 6 read their own positions of the stream, which no
    # Haar estimate reaches, so the sample count moves none of their inputs.
    read = []
    uniforms, normals = checks.uniforms, checks.standard_normals

    def recording_uniforms(seed, positions):
        read.append(np.asarray(positions, dtype=np.uint64))
        return uniforms(seed, positions)

    def recording_normals(seed, indices, lanes):
        first = np.asarray(indices, dtype=np.uint64) * np.uint64(lanes)
        read.append(first + np.arange(lanes, dtype=np.uint64)[:, None])
        return normals(seed, indices, lanes)

    monkeypatch.setattr(checks, "uniforms", recording_uniforms)
    monkeypatch.setattr(checks, "standard_normals", recording_normals)
    reports = [
        run_json(capsys, "paper-check", "--samples", n, "--seed", "5", "--json")[1]
        for n in ("2000", "5000")
    ]
    assert [c["data"] for c in reports[0]["checks"][2:6]] == [
        c["data"] for c in reports[1]["checks"][2:6]
    ]
    # Check 3's report does not depend on the seed either: pin all of it.
    check3 = reports[0]["checks"][2]
    assert check3["detail"] == (
        "chicken 1/3-referee passes both oracles at (5/3,5/3); pd rejects all off-NE referees"
    )
    assert check3["data"] == {
        "chicken_value": ["5/3", "5/3"],
        "chicken_worst_gain": 0,
        "pd_rejected": 1000,
        "pd_trials": 1000,
        "pd_point_mass_ok": True,
    }
    # Haar sample index i reads positions 4i to 4i + 3.
    haar_top = 4 * max(int(indices.max()) for _, indices in haar_batches.streams) + 3
    assert len(read) == 6 and min(int(p.min()) for p in read) > haar_top


def test_every_command_takes_any_integer_seed(capsys, monkeypatch):
    # Seeds are masked to 64 bits: -1 draws what 2^64 - 1 draws.
    top = str(2**64 - 1)

    def strip(report):
        return {k: v for k, v in report.items() if k not in ("seed", "description")}

    for argv in (
        ["ewl", "--game", "pd", "--gamma", "max", "--mixture", "haar", "--samples", "2000", "--json"],
        ["verify", "--game", "pd", "--profile", "haar", "--samples", "2000"],
        ["paper-check", "--samples", "2000", "--json"],
    ):
        code, negative = run_json(capsys, *argv, "--seed", "-1")
        assert code == 0 and negative["seed"] == -1
        code, masked = run_json(capsys, *argv, "--seed", top)
        assert code == 0
        # Only the seed as printed differs: verify names it in its description.
        assert strip(negative) == strip(masked)
    monkeypatch.setenv("QGAMES_SEED", "-1")
    code, from_env = run_json(capsys, "paper-check", "--samples", "2000", "--json")
    assert code == 0 and from_env == negative


def test_importing_qgames_and_cli_loads_no_numpy():
    # The numeric modules still load, as submodules, on first use.
    result = _python(
        "import sys, qgames, qgames.cli; print('numpy' in sys.modules); "
        "import qgames.ewl; qgames.ewl.g_q; print('numpy' in sys.modules)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\nTrue\n"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_asks_for_one_blas_thread_before_numpy_loads(preset, expected):
    # OpenBLAS reads the variable once, when numpy loads it; a caller's value wins.
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        environ["OPENBLAS_NUM_THREADS"] = preset
    result = _python(
        "import os, sys, qgames.cli; "
        "print('numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'])",
        environ=environ,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"False {expected}\n"


_EXPORTED = """
    Dist MixedProfile embed_pure expectation g_mix product pushforward realizable
    EquilibriumReport MixedEquilibrium mixed_nash_2x2 security_level security_scan
    verify_classical_eq verify_quantum_eq EwlConfig HaarMixture QuantumMixture check_complete
    check_proper entangler g_mq g_q outcome_dist_mq protocol_state Game chicken dominance
    is_nash load_game prisoners_dilemma pure_nash_all simplified_poker ResponseRule
    aumann_check ce_optimize embed_f g_com is_correlated_eq referee_dist FLIP2 IDENTITY2
    Superposition Unitary2 measure su2_from_angles
""".split()

# Names that no command reached: deleted, or kept in tests/conftest.py as oracles.
_WITHDRAWN = "apply2 best_replies classical_unitary haar_su2 normalize point_mixture tensor".split()


@pytest.mark.parametrize("name", _EXPORTED)
def test_package_exports_resolve(name):
    namespace: dict = {}
    exec(f"from qgames import {name}", namespace)
    assert namespace[name] is getattr(qgames, name)


def test_package_exports_exactly_the_listed_names():
    assert sorted(qgames._MODULE_OF) == sorted(_EXPORTED)


@pytest.mark.parametrize("name", _WITHDRAWN)
def test_withdrawn_name_is_not_exported(name):
    with pytest.raises(AttributeError):
        getattr(qgames, name)
    assert name not in dir(qgames)


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        getattr(qgames, "no_such_name")


# Malformed game files ------------------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
_payoffs = (
    st.integers(-9, 9)
    | st.fractions(max_denominator=12).map(str)
    | st.floats(min_value=-1e150, max_value=1e150)
)
_bad_payoffs = (
    st.integers()
    | st.floats()
    | st.sampled_from(["1/0", "abc", "", "1e400", "1e10000000", None, True])
    | _json_values
)


@st.composite
def _game_documents(draw):
    """A valid game file, or one with one part of it damaged."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pair = st.lists(_payoffs, min_size=2, max_size=2)
    table = draw(st.lists(st.lists(pair, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    doc = {
        "players": [{"strategies": [f"s{i}" for i in range(n)]} for n in (rows, cols)],
        "payoffs": table,
    }
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    damage = draw(st.sampled_from(["none", "entry", "cell", "row", "players", "payoffs"]))
    if damage == "entry":
        table[i][j][draw(st.integers(0, 1))] = draw(_bad_payoffs)
    elif damage == "cell":
        table[i][j] = draw(_json_values)
    elif damage == "row":
        table[i] = draw(_json_values)
    elif damage != "none":
        doc[damage] = draw(_json_values | st.lists(st.fixed_dictionaries({"strategies": _json_values})))
    return doc


_game_texts = (
    _game_documents().map(json.dumps)
    | _json_values.map(json.dumps)
    | st.text(max_size=40)
)


@settings(max_examples=150, deadline=None)
@given(
    text=_game_texts | st.binary(max_size=40),
    objective=st.sampled_from(["welfare", "player2", "custom:1,2,3,4", "nonsense"]),
)
def test_malformed_game_files_exit_cleanly(tmp_path_factory, text, objective):
    path = tmp_path_factory.getbasetemp() / "malformed-game.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass"))
    for argv in (
        ["analyze", "--game", str(path)],
        ["analyze", "--json", "--game", str(path)],
        ["correlated", "--game", str(path), "--objective", objective],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


# Scalars that the exact parser must reject at once: Fraction("1eN")
# computes 10**N, which took 13 s for N = 1e7.  An angle of 1e400 is a valid
# rational but overflows a float.  A blank field of a comma-separated list
# is an error too, not a value to skip.
_HUGE = "1e10000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--game", "pd", "--mixed", f"{_HUGE},0"],
        ["correlated", "--game", "pd", "--rho", f"1e-10000000,0,0,{_HUGE}"],
        ["correlated", "--game", "pd", "--objective", f"custom:{_HUGE},0,0,0"],
        ["verify", "--game", "pd", "--profile", f"classical:1/2,{_HUGE}"],
        ["ewl", "--game", "pd", "--gamma", "max", "--uA", f"{_HUGE},0,0"],
        ["ewl", "--game", "pd", "--gamma", "max", "--uA", "1e400,0,0"],
        ["ewl", "--game", "pd", "--gamma", "max", "--uB", "0,0,-1e999"],
        ["analyze", "--game", "huge-exponent.json"],
        ["correlated", "--game", "chicken", "--rho", "1/3,1/3,,1/3,0"],
        ["verify", "--game", "poker", "--profile", "classical:2/3,,2/3"],
        ["analyze", "--game", "pd", "--mixed", "1/2, "],
    ],
)
def test_unrepresentable_scalars_exit_1_at_once(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    players = '[{"strategies": ["a", "b"]}, {"strategies": ["c", "d"]}]'
    payoffs = f'[[["{_HUGE}", 1], [0, 0]], [[0, 0], [1, 1]]]'
    (tmp_path / "huge-exponent.json").write_text(f'{{"players": {players}, "payoffs": {payoffs}}}')
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error") and err.count("\n") == 1
    if argv[2] == "huge-exponent.json":
        assert err.startswith("error[bad-rational]: ")
