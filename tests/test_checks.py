from fractions import Fraction

import numpy as np
import pytest

from qgames import checks, equilibria
from qgames.games import Game, chicken, prisoners_dilemma, simplified_poker
from qgames.mediated import ResponseRule, aumann_check, g_com, is_correlated_eq, referee_dist

SAMPLES, SEED = 50, 5


def _pairs(streams):
    return {(seed, int(i)) for seed, indices in streams for i in indices}


def test_paper_check_draw_plan(haar_batches):
    plan = {}
    for check in checks.ALL_CHECKS:
        start = len(haar_batches)
        check(SAMPLES, SEED)
        plan[check.__name__] = (haar_batches[start:], haar_batches.streams[start:])
    drawing = {name for name, (sizes, _) in plan.items() if sizes}
    assert drawing == {"check_haar_uniformity", "check_determinism"}
    # Check 7: one Haar x Haar sampler test and its 20 fixed opponents, no
    # one-sided streams.
    sizes, streams = plan["check_haar_uniformity"]
    assert sizes == [SAMPLES, SAMPLES, 20]
    sampler, fixed = streams[:2], streams[2:]
    assert [seed for seed, _ in sampler] == [SEED + 1, SEED + 1]
    assert [seed for seed, _ in fixed] == [SEED ^ 0x5EED]
    # Check 8 reads both of its games from exact Haar forms and draws nothing.
    assert plan["check_quantum_equilibrium"] == ([], [])
    _, check10 = plan["check_determinism"]
    assert not _pairs(sampler) & _pairs(check10)
    assert not _pairs(fixed) & _pairs(check10)


def test_one_sided_and_security_claims_are_exact():
    data = checks.check_haar_uniformity(SAMPLES, SEED).data
    assert data["worst_cell_error_one_sided"] < 1e-15
    assert data["one_sided_form_error"] < 1e-15
    data = checks.check_quantum_equilibrium(SAMPLES, SEED).data
    assert data["pd_payoff"] == [2.25, 2.25]
    assert abs(data["pd_max_gain"]) < 1e-15
    assert abs(data["poker_security"] - 15 / 16) < 1e-15
    assert data["poker_scan_spread"] < 1e-14


def test_poker_floor_is_judged_by_the_exact_bound(monkeypatch):
    data = checks.check_quantum_equilibrium(SAMPLES, SEED).data
    assert data["poker_form_error"] < 1e-15
    # A poker payoff form 1e-9 above (15/16) I moves the floor 1e-9 off
    # 15/16: far inside a fixed 0.02 but outside 8 * FORM_TOL.
    form = equilibria.unitary_form

    def perturbed(config, *args):
        r = form(config, *args)
        return r + 1e-9 * np.eye(4) if config.game.name == "poker" else r

    monkeypatch.setattr(equilibria, "unitary_form", perturbed)
    result = checks.check_quantum_equilibrium(SAMPLES, SEED)
    assert not result.passed
    assert abs(result.data["poker_security"] - (15 / 16 + 1e-9)) < 1e-15
    assert result.data["poker_scan_spread"] < 1e-14
    assert result.data["pd_certified"]


def test_pd_equilibrium_is_judged_by_the_exact_bound(monkeypatch):
    data = checks.check_quantum_equilibrium(SAMPLES, SEED).data
    assert data["pd_form_error"] < 1e-15
    assert data["pd_epsilon"] == 16 * data["pd_form_error"]
    # A dilemma form 1e-9 off (9/4) I in one entry is far inside the old
    # Hoeffding widths but outside FORM_TOL; poker's forms stay exact.
    form = checks.unitary_form

    def perturbed(config, *args):
        r = form(config, *args)
        if config.game.name == "pd":
            r = r.copy()
            r[0, 0] += 1e-9
        return r

    # The form is perturbed wherever it is read: check 8's own forms and the
    # spectral gain's.
    for module in (checks, equilibria):
        monkeypatch.setattr(module, "unitary_form", perturbed)
    result = checks.check_quantum_equilibrium(SAMPLES, SEED)
    assert not result.passed
    assert result.data["pd_form_error"] > checks.FORM_TOL
    assert result.data["pd_max_gain"] > result.data["pd_gain_tolerance"]
    assert not result.data["pd_certified"]
    assert result.data["poker_form_error"] < 1e-15


def test_obedience_product_agrees_with_the_fraction_oracles():
    # A chicken in halves and thirds, whose verdicts a truncating int()
    # would change; poker's 5/4 and 5/2 keep their ratio under truncation.
    thirds = Game(
        strategy_names=(("s1", "s2"), ("t1", "t2")),
        payoffs=((("3/2", "3/2"), ("1/3", "5/2")), (("5/2", "1/3"), ("0", "0"))),
        name="thirds",
    )
    rng = np.random.default_rng(16)
    fixed = [
        [4, 2, 2, 1],  # poker's one correlated equilibrium
        [0, 0, 0, 1],  # the dilemma's
        [5, 3, 0, 0],  # never recommends s2
        [0, 4, 0, 6],  # never recommends t1
    ]
    scaled = [3, 1, 4, 2] * np.array([[1], [2], [7], [99]])
    for game in (prisoners_dilemma(), chicken(), simplified_poker(), thirds):
        counts = np.vstack([rng.integers(0, 20, size=(300, 4)), fixed, scaled])
        counts[counts.sum(axis=1) == 0, 0] = 1
        verdicts = checks._obeys(game, counts).tolist()
        for row, verdict in zip(counts.tolist(), verdicts):
            rho = referee_dist(game, [Fraction(v, sum(row)) for v in row])
            assert verdict == is_correlated_eq(game, rho)[0] == aumann_check(game, rho)[0]
        assert len(set(verdicts[-4:])) == 1
        if game.name in ("chicken", "thirds"):
            assert True in verdicts[:300] and False in verdicts[:300]


def test_check_3_reads_the_same_on_every_seed():
    first = checks.check_correlated(SAMPLES, SEED)
    assert first.passed and first.data["pd_rejected"] == 1000
    for seed in (1, 7, 42, -1):
        assert checks.check_correlated(SAMPLES, seed) == first


def _follow_or_invert(strategy):
    """A wrong embedding: conditional rules, which do not play the strategy."""
    return (ResponseRule.FOLLOW, ResponseRule.INVERT)[strategy]


@pytest.mark.parametrize("embedding", ["embed_f", "conditional"])
def test_referee_product_agrees_with_g_com(monkeypatch, embedding):
    if embedding == "conditional":
        monkeypatch.setattr(checks, "embed_f", _follow_or_invert)
    counts = np.random.default_rng(18).integers(1, 51, size=(200, 4)).astype(float)
    # Poker's payoffs are 5/4 and 5/2, so its columns are scaled by 4.
    for game in (prisoners_dilemma(), chicken(), simplified_poker()):
        gaps = checks._unconditional_gaps(game, counts)
        assert gaps.shape == (200, 8)
        ratios = [set() for _ in range(8)]
        for row, gap_row in zip(counts.astype(int).tolist(), gaps.tolist()):
            rho = referee_dist(game, [Fraction(v, sum(row)) for v in row])
            exact = [
                (paid - Fraction(game.payoff((i, j))[p])) * sum(row)
                for i, j in game.profiles()
                for p, paid in enumerate(g_com(game, rho, checks.embed_f(i), checks.embed_f(j)))
            ]
            for k, (gap, value) in enumerate(zip(gap_row, exact)):
                assert gap == int(gap) and (gap > 0) == (value > 0) and (gap < 0) == (value < 0)
                if value:
                    ratios[k].add(Fraction(int(gap)) / value)
        # Each column is g_com's exact gap times the referee's total and one
        # positive integer scale.
        assert all(len(r) <= 1 and all(x > 0 and x.denominator == 1 for x in r) for r in ratios)
        assert any(ratios) == (embedding == "conditional")


def test_check_5_reads_the_same_on_every_seed(monkeypatch):
    first = checks.check_diagrams(SAMPLES, SEED)
    assert first.passed
    assert first.data == {"proper_all_gammas": True, "complete_worst_gap": 0.0}
    for seed in (1, 7, 42, -1):
        assert checks.check_diagrams(SAMPLES, seed) == first
    monkeypatch.setattr(checks, "embed_f", _follow_or_invert)
    assert not checks.check_diagrams(SAMPLES, SEED).passed


def test_check_6_fails_a_born_rule_that_does_not_normalize(monkeypatch):
    assert checks.check_born_rule(SAMPLES, SEED).passed
    monkeypatch.setattr(checks, "born_rule", lambda amps: np.abs(amps) ** 2)
    result = checks.check_born_rule(SAMPLES, SEED)
    assert not result.passed
    assert result.data["worst_scale_invariance"] > 1e-3
    assert result.data["worst_two_term_formula"] > 1e-3
