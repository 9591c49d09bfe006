from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgames.distributions import Dist, MixedProfile
from qgames import equilibria
from qgames.equilibria import (
    SPECTRAL_TOL,
    EquilibriumReport,
    mixed_nash_2x2,
    payoff_range,
    security_level,
    security_scan,
    verify_classical_eq,
    verify_quantum_eq,
)
from qgames.ewl import (
    HAAR,
    MAX_GAMMA,
    EwlConfig,
    g_mq,
    g_q,
    moment,
    sample_payoffs_at,
    scan_payoffs,
)
from qgames.games import Game, InvalidProfileError, chicken, prisoners_dilemma, simplified_poker
from qgames.quantum import FLIP2, IDENTITY2, Unitary2, su2_from_angles, su2_grid

F = Fraction


def test_mixed_nash_poker():
    eqs = mixed_nash_2x2(simplified_poker())
    assert len(eqs) == 1
    eq = eqs[0]
    assert not eq.degenerate
    assert eq.profile.row.weights == (F(2, 3), F(1, 3))
    assert eq.profile.col.weights == (F(2, 3), F(1, 3))
    assert eq.payoff == (F(5, 6), F(-5, 6))


def test_mixed_nash_chicken():
    eqs = mixed_nash_2x2(chicken())
    pure = [e for e in eqs if e.note.startswith("pure")]
    mixed = [e for e in eqs if e.note == "fully mixed"]
    assert len(pure) == 2 and len(mixed) == 1
    assert mixed[0].profile.row.weights == (F(1, 2), F(1, 2))
    assert mixed[0].payoff == (F(1), F(1))


def test_mixed_nash_pd_has_no_interior_equilibrium():
    eqs = mixed_nash_2x2(prisoners_dilemma())
    assert len(eqs) == 1
    assert eqs[0].note == "pure (s2,t2)"
    assert eqs[0].payoff == (F(1), F(1))


def test_mixed_nash_degenerate_family():
    # column player scores 0 everywhere: any row mix keeps them indifferent
    game = Game(
        strategy_names=(("a", "b"), ("c", "d")),
        payoffs=(((1, 0), (2, 0)), ((3, 0), (0, 0))),
    )
    families = [e for e in mixed_nash_2x2(game) if e.degenerate]
    assert len(families) == 1
    family = families[0]
    assert family.profile.col.weights == (F(1, 2), F(1, 2))
    report = verify_classical_eq(game, family.profile)
    assert report.certified


def test_mixed_nash_fully_degenerate():
    game = Game(
        strategy_names=(("a", "b"), ("c", "d")),
        payoffs=(((1, 1), (1, 1)), ((1, 1), (1, 1))),
    )
    eqs = mixed_nash_2x2(game)
    assert any(e.degenerate and e.note == "every mixed profile is an equilibrium" for e in eqs)


def test_all_solver_outputs_certify_with_zero_gain():
    for game in (prisoners_dilemma(), simplified_poker(), chicken()):
        for eq in mixed_nash_2x2(game):
            report = verify_classical_eq(game, eq.profile)
            assert report.certified
            assert report.max_deviation_gain == (0, 0)
            assert report.payoff == eq.payoff


@settings(max_examples=80, deadline=None)
@given(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=8, max_size=8))
def test_mixed_nash_results_of_random_games_certify(values):
    # Payoffs drawn from a few small rationals, so ties and degenerate
    # families come up often.
    cells = [tuple(values[k : k + 2]) for k in range(0, 8, 2)]
    game = Game((("a", "b"), ("c", "d")), ((cells[0], cells[1]), (cells[2], cells[3])))
    for eq in mixed_nash_2x2(game):
        report = verify_classical_eq(game, eq.profile)
        assert report.certified
        assert report.payoff == eq.payoff


def test_verify_classical_rejects_non_equilibrium():
    report = verify_classical_eq(
        chicken(), MixedProfile.from_weights((F(1), F(0)), (F(1), F(0)))
    )
    assert not report.certified
    assert report.max_deviation_gain[1] == F(1)  # second player grabs 3 over 2
    assert report.method == "exact"


def test_report_invariant_enforced():
    with pytest.raises(ValueError):
        EquilibriumReport(
            description="bogus",
            payoff=(0, 0),
            max_deviation_gain=(1, 0),
            epsilon=0,
            certified=True,
            method="exact",
        )


# A 32^3 grid holds every coordinate quaternion (I, iZ, F and iX up to
# sign), where the forms against a Haar opponent take their extremes: those
# forms are diagonal in quaternion coordinates.
ORACLE_GRID = su2_grid(32)
GAMMAS = (0.0, 0.35, 0.7, 1.1, 1.45, MAX_GAMMA)
BUILTINS = (prisoners_dilemma(), simplified_poker(), chicken())

# Exact Haar x Haar deviation gains at GAMMAS, equal for both players.
EXACT_GAINS = {
    "pd": (0.75, 0.661816, 0.438738, 0.154312, 0.010891, 0.0),
    "poker": (0.3125, 0.275757, 0.182807, 0.064297, 0.004538, 0.0),
    "chicken": (0.0,) * 6,
}


def _scaled(game, factor):
    payoffs = tuple(tuple(tuple(F(u) * factor for u in cell) for cell in row) for row in game.payoffs)
    return Game(game.strategy_names, payoffs, name=game.name)


def _assert_haar_spectrum_matches_grid(cfg):
    """Haar x Haar against the grid oracle: each player's grid maximum is
    never above lambda_max and comes within 1e-6 of it, the witness reaches
    base + gain, and the security floor is the grid minimum."""
    report = verify_quantum_eq(cfg, HAAR, HAAR)
    table = cfg.payoff_table()
    half = moment(HAAR)
    for player in (0, 1):
        column = table[:, player]
        eps = report.details["per_player_epsilon"][player]
        assert eps == SPECTRAL_TOL * np.abs(column).sum()
        base = report.payoff[player]
        assert abs(base - column.mean()) <= eps
        best = base + report.max_deviation_gain[player]
        grid_best = scan_payoffs(cfg, player, ORACLE_GRID, half, column).max()
        assert grid_best <= best + eps and best - grid_best < 1e-6
        witness = su2_from_angles(*report.details["witness"][player]).matrix
        assert abs(scan_payoffs(cfg, player, witness[None], half, column)[0] - best) <= eps
        scan = security_scan(cfg, player, HAAR, opponent_grid=32)
        floor, top = payoff_range(cfg, player, HAAR)
        assert floor == security_level(cfg, player, HAAR)
        assert scan.min() >= floor - eps and scan.min() - floor < 1e-6
        assert scan.max() <= top + eps and top - scan.max() < 1e-6
    return report


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("game", BUILTINS, ids=lambda g: g.name)
def test_builtin_spectral_gains_match_the_grid_oracle(game, gamma):
    report = _assert_haar_spectrum_matches_grid(EwlConfig(game, gamma))
    exact = EXACT_GAINS[game.name][GAMMAS.index(gamma)]
    assert all(abs(g - exact) < 1e-6 for g in report.max_deviation_gain)
    assert report.certified == (gamma == MAX_GAMMA or game.name == "chicken")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=8, max_size=8),
    st.sampled_from(GAMMAS),
)
def test_integer_game_spectral_gains_match_the_grid_oracle(values, gamma):
    cells = [tuple(values[k : k + 2]) for k in range(0, 8, 2)]
    game = Game((("a", "b"), ("c", "d")), ((cells[0], cells[1]), (cells[2], cells[3])))
    report = _assert_haar_spectrum_matches_grid(EwlConfig(game, gamma))
    if gamma == MAX_GAMMA:
        # One-sided Haar cells are exactly 1/4 here: no deviation gains.
        assert report.certified


@pytest.mark.parametrize("factor", [F(1, 10**6), 10**6, 10**12])
@pytest.mark.parametrize("game", BUILTINS, ids=lambda g: g.name)
def test_rounding_bound_scales_with_the_payoffs(game, factor, monkeypatch):
    cfg = EwlConfig(_scaled(game, factor), MAX_GAMMA)
    report = verify_quantum_eq(cfg, HAAR, HAAR)
    assert report.certified
    # A form 1e-9 of its scale off the exact one is refuted: the bound is
    # float rounding, not a fitted allowance.
    form = equilibria.unitary_form

    def perturbed(config, slot, opponent_moment, column):
        return form(config, slot, opponent_moment, column) + np.diag([1e-9 * np.abs(column).sum(), 0, 0, 0])

    monkeypatch.setattr(equilibria, "unitary_form", perturbed)
    report = verify_quantum_eq(cfg, HAAR, HAAR)
    assert not report.certified
    # The perturbation lifts lambda_max by delta = 1e-9 * scale and the Haar
    # payoff sum(R * I/4) by delta / 4, so the gain moves by 3 delta / 4.
    for player in (0, 1):
        scale = np.abs(cfg.payoff_table()[:, player]).sum()
        assert abs(report.max_deviation_gain[player] - 0.75e-9 * scale) <= 1e-12 * scale


def test_verify_quantum_haar_equilibrium_pd():
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    report = verify_quantum_eq(cfg, HAAR, HAAR, samples=30000, seed=5)
    assert report.method == "monte_carlo"
    assert report.samples == 30000 and report.seed == 5
    assert report.description == "quantum profile A=haar(seed=5, n=30000) B=haar(seed=5, n=30000) gamma=1.5708"
    # The payoff is exact, the one ``g_mq`` gives; the estimate is evidence.
    assert report.payoff == g_mq(cfg, HAAR, HAAR) == (2.25, 2.25)
    assert abs(report.details["estimate"]["payoff"][0] - 2.25) < 0.03
    assert max(report.max_deviation_gain) <= report.epsilon
    assert report.certified


def test_unsampled_reports_label_haar_and_draw_nothing(point_mixture, haar_batches):
    # Without a sample count no profile is sampled: a Haar slot reads
    # "haar", with no seed, and the report carries no estimate.
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    for mA, mB, label in (
        (HAAR, HAAR, "A=haar B=haar"),
        (HAAR, point_mixture(FLIP2), "A=haar B=finite(1 unitaries)"),
        (point_mixture(FLIP2), HAAR, "A=finite(1 unitaries) B=haar"),
    ):
        report = verify_quantum_eq(cfg, mA, mB, seed=5)
        assert report.description == f"quantum profile {label} gamma=1.5708"
        assert report.method == "spectral" and report.samples is None and report.seed is None
        assert "estimate" not in report.details
    assert haar_batches == []


def test_only_haar_x_haar_play_is_sampled(point_mixture, haar_batches):
    cfg = EwlConfig(chicken(), 0.7)
    for profile in ((HAAR, point_mixture(FLIP2)), (point_mixture(FLIP2), HAAR), (point_mixture(IDENTITY2),) * 2):
        with pytest.raises(InvalidProfileError):
            verify_quantum_eq(cfg, *profile, samples=2000, seed=5)
    assert haar_batches == []


def test_verify_quantum_draws_each_stream_once(haar_batches):
    cfg = EwlConfig(prisoners_dilemma(), 0.7)
    report = verify_quantum_eq(cfg, HAAR, HAAR, samples=2000, seed=9)
    # The sampled evidence takes one pass over each stream; the gains take
    # no draws.
    assert haar_batches == [2000, 2000]
    assert not report.certified
    for player in (0, 1):
        column = cfg.payoff_table()[:, player]
        best = scan_payoffs(cfg, player, ORACLE_GRID, moment(HAAR), column).max()
        assert abs(report.max_deviation_gain[player] - (best - column.mean())) < 1e-6
        assert abs(report.max_deviation_gain[player] - 0.438738) < 1e-6


def test_verify_quantum_detects_classical_domination(point_mixture):
    cfg = EwlConfig(prisoners_dilemma(), 0.0)
    report = verify_quantum_eq(cfg, point_mixture(IDENTITY2), point_mixture(IDENTITY2))
    assert report.method == "spectral"
    assert not report.certified
    assert abs(report.max_deviation_gain[0] - 2.0) < 1e-9
    assert abs(report.max_deviation_gain[1] - 2.0) < 1e-9


def test_verify_quantum_poker_value():
    cfg = EwlConfig(simplified_poker(), MAX_GAMMA)
    report = verify_quantum_eq(cfg, HAAR, HAAR, samples=30000, seed=6)
    estimate = report.details["estimate"]["payoff"]
    assert abs(estimate[0] - 15 / 16) < 0.03
    assert abs(estimate[1] + 15 / 16) < 0.03
    assert report.payoff == (15 / 16, -15 / 16)
    assert report.certified


def _rotating_eigh(rng):
    """np.linalg.eigh with the basis of each of its eigenspaces turned by a
    random orthogonal matrix."""
    eigh = np.linalg.eigh

    def rotated(form):
        values, vectors = eigh(form)
        vectors = vectors.copy()
        edges = [0, *(k for k in range(1, 4) if values[k] - values[k - 1] > 1e-9), 4]
        for lo, hi in zip(edges, edges[1:]):
            turn, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
            vectors[:, lo:hi] = vectors[:, lo:hi] @ turn
        return values, vectors

    return rotated


def test_witness_is_canonical_in_a_repeated_top_eigenvalue():
    # Chicken's form is the identity at every gamma, so every unitary is a
    # best deviation; the first basis quaternion, the identity, is reported.
    for gamma in GAMMAS:
        report = verify_quantum_eq(EwlConfig(chicken(), gamma), HAAR, HAAR)
        assert report.details["witness"] == [[0.0, 0.0, 0.0]] * 2
    # The dilemma's top eigenspace is two-dimensional below maximal
    # entanglement, and holds the classical defection F = (pi, 0, 0).
    for gamma in (0.35, 1.1, 1.45):
        report = verify_quantum_eq(EwlConfig(prisoners_dilemma(), gamma), HAAR, HAAR)
        assert report.details["witness"] == [[np.pi, 0.0, 0.0]] * 2


@pytest.mark.parametrize("game", BUILTINS, ids=lambda g: g.name)
def test_witness_does_not_depend_on_the_eigenbasis(point_mixture, game, monkeypatch):
    profiles = [(HAAR, HAAR), (point_mixture(FLIP2), HAAR), (point_mixture(IDENTITY2),) * 2]
    cases = [(EwlConfig(game, gamma), p, *m) for gamma in GAMMAS for p in (0, 1) for m in profiles]
    expected = [equilibria.deviation_gain(*case)[2] for case in cases]
    monkeypatch.setattr(np.linalg, "eigh", _rotating_eigh(np.random.default_rng(20)))
    for _ in range(3):
        for case, q in zip(cases, expected):
            assert np.abs(equilibria.deviation_gain(*case)[2] - q).max() < 1e-12


def test_security_level_classical():
    poker = simplified_poker()
    eq_strategy = Dist((0, 1), (F(2, 3), F(1, 3)))
    assert security_level(poker, 0, eq_strategy) == F(5, 6)
    pd = prisoners_dilemma()
    assert security_level(pd, 0, Dist((0, 1), (F(0), F(1)))) == F(1)
    # player 2 in poker guarantees -5/6 with their equilibrium mixture
    assert security_level(poker, 1, Dist((0, 1), (F(2, 3), F(1, 3)))) == F(-5, 6)


def test_classical_security_is_the_least_payoff_over_opponent_strategies():
    rng = np.random.default_rng(21)
    for _ in range(20):
        rows, cols = (int(v) for v in rng.integers(1, 5, size=2))
        game = Game(
            (tuple(f"r{i}" for i in range(rows)), tuple(f"c{j}" for j in range(cols))),
            [[[int(v) for v in rng.integers(-9, 10, size=2)] for _ in range(cols)] for _ in range(rows)],
        )
        for player, count in ((0, rows), (1, cols)):
            nums = [int(v) for v in rng.integers(0, 10, size=count)]
            nums[0] += sum(nums) == 0
            strategy = Dist(tuple(range(count)), tuple(F(v, sum(nums)) for v in nums))
            by_hand = min(
                sum(
                    w * game.payoff((own, j) if player == 0 else (j, own))[player]
                    for own, w in strategy.items()
                )
                for j in range(game.shape[1 - player])
            )
            assert security_level(game, player, strategy) == by_hand


def test_security_minimax_consistency():
    # zero-sum: the equilibrium strategy's floor equals the equilibrium value
    poker = simplified_poker()
    eq = mixed_nash_2x2(poker)[0]
    assert security_level(poker, 0, eq.profile.row) == eq.payoff[0]


def test_security_quantum_haar_poker(haar_batches):
    cfg = EwlConfig(simplified_poker(), MAX_GAMMA)
    scan = security_scan(cfg, 0, HAAR, opponent_grid=6)
    assert abs(scan.min() - 15 / 16) < 1e-12
    assert scan.max() - scan.min() < 1e-12
    level = security_level(cfg, 0, HAAR)
    assert abs(level - 15 / 16) < 1e-12
    # Both read the Haar strategy through its exact moment I/4.
    assert haar_batches == []


def test_security_quantum_finite_strategy(point_mixture):
    cfg = EwlConfig(prisoners_dilemma(), 0.0)
    # always-defect against the worst opponent still earns 1 classically
    scan = security_scan(cfg, 0, point_mixture(FLIP2), opponent_grid=6)
    assert abs(scan.min() - 1.0) < 1e-9
    assert abs(security_level(cfg, 0, point_mixture(FLIP2)) - 1.0) < 1e-9


def _scan_oracle(cfg, grid_slot, grid, mixture, payoff_player):
    """Mean payoff of each grid unitary against a finite mixture in the other
    slot: one scalar g_q per grid point and support element."""
    values = np.empty(len(grid))
    for k, g in enumerate(grid):
        g2 = Unitary2.from_matrix(g)
        values[k] = sum(
            float(w) * g_q(cfg, *((g2, u) if grid_slot == 0 else (u, g2)))[payoff_player]
            for u, w in mixture.items()
        )
    return values


def test_finite_mixture_scans_match_scalar_sums(finite_mixtures):
    mix_a, mix_b = finite_mixtures
    grid = su2_grid(5)
    for gamma in (0.7, MAX_GAMMA):
        cfg = EwlConfig(chicken(), gamma)
        report = verify_quantum_eq(cfg, mix_a, mix_b)
        assert report.method == "spectral" and report.samples is None and report.seed is None
        assert "estimate" not in report.details
        assert report.payoff == g_mq(cfg, mix_a, mix_b)
        base = sum(
            float(wu * wv) * np.array(g_q(cfg, u, v))
            for u, wu in mix_a.items()
            for v, wv in mix_b.items()
        )
        assert np.abs(np.array(report.payoff) - base).max() < 1e-12
        for player, opponent in ((0, mix_b), (1, mix_a)):
            eps = report.details["per_player_epsilon"][player]
            best = base[player] + report.max_deviation_gain[player]
            # The witness reaches the gain through scalar g_q, and through
            # the Born pass against each of the opponent's support elements.
            witness = su2_from_angles(*report.details["witness"][player]).matrix
            assert abs(_scan_oracle(cfg, player, witness[None], opponent, player)[0] - best) < 1e-12
            support = np.stack([u.quaternion for u in opponent.support])
            weights = np.array([float(w) for w in opponent.weights])
            assert abs(sample_payoffs_at(cfg, player, witness, support, player) @ weights - best) < 1e-12
            # No grid unitary does better.
            assert _scan_oracle(cfg, player, grid, opponent, player).max() <= best + eps
        for player, strategy in ((0, mix_a), (1, mix_b)):
            scan = security_scan(cfg, player, strategy, opponent_grid=5)
            oracle = _scan_oracle(cfg, 1 - player, grid, strategy, player)
            assert np.abs(scan - oracle).max() < 1e-12
            floor, top = payoff_range(cfg, player, strategy)
            assert oracle.min() >= floor - 1e-12 and oracle.max() <= top + 1e-12
            assert security_level(cfg, player, strategy) == floor
