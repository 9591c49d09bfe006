import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgames import ewl
from qgames.distributions import Dist, MixedProfile, g_mix
from qgames.ewl import (
    MAX_GAMMA,
    PROFILE_BASIS,
    EwlConfig,
    HaarMixture,
    Stack,
    cell_form,
    cell_moments,
    check_complete,
    check_proper,
    classical_unitary,
    coverage_scan,
    entangler,
    g_mq,
    g_q,
    g_q_batch,
    haar_draws,
    mixture_stack,
    moment,
    outcome_dist_mq,
    point_mixture,
    protocol_state,
    sample_payoffs_at,
    scan_payoffs,
)
from qgames.games import InvalidProfileError, chicken, prisoners_dilemma, simplified_poker
from qgames.quantum import (
    FLIP2,
    IDENTITY2,
    Unitary2,
    haar_su2,
    haar_su2_batch,
    measure,
    su2_from_angles,
    su2_grid,
)

F = Fraction
GAMES = [prisoners_dilemma(), simplified_poker(), chicken()]


def test_config_validation():
    with pytest.raises(InvalidProfileError):
        EwlConfig(prisoners_dilemma(), 2.0)
    with pytest.raises(InvalidProfileError):
        HaarMixture(1, 0)
    with pytest.raises(InvalidProfileError):
        HaarMixture(1, 1)  # one draw gives no standard error
    from qgames.games import Game

    wide = Game(
        strategy_names=(("a", "b"), ("c", "d", "e")),
        payoffs=(((1, 1), (2, 2), (3, 3)), ((4, 4), (5, 5), (6, 6))),
    )
    with pytest.raises(InvalidProfileError):
        EwlConfig(wide, 0.0)


def test_g_mq_uses_larger_sample_count():
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    small_then_large = g_mq(cfg, HaarMixture(75, 100), HaarMixture(75, 4000))
    large_both = g_mq(cfg, HaarMixture(75, 4000), HaarMixture(75, 4000))
    assert small_then_large == large_both


def test_entangler_identity_at_zero():
    assert np.allclose(entangler(0.0), np.eye(4), atol=1e-15)


def test_entangler_maximal_state():
    psi = entangler(MAX_GAMMA)[:, 0]
    expected = np.array([1, 0, 0, 1j]) / math.sqrt(2)
    assert np.allclose(psi, expected, atol=1e-15)


def test_entangler_unitary_for_random_gamma():
    rng = np.random.default_rng(21)
    for gamma in rng.uniform(0, MAX_GAMMA, size=100):
        j = entangler(float(gamma))
        assert np.abs(j.conj().T @ j - np.eye(4)).max() < 1e-12


def test_protocol_state_identity_pair():
    for game in GAMES:
        for gamma in (0.0, 0.31, MAX_GAMMA):
            state = protocol_state(EwlConfig(game, gamma), IDENTITY2, IDENTITY2)
            assert np.allclose(state.vector, [1, 0, 0, 0], atol=1e-12)


def test_protocol_state_flip_lands_on_own_row():
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    state = protocol_state(cfg, FLIP2, IDENTITY2)
    probs = np.abs(state.vector) ** 2
    assert probs.argmax() == PROFILE_BASIS.index((1, 0))
    assert probs[2] > 1 - 1e-12


def test_protocol_state_product_form_at_gamma_zero():
    theta, phi = 0.9, 2.2
    cfg = EwlConfig(prisoners_dilemma(), 0.0)
    state = protocol_state(cfg, su2_from_angles(theta, 0, 0), su2_from_angles(phi, 0, 0))
    ct, st = math.cos(theta / 2), math.sin(theta / 2)
    cp, sp = math.cos(phi / 2), math.sin(phi / 2)
    expected = np.array([ct * cp, -ct * sp, -st * cp, st * sp])
    assert np.allclose(state.vector, expected, atol=1e-12)


def test_protocol_state_unit_norm():
    rng = np.random.default_rng(22)
    cfg = EwlConfig(chicken(), 1.1)
    for k in range(50):
        u, v = haar_su2(30, k), haar_su2(31, k)
        assert abs(protocol_state(cfg, u, v).norm - 1.0) < 1e-12


def test_g_q_point_values():
    assert g_q(EwlConfig(prisoners_dilemma(), MAX_GAMMA), IDENTITY2, IDENTITY2) == (3.0, 3.0)
    pay = g_q(EwlConfig(simplified_poker(), MAX_GAMMA), IDENTITY2, FLIP2)
    assert abs(pay[0]) < 1e-12 and abs(pay[1]) < 1e-12


def test_g_q_phase_invariance():
    rng = np.random.default_rng(23)
    cfg = EwlConfig(chicken(), MAX_GAMMA)
    u, v = haar_su2(40, 0), haar_su2(41, 0)
    base = g_q(cfg, u, v)
    for k in range(100):
        phase = math.tau * rng.random()
        phased = Unitary2.from_matrix(np.exp(1j * phase) * (u if k % 2 else v).matrix)
        pair = (u, phased) if k % 2 == 0 else (phased, v)
        pay = g_q(cfg, *pair)
        assert max(abs(a - b) for a, b in zip(base, pay)) < 1e-12


def test_g_q_batch_matches_scalar():
    rng = np.random.default_rng(24)
    cfg = EwlConfig(simplified_poker(), 0.83)
    ua = np.stack([haar_su2(50, k).matrix for k in range(25)])
    ub = np.stack([haar_su2(51, k).matrix for k in range(25)])
    batch = g_q_batch(cfg, ua, ub)
    for k in range(25):
        scalar = g_q(cfg, Unitary2.from_matrix(ua[k]), Unitary2.from_matrix(ub[k]))
        assert np.allclose(batch[k], scalar, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    game=st.sampled_from(GAMES),
    gamma=st.floats(0.0, MAX_GAMMA),
    seed=st.integers(0, 2**32),
    shapes=st.sampled_from([((3,), (3,)), ((1,), (4,)), ((2, 1), (1, 3)), ((2, 3), (3,))]),
)
def test_g_q_batch_matches_scalar_over_broadcast_axes(game, gamma, seed, shapes):
    cfg = EwlConfig(game, gamma)
    shape_a, shape_b = shapes
    ua = haar_su2_batch(seed, np.arange(math.prod(shape_a))).reshape(*shape_a, 2, 2)
    ub = haar_su2_batch(seed + 1, np.arange(math.prod(shape_b))).reshape(*shape_b, 2, 2)
    batch = g_q_batch(cfg, ua, ub)
    full = np.broadcast_shapes(shape_a, shape_b)
    assert batch.shape == (*full, 2)
    ua, ub = np.broadcast_to(ua, (*full, 2, 2)), np.broadcast_to(ub, (*full, 2, 2))
    for idx in np.ndindex(*full):
        scalar = g_q(cfg, Unitary2.from_matrix(ua[idx]), Unitary2.from_matrix(ub[idx]))
        assert np.abs(batch[idx] - scalar).max() < 1e-12


def test_check_proper_all_games_and_gammas():
    for game in GAMES:
        for k in range(11):
            assert check_proper(EwlConfig(game, MAX_GAMMA * k / 10))


def _grid_complete_gap(config, steps):
    """Oracle for ``check_complete``: the worst payoff gap between g_q of the
    embedded (p, q) and the mixed extension over a (steps+1)^2 grid."""
    worst = 0.0
    for i in range(steps + 1):
        for j in range(steps + 1):
            p, q = i / steps, j / steps
            quantized = g_q(config, classical_unitary(p), classical_unitary(q))
            mixed = g_mix(config.game, MixedProfile.from_weights((p, 1 - p), (q, 1 - q)))
            worst = max(worst, *(abs(a - float(b)) for a, b in zip(quantized, mixed)))
    return worst


ORACLE_GAMMAS = (0.0, 0.7, MAX_GAMMA)


def test_check_complete():
    for game in GAMES:
        for gamma in ORACLE_GAMMAS:
            cfg = EwlConfig(game, gamma)
            ok, gap = check_complete(cfg)
            assert ok and gap < 1e-12
            assert _grid_complete_gap(cfg, 10) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=8, max_size=8), st.sampled_from(ORACLE_GAMMAS))
def test_check_complete_agrees_with_grid_on_integer_games(values, gamma):
    from qgames.games import Game

    cells = [tuple(values[k : k + 2]) for k in range(0, 8, 2)]
    cfg = EwlConfig(Game((("a", "b"), ("c", "d")), ((cells[0], cells[1]), (cells[2], cells[3]))), gamma)
    ok, gap = check_complete(cfg)
    assert ok and gap < 1e-12
    assert _grid_complete_gap(cfg, 4) < 1e-9


def test_non_commuting_entangler_fails_completeness(monkeypatch):
    # c I + i s (X tensor I) is unitary but does not commute with F tensor I,
    # so embedded mixed strategies no longer give the mixed extension.
    def mutant(gamma):
        c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        return c * np.eye(4, dtype=complex) + 1j * s * np.kron(x, np.eye(2))

    monkeypatch.setattr(ewl, "entangler", mutant)
    cfg = EwlConfig(prisoners_dilemma(), 0.9)
    ok, gap = check_complete(cfg)
    assert not ok and gap > 0.5
    assert _grid_complete_gap(cfg, 10) > 1.0


def test_classical_unitary_endpoints():
    assert np.allclose(classical_unitary(1.0).matrix, np.eye(2), atol=1e-12)
    assert np.allclose(classical_unitary(0.0).matrix, FLIP2.matrix, atol=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.85, 1.0])
def test_classical_unitary_is_sqrt_weights_of_identity_and_flip(p):
    literal = math.sqrt(p) * IDENTITY2.matrix + math.sqrt(1 - p) * FLIP2.matrix
    assert np.array_equal(classical_unitary(p).matrix, literal)
    # The same rotation as the one-parameter strategy su2(theta, 0, 0).
    angle = su2_from_angles(2.0 * math.acos(math.sqrt(p)), 0.0, 0.0).matrix
    assert np.abs(classical_unitary(p).matrix - angle).max() < 1e-15


def test_completeness_matches_g_mix_pointwise():
    cfg = EwlConfig(chicken(), MAX_GAMMA)
    p, q = 0.3, 0.85
    quantized = g_q(cfg, classical_unitary(p), classical_unitary(q))
    mixed = g_mix(chicken(), MixedProfile.from_weights((p, 1 - p), (q, 1 - q)))
    assert max(abs(a - float(b)) for a, b in zip(quantized, mixed)) < 1e-12


def test_g_mq_point_masses_equal_g_q():
    cfg = EwlConfig(chicken(), 0.9)
    u, v = haar_su2(60, 0), haar_su2(61, 0)
    pay, se = g_mq(cfg, point_mixture(u), point_mixture(v))
    assert se == (0.0, 0.0)
    assert np.allclose(pay, g_q(cfg, u, v), atol=1e-12)


def test_g_mq_finite_mixture_is_exact_average():
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    u0, u1 = haar_su2(62, 0), haar_su2(62, 1)
    mix = Dist((u0, u1), (F(1, 4), F(3, 4)))
    pay, se = g_mq(cfg, mix, point_mixture(IDENTITY2))
    direct = 0.25 * np.array(g_q(cfg, u0, IDENTITY2)) + 0.75 * np.array(g_q(cfg, u1, IDENTITY2))
    assert se == (0.0, 0.0)
    assert np.allclose(pay, direct, atol=1e-12)


def _weighted_sums(cfg, mA, mB):
    """Payoffs and cell probabilities of two finite mixtures, one scalar g_q
    and one Born-rule measurement per pair of support elements."""
    pay, cells = np.zeros(2), np.zeros(4)
    for u, wu in mA.items():
        for v, wv in mB.items():
            pay += float(wu * wv) * np.array(g_q(cfg, u, v))
            d = measure(protocol_state(cfg, u, v))
            cells += float(wu * wv) * np.array([d.prob(c) for c in PROFILE_BASIS])
    return pay, cells


def test_finite_mixtures_match_scalar_sums(finite_mixtures):
    mix_a, mix_b = finite_mixtures
    for game in GAMES:
        for gamma in (0.0, 0.7, MAX_GAMMA):
            cfg = EwlConfig(game, gamma)
            for mA, mB in ((mix_a, mix_b), (mix_b, mix_a)):
                pay, se = g_mq(cfg, mA, mB)
                dist, cell_se = outcome_dist_mq(cfg, mA, mB)
                pay_direct, cells_direct = _weighted_sums(cfg, mA, mB)
                assert np.abs(np.array(pay) - pay_direct).max() < 1e-12
                assert np.abs(np.array(dist.weights) - cells_direct).max() < 1e-12
                assert se == (0.0, 0.0) and cell_se == (0.0,) * 4


def test_haar_against_finite_support_matches_scalar_sums(finite_mixtures):
    # Each Haar draw meets the whole finite support: per-sample values are
    # weighted sums of scalar g_q, and the estimate is their mean and SE.
    _, mix_b = finite_mixtures
    cfg = EwlConfig(chicken(), 0.7)
    n, seed = 60, 85
    per_sample = []
    for j in range(n):
        u = point_mixture(haar_su2(seed, 2 * j))
        per_sample.append(_weighted_sums(cfg, u, mix_b)[0])
    per_sample = np.array(per_sample)
    pay, se = g_mq(cfg, HaarMixture(seed, n), mix_b)
    assert np.abs(np.array(pay) - per_sample.mean(axis=0)).max() < 1e-12
    assert np.abs(np.array(se) - per_sample.std(axis=0, ddof=1) / math.sqrt(n)).max() < 1e-12


def test_g_mq_haar_values():
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    pay, se = g_mq(cfg, HaarMixture(70, 40000), HaarMixture(70, 40000))
    assert abs(pay[0] - 2.25) < 0.03 and abs(pay[1] - 2.25) < 0.03
    assert 0 < se[0] < 0.01 and 0 < se[1] < 0.01

    poker = EwlConfig(simplified_poker(), MAX_GAMMA)
    pay, _ = g_mq(poker, HaarMixture(71, 40000), HaarMixture(71, 40000))
    assert abs(pay[0] - 15 / 16) < 0.03
    assert abs(pay[0] + pay[1]) < 1e-12  # zero-sum structure survives


def test_g_mq_deterministic():
    cfg = EwlConfig(chicken(), MAX_GAMMA)
    first = g_mq(cfg, HaarMixture(72, 5000), HaarMixture(72, 5000))
    second = g_mq(cfg, HaarMixture(72, 5000), HaarMixture(72, 5000))
    assert first == second


def test_outcome_dist_point_mass():
    cfg = EwlConfig(prisoners_dilemma(), 0.4)
    dist, se = outcome_dist_mq(cfg, point_mixture(IDENTITY2), point_mixture(IDENTITY2))
    assert dist.prob((0, 0)) > 1 - 1e-12
    assert se == (0.0, 0.0, 0.0, 0.0)


def test_outcome_dist_haar_uniform():
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    dist, se = outcome_dist_mq(cfg, HaarMixture(73, 50000), HaarMixture(73, 50000))
    assert max(abs(w - 0.25) for w in dist.weights) < 0.015
    assert all(0 < x < 0.01 for x in se)


def test_outcome_dist_one_sided_haar_uniform():
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    fixed = point_mixture(su2_from_angles(0.77, 1.9, 5.1))
    dist, _ = outcome_dist_mq(cfg, HaarMixture(74, 50000), fixed)
    assert max(abs(w - 0.25) for w in dist.weights) < 0.015


def test_haar_draws_disjoint_slots():
    a = haar_draws(80, 0, 0, 16)
    b = haar_draws(80, 1, 0, 16)
    assert not np.allclose(a, b)


def test_scan_payoffs_matches_direct_average():
    grid = su2_grid(3)
    draws = haar_draws(81, 1, 0, 400)
    for gamma in (0.7, MAX_GAMMA):
        cfg = EwlConfig(chicken(), gamma)
        for slot, player in ((0, 0), (0, 1), (1, 0), (1, 1)):
            opponent = moment(Stack(draws[:, None], np.ones(1)))
            fast = scan_payoffs(cfg, slot, grid, opponent, cfg.payoff_table()[:, player])
            direct = np.empty(len(grid))
            for k, u in enumerate(grid):
                rep = np.broadcast_to(u, (400, 2, 2))
                pair = (rep, draws) if slot == 0 else (draws, rep)
                direct[k] = g_q_batch(cfg, *pair)[:, player].mean()
            assert np.abs(fast - direct).max() < 1e-12


def test_haar_estimates_match_per_sample_formulas():
    # Mean and standard error of the mean, from scalar g_q and the Born rule
    # on each Haar pair, against the vectorized estimators.
    cfg = EwlConfig(chicken(), 0.9)
    n, seed = 300, 83
    pays, cells = [], []
    for j in range(n):
        u, v = haar_su2(seed, 2 * j), haar_su2(seed, 2 * j + 1)
        pays.append(g_q(cfg, u, v))
        d = measure(protocol_state(cfg, u, v))
        cells.append([d.prob(c) for c in PROFILE_BASIS])

    def mean_se(column):
        return statistics.fmean(column), statistics.stdev(column) / math.sqrt(len(column))

    mix = HaarMixture(seed, n)
    pay, pay_se = g_mq(cfg, mix, mix)
    dist, cell_se = outcome_dist_mq(cfg, mix, mix)
    for k in range(2):
        mean, se = mean_se([p[k] for p in pays])
        assert abs(pay[k] - mean) < 1e-12 and abs(pay_se[k] - se) < 1e-12
    for k in range(4):
        mean, se = mean_se([c[k] for c in cells])
        assert abs(dist.weights[k] - mean) < 1e-12 and abs(cell_se[k] - se) < 1e-12


def test_shared_draws_give_the_same_estimates():
    cfg = EwlConfig(prisoners_dilemma(), 0.5)
    one_sided = (HaarMixture(84, 500), point_mixture(su2_from_angles(0.3, 1.0, 2.0)))
    for mA, mB in ((HaarMixture(84, 500), HaarMixture(84, 500)), one_sided):
        cells = cell_moments(cfg, mA, mB)
        assert g_mq(cfg, mA, mB, cells) == g_mq(cfg, mA, mB)
        assert outcome_dist_mq(cfg, mA, mB, cells) == outcome_dist_mq(cfg, mA, mB)


def test_sample_payoffs_at():
    cfg = EwlConfig(simplified_poker(), MAX_GAMMA)
    draws = haar_draws(82, 1, 0, 300)
    pay = sample_payoffs_at(cfg, 0, np.eye(2, dtype=complex), Stack(draws[:, None], np.ones(1)), 0)
    assert pay.shape == (300,)
    direct = g_q_batch(cfg, np.broadcast_to(np.eye(2, dtype=complex), (300, 2, 2)), draws)[:, 0]
    assert np.allclose(pay, direct)


def test_coverage_scan_reports():
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    result = coverage_scan(cfg, 2000, seed=90, bins=6)
    assert 0 < result["coverage"] <= 1
    assert result["occupied_bins"] <= result["valid_bins"]
    assert all(0 <= lo <= hi <= 1 for lo, hi in zip(result["cell_min"], result["cell_max"]))
    for bins in (1, 2, 6, 10):
        brute = sum(1 for i in range(bins) for j in range(bins) for k in range(bins) if i + j + k <= bins)
        assert coverage_scan(cfg, 50, seed=91, bins=bins)["valid_bins"] == brute


HALF_IDENTITY = np.eye(4) / 2


def test_haar_moment_is_half_identity_without_draws(haar_batches):
    assert (moment(HaarMixture(7, 1000)) == HALF_IDENTITY).all()
    assert haar_batches == []


def test_sampled_haar_moment_within_hoeffding_bound():
    # Each entry of vec(u) vec(u)^dagger has real and imaginary parts in
    # [-1, 1].  Hoeffding over 16 entries x 2 parts x 2 slots at total
    # failure chance 1e-9: |mean - I/2| <= 2 sqrt(ln(2 * 64 / 1e-9) / (2 n)).
    n = 50_000
    bound = 2 * math.sqrt(math.log(2 * 64 / 1e-9) / (2 * n))
    for slot in (0, 1):
        sampled = moment(mixture_stack(HaarMixture(11, n), slot))
        assert np.abs(sampled.real - HALF_IDENTITY).max() <= bound
        assert np.abs(sampled.imag).max() <= bound


def test_dist_moment_is_weighted_gram_of_its_stack(finite_mixtures):
    for mix in finite_mixtures:
        gram = sum(
            float(w) * np.outer(u.matrix.reshape(4), u.matrix.reshape(4).conj())
            for u, w in mix.items()
        )
        assert np.abs(moment(mix) - gram).max() < 1e-15
        assert (moment(mix) == moment(mixture_stack(mix, 0))).all()


def test_one_sided_cell_forms_are_constant_only_at_max_entanglement():
    fixed = haar_su2_batch(3 ^ 0x5EED, np.arange(20))  # paper-check's 20 opponents at seed 3
    for slot in (0, 1):
        cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
        for cell in np.eye(4):
            form = cell_form(cfg, slot, HALF_IDENTITY, cell)
            assert np.abs(form - np.eye(4) / 8).max() < 1e-15
        # Away from pi/2 one-sided Haar play is not uniform: the moment is
        # the same I/2, so a constant answer would not come from it.
        cfg = EwlConfig(prisoners_dilemma(), 0.7)
        worst = max(
            np.abs(scan_payoffs(cfg, slot, fixed, HALF_IDENTITY, cell) - 0.25).max()
            for cell in np.eye(4)
        )
        assert abs(worst - 0.146) < 0.001


@pytest.mark.parametrize(
    "make, value", [(prisoners_dilemma, 2.25), (simplified_poker, 0.9375), (chicken, 1.0)]
)
def test_haar_moment_scan_is_constant_at_max_entanglement(make, value):
    cfg = EwlConfig(make(), MAX_GAMMA)
    grid = su2_grid(8)
    for slot in (0, 1):
        scan = scan_payoffs(cfg, slot, grid, HALF_IDENTITY, cfg.payoff_table()[:, 0])
        assert scan.shape == (512,)
        assert np.abs(scan - value).max() < 1e-12
