import dataclasses
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
    HAAR,
    EwlConfig,
    HaarMixture,
    born_matrix,
    cell_moments,
    check_complete,
    check_proper,
    embedded_cells,
    entangler,
    exact_embedding,
    g_mq,
    g_q,
    haar_draws,
    haar_estimate,
    moment,
    outcome_dist_mq,
    protocol_state,
    sample_payoffs_at,
    scan_payoffs,
    unitary_form,
)
from qgames.games import InvalidProfileError, chicken, prisoners_dilemma, simplified_poker
from qgames.quantum import (
    FLIP2,
    IDENTITY2,
    Unitary2,
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
    for n in (0, 1):  # one draw gives no standard error
        with pytest.raises(InvalidProfileError):
            haar_estimate(EwlConfig(prisoners_dilemma(), MAX_GAMMA), 1, n)
    from qgames.games import Game

    wide = Game(
        strategy_names=(("a", "b"), ("c", "d", "e")),
        payoffs=(((1, 1), (2, 2), (3, 3)), ((4, 4), (5, 5), (6, 6))),
    )
    with pytest.raises(InvalidProfileError):
        EwlConfig(wide, 0.0)


@pytest.mark.parametrize(
    "gamma, stored", [(-0.0, 0.0), (-1e-13, 0.0), (0, 0.0), (MAX_GAMMA + 1e-13, MAX_GAMMA), (0.7, 0.7)]
)
def test_config_stores_gamma_within_the_interval(gamma, stored):
    kept = EwlConfig(prisoners_dilemma(), gamma).gamma
    assert kept == stored and math.copysign(1.0, kept) == 1.0


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


def test_protocol_state_unit_norm(haar_su2):
    rng = np.random.default_rng(22)
    cfg = EwlConfig(chicken(), 1.1)
    for k in range(50):
        u, v = haar_su2(30, k), haar_su2(31, k)
        assert abs(np.linalg.norm(protocol_state(cfg, u, v).vector) - 1.0) < 1e-12


def test_g_q_point_values():
    assert g_q(EwlConfig(prisoners_dilemma(), MAX_GAMMA), IDENTITY2, IDENTITY2) == (3.0, 3.0)
    pay = g_q(EwlConfig(simplified_poker(), MAX_GAMMA), IDENTITY2, FLIP2)
    assert abs(pay[0]) < 1e-12 and abs(pay[1]) < 1e-12


def test_g_q_phase_invariance(haar_su2):
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


def probs_batch(gamma, ua, ub):
    """Measurement probabilities for stacked complex strategy pairs, shape
    (..., 4): the oracle of ``sample_cells``.

    ``ua`` and ``ub`` are (..., 2, 2) stacks whose leading axes broadcast.
    Uses (A tensor B) vec(M) = vec(A M B^T): with P = J|00> reshaped to 2x2,
    the post-play state is vec(W) for W = uA P uB^T, and the cell amplitudes
    are J^dagger vec(W).  P is diagonal, so W is two outer products of
    columns.  Each row is renormalized to sum 1.
    """
    j = entangler(gamma)
    c, i_s = j[0, 0], j[3, 0]  # the diagonal of P
    w = c * ua[..., 0, None] * ub[..., None, :, 0] + i_s * ua[..., 1, None] * ub[..., None, :, 1]
    amps = w.reshape(*w.shape[:-2], 4) @ j.conj()
    probs = np.abs(amps) ** 2
    return probs / probs.sum(axis=-1, keepdims=True)


def batch_payoffs(cfg, ua, ub):
    """g_q over stacked (..., 2, 2) strategy arrays: the Born pass times the payoff table."""
    return probs_batch(cfg.gamma, ua, ub) @ cfg.payoff_table()


KERNEL_GAMMAS = (0.0, 0.35, 0.7, 1.1, MAX_GAMMA)


def _oracle_cells(gamma, a_matrices, a_weights, b_matrices, b_weights):
    """Per-sample cells of (samples, support, 2, 2) complex stacks from
    ``probs_batch``, summed over every pair of support elements."""
    probs = probs_batch(gamma, a_matrices[:, :, None], b_matrices[:, None, :])
    return np.einsum("sklc,kl->sc", probs, np.outer(a_weights, b_weights))


@pytest.mark.parametrize("gamma", KERNEL_GAMMAS)
@pytest.mark.parametrize("kind", ["haar-haar", "haar-finite", "finite-haar", "finite-finite"])
def test_quaternion_born_pass_matches_complex_oracle(su2_matrices, kind, gamma, finite_mixtures, born_pass):
    # The finite supports hold U(2) elements times e^{i phi}; the quaternion
    # Born pass sees u / sqrt(det u), the oracle the phased matrix itself.
    n = 500
    mixtures, sides = [], []
    for slot, mix in enumerate(finite_mixtures):
        if kind.split("-")[slot] == "haar":
            mixtures.append(HAAR)
            sides.append((su2_matrices(haar_draws(92, slot, 0, n))[:, None], np.ones(1)))
        else:
            mixtures.append(mix)
            weights = np.array([float(w) for w in mix.weights])
            sides.append((np.stack([u.matrix for u in mix.support])[None], weights))
    (ua, wa), (ub, wb) = sides
    cfg = EwlConfig(chicken(), gamma)
    cells = born_pass(cfg, *mixtures, 92, n if "haar" in kind else 1)
    oracle = _oracle_cells(gamma, ua, wa, ub, wb)
    assert cells.shape == oracle.shape == ((1 if kind == "finite-finite" else n), 4)
    assert np.abs(cells - oracle).max() <= 1e-15
    assert np.abs(cells.sum(axis=1) - 1.0).max() <= 4e-15


def test_born_batch_matches_scalar(haar_su2):
    rng = np.random.default_rng(24)
    cfg = EwlConfig(simplified_poker(), 0.83)
    ua = np.stack([haar_su2(50, k).matrix for k in range(25)])
    ub = np.stack([haar_su2(51, k).matrix for k in range(25)])
    batch = batch_payoffs(cfg, ua, ub)
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
def test_born_batch_matches_scalar_over_broadcast_axes(su2_matrices, game, gamma, seed, shapes):
    cfg = EwlConfig(game, gamma)
    shape_a, shape_b = shapes
    ua = su2_matrices(haar_su2_batch(seed, np.arange(math.prod(shape_a)))).reshape(*shape_a, 2, 2)
    ub = su2_matrices(haar_su2_batch(seed + 1, np.arange(math.prod(shape_b)))).reshape(*shape_b, 2, 2)
    batch = batch_payoffs(cfg, ua, ub)
    full = np.broadcast_shapes(shape_a, shape_b)
    assert batch.shape == (*full, 2)
    ua, ub = np.broadcast_to(ua, (*full, 2, 2)), np.broadcast_to(ub, (*full, 2, 2))
    for idx in np.ndindex(*full):
        scalar = g_q(cfg, Unitary2.from_matrix(ua[idx]), Unitary2.from_matrix(ub[idx]))
        assert np.abs(batch[idx] - scalar).max() < 1e-12


ELEVEN_GAMMAS = [MAX_GAMMA * k / 10 for k in range(11)]


def _fraction_game(seed):
    """A random 2x2 game whose payoffs are Fractions with denominators 1 to 7."""
    from qgames.games import Game

    rng = np.random.default_rng(seed)
    values = [F(int(n), int(d)) for n, d in zip(rng.integers(-20, 21, 8), rng.integers(1, 8, 8))]
    cells = [tuple(values[k : k + 2]) for k in range(0, 8, 2)]
    return Game((("a", "b"), ("c", "d")), ((cells[0], cells[1]), (cells[2], cells[3])))


def _embedded(x):
    return (IDENTITY2, FLIP2)[x]


@pytest.mark.parametrize("gamma", ELEVEN_GAMMAS)
def test_embedded_cells_are_the_scalar_measurements_bitwise(gamma):
    for game in GAMES:
        cells = embedded_cells(EwlConfig(game, gamma))
        for row, (x, y) in zip(cells, PROFILE_BASIS):
            scalar = measure(protocol_state(EwlConfig(game, gamma), _embedded(x), _embedded(y)))
            assert scalar.support == PROFILE_BASIS
            assert row.tolist() == list(scalar.weights)


def _proper_by_g_q(config, tol=1e-9):
    """Oracle for ``check_proper``: g_q, the scalar composition, of each
    embedded pure profile against the game's payoffs."""
    for x, y in PROFILE_BASIS:
        quantized = g_q(config, _embedded(x), _embedded(y))
        if max(abs(a - float(b)) for a, b in zip(quantized, config.game.payoff((x, y)))) > tol:
            return False
    return True


FRACTION_GAMES = [_fraction_game(18), _fraction_game(19)]


def test_check_proper_all_games_and_gammas():
    for game in [*GAMES, *FRACTION_GAMES]:
        for gamma in ELEVEN_GAMMAS:
            cfg = EwlConfig(game, gamma)
            assert check_proper(cfg) and _proper_by_g_q(cfg)


def _mutant(table):
    """``table`` with one entry on rows and columns {1, j} moved off 0: cell
    (0, 1)'s amplitude at the profile (I, F) gains the table's term."""
    mutant = table.copy()
    mutant[1, 0, 2] += 1
    return mutant


@pytest.mark.parametrize("name, gamma", [("_SIN", 0.7), ("_SIN", MAX_GAMMA), ("_COS", 0.0), ("_COS", 0.7)])
def test_a_mutant_table_fails_proper_and_complete(monkeypatch, name, gamma):
    # The checks read the Born tables, so a broken protocol is a broken table:
    # here a sin or a cos term where the embedded profiles have none.
    cfg = EwlConfig(prisoners_dilemma(), gamma)
    assert exact_embedding() and check_proper(cfg) and check_complete(cfg) == (True, 0.0)
    monkeypatch.setattr(ewl, name, _mutant(getattr(ewl, name)))
    assert not exact_embedding()
    assert not check_proper(cfg)
    ok, gap = check_complete(cfg)
    assert not ok and gap > 0.1


def _grid_complete_gap(config, steps, embed):
    """Oracle for ``check_complete``: the worst payoff gap between g_q of the
    (p, q) embedded by ``embed`` (the ``classical_unitary`` fixture) and the
    mixed extension over a (steps+1)^2 grid."""
    worst = 0.0
    for i in range(steps + 1):
        for j in range(steps + 1):
            p, q = i / steps, j / steps
            quantized = g_q(config, embed(p), embed(q))
            mixed = g_mix(config.game, MixedProfile.from_weights((p, 1 - p), (q, 1 - q)))
            worst = max(worst, *(abs(a - float(b)) for a, b in zip(quantized, mixed)))
    return worst


ORACLE_GAMMAS = (0.0, 0.7, MAX_GAMMA)


def test_check_complete(classical_unitary):
    for game in GAMES:
        for gamma in ORACLE_GAMMAS:
            cfg = EwlConfig(game, gamma)
            ok, gap = check_complete(cfg)
            assert ok and gap < 1e-12
            assert _grid_complete_gap(cfg, 10, classical_unitary) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=8, max_size=8), st.sampled_from(ORACLE_GAMMAS))
def test_check_complete_agrees_with_grid_on_integer_games(classical_unitary, values, gamma):
    from qgames.games import Game

    cells = [tuple(values[k : k + 2]) for k in range(0, 8, 2)]
    cfg = EwlConfig(Game((("a", "b"), ("c", "d")), ((cells[0], cells[1]), (cells[2], cells[3]))), gamma)
    ok, gap = check_complete(cfg)
    assert ok and gap < 1e-12
    assert _grid_complete_gap(cfg, 4, classical_unitary) < 1e-9


def _non_commuting_entangler(gamma):
    """c I + i s (X tensor I): unitary, but it does not commute with F tensor I."""
    c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    return c * np.eye(4, dtype=complex) + 1j * s * np.kron(x, np.eye(2))


def test_the_g_q_oracles_catch_a_non_commuting_entangler(classical_unitary, monkeypatch):
    # Through the literal protocol, embedded play no longer reproduces the
    # game or its mixed extension.
    monkeypatch.setattr(ewl, "entangler", _non_commuting_entangler)
    cfg = EwlConfig(prisoners_dilemma(), 0.9)
    assert not _proper_by_g_q(cfg)
    assert _grid_complete_gap(cfg, 10, classical_unitary) > 1.0


def test_classical_unitary_endpoints(classical_unitary):
    assert np.allclose(classical_unitary(1.0).matrix, np.eye(2), atol=1e-12)
    assert np.allclose(classical_unitary(0.0).matrix, FLIP2.matrix, atol=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.85, 1.0])
def test_classical_unitary_is_sqrt_weights_of_identity_and_flip(classical_unitary, p):
    literal = math.sqrt(p) * IDENTITY2.matrix + math.sqrt(1 - p) * FLIP2.matrix
    assert np.array_equal(classical_unitary(p).matrix, literal)
    # The same rotation as the one-parameter strategy su2(theta, 0, 0).
    angle = su2_from_angles(2.0 * math.acos(math.sqrt(p)), 0.0, 0.0).matrix
    assert np.abs(classical_unitary(p).matrix - angle).max() < 1e-15


def test_completeness_matches_g_mix_pointwise(classical_unitary):
    cfg = EwlConfig(chicken(), MAX_GAMMA)
    p, q = 0.3, 0.85
    quantized = g_q(cfg, classical_unitary(p), classical_unitary(q))
    mixed = g_mix(chicken(), MixedProfile.from_weights((p, 1 - p), (q, 1 - q)))
    assert max(abs(a - float(b)) for a, b in zip(quantized, mixed)) < 1e-12


def test_g_mq_point_masses_equal_g_q(haar_su2, point_mixture):
    cfg = EwlConfig(chicken(), 0.9)
    u, v = haar_su2(60, 0), haar_su2(61, 0)
    pay = g_mq(cfg, point_mixture(u), point_mixture(v))
    assert np.allclose(pay, g_q(cfg, u, v), atol=1e-12)


def test_g_mq_finite_mixture_is_exact_average(haar_su2, point_mixture):
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    u0, u1 = haar_su2(62, 0), haar_su2(62, 1)
    mix = Dist((u0, u1), (F(1, 4), F(3, 4)))
    pay = g_mq(cfg, mix, point_mixture(IDENTITY2))
    direct = 0.25 * np.array(g_q(cfg, u0, IDENTITY2)) + 0.75 * np.array(g_q(cfg, u1, IDENTITY2))
    assert np.allclose(pay, direct, atol=1e-12)


def _weighted_sums(cfg, mA, mB):
    """Payoffs and cell probabilities of two finite mixtures, one scalar g_q
    and one Born-rule measurement per pair of support elements."""
    pay, cells = np.zeros(2), np.zeros(4)
    for u, wu in mA.items():
        for v, wv in mB.items():
            pay += float(wu * wv) * np.array(g_q(cfg, u, v))
            d = measure(protocol_state(cfg, u, v))
            cells += float(wu * wv) * np.array(d.weights)
    return pay, cells


def test_finite_mixtures_match_scalar_sums(finite_mixtures, born_pass):
    # Supports of 2 and 3 unitaries in both orders: the Gram form against
    # scalar g_q sums, and against one Born pass over every pair of support
    # elements summed with their weights.
    mix_a, mix_b = finite_mixtures
    for game in GAMES:
        for gamma in KERNEL_GAMMAS:
            cfg = EwlConfig(game, gamma)
            for mA, mB in ((mix_a, mix_b), (mix_b, mix_a)):
                pay, dist = g_mq(cfg, mA, mB), outcome_dist_mq(cfg, mA, mB)
                pay_direct, cells_direct = _weighted_sums(cfg, mA, mB)
                assert np.abs(np.array(pay) - pay_direct).max() < 1e-12
                assert np.abs(np.array(dist.weights) - cells_direct).max() < 1e-12
                cells = born_pass(cfg, mA, mB)[0]
                assert np.abs(np.array(dist.weights) - cells).max() <= 1e-15
                assert np.abs(np.array(pay) - cells @ cfg.payoff_table()).max() <= 1e-15


def test_haar_against_finite_support_matches_scalar_sums(finite_mixtures, four_units):
    # Haar play is exactly the uniform mixture over the four quaternion
    # units: scalar g_q and the Born rule summed over four units x support.
    _, mix_b = finite_mixtures
    for gamma in (0.0, 0.7, MAX_GAMMA):
        cfg = EwlConfig(chicken(), gamma)
        for (mA, mB), units in (((HAAR, mix_b), (four_units, mix_b)), ((mix_b, HAAR), (mix_b, four_units))):
            pay_direct, cells_direct = _weighted_sums(cfg, *units)
            assert np.abs(np.array(g_mq(cfg, mA, mB)) - pay_direct).max() < 1e-12
            assert np.abs(np.array(outcome_dist_mq(cfg, mA, mB).weights) - cells_direct).max() < 1e-12


@pytest.mark.parametrize("gamma", KERNEL_GAMMAS)
@pytest.mark.parametrize("game", GAMES, ids=lambda g: g.name)
def test_haar_plays_as_the_four_unit_design(game, gamma, finite_mixtures, four_units, born_pass):
    # The Gram matrix of the uniform mixture over {1, i, j, k} is I/4, Haar's:
    # every profile with a Haar slot pays exactly what it pays with the four
    # units there, by the Gram form and by the Born pass over the units.
    assert (moment(four_units) == QUARTER_IDENTITY).all()
    cfg = EwlConfig(game, gamma)
    mix = finite_mixtures[1]
    for profile, design in (
        ((HAAR, HAAR), (four_units, four_units)),
        ((HAAR, mix), (four_units, mix)),
        ((mix, HAAR), (mix, four_units)),
    ):
        cells = born_pass(cfg, *design)[0]
        for m in (profile, design):
            assert np.abs(np.array(outcome_dist_mq(cfg, *m).weights) - cells).max() <= 1e-15
            assert np.abs(np.array(g_mq(cfg, *m)) - cells @ cfg.payoff_table()).max() <= 1e-15
        assert g_mq(cfg, *profile) == g_mq(cfg, *design)


def test_g_mq_haar_values():
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    assert g_mq(cfg, HAAR, HAAR) == (2.25, 2.25)
    estimate = haar_estimate(cfg, 70, 40000)
    assert all(abs(p - 2.25) < 0.03 for p in estimate["payoff"])
    assert all(0 < se < 0.01 for se in estimate["payoff_se"])

    poker = EwlConfig(simplified_poker(), MAX_GAMMA)
    assert g_mq(poker, HAAR, HAAR) == (15 / 16, -15 / 16)
    pay = haar_estimate(poker, 71, 40000)["payoff"]
    assert abs(pay[0] - 15 / 16) < 0.03
    assert abs(pay[0] + pay[1]) < 1e-12  # zero-sum structure survives


def test_g_mq_deterministic():
    cfg = EwlConfig(chicken(), MAX_GAMMA)
    assert g_mq(cfg, HAAR, HAAR) == g_mq(cfg, HAAR, HAAR)
    assert haar_estimate(cfg, 72, 5000) == haar_estimate(cfg, 72, 5000)


def test_outcome_dist_point_mass(point_mixture, prob):
    cfg = EwlConfig(prisoners_dilemma(), 0.4)
    dist = outcome_dist_mq(cfg, point_mixture(IDENTITY2), point_mixture(IDENTITY2))
    assert prob(dist, (0, 0)) > 1 - 1e-12
    assert min(dist.weights) >= 0.0  # zero cells may round below 0 before clipping


def test_outcome_dist_haar_uniform():
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    assert max(abs(w - 0.25) for w in outcome_dist_mq(cfg, HAAR, HAAR).weights) <= 1e-15
    estimate = haar_estimate(cfg, 73, 50000)
    assert max(abs(w - 0.25) for w in estimate["outcome_probs"]) < 0.015
    assert all(0 < x < 0.01 for x in estimate["outcome_se"])


def test_outcome_dist_one_sided_haar_uniform(point_mixture):
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    fixed = point_mixture(su2_from_angles(0.77, 1.9, 5.1))
    dist = outcome_dist_mq(cfg, HAAR, fixed)
    assert max(abs(w - 0.25) for w in dist.weights) <= 1e-15


def test_haar_draws_disjoint_slots():
    a = haar_draws(80, 0, 0, 16)
    b = haar_draws(80, 1, 0, 16)
    assert not np.allclose(a, b)


def test_scan_payoffs_matches_direct_average(su2_matrices):
    grid = su2_grid(3)
    draws = haar_draws(81, 1, 0, 400)
    for gamma in (0.7, MAX_GAMMA):
        cfg = EwlConfig(chicken(), gamma)
        for slot, player in ((0, 0), (0, 1), (1, 0), (1, 1)):
            opponent = draws.T @ draws / len(draws)
            fast = scan_payoffs(cfg, slot, grid, opponent, cfg.payoff_table()[:, player])
            direct = np.empty(len(grid))
            for k, u in enumerate(grid):
                rep = np.broadcast_to(u, (400, 2, 2))
                pair = (rep, su2_matrices(draws)) if slot == 0 else (su2_matrices(draws), rep)
                direct[k] = batch_payoffs(cfg, *pair)[:, player].mean()
            assert np.abs(fast - direct).max() < 1e-12


def test_haar_estimates_match_per_sample_formulas(haar_su2):
    # Mean and standard error of the mean, from scalar g_q and the Born rule
    # on each Haar pair, against the vectorized estimators.
    cfg = EwlConfig(chicken(), 0.9)
    n, seed = 300, 83
    pays, cells = [], []
    for j in range(n):
        u, v = haar_su2(seed, 2 * j), haar_su2(seed, 2 * j + 1)
        pays.append(g_q(cfg, u, v))
        d = measure(protocol_state(cfg, u, v))
        cells.append(d.weights)

    def mean_se(column):
        return statistics.fmean(column), statistics.stdev(column) / math.sqrt(len(column))

    estimate = haar_estimate(cfg, seed, n)
    for k in range(2):
        mean, se = mean_se([p[k] for p in pays])
        assert abs(estimate["payoff"][k] - mean) < 1e-12 and abs(estimate["payoff_se"][k] - se) < 1e-12
    for k in range(4):
        mean, se = mean_se([c[k] for c in cells])
        assert abs(estimate["outcome_probs"][k] - mean) < 1e-12
        assert abs(estimate["outcome_se"][k] - se) < 1e-12


def test_shared_draws_give_the_same_estimates():
    # The payoff and the cell estimates read one Born pass over one set of
    # draws.
    cfg = EwlConfig(prisoners_dilemma(), 0.5)
    cells = cell_moments(cfg, 84, 500)
    estimate = haar_estimate(cfg, 84, 500)
    assert cells.n == 500
    assert estimate["payoff"] == (cells.mean @ cfg.payoff_table()).tolist()
    probs = np.array(estimate["outcome_probs"])
    assert np.abs(probs @ cfg.payoff_table() - estimate["payoff"]).max() < 1e-12


def test_sample_payoffs_at(su2_matrices):
    cfg = EwlConfig(simplified_poker(), MAX_GAMMA)
    draws = haar_draws(82, 1, 0, 300)
    pay = sample_payoffs_at(cfg, 0, np.eye(2, dtype=complex), draws, 0)
    assert pay.shape == (300,)
    identities = np.broadcast_to(np.eye(2, dtype=complex), (300, 2, 2))
    direct = batch_payoffs(cfg, identities, su2_matrices(draws))[:, 0]
    assert np.allclose(pay, direct)


QUARTER_IDENTITY = np.eye(4) / 4

# vec(u) = K q: the row-major entries of the SU(2) unitary of unit quaternion q.
K = np.array([[1, 1j, 0, 0], [0, 0, 1, 1j], [0, 0, -1, 1j], [1, -1j, 0, 0]])


def test_haar_moment_is_quarter_identity_without_draws(haar_batches):
    assert (moment(HAAR) == QUARTER_IDENTITY).all()
    assert haar_batches == []


def test_haar_is_one_measure_with_no_parameter():
    # A seed and a sample count belong to the estimate (haar_estimate), not
    # to the measure.
    assert dataclasses.fields(HaarMixture) == () and HaarMixture() == HAAR


def test_sampled_haar_moment_within_hoeffding_bound():
    # Each of the 16 entries of q q^T lies in an interval of length 1:
    # q_i^2 in [0, 1] and q_i q_j in [-1/2, 1/2].  Hoeffding over 16 entries
    # x 2 slots at total failure chance 1e-9:
    # |mean - I/4| <= sqrt(ln(2 * 32 / 1e-9) / (2 n)).
    n = 50_000
    bound = math.sqrt(math.log(2 * 32 / 1e-9) / (2 * n))
    for slot in (0, 1):
        draws = haar_draws(11, slot, 0, n)
        sampled = draws.T @ draws / n
        assert sampled.dtype == float
        assert np.abs(sampled - QUARTER_IDENTITY).max() <= bound


def test_dist_moment_is_weighted_gram_of_its_stack(finite_mixtures):
    for mix in finite_mixtures:
        gram = sum(float(w) * np.outer(u.quaternion, u.quaternion) for u, w in mix.items())
        assert np.abs(moment(mix) - gram).max() < 1e-15
        # The complex second moment E[vec(u) vec(u)^dagger] of the phased
        # matrices themselves is K Y K^dagger: no moment sees a global phase.
        complex_moment = sum(
            float(w) * np.outer(u.matrix.reshape(4), u.matrix.reshape(4).conj())
            for u, w in mix.items()
        )
        assert np.abs(K @ moment(mix) @ K.conj().T - complex_moment).max() < 1e-15


def test_one_sided_cell_forms_are_constant_only_at_max_entanglement(su2_matrices):
    fixed = su2_matrices(haar_su2_batch(3 ^ 0x5EED, np.arange(20)))  # paper-check's 20 opponents at seed 3
    for slot in (0, 1):
        cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
        for cell in np.eye(4):
            form = unitary_form(cfg, slot, QUARTER_IDENTITY, cell)
            assert np.abs(form - np.eye(4) / 4).max() < 1e-15
        # Away from pi/2 one-sided Haar play is not uniform: the moment is
        # the same I/4, so a constant answer would not come from it.
        cfg = EwlConfig(prisoners_dilemma(), 0.7)
        worst = max(
            np.abs(scan_payoffs(cfg, slot, fixed, QUARTER_IDENTITY, cell) - 0.25).max()
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
        scan = scan_payoffs(cfg, slot, grid, QUARTER_IDENTITY, cfg.payoff_table()[:, 0])
        assert scan.shape == (512,)
        assert np.abs(scan - value).max() < 1e-12


@pytest.mark.parametrize("gamma", ELEVEN_GAMMAS)
def test_tables_give_the_protocol_amplitudes(haar_su2, gamma):
    # x^T born_matrix for x = q_A kron q_B against the literal
    # <J c | (uA kron uB) J |00>, for SU(2) unitaries in both slots.
    cfg = EwlConfig(chicken(), gamma)
    born = born_matrix(cfg)
    for k in range(20):
        ua, ub = haar_su2(95, k), haar_su2(96, k)
        parts = np.kron(ua.quaternion, ub.quaternion) @ born
        amplitudes = parts[0::2] + 1j * parts[1::2]
        assert np.abs(amplitudes - protocol_state(cfg, ua, ub).vector).max() <= 1e-15


@pytest.mark.parametrize("gamma", ELEVEN_GAMMAS)
def test_one_sided_cell_forms_give_the_protocol_probabilities(haar_su2, point_mixture, gamma):
    # Against a point opponent v, the cell form of u in either slot is
    # |<J c | (u kron v) J |00>|^2, or (v kron u) in slot 1.
    cfg = EwlConfig(chicken(), gamma)
    for k in range(10):
        u, v = haar_su2(97, k), haar_su2(98, k)
        y = moment(point_mixture(v))
        for slot in (0, 1):
            pair = (u, v) if slot == 0 else (v, u)
            probs = np.abs(protocol_state(cfg, *pair).vector) ** 2
            for cell, p in zip(np.eye(4), probs):
                r = unitary_form(cfg, slot, y, cell)
                assert abs(u.quaternion @ r @ u.quaternion - p) <= 1e-15


def test_unitary_form_matches_the_born_pass_and_the_complex_oracle(haar_su2, finite_mixtures):
    # A finite opponent at an intermediate gamma, the form against the
    # per-sample Born pass and the complex ``probs_batch`` summed over the
    # opponent's support, for both slots and both payoff columns.
    cfg = EwlConfig(chicken(), 0.7)
    units = [haar_su2(99, k) for k in range(10)]
    for slot, opponent in enumerate(reversed(finite_mixtures)):
        quaternions = np.stack([v.quaternion for v in opponent.support])
        weights = np.array([float(w) for w in opponent.weights])
        others = np.stack([v.matrix for v in opponent.support])
        for player in (0, 1):
            r = unitary_form(cfg, slot, moment(opponent), cfg.payoff_table()[:, player])
            for u in units:
                form = u.quaternion @ r @ u.quaternion
                born = sample_payoffs_at(cfg, slot, u.matrix, quaternions, player)
                mine = np.broadcast_to(u.matrix, others.shape)
                pair = (mine, others) if slot == 0 else (others, mine)
                oracle = batch_payoffs(cfg, *pair)[:, player] @ weights
                assert born.shape == (len(weights),)
                assert abs(form - born @ weights) <= 1e-14 and abs(form - oracle) <= 1e-14
