"""The result-verification suite behind the ``paper-check`` CLI command.

Each check re-derives one headline claim about the built-in games from
this package's own machinery and states a pass/fail verdict with the
numbers that produced it.  Exact claims are checked in rational arithmetic;
Monte-Carlo claims are judged within stated Hoeffding half-widths.  Given
the same seed and sample count, the whole report is deterministic down to
the byte.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import Dist, MixedProfile, embed_pure, g_mix, product, realizable
from .equilibria import deviation_gain, mixed_nash_2x2, payoff_range, security_level
from .ewl import MAX_GAMMA, EwlConfig, HaarMixture, check_complete, check_proper
from .ewl import g_mq, moment, outcome_dist_mq, unitary_form
from .games import BUILTIN_GAMES, chicken, prisoners_dilemma, pure_nash_all, simplified_poker
from .mediated import ResponseRule, aumann_check, embed_f, g_com, is_correlated_eq
from .mediated import obedience_constraints, referee_dist
from .numeric import scalar_to_json
from .quantum import born_rule, haar_su2_batch, standard_normals, uniforms

# Largest entry distance from a multiple of I at which checks 7 and 8 call a
# cell or payoff form exact.  The forms are sums of products of table and
# Gram entries of size at most 1, times payoffs of size at most 5, so float
# rounding leaves them within about 1e-15 of exact.
FORM_TOL = 1e-12

# The Haar strategy of checks 7 and 8 where it enters through ``moment``,
# which reads any HaarMixture as I/4: its seed and sample count are unused.
HAAR = HaarMixture(0, 2)


def _inputs(check: int, count: int) -> np.ndarray:
    """Positions check * 2^60 + i, i < count, of the report seed's stream,
    where checks 3 to 6 draw their inputs.  Haar sample index i reads
    positions 4i to 4i + 3, and a report's Haar indices stay below
    2 * MAX_SAMPLES + 2 (``cli``), far from 2^60: no Haar estimate reads these
    positions, and the inputs do not move with the sample count."""
    return np.uint64(check << 60) + np.arange(count, dtype=np.uint64)


def hoeffding(spread: float, n: int, k: int) -> float:
    """Half-width that k means of n i.i.d. samples of range ``spread`` all
    stay within, with chance 1 - 1e-9 (Hoeffding's inequality, union bound)."""
    return spread * math.sqrt(math.log(2 * k / 1e-9) / (2 * n))


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_pure_nash(samples: int, seed: int) -> CheckResult:
    expected = {"pd": [(1, 1)], "chicken": [(0, 1), (1, 0)], "poker": []}
    found = {name: pure_nash_all(make()) for name, make in BUILTIN_GAMES.items()}
    passed = found == expected
    return CheckResult(
        1,
        "classical-pure-nash",
        passed,
        "pure equilibria of the three builtin games, exact enumeration",
        {name: [list(p) for p in profiles] for name, profiles in found.items()},
    )


def check_mixed_nash(samples: int, seed: int) -> CheckResult:
    poker = simplified_poker()
    chick = chicken()
    ok = True
    data: dict = {}

    poker_eqs = [e for e in mixed_nash_2x2(poker) if not e.note.startswith("pure")]
    ok &= len(poker_eqs) == 1
    if poker_eqs:
        eq = poker_eqs[0]
        third = Fraction(1, 3)
        two_thirds = Fraction(2, 3)
        ok &= eq.profile.row.weights == (two_thirds, third)
        ok &= eq.profile.col.weights == (two_thirds, third)
        ok &= eq.payoff == (Fraction(5, 6), Fraction(-5, 6))
        data["poker_value"] = scalar_to_json(eq.payoff[0])
        data["poker_row"] = [scalar_to_json(w) for w in eq.profile.row.weights]

    chick_eqs = [e for e in mixed_nash_2x2(chick) if e.note == "fully mixed"]
    ok &= len(chick_eqs) == 1 and chick_eqs[0].payoff == (Fraction(1), Fraction(1))
    if chick_eqs:
        data["chicken_mixed_payoff"] = [scalar_to_json(v) for v in chick_eqs[0].payoff]
    return CheckResult(
        2,
        "classical-mixed-nash",
        bool(ok),
        "poker mixed equilibrium ((2/3,1/3),(2/3,1/3)) worth 5/6; chicken mixed pays (1,1)",
        data,
    )


def _integer_rows(rows) -> np.ndarray:
    """Rows of exact scalars, each scaled by the lcm of its denominators, as
    float64 integers.  The product of a row with integer cell counts, read
    as the referee counts / sum(counts), is a positive multiple of its value
    at that referee, and exact while below 2^53, as float64 holds it."""
    rows = [[Fraction(c) for c in row] for row in rows]
    scales = [math.lcm(*(c.denominator for c in row)) for row in rows]
    return np.array([[int(c * k) for c in row] for row, k in zip(rows, scales)], dtype=float)


def _obeys(game, counts: np.ndarray) -> np.ndarray:
    """Which rows of nonnegative integer cell counts, each read as a referee,
    meet every obedience inequality (``_integer_rows``)."""
    rows = _integer_rows(coeffs for coeffs, *_ in obedience_constraints(game))
    return (counts @ rows.T >= 0).all(axis=1)


def _unconditional_gaps(game, counts: np.ndarray) -> np.ndarray:
    """Per row of positive integer cell counts, each read as a referee rho
    (``_integer_rows``), and per profile (i, j) and player p: a positive
    multiple of g_com(game, rho, embed_f(i), embed_f(j))[p] minus
    game.payoff((i, j))[p], shape (referees, 8).  A referee reproduces the
    game exactly where its row is 0."""
    cells = game.profiles()
    columns = []
    for i, j in cells:
        paid = [game.payoff((embed_f(i).respond(a), embed_f(j).respond(b))) for a, b in cells]
        for p in (0, 1):
            columns.append([Fraction(u[p]) - Fraction(game.payoff((i, j))[p]) for u in paid])
    return counts @ _integer_rows(columns).T


def check_correlated(samples: int, seed: int) -> CheckResult:
    chick = chicken()
    pd = prisoners_dilemma()
    third = Fraction(1, 3)
    rho = referee_dist(chick, (third, third, third, Fraction(0)))
    ce_ok, worst = is_correlated_eq(chick, rho)
    aumann_ok, _ = aumann_check(chick, rho)
    value = g_com(chick, rho, ResponseRule.FOLLOW, ResponseRule.FOLLOW)
    ok = ce_ok and aumann_ok and value == (Fraction(5, 3), Fraction(5, 3))

    trials = 1000
    # Weights 0 to 99 per cell; a referee all on the equilibrium cell gets 1 on cell 0.
    draws = np.ceil(100 * uniforms(seed, _inputs(3, 4 * trials))).reshape(trials, 4) - 1
    draws[:, 0] += draws[:, :3].sum(axis=1) == 0
    rejected = int(trials - _obeys(pd, draws).sum())
    point = referee_dist(pd, (0, 0, 0, 1))
    point_ok = is_correlated_eq(pd, point)[0] and aumann_check(pd, point)[0]
    ok = ok and rejected == trials and point_ok
    return CheckResult(
        3,
        "correlated-equilibrium",
        bool(ok),
        "chicken 1/3-referee passes both oracles at (5/3,5/3); pd rejects all off-NE referees",
        {
            "chicken_value": [scalar_to_json(v) for v in value],
            "chicken_worst_gain": scalar_to_json(worst),
            "pd_rejected": rejected,
            "pd_trials": trials,
            "pd_point_mass_ok": point_ok,
        },
    )


def check_realizability(samples: int, seed: int) -> CheckResult:
    pd = prisoners_dilemma()
    half = Fraction(1, 2)
    anti = referee_dist(pd, (half, 0, 0, half))
    anti_ok, witness = realizable(pd, anti)
    ok = not anti_ok and witness is None

    worst_err = 0.0
    recovered = 0
    trials = 100
    for p, q in (0.05 + 0.9 * uniforms(seed, _inputs(4, 2 * trials))).reshape(trials, 2).tolist():
        target = product(Dist((0, 1), (p, 1 - p)), Dist((0, 1), (q, 1 - q)))
        found, wit = realizable(pd, target)
        if found:
            err = max(abs(wit[0] - p), abs(wit[1] - q))
            worst_err = max(worst_err, err)
            if err <= 1e-6:
                recovered += 1
    ok = ok and recovered == trials
    return CheckResult(
        4,
        "product-realizability",
        bool(ok),
        "anti-diagonal half-half target unreachable by independent mixing; random products recovered",
        {
            "anti_diagonal_realizable": bool(anti_ok),
            "recovered": recovered,
            "trials": trials,
            "worst_witness_error": float(worst_err),
        },
    )


def check_diagrams(samples: int, seed: int) -> CheckResult:
    games = [make() for make in BUILTIN_GAMES.values()]
    # Mixed extension restricted to point masses reproduces the game, exactly.
    ok = all(
        g_mix(game, MixedProfile(embed_pure(i, 2), embed_pure(j, 2))) == game.payoff((i, j))
        for game in games
        for i, j in game.profiles()
    )
    # Mediated game restricted to unconditional rules reproduces the game,
    # for 50 random referee distributions with integer weights 1 to 50.
    draws = np.ceil(50 * uniforms(seed, _inputs(5, 4 * 50))).reshape(50, 4)
    ok &= not _unconditional_gaps(prisoners_dilemma(), draws).any()
    # Quantization is proper and complete at 11 entanglement values.
    configs = [EwlConfig(game, MAX_GAMMA * k / 10) for game in games for k in range(11)]
    proper_all = all(check_proper(config) for config in configs)
    complete = [check_complete(config) for config in configs]
    complete_worst = max(gap for _, gap in complete)
    ok = ok and proper_all and all(passed for passed, _ in complete)
    return CheckResult(
        5,
        "extension-diagrams",
        bool(ok),
        "point-mass, referee, and quantization embeddings all reproduce the base game",
        {"proper_all_gammas": bool(proper_all), "complete_worst_gap": float(complete_worst)},
    )


def check_born_rule(samples: int, seed: int) -> CheckResult:
    # Six normals per trial, two amplitudes and a scale.  Six lanes at index
    # 2^60 + i read positions 6 * 2^60 + 6i to 6 * 2^60 + 6i + 5: _inputs(6, 6000).
    normals = standard_normals(seed, np.uint64(1 << 60) + np.arange(1000, dtype=np.uint64), 6)
    # Lanes (2k, 2k + 1) are the real and imaginary parts of complex k.
    z = np.ascontiguousarray(normals).view(complex)
    amps, scale = z[:, :2], z[:, 2:]
    amps[np.abs(amps).max(axis=1) < 1e-6, 0] = 1.0
    scale[np.abs(scale) < 1e-6] = 1.0
    # Superposition.norm's numpy norm, along each state.
    unit = amps / np.linalg.norm(amps, axis=1, keepdims=True)
    worst_norm = np.abs(np.linalg.norm(unit, axis=1) - 1.0).max()
    # All 1000 states through the Born rule that ``measure`` runs, at once.
    measured = born_rule(amps)
    worst_scale = np.abs(born_rule(scale * amps) - measured).max()
    # The formula with |a| from np.hypot, a routine apart from the numpy
    # absolute value that ``born_rule`` runs.
    squares = np.hypot(amps.real, amps.imag) ** 2
    expected = squares / squares.sum(axis=1, keepdims=True)
    worst_formula = np.abs(measured - expected).max()
    ok = max(worst_norm, worst_scale, worst_formula) <= 1e-12
    return CheckResult(
        6,
        "born-rule",
        bool(ok),
        "normalization, scale invariance, and the two-term measurement formula on 1000 states",
        {
            "worst_normalization": float(worst_norm),
            "worst_scale_invariance": float(worst_scale),
            "worst_two_term_formula": float(worst_formula),
        },
    )


def check_haar_uniformity(samples: int, seed: int) -> CheckResult:
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    # Sampler test: Haar against Haar on seed + 1, a stream that check 10 (on
    # seed) does not draw, so its estimate is independent of check 10's.
    both, _ = outcome_dist_mq(cfg, HaarMixture(seed + 1, samples), HaarMixture(seed + 1, samples))
    both_worst = max(abs(w - 0.25) for w in both.weights)
    both_tol = hoeffding(1.0, samples, 4)
    # One-sided play reads the Haar side through its exact moment I/4, so
    # each cell is a form q^T R q in the opponent's unit quaternion q, and
    # R = I/4 puts it at exactly 1/4 against every opponent.  With
    # R = I/4 + E, |q^T E q| <= |E|_2 <= 4 max |E_ij|: each of the 20 fixed
    # opponents lies within 4 * FORM_TOL of 1/4, half of 8 * FORM_TOL.
    haar = moment(HAAR)
    forms = [unitary_form(cfg, 1, haar, cell) for cell in np.eye(4)]
    form_error = max(float(np.abs(r - np.eye(4) / 4).max()) for r in forms)
    fixed = haar_su2_batch(seed ^ 0x5EED, np.arange(20))
    one_sided_worst = max(float(np.abs(((fixed @ r) * fixed).sum(axis=1) - 0.25).max()) for r in forms)
    one_sided_tol = 8 * FORM_TOL
    ok = both_worst <= both_tol and one_sided_worst <= one_sided_tol and form_error <= FORM_TOL
    return CheckResult(
        7,
        "haar-uniformity",
        bool(ok),
        f"maximally entangled Haar play: one-sided cells exactly 1/4, Haar x Haar within {both_tol:.2g} of 1/4",
        {
            "samples": samples,
            "worst_cell_error_both_haar": float(both_worst),
            "both_haar_tolerance": both_tol,
            "worst_cell_error_one_sided": float(one_sided_worst),
            "one_sided_tolerance": one_sided_tol,
            "fixed_opponents": 20,
            "one_sided_form_error": form_error,
        },
    )


def check_quantum_equilibrium(samples: int, seed: int) -> CheckResult:
    pd = prisoners_dilemma()
    poker = simplified_poker()
    # Against a Haar opponent a unitary of unit quaternion q is paid q^T R q,
    # R the form of check 7 with the player's payoff column, and Haar against
    # Haar pays tr(R)/4.  With R = (9/4) I + E, q is paid within
    # |E|_2 <= 4 * form_error of 9/4 and the Haar mean within form_error, so
    # the payoff lies within 8 * FORM_TOL of 9/4 and no unitary deviation
    # gains more than 5 * form_error <= 16 * FORM_TOL.  The largest gain
    # itself is the spectral one that ``verify`` reports.
    haar = moment(HAAR)
    cfg_pd = EwlConfig(pd, MAX_GAMMA)
    table = cfg_pd.payoff_table()
    pd_forms = [unitary_form(cfg_pd, p, haar, table[:, p]) for p in (0, 1)]
    pd_form_error = max(float(np.abs(r - np.eye(4) * 9 / 4).max()) for r in pd_forms)
    pd_payoff = [float(np.trace(r)) / 4 for r in pd_forms]
    pd_gain = max(deviation_gain(cfg_pd, p, HAAR, HAAR)[0] for p in (0, 1))
    pd_payoff_tol, pd_gain_tol = 8 * FORM_TOL, 16 * FORM_TOL
    pd_certified = pd_gain <= pd_gain_tol
    ok = pd_form_error <= FORM_TOL and pd_certified
    ok = ok and max(abs(v - 2.25) for v in pd_payoff) <= pd_payoff_tol

    # Against Haar play an opponent of unit quaternion q leaves poker's form
    # q^T R q; R = (15/16) I puts every opponent at 15/16, and the least and
    # the greatest payoff (``payoff_range``) within 4 * form_error of it.
    cfg_poker = EwlConfig(poker, MAX_GAMMA)
    poker_column = cfg_poker.payoff_table()[:, 0]
    poker_form = unitary_form(cfg_poker, 1, haar, poker_column)
    poker_form_error = float(np.abs(poker_form - np.eye(4) * 15 / 16).max())
    quantum_floor, poker_top = payoff_range(cfg_poker, 0, HAAR)
    spread = poker_top - quantum_floor
    ok = ok and poker_form_error <= FORM_TOL
    ok = ok and abs(quantum_floor - 15.0 / 16.0) <= 8 * FORM_TOL and spread <= 16 * FORM_TOL

    classical_pd_payoff = float(pd.payoff((1, 1))[0])
    poker_eq = [e for e in mixed_nash_2x2(poker) if not e.note.startswith("pure")][0]
    classical_floor = security_level(poker, 0, poker_eq.profile.row)
    ok = ok and min(pd_payoff) > classical_pd_payoff
    ok = ok and quantum_floor > float(classical_floor)
    return CheckResult(
        8,
        "quantum-equilibrium",
        bool(ok),
        "uniform quantum mixing is an equilibrium that beats the classical benchmarks"
        f" (exact Haar forms, within {pd_payoff_tol:.2g})",
        {
            "pd_payoff": pd_payoff,
            "pd_payoff_tolerance": pd_payoff_tol,
            "pd_max_gain": pd_gain,
            "pd_gain_tolerance": pd_gain_tol,
            "pd_epsilon": 16 * pd_form_error,
            "pd_certified": pd_certified,
            "pd_form_error": pd_form_error,
            "poker_security": quantum_floor,
            "poker_scan_spread": spread,
            "poker_form_error": poker_form_error,
            "pd_classical_ne_payoff": classical_pd_payoff,
            "poker_classical_security": scalar_to_json(classical_floor),
        },
    )


def check_ce_novelty(samples: int, seed: int) -> CheckResult:
    pd = prisoners_dilemma()
    quarter = Fraction(1, 4)
    uniform = referee_dist(pd, (quarter,) * 4)
    ok_aumann, violations = aumann_check(pd, uniform)
    passed = not ok_aumann and len(violations) > 0
    return CheckResult(
        9,
        "ce-novelty",
        bool(passed),
        "the uniform cell distribution is not a correlated equilibrium of the dilemma",
        {
            "is_correlated_equilibrium": bool(ok_aumann),
            "violated_constraints": len(violations),
        },
    )


def check_determinism(samples: int, seed: int) -> CheckResult:
    cfg = EwlConfig(prisoners_dilemma(), MAX_GAMMA)
    n = min(samples, 20000)
    first = g_mq(cfg, HaarMixture(seed, n), HaarMixture(seed, n))
    second = g_mq(cfg, HaarMixture(seed, n), HaarMixture(seed, n))
    draws_a = haar_su2_batch(seed, np.arange(64))
    draws_b = haar_su2_batch(seed, np.arange(64))
    ok = first == second and bool((draws_a == draws_b).all())
    return CheckResult(
        10,
        "determinism",
        bool(ok),
        "identical seeds reproduce identical draws and identical Monte-Carlo payoffs",
        {"payoff": [float(v) for v in first[0]], "replayed_samples": n},
    )


ALL_CHECKS = [
    check_pure_nash,
    check_mixed_nash,
    check_correlated,
    check_realizability,
    check_diagrams,
    check_born_rule,
    check_haar_uniformity,
    check_quantum_equilibrium,
    check_ce_novelty,
    check_determinism,
]


def run_paper_check(samples: int = 200000, seed: int = 42) -> list[CheckResult]:
    """Run every verification check; deterministic for fixed (samples, seed)."""
    return [fn(samples, seed) for fn in ALL_CHECKS]
