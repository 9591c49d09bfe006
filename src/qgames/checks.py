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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import Dist, MixedProfile, embed_pure, g_mix, product, realizable
from .equilibria import mixed_nash_2x2, security_level, security_scan, verify_quantum_eq
from .ewl import (
    MAX_GAMMA,
    EwlConfig,
    HaarMixture,
    cell_form,
    check_complete,
    check_proper,
    g_mq,
    moment,
    outcome_dist_mq,
    scan_payoffs,
)
from .games import BUILTIN_GAMES, chicken, prisoners_dilemma, pure_nash_all, simplified_poker
from .mediated import ResponseRule, aumann_check, g_com, is_correlated_eq, referee_dist
from .numeric import scalar_to_json
from .quantum import Superposition, haar_su2_batch, measure, normalize

# Largest entry distance from a multiple of I at which checks 7 and 8 call a
# cell or payoff form exact.  The forms are built from 4x4 products of
# entries of size at most 1, times payoffs of size at most 2.5 in poker, so
# float rounding leaves them about 1e-16 from exact.
FORM_TOL = 1e-12

# The Haar strategy of checks 7 and 8 where it enters through ``moment``,
# which reads any HaarMixture as I/2: its seed and sample count are unused.
HAAR = HaarMixture(0, 2)


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
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "data": self.data,
        }


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


def check_correlated(samples: int, seed: int) -> CheckResult:
    chick = chicken()
    pd = prisoners_dilemma()
    third = Fraction(1, 3)
    rho = referee_dist(chick, (third, third, third, Fraction(0)))
    ce_ok, worst = is_correlated_eq(chick, rho)
    aumann_ok, _ = aumann_check(chick, rho)
    value = g_com(chick, rho, ResponseRule.FOLLOW, ResponseRule.FOLLOW)
    ok = ce_ok and aumann_ok and value == (Fraction(5, 3), Fraction(5, 3))

    rng = np.random.default_rng(seed)
    rejected = 0
    trials = 1000
    for _ in range(trials):
        nums = [int(v) for v in rng.integers(0, 100, size=4)]
        if sum(nums[:3]) == 0 or sum(nums) == 0:
            nums[int(rng.integers(0, 3))] += 1
        total = sum(nums)
        rho_pd = referee_dist(pd, tuple(Fraction(v, total) for v in nums))
        if not is_correlated_eq(pd, rho_pd)[0]:
            rejected += 1
    point = referee_dist(pd, (0, 0, 0, 1))
    point_ok = is_correlated_eq(pd, point)[0]
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

    rng = np.random.default_rng(seed + 1)
    worst_err = 0.0
    recovered = 0
    trials = 100
    for _ in range(trials):
        p = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.05, 0.95))
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
    ok = True
    # Mixed extension restricted to point masses reproduces the game, exactly.
    for game in games:
        for i, j in game.profiles():
            m = MixedProfile(embed_pure(i, 2), embed_pure(j, 2))
            ok &= g_mix(game, m) == game.payoff((i, j))
    # Mediated game restricted to unconditional rules reproduces the game,
    # for 50 random referee distributions.
    rng = np.random.default_rng(seed + 2)
    from .mediated import embed_f

    for _ in range(50):
        game = prisoners_dilemma()
        nums = [int(v) + 1 for v in rng.integers(0, 50, size=4)]
        rho = referee_dist(game, tuple(Fraction(v, sum(nums)) for v in nums))
        for i, j in game.profiles():
            ok &= g_com(game, rho, embed_f(i), embed_f(j)) == game.payoff((i, j))
    # Quantization is proper and complete at 11 entanglement values.
    proper_all = True
    complete_worst = 0.0
    for game in games:
        for k in range(11):
            config = EwlConfig(game, MAX_GAMMA * k / 10)
            proper_all &= check_proper(config)
            complete_ok, dev = check_complete(config)
            complete_worst = max(complete_worst, dev)
            ok &= complete_ok
    ok &= proper_all
    return CheckResult(
        5,
        "extension-diagrams",
        bool(ok),
        "point-mass, referee, and quantization embeddings all reproduce the base game",
        {"proper_all_gammas": bool(proper_all), "complete_worst_gap": float(complete_worst)},
    )


def check_born_rule(samples: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 3)
    worst_norm = 0.0
    worst_scale = 0.0
    worst_formula = 0.0
    for _ in range(1000):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        if np.abs(amps).max() < 1e-6:
            amps[0] = 1.0
        s = Superposition(("x", "y"), tuple(amps))
        worst_norm = max(worst_norm, abs(normalize(s).norm - 1.0))
        scale = complex(rng.normal(), rng.normal())
        if abs(scale) < 1e-6:
            scale = 1.0
        scaled = Superposition(s.basis, tuple(scale * a for a in s.amplitudes))
        for w1, w2 in zip(measure(s).weights, measure(scaled).weights):
            worst_scale = max(worst_scale, abs(w1 - w2))
        a2, b2 = abs(amps[0]) ** 2, abs(amps[1]) ** 2
        expected = (a2 / (a2 + b2), b2 / (a2 + b2))
        for w, e in zip(measure(s).weights, expected):
            worst_formula = max(worst_formula, abs(w - e))
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
    # Sampler test: Haar against Haar on seed + 1, a stream that checks 8 and
    # 10 (both on seed) do not draw, so its estimate is independent of theirs.
    both, _ = outcome_dist_mq(cfg, HaarMixture(seed + 1, samples), HaarMixture(seed + 1, samples))
    both_worst = max(abs(w - 0.25) for w in both.weights)
    both_tol = hoeffding(1.0, samples, 4)
    # One-sided play depends on the Haar side only through its exact moment
    # I/2, so each cell is a Hermitian form M in the opponent's unitary v.
    # |vec v|^2 = 2 for every unitary, so M = I/8 puts each cell at exactly
    # 1/4 against every opponent, not only against the 20 fixed ones, and
    # puts each of those within 8 * FORM_TOL of 1/4.
    haar = moment(HAAR)
    one_hot = np.eye(4)
    form_error = max(
        float(np.abs(cell_form(cfg, 1, haar, cell) - np.eye(4) / 8).max()) for cell in one_hot
    )
    fixed = haar_su2_batch(seed ^ 0x5EED, np.arange(20))
    one_sided_worst = max(
        float(np.abs(scan_payoffs(cfg, 1, fixed, haar, cell) - 0.25).max()) for cell in one_hot
    )
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
    cfg_pd = EwlConfig(pd, MAX_GAMMA)
    report = verify_quantum_eq(
        cfg_pd,
        HaarMixture(seed, samples),
        HaarMixture(seed, samples),
        deviation_grid=8,
    )
    pd_pay_err = max(abs(v - 2.25) for v in report.payoff)
    pd_gain = max(float(g) for g in report.max_deviation_gain)
    # 2 payoff means and 2 * 8**3 deviation means; a gain differences two.
    table = cfg_pd.payoff_table()
    pd_tol = hoeffding(float(table.max() - table.min()), samples, 2 + 2 * 8**3)
    ok = pd_pay_err <= pd_tol and pd_gain <= 2 * pd_tol

    # Haar play's payoff against an opponent unitary v is the form
    # vec(v)^T M conj(vec(v)) of check 7 with poker's payoff column, so
    # M = (15/32) I puts it at exactly 15/16 against every opponent, and
    # each grid payoff within 8 * FORM_TOL of 15/16.
    cfg_poker = EwlConfig(poker, MAX_GAMMA)
    poker_column = cfg_poker.payoff_table()[:, 0]
    poker_form = cell_form(cfg_poker, 1, moment(HAAR), poker_column)
    poker_form_error = float(np.abs(poker_form - np.eye(4) * 15 / 32).max())
    scan = security_scan(cfg_poker, 0, HAAR, opponent_grid=8)
    quantum_floor = float(scan.min())
    spread = float(scan.max() - scan.min())
    ok = ok and poker_form_error <= FORM_TOL
    ok = ok and abs(quantum_floor - 15.0 / 16.0) <= 8 * FORM_TOL and spread <= 16 * FORM_TOL

    classical_pd_payoff = float(pd.payoff((1, 1))[0])
    poker_eq = [e for e in mixed_nash_2x2(poker) if not e.note.startswith("pure")][0]
    classical_floor = security_level(poker, 0, poker_eq.profile.row)
    ok = ok and min(report.payoff) > classical_pd_payoff
    ok = ok and quantum_floor > float(classical_floor)
    return CheckResult(
        8,
        "quantum-equilibrium",
        bool(ok),
        f"uniform quantum mixing is an equilibrium that beats the classical benchmarks (pd within {pd_tol:.2g})",
        {
            "pd_payoff": [float(v) for v in report.payoff],
            "pd_payoff_tolerance": pd_tol,
            "pd_max_gain": pd_gain,
            "pd_gain_tolerance": 2 * pd_tol,
            "pd_epsilon": float(report.epsilon),
            "pd_certified": report.certified,
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
