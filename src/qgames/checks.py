"""The result-verification suite behind the ``paper-check`` CLI command.

Each check re-derives one headline claim about the built-in games from
this package's own machinery and states a pass/fail verdict with the
numbers that produced it.  Exact claims are checked in rational arithmetic;
Monte-Carlo claims carry explicit tolerances.  Given the same seed and
sample count, the whole report is deterministic down to the byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import Dist, MixedProfile, embed_pure, g_mix, product, realizable
from .equilibria import mixed_nash_2x2, security_level, security_scan, verify_quantum_eq
from .ewl import (
    MAX_GAMMA,
    EwlConfig,
    HaarMixture,
    check_complete,
    check_proper,
    g_mq,
    outcome_dist_mq,
    point_mixture,
)
from .games import BUILTIN_GAMES, chicken, prisoners_dilemma, pure_nash_all, simplified_poker
from .mediated import ResponseRule, aumann_check, g_com, is_correlated_eq, referee_dist
from .numeric import scalar_to_json
from .quantum import Superposition, Unitary2, haar_su2_batch, measure, normalize


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
    # Quantization is proper at 11 entanglement values and complete at the
    # separable and maximally entangled ones.
    proper_all = True
    complete_worst = 0.0
    for game in games:
        for k in range(11):
            proper_all &= check_proper(EwlConfig(game, MAX_GAMMA * k / 10))
        for gamma in (0.0, MAX_GAMMA):
            complete_ok, dev = check_complete(EwlConfig(game, gamma), 20)
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
    worst = 0.0
    both, _ = outcome_dist_mq(cfg, HaarMixture(seed, samples), HaarMixture(seed, samples))
    worst = max(worst, max(abs(w - 0.25) for w in both.weights))
    fixed = haar_su2_batch(seed ^ 0x5EED, np.arange(20))
    one_sided_worst = 0.0
    for k in range(20):
        u = Unitary2.from_matrix(fixed[k])
        d, _ = outcome_dist_mq(cfg, HaarMixture(seed + k + 1, samples), point_mixture(u))
        one_sided_worst = max(one_sided_worst, max(abs(w - 0.25) for w in d.weights))
    worst = max(worst, one_sided_worst)
    ok = worst <= 0.01
    return CheckResult(
        7,
        "haar-uniformity",
        bool(ok),
        "maximally entangled play under Haar mixing lands each cell within 0.01 of 1/4",
        {
            "samples": samples,
            "worst_cell_error_both_haar": float(max(abs(w - 0.25) for w in both.weights)),
            "worst_cell_error_one_sided": float(one_sided_worst),
            "fixed_opponents": 20,
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
    ok = pd_pay_err <= 0.02 and pd_gain <= 0.03

    cfg_poker = EwlConfig(poker, MAX_GAMMA)
    scan = security_scan(cfg_poker, 0, HaarMixture(seed + 7, samples), opponent_grid=8)
    quantum_floor = float(scan.min())
    spread = float(scan.max() - scan.min())
    ok = ok and abs(quantum_floor - 15.0 / 16.0) <= 0.02 and spread <= 0.03

    classical_pd_payoff = float(pd.payoff((1, 1))[0])
    poker_eq = [e for e in mixed_nash_2x2(poker) if not e.note.startswith("pure")][0]
    classical_floor = security_level(poker, 0, poker_eq.profile.row)
    ok = ok and min(report.payoff) > classical_pd_payoff
    ok = ok and quantum_floor > float(classical_floor)
    return CheckResult(
        8,
        "quantum-equilibrium",
        bool(ok),
        "uniform quantum mixing is an equilibrium that beats the classical benchmarks",
        {
            "pd_payoff": [float(v) for v in report.payoff],
            "pd_max_gain": pd_gain,
            "pd_epsilon": float(report.epsilon),
            "pd_certified": report.certified,
            "poker_security": quantum_floor,
            "poker_scan_spread": spread,
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
