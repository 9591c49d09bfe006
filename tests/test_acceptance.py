"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one pass/fail line.  Exact claims run in rational
arithmetic; Monte-Carlo claims use the pinned sample counts and seeds.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np

from qgames.distributions import Dist, MixedProfile, embed_pure, g_mix, product, realizable
from qgames.equilibria import mixed_nash_2x2, security_level, security_scan, verify_quantum_eq
from qgames.ewl import (
    HAAR,
    EwlConfig,
    check_complete,
    check_proper,
    haar_estimate,
    outcome_dist_mq,
)
from qgames.games import chicken, prisoners_dilemma, pure_nash_all, simplified_poker
from qgames.mediated import ResponseRule, aumann_check, embed_f, g_com, is_correlated_eq, referee_dist
from qgames.quantum import Superposition, Unitary2, haar_su2_batch, measure

F = Fraction
MAX_GAMMA = math.pi / 2
SAMPLES = 200_000
SEED = 42
GAMES = {"pd": prisoners_dilemma(), "poker": simplified_poker(), "chicken": chicken()}


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {number:>2} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed {detail}"


def test_criterion_1_pure_nash_tables():
    ok = (
        pure_nash_all(GAMES["pd"]) == [(1, 1)]
        and pure_nash_all(GAMES["chicken"]) == [(0, 1), (1, 0)]
        and pure_nash_all(GAMES["poker"]) == []
    )
    _criterion(1, "pure-nash-tables", ok)


def test_criterion_2_mixed_equilibria():
    poker_eqs = [e for e in mixed_nash_2x2(GAMES["poker"]) if not e.note.startswith("pure")]
    ok = (
        len(poker_eqs) == 1
        and poker_eqs[0].profile.row.weights == (F(2, 3), F(1, 3))
        and poker_eqs[0].profile.col.weights == (F(2, 3), F(1, 3))
        and poker_eqs[0].payoff[0] == F(5, 6)
    )
    chick_mixed = [e for e in mixed_nash_2x2(GAMES["chicken"]) if e.note == "fully mixed"]
    ok = ok and len(chick_mixed) == 1 and chick_mixed[0].payoff == (F(1), F(1))
    _criterion(2, "mixed-equilibria", ok)


def test_criterion_3_correlated_equilibrium():
    chick = GAMES["chicken"]
    third = F(1, 3)
    rho = referee_dist(chick, (third, third, third, 0))
    value = g_com(chick, rho, ResponseRule.FOLLOW, ResponseRule.FOLLOW)
    ok = (
        is_correlated_eq(chick, rho)[0]
        and aumann_check(chick, rho)[0]
        and value == (F(5, 3), F(5, 3))
    )

    pd = GAMES["pd"]
    rng = np.random.default_rng(SEED)
    rejected = 0
    for _ in range(1000):
        nums = [int(v) for v in rng.integers(0, 100, size=4)]
        if sum(nums[:3]) == 0 or sum(nums) == 0:
            nums[int(rng.integers(0, 3))] += 1
        rho_pd = referee_dist(pd, tuple(F(v, sum(nums)) for v in nums))
        if not is_correlated_eq(pd, rho_pd)[0]:
            rejected += 1
    ok = ok and rejected == 1000
    ok = ok and is_correlated_eq(pd, referee_dist(pd, (0, 0, 0, 1)))[0]
    _criterion(3, "correlated-equilibrium", ok, f"(rejected {rejected}/1000 off-NE referees)")


def test_criterion_4_realizability():
    pd = GAMES["pd"]
    half = F(1, 2)
    anti_ok, _ = realizable(pd, referee_dist(pd, (half, 0, 0, half)))
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    good = 0
    for _ in range(100):
        p = float(rng.uniform(0.05, 0.95))
        q = float(rng.uniform(0.05, 0.95))
        target = product(Dist((0, 1), (p, 1 - p)), Dist((0, 1), (q, 1 - q)))
        found, wit = realizable(pd, target)
        if found:
            err = max(abs(wit[0] - p), abs(wit[1] - q))
            worst = max(worst, err)
            if err <= 1e-6:
                good += 1
    ok = (not anti_ok) and good == 100
    _criterion(4, "product-realizability", ok, f"(worst witness error {worst:.2e})")


def test_criterion_5_commutative_diagrams():
    ok = True
    for game in GAMES.values():
        for i, j in game.profiles():
            m = MixedProfile(embed_pure(i, 2), embed_pure(j, 2))
            ok &= g_mix(game, m) == game.payoff((i, j))

    rng = np.random.default_rng(SEED + 2)
    pd = GAMES["pd"]
    for _ in range(50):
        nums = [int(v) + 1 for v in rng.integers(0, 50, size=4)]
        rho = referee_dist(pd, tuple(F(v, sum(nums)) for v in nums))
        for i, j in pd.profiles():
            ok &= g_com(pd, rho, embed_f(i), embed_f(j)) == pd.payoff((i, j))

    proper_ok = all(
        check_proper(EwlConfig(game, MAX_GAMMA * k / 10), tol=1e-9)
        for game in GAMES.values()
        for k in range(11)
    )
    complete_worst = 0.0
    complete_ok = True
    for game in GAMES.values():
        for k in range(11):
            passed, gap = check_complete(EwlConfig(game, MAX_GAMMA * k / 10), tol=1e-9)
            complete_ok &= passed
            complete_worst = max(complete_worst, gap)
    ok = ok and proper_ok and complete_ok
    _criterion(5, "commutative-diagrams", ok, f"(worst completeness gap {complete_worst:.2e})")


def test_criterion_6_born_rule():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(1000):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        if np.abs(amps).max() < 1e-6:
            amps[0] = 1.0
        s = Superposition(("x", "y"), tuple(amps))
        worst = max(worst, abs(np.linalg.norm(s.vector / np.linalg.norm(s.vector)) - 1.0))
        lam = complex(rng.normal(), rng.normal()) or 1.0
        scaled = Superposition(s.basis, tuple(lam * a for a in s.amplitudes))
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(measure(s).weights, measure(scaled).weights)),
        )
        a2, b2 = abs(amps[0]) ** 2, abs(amps[1]) ** 2
        formula = (a2 / (a2 + b2), b2 / (a2 + b2))
        worst = max(worst, max(abs(a - b) for a, b in zip(measure(s).weights, formula)))
    _criterion(6, "born-rule", worst <= 1e-12, f"(worst error {worst:.2e})")


def test_criterion_7_haar_uniformity(point_mixture, su2_matrices):
    cfg = EwlConfig(GAMES["pd"], MAX_GAMMA)
    worst = 0.0
    # Haar x Haar cells are sampled; one-sided Haar play is exact.
    both = haar_estimate(cfg, SEED, SAMPLES)
    worst = max(worst, max(abs(w - 0.25) for w in both["outcome_probs"]))
    fixed = su2_matrices(haar_su2_batch(SEED ^ 0x5EED, np.arange(20)))
    for k in range(20):
        d = outcome_dist_mq(cfg, HAAR, point_mixture(Unitary2.from_matrix(fixed[k])))
        worst = max(worst, max(abs(w - 0.25) for w in d.weights))
    _criterion(7, "haar-uniformity", worst <= 0.01, f"(worst cell error {worst:.4f})")


def test_criterion_8_quantum_equilibrium_claims():
    pd_cfg = EwlConfig(GAMES["pd"], MAX_GAMMA)
    report = verify_quantum_eq(pd_cfg, HAAR, HAAR, samples=100_000, seed=SEED)
    pd_err = max(abs(v - 2.25) for v in report.details["estimate"]["payoff"])
    pd_gain = max(float(g) for g in report.max_deviation_gain)
    ok = report.certified and pd_err <= 0.02 and pd_gain <= report.epsilon <= 1e-9
    ok = ok and max(abs(v - 2.25) for v in report.payoff) <= 1e-12

    poker_cfg = EwlConfig(GAMES["poker"], MAX_GAMMA)
    floor = security_level(poker_cfg, 0, HAAR)
    # The grid oracle: no opponent grid unitary pays below the spectral floor.
    scan = security_scan(poker_cfg, 0, HAAR, opponent_grid=8)
    spread = float(scan.max() - scan.min())
    ok = ok and abs(floor - 15 / 16) <= 1e-12 and spread <= 1e-12 and scan.min() >= floor - 1e-12

    pd_classical = float(GAMES["pd"].payoff((1, 1))[0])
    poker_classical = security_level(
        GAMES["poker"], 0, Dist((0, 1), (F(2, 3), F(1, 3)))
    )
    ok = ok and min(report.payoff) > pd_classical
    ok = ok and floor > float(poker_classical)
    _criterion(
        8,
        "quantum-equilibrium",
        ok,
        f"(pd payoff err {pd_err:.4f}, gain {pd_gain:.4f}; poker floor {floor:.4f}, spread {spread:.4f})",
    )


def test_criterion_9_ce_novelty():
    pd = GAMES["pd"]
    quarter = F(1, 4)
    ok_aumann, violations = aumann_check(pd, referee_dist(pd, (quarter,) * 4))
    _criterion(9, "ce-novelty", (not ok_aumann) and bool(violations))


def test_criterion_10_byte_identical_reports():
    cmd = [
        sys.executable, "-m", "qgames.cli",
        "paper-check", "--seed", str(SEED), "--json",
    ]
    first = subprocess.run(cmd, capture_output=True, timeout=300)
    second = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and len(first.stdout) > 0
    )
    if ok:
        report = json.loads(first.stdout)
        ok = report["all_passed"] and len(report["checks"]) == 10
    _criterion(10, "deterministic-reports", ok)
