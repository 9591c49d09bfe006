"""Independent checks of qgames outputs, and a self-test of those checks.

Nothing here imports qgames or compares against stored output.  Expected
values come from the paper's three games, written out below, and from
facts computed apart from the program:

* Haar mixing on both sides twirls the shared state to I/4, so every cell
  has probability exactly 1/4 at any entanglement; at gamma = pi/2 a Haar
  unitary on one side alone does the same.  Monte-Carlo estimates must then
  lie within a Hoeffding bound of 1/4 and of the mean of the payoff column
  (9/4 in the dilemma, 15/16 in poker, 1 in Chicken), and every deviation
  gains 0 up to that bound.
* Exact rationals (5/6, 5/3, 10/3, ...) are derived in Fractions here.
* Correlated-equilibrium LPs are re-solved with scipy's HiGHS and the
  reported distribution is checked against obedience inequalities built
  here from the game file.

Each check is a list of claims about paths in one JSON report.  A claim
knows how to produce a value just outside what it accepts, so the self-test
can show that every claim rejects a wrong output.
"""

from __future__ import annotations

import copy
import json
import math
from fractions import Fraction
from itertools import product as cartesian
from typing import Any, Callable, NamedTuple

# Chance, per operation, that a correct Monte-Carlo report falls outside its
# bounds.  The union bound below spreads it over every estimate in a report.
DELTA = 1e-9

F = Fraction
BUILTIN_PAYOFFS = {
    "pd": [[(3, 3), (0, 5)], [(5, 0), (1, 1)]],
    "poker": [[(F(5, 4), F(-5, 4)), (0, 0)], [(0, 0), (F(5, 2), F(-5, 2))]],
    "chicken": [[(2, 2), (0, 3)], [(3, 0), (-1, -1)]],
}
GRID_POINTS = 8**3  # verify's default deviation grid


class Claim(NamedTuple):
    label: str
    path: tuple
    ok: Callable[[Any], bool]
    breach: Callable[[Any], Any]  # a wrong value, for the self-test


def hoeffding(spread: float, n: int, k: int) -> float:
    """Half-width that k means of n i.i.d. samples, each ranging over an
    interval of width ``spread``, all stay within with chance 1 - DELTA."""
    return float(spread) * math.sqrt(math.log(2 * k / DELTA) / (2 * n))


def near(label, path, target, tol) -> Claim:
    target = float(target)
    return Claim(
        label, path, lambda x: _is_real(x) and abs(x - target) <= tol,
        lambda x: target + tol * (1 + 1e-6) + 1e-12,
    )


def at_most(label, path, limit) -> Claim:
    return Claim(
        label, path, lambda x: _is_real(x) and x <= limit,
        lambda x: limit + abs(limit) * 1e-6 + 1e-15,
    )


def equals(label, path, value) -> Claim:
    return Claim(label, path, lambda x: type(x) is type(value) and x == value, lambda x: _other(value))


def rational(label, path, value) -> Claim:
    """An exact rational, written "a/b" (or an integer) in the report."""
    value = Fraction(value)
    return Claim(label, path, lambda x: _as_fraction(x) == value, lambda x: _json_rational(value + F(1, 100)))


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _as_fraction(x):
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        return None
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        return None


def _json_rational(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _other(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, list):
        return value[:-1] if value else [[0, 0]]
    raise TypeError(f"no wrong value defined for {value!r}")


def _get(report, path):
    for key in path:
        report = report[key]
    return report


def failures(report, claims: list[Claim]) -> list[str]:
    """Labels of the claims the report breaks (a missing field breaks one)."""
    bad = []
    for claim in claims:
        try:
            accepted = claim.ok(_get(report, claim.path))
        except (KeyError, IndexError, TypeError, ValueError, ArithmeticError):
            accepted = False
        if not accepted:
            bad.append(claim.label)
    return bad


def self_test(report, claims: list[Claim]) -> list[str]:
    """Claims that fail to reject their own breach of a correct report."""
    vacuous = []
    for claim in claims:
        wrong = copy.deepcopy(report)
        if claim.path:
            parent = _get(wrong, claim.path[:-1])
            parent[claim.path[-1]] = claim.breach(parent[claim.path[-1]])
        else:
            wrong = claim.breach(wrong)
        if claim.label not in failures(wrong, claims):
            vacuous.append(claim.label)
    return vacuous


# Exact game theory, in Fractions, for the checks below ----------------------

def _column_mean(payoffs, player) -> Fraction:
    cells = [Fraction(c[player]) for row in payoffs for c in row]
    return sum(cells) / len(cells)


def _column_spread(payoffs, player) -> Fraction:
    cells = [Fraction(c[player]) for row in payoffs for c in row]
    return max(cells) - min(cells)


def pure_nash(payoffs) -> list[list[int]]:
    rows, cols = len(payoffs), len(payoffs[0])
    return [
        [a, b]
        for a, b in cartesian(range(rows), range(cols))
        if all(payoffs[a][b][0] >= payoffs[x][b][0] for x in range(rows))
        and all(payoffs[a][b][1] >= payoffs[a][y][1] for y in range(cols))
    ]


def obedience_rows(payoffs) -> list[list[Fraction]]:
    """Coefficients c over row-major cells with c . rho >= 0 for a CE."""
    rows, cols = len(payoffs), len(payoffs[0])
    out = []
    for rec, alt in cartesian(range(rows), repeat=2):
        if rec != alt:
            out.append([
                Fraction(payoffs[a][b][0]) - Fraction(payoffs[alt][b][0]) if a == rec else Fraction(0)
                for a, b in cartesian(range(rows), range(cols))
            ])
    for rec, alt in cartesian(range(cols), repeat=2):
        if rec != alt:
            out.append([
                Fraction(payoffs[a][b][1]) - Fraction(payoffs[a][alt][1]) if b == rec else Fraction(0)
                for a, b in cartesian(range(rows), range(cols))
            ])
    return out


def _mixed_2x2(payoffs):
    """Interior equilibrium weights (p, q) of a 2x2 game and its payoff pair."""
    u = payoffs
    # p on row 1 makes the column player indifferent, q on column 1 the row player.
    d1, d2 = u[0][0][1] - u[0][1][1], u[1][0][1] - u[1][1][1]
    p = F(-d2) / (d1 - d2)
    e1, e2 = u[0][0][0] - u[1][0][0], u[0][1][0] - u[1][1][0]
    q = F(-e2) / (e1 - e2)
    weights = [p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)]
    cells = [u[a][b] for a in (0, 1) for b in (0, 1)]
    return p, q, tuple(sum(w * Fraction(c[k]) for w, c in zip(weights, cells)) for k in (0, 1))


def _response_rule_worst_gain(payoffs, rho) -> Fraction:
    """Largest gain from answering a 2x2 referee with a rule other than obeying."""
    rules = [lambda r: 0, lambda r: 1, lambda r: 1 - r]
    cells = [(a, b) for a in (0, 1) for b in (0, 1)]
    follow = [sum(w * Fraction(payoffs[a][b][k]) for w, (a, b) in zip(rho, cells)) for k in (0, 1)]
    gains = []
    for rule in rules:
        gains.append(sum(w * Fraction(payoffs[rule(a)][b][0]) for w, (a, b) in zip(rho, cells)) - follow[0])
        gains.append(sum(w * Fraction(payoffs[a][rule(b)][1]) for w, (a, b) in zip(rho, cells)) - follow[1])
    return max(gains)


def _violated(payoffs, rho) -> int:
    return sum(1 for row in obedience_rows(payoffs) if sum(c * w for c, w in zip(row, rho)) < 0)


# Claims per command ---------------------------------------------------------

def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def ewl_haar_claims(argv) -> list[Claim]:
    game = BUILTIN_PAYOFFS[_option(argv, "--game")]
    n, seed = int(_option(argv, "--samples")), int(_option(argv, "--seed"))
    gamma = math.pi / 2 if _option(argv, "--gamma") == "max" else float(_option(argv, "--gamma"))
    k = 2 + 4
    claims = [
        equals("mixture", ("mixture",), "haar"),
        equals("samples", ("samples",), n),
        equals("seed", ("seed",), seed),
        near("gamma", ("gamma",), gamma, 1e-12),
    ]
    for p in (0, 1):
        tol = hoeffding(_column_spread(game, p), n, k)
        claims.append(near(f"payoff[{p}] ~ column mean", ("payoff", p), _column_mean(game, p), tol))
    for c in range(4):
        claims.append(near(f"cell[{c}] ~ 1/4", ("outcome_probs", c), 0.25, hoeffding(1, n, k)))
    return claims


def verify_haar_claims(argv) -> list[Claim]:
    game = BUILTIN_PAYOFFS[_option(argv, "--game")]
    n, seed = int(_option(argv, "--samples")), int(_option(argv, "--seed"))
    k = 2 + 2 * GRID_POINTS
    claims = [
        equals("certified", ("certified",), True),
        equals("method", ("method",), "monte_carlo"),
        equals("samples", ("samples",), n),
        equals("seed", ("seed",), seed),
    ]
    for p in (0, 1):
        tol = hoeffding(_column_spread(game, p), n, k)
        claims.append(near(f"payoff[{p}] ~ column mean", ("payoff", p), _column_mean(game, p), tol))
        # Every grid deviation and the base payoff estimate the same mean.
        claims.append(near(f"gain[{p}] ~ 0", ("max_deviation_gain", p), 0.0, 2 * tol))
    return claims


def paper_check_claims(argv) -> list[Claim]:
    n, seed = int(_option(argv, "--samples")), int(_option(argv, "--seed"))
    pd, poker, chick = (BUILTIN_PAYOFFS[g] for g in ("pd", "poker", "chicken"))
    claims = [
        equals("samples", ("samples",), n),
        equals("seed", ("seed",), seed),
        equals("all_passed", ("all_passed",), True),
    ]
    claims += [equals(f"check {i + 1} passed", ("checks", i, "passed"), True) for i in range(10)]

    def data(i, *keys):
        return ("checks", i - 1, "data", *keys)

    claims += [
        equals(f"{g} pure nash", data(1, g), pure_nash(BUILTIN_PAYOFFS[g])) for g in BUILTIN_PAYOFFS
    ]
    p, _, poker_value = _mixed_2x2(poker)
    _, _, chick_mixed = _mixed_2x2(chick)
    claims += [
        rational("poker mixed value 5/6", data(2, "poker_value"), poker_value[0]),
        rational("poker row weight[0]", data(2, "poker_row", 0), p),
        rational("poker row weight[1]", data(2, "poker_row", 1), 1 - p),
    ]
    claims += [rational(f"chicken mixed payoff[{k}]", data(2, "chicken_mixed_payoff", k), chick_mixed[k]) for k in (0, 1)]

    third = F(1, 3)
    rho = [third, third, third, F(0)]
    cells = [chick[a][b] for a in (0, 1) for b in (0, 1)]
    claims += [
        rational(f"chicken CE value[{k}] 5/3", data(3, "chicken_value", k), sum(w * F(c[k]) for w, c in zip(rho, cells)))
        for k in (0, 1)
    ]
    claims += [
        rational("chicken worst gain", data(3, "chicken_worst_gain"), _response_rule_worst_gain(chick, rho)),
        equals("pd trials", data(3, "pd_trials"), 1000),
        equals("pd rejected all", data(3, "pd_rejected"), 1000),
        equals("pd point mass is CE", data(3, "pd_point_mass_ok"), _violated(pd, [0, 0, 0, 1]) == 0),
    ]
    p00, p01, p10, p11 = F(1, 2), 0, 0, F(1, 2)
    claims += [
        # A 2x2 distribution is a product exactly when p00 p11 == p01 p10.
        equals("anti-diagonal realizable", data(4, "anti_diagonal_realizable"), p00 * p11 == p01 * p10),
        equals("products recovered", data(4, "recovered"), 100),
        at_most("witness error", data(4, "worst_witness_error"), 1e-6),
        equals("proper at all gammas", data(5, "proper_all_gammas"), True),
        at_most("complete gap", data(5, "complete_worst_gap"), 1e-9),
    ]
    claims += [
        at_most(f"born {key}", data(6, key), 1e-12)
        for key in ("worst_normalization", "worst_scale_invariance", "worst_two_term_formula")
    ]
    claims += [
        equals("haar samples", data(7, "samples"), n),
        at_most("both-haar cell error", data(7, "worst_cell_error_both_haar"), hoeffding(1, n, 4)),
        at_most("one-sided cell error", data(7, "worst_cell_error_one_sided"), hoeffding(1, n, 4 * 20)),
    ]
    k8 = 2 + 2 * GRID_POINTS
    pd_tol = hoeffding(_column_spread(pd, 0), n, k8)
    poker_tol = hoeffding(_column_spread(poker, 0), n, GRID_POINTS)
    claims += [near(f"pd payoff[{k}] 9/4", data(8, "pd_payoff", k), _column_mean(pd, k), pd_tol) for k in (0, 1)]
    claims += [
        near("pd max gain ~ 0", data(8, "pd_max_gain"), 0.0, 2 * pd_tol),
        equals("pd certified", data(8, "pd_certified"), True),
        near("poker security 15/16", data(8, "poker_security"), _column_mean(poker, 0), poker_tol),
        at_most("poker scan spread", data(8, "poker_scan_spread"), 2 * poker_tol),
        equals("pd classical payoff", data(8, "pd_classical_ne_payoff"), float(pd[1][1][0])),
        rational("poker classical security 5/6", data(8, "poker_classical_security"),
                 min(p * F(poker[0][b][0]) + (1 - p) * F(poker[1][b][0]) for b in (0, 1))),
    ]
    quarter = [F(1, 4)] * 4
    claims += [
        equals("uniform is CE", data(9, "is_correlated_equilibrium"), _violated(pd, quarter) == 0),
        equals("violated constraints", data(9, "violated_constraints"), _violated(pd, quarter)),
    ]
    n10 = min(n, 20000)
    claims += [equals("replayed samples", data(10, "replayed_samples"), n10)]
    claims += [
        near(f"replayed payoff[{k}]", data(10, "payoff", k), _column_mean(pd, k), hoeffding(_column_spread(pd, k), n10, 2))
        for k in (0, 1)
    ]
    return claims


def _linprog_value(objective, payoffs) -> float:
    from scipy.optimize import linprog

    rows = obedience_rows(payoffs)
    res = linprog(
        [-float(c) for c in objective],
        A_ub=[[-float(v) for v in row] for row in rows],
        b_ub=[0.0] * len(rows),
        A_eq=[[1.0] * len(objective)],
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on the CE LP: {res.message}")
    return -res.fun


def lp_claims(objective, payoffs, value_path, rho_path, exact=None) -> list[Claim]:
    """An optimal CE vertex: feasible, worth what it claims, and optimal."""
    rows = obedience_rows(payoffs)
    best = _linprog_value(objective, payoffs)
    ncells = len(objective)

    def fractions(rho):
        weights = [_as_fraction(w) for w in rho]
        return weights if len(weights) == ncells and None not in weights else None

    def distribution(rho):
        w = fractions(rho)
        return w is not None and all(x >= 0 for x in w) and sum(w) == 1

    def obeys(rho):
        w = fractions(rho)
        return w is not None and all(sum(c * x for c, x in zip(row, w)) >= 0 for row in rows)

    # A point mass on a cell some player would leave breaks obedience.
    equilibria = pure_nash(payoffs)
    off = next(k for k in range(ncells) if [k // len(payoffs[0]), k % len(payoffs[0])] not in equilibria)
    point = [0] * ncells
    point[off] = 1
    negative = [F(-1, 100), F(101, 100)] + [0] * (ncells - 2)

    def worth(report):
        w = fractions(_get(report, rho_path))
        return w is not None and sum(Fraction(c) * x for c, x in zip(objective, w)) == _as_fraction(_get(report, value_path))

    def overstate(report):
        parent = _get(report, value_path[:-1])
        parent[value_path[-1]] = _json_rational(_as_fraction(parent[value_path[-1]]) + F(1, 100))
        return report

    claims = [
        Claim("rho is a distribution", rho_path, distribution, lambda rho: [_json_rational(x) for x in negative]),
        Claim("rho obeys", rho_path, obeys, lambda rho: point),
        Claim("value = objective . rho", (), worth, overstate),
        Claim("value ~ HiGHS optimum", value_path,
              lambda v: _as_fraction(v) is not None and abs(float(_as_fraction(v)) - best) <= 1e-7,
              lambda v: _json_rational(_as_fraction(v) + F(1, 100))),
    ]
    if exact is not None:
        claims.append(rational(f"value {exact}", value_path, exact))
    return claims


# Known exact optimum over the CE polytope (Chicken's best welfare).
EXACT_CE = {("chicken", "welfare"): F(10, 3)}


def correlated_claims(argv) -> list[Claim]:
    name, objective_name = _option(argv, "--game"), _option(argv, "--objective")
    payoffs = BUILTIN_PAYOFFS[name]
    cells = [c for row in payoffs for c in row]
    objective = [F(c[0]) + F(c[1]) if objective_name == "welfare" else F(c[0]) for c in cells]
    return [equals("feasible", ("feasible",), True), equals("no violations", ("violations",), [])] + lp_claims(
        objective, payoffs, ("value",), ("rho",), EXACT_CE.get((name, objective_name))
    )


def analyze_claims(argv, root) -> list[Claim]:
    with open(root / _option(argv, "--game"), encoding="utf-8") as fh:
        payoffs = json.load(fh)["payoffs"]
    objective = [F(c[0]) + F(c[1]) for row in payoffs for c in row]
    return [
        Claim("pure nash", ("pure_nash",), lambda x: [e["profile"] for e in x] == pure_nash(payoffs), lambda x: _other(x)),
    ] + lp_claims(objective, payoffs, ("correlated_welfare", "value"), ("correlated_welfare", "rho"))


def claims_for(argv, root) -> list[Claim]:
    command = argv[0]
    if command == "paper-check":
        return paper_check_claims(argv)
    if command == "ewl":
        return ewl_haar_claims(argv)
    if command == "verify":
        return verify_haar_claims(argv)
    if command == "correlated":
        return correlated_claims(argv)
    if command == "analyze":
        return analyze_claims(argv, root)
    raise ValueError(f"no checks for {command!r}")
