"""Dense simplex-method linear programming over exact rationals.

Solves  maximize c.x  subject to  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0
and returns the optimum, an optimal vertex and the dual multipliers, all as
exact Fractions.  Intended for the small polytopes that show up in
equilibrium verification, where float feasibility tolerances would muddy
the answer.

Every answer comes from one exact two-phase simplex with Bland's rule over
Fractions; a float pass only chooses where it starts (Applegate, Cook, Dash
& Espinoza, "Exact solutions to linear programming problems", 2007):

1. Float proposal.  A float copy of the standard-form tableau runs both
   phases with Dantzig's rule on a right-hand side perturbed by about 1e-7.
   The perturbation keeps Dantzig's rule from stalling on degenerate
   vertices: every obedience row of a correlated-equilibrium LP has rhs 0.
   The final basis is only a proposal.  The pass runs the exact passes'
   tableau over plain lists of floats, so the exact commands never import
   numpy, whose import costs more than the whole LP on the games they see.
2. Exact confirmation.  The exact tableau pivots onto the proposed columns,
   one pivot per column that is not already basic.  If the basic solution is
   feasible, Bland's rule continues from there.  When the proposal is
   optimal that is a single pricing pass; when it is not, the exact simplex
   keeps pivoting, so the result is exact either way.
3. Cold start.  When the float pass fails (it overflows, hits its pivot cap,
   or finds the LP infeasible or unbounded), or its basis is singular or
   infeasible in exact arithmetic, the exact simplex starts from the slack
   and artificial basis.  Only the exact code raises LpInfeasible or
   LpUnbounded.

Every pass prices its cost once and then carries the reduced-cost row
through each pivot, updating only the nonzero columns of the pivot row.
Dantzig's rule (floats, with tolerances and a pivot cap) and Bland's rule
(exact) both choose their entering column from that row.  The dual
multipliers are read off the final exact row as the reduced costs of the
slack columns, with an artificial column standing in for each equality
row.  They satisfy A_ub^T u + A_eq^T v >= c with u >= 0 and
b_ub.u + b_eq.v = value, which proves the value optimal without trusting
the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class LpError(Exception):
    pass


class LpInfeasible(LpError):
    pass


class LpUnbounded(LpError):
    pass


@dataclass(frozen=True)
class LpResult:
    x: tuple[Fraction, ...]
    value: Fraction
    # One multiplier per constraint, the A_ub rows first: u >= 0 for the
    # inequalities, a free v for the equalities.
    duals: tuple[Fraction, ...]


def _as_fractions(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


class _Tableau:
    """Canonical-form tableau over Fractions or floats: basis columns kept as
    an identity, and the reduced-cost row of the last priced cost carried
    through every pivot."""

    def __init__(self, rows: list[list], rhs: list, basis: list[int]):
        # Pivots work in place, and the warm and cold tableaus start from the
        # same rows.
        self.rows = [list(row) for row in rows]
        self.rhs = list(rhs)
        self.basis = list(basis)
        self.reduced = None

    def price(self, cost: list) -> None:
        """Set the carried row to cost - c_B T, the reduced cost of each column."""
        reduced = list(cost)
        for k, row in zip(self.basis, self.rows):
            if cost[k]:
                for j, v in enumerate(row):
                    if v:
                        reduced[j] -= cost[k] * v
        self.reduced = reduced

    def pivot(self, row: int, col: int) -> None:
        """Pivot in place, updating only the nonzero columns of the pivot row."""
        piv = self.rows[row][col]
        pivot_row = [v / piv if v else v for v in self.rows[row]]
        nonzero = [(j, v) for j, v in enumerate(pivot_row) if v]
        self.rows[row] = pivot_row
        self.rhs[row] /= piv
        for i, current in enumerate(self.rows):
            factor = current[col]
            if i == row or not factor:
                continue
            for j, v in nonzero:
                current[j] -= factor * v
            self.rhs[i] -= factor * self.rhs[row]
        if self.reduced is not None:
            factor = self.reduced[col]
            for j, v in nonzero:
                self.reduced[j] -= factor * v
        self.basis[row] = col

    def minimize(self, cost: list[Fraction], allowed: set[int]) -> None:
        """Price ``cost`` and pivot to optimality by Bland's rule (no cycling)."""
        self.price(cost)
        order = sorted(allowed)
        m = len(self.rows)
        while True:
            entering = next((j for j in order if self.reduced[j] < 0), -1)
            if entering < 0:
                return
            leaving = -1
            best_ratio = None
            for i in range(m):
                coef = self.rows[i][entering]
                if coef > 0:
                    ratio = self.rhs[i] / coef
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving < 0:
                raise LpUnbounded("objective unbounded over the feasible region")
            self.pivot(leaving, entering)

    def objective(self, cost: list[Fraction]) -> Fraction:
        return sum(cost[b] * r for b, r in zip(self.basis, self.rhs))

    def warm_start(self, columns: list[int], artificial: set[int]) -> bool:
        """Pivot onto a proposed basis; False if it is singular or infeasible."""
        proposed = set(columns)
        for col in columns:
            if col in self.basis:
                continue
            row = next(
                (
                    i
                    for i, b in enumerate(self.basis)
                    if b not in proposed and self.rows[i][col] != 0
                ),
                None,
            )
            if row is None:
                return False
            self.pivot(row, col)
        return all(
            r >= 0 and (r == 0 or b not in artificial) for b, r in zip(self.basis, self.rhs)
        )

    def drive_out(self, artificial: set[int]) -> None:
        """Pivot zero-valued artificials out of the basis where a row allows it."""
        for i in range(len(self.rows)):
            if self.basis[i] in artificial:
                swap = next(
                    (j for j, v in enumerate(self.rows[i]) if v != 0 and j not in artificial),
                    None,
                )
                if swap is not None:
                    self.pivot(i, swap)


# The float pass: tolerances for a pivot element and a reduced cost, the
# rhs perturbation, and its pivot cap as a multiple of rows + columns.
_FLOAT_TOL = 1e-9
_FLOAT_PERTURBATION = 1e-7
_FLOAT_PHASE1_TOL = 1e-6
_FLOAT_PIVOTS_PER_LINE = 20
_GOLDEN_FRACTION = 0.6180339887498949


def _float_minimize(tab, cost, allowed: int, pivots_left: int) -> int | None:
    """Dantzig's rule in floats over the first ``allowed`` columns.

    Returns the pivots left, or None if the LP is unbounded or the cap is hit.
    """
    tab.price(cost)
    while True:
        candidates = tab.reduced[:allowed]
        low = min(candidates)
        if low >= -_FLOAT_TOL:
            return pivots_left
        col = candidates.index(low)
        row, best = -1, math.inf
        for i, current in enumerate(tab.rows):
            coef = current[col]
            if coef > _FLOAT_TOL:
                ratio = tab.rhs[i] / coef
                if ratio < best:
                    row, best = i, ratio
        if pivots_left == 0 or row < 0:
            return None
        tab.pivot(row, col)
        pivots_left -= 1


def _propose_basis(rows, rhs, basis, phase1, phase2, allowed_width) -> list[int] | None:
    """The non-artificial columns of a basis the float simplex finds optimal.

    ``phase1`` is None when the slack basis is feasible.  Returns None when
    the float pass fails; the caller then starts cold.
    """
    m, width = len(rows), len(phase2)
    try:
        # Distinct perturbations in [1, 2) times 1e-7, from the golden-ratio
        # sequence, break ratio-test ties.
        b = [
            float(v) + _FLOAT_PERTURBATION * (1.0 + i * _GOLDEN_FRACTION % 1.0)
            for i, v in enumerate(rhs)
        ]
        tab = _Tableau([[float(v) for v in row] for row in rows], b, basis)
        cost = [float(v) for v in phase2]
    except OverflowError:
        return None
    pivots = _FLOAT_PIVOTS_PER_LINE * (m + width)
    if phase1 is not None:
        pivots = _float_minimize(tab, [float(v) for v in phase1], width, pivots)
        infeasibility = sum(r for j, r in zip(tab.basis, tab.rhs) if phase1[j])
        if pivots is None or infeasibility > _FLOAT_PHASE1_TOL:
            return None
    if _float_minimize(tab, cost, allowed_width, pivots) is None:
        return None
    return [j for j in tab.basis if j < allowed_width]


def maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """Maximize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0."""
    c = [Fraction(v) for v in c]
    n = len(c)
    a_ub = _as_fractions(a_ub or [])
    b_ub = [Fraction(v) for v in (b_ub or [])]
    a_eq = _as_fractions(a_eq or [])
    b_eq = [Fraction(v) for v in (b_eq or [])]
    if any(len(r) != n for r in a_ub + a_eq):
        raise LpError("constraint row length does not match the number of variables")
    if len(a_ub) != len(b_ub) or len(a_eq) != len(b_eq):
        raise LpError("constraint matrix and right-hand side sizes disagree")

    # One row per constraint, negated where its rhs is negative.  Inequality
    # row i owns slack column n + i (-1 in a negated row); each negated
    # inequality and each equality owns an artificial column, numbered in row
    # order after the slacks, which starts the basis in its row.
    b_all = b_ub + b_eq
    m_ub = len(b_ub)
    signs = [-1 if b < 0 else 1 for b in b_all]
    artificial = [i for i, s in enumerate(signs) if s < 0 or i >= m_ub]
    art_of = {i: n + m_ub + k for k, i in enumerate(artificial)}
    width = n + m_ub + len(art_of)
    rows = []
    for i, (coeffs, sign) in enumerate(zip(a_ub + a_eq, signs)):
        row = [sign * v for v in coeffs] + [Fraction(0)] * (width - n)
        if i < m_ub:
            row[n + i] = Fraction(sign)
        if i in art_of:
            row[art_of[i]] = Fraction(1)
        rows.append(row)
    rhs = [sign * b for sign, b in zip(signs, b_all)]
    basis = [art_of.get(i, n + i) for i in range(len(b_all))]
    # Per constraint, the column whose reduced cost gives its multiplier and
    # the sign that maps it back onto the constraint as the caller wrote it.
    # A negated inequality also negates its slack, so the signs cancel there.
    dual_cols = [(n + i, 1) for i in range(m_ub)] + [(art_of[i], signs[i]) for i in range(m_ub, len(b_all))]

    art_set = set(art_of.values())
    phase1 = [Fraction(int(j in art_set)) for j in range(width)] if art_set else None
    phase2 = [-v for v in c] + [Fraction(0)] * (width - n)
    proposal = _propose_basis(rows, rhs, basis, phase1, phase2, n + m_ub)
    tab = _Tableau(rows, rhs, basis)
    if proposal is None or not tab.warm_start(proposal, art_set):
        tab = _Tableau(rows, rhs, basis)
        if phase1 is not None:
            tab.minimize(phase1, set(range(width)))
            if tab.objective(phase1) != 0:
                raise LpInfeasible("constraints admit no feasible point")
    tab.drive_out(art_set)
    tab.minimize(phase2, set(range(n + m_ub)))

    x = [Fraction(0)] * n
    for b, value in zip(tab.basis, tab.rhs):
        if b < n:
            x[b] = value
    value = sum(ci * xi for ci, xi in zip(c, x))
    duals = tuple(sign * tab.reduced[col] for col, sign in dual_cols)
    return LpResult(tuple(x), value, duals)
