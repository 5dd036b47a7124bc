"""Exact rational LP: two-phase tableau simplex with Bland's anti-cycling rule.

Problems are maximizations over x >= 0 with rows of relation "<=", ">="
or "=".  The solver reports an exact optimum with primal solution and
dual multipliers; on infeasibility it reports a Farkas-style witness.
Everything is exact rational arithmetic: the tableau is a list of
`linalg` integer rows, pivoted by `linalg.pivot`, so no floating point
touches the decision path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import eliminate, pivot, scaled, values

LE, GE, EQ = "<=", ">=", "="


@dataclass
class LinearProgram:
    """maximize c . x  subject to  rows (a, rel, b), x >= 0."""

    n_vars: int
    objective: list[Fraction]
    rows: list[tuple[list[Fraction], str, Fraction]] = field(default_factory=list)

    def add_row(self, a, rel: str, b):
        if rel not in (LE, GE, EQ):
            raise ValueError(f"unknown row relation {rel!r}")
        a = [Fraction(x) for x in a]
        if len(a) != self.n_vars:
            raise ValueError(f"row has {len(a)} coefficients, expected {self.n_vars}")
        self.rows.append((a, rel, Fraction(b)))


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    x: list[Fraction] | None = None
    duals: list[Fraction] | None = None        # one per input row, bound convention below
    farkas: list[Fraction] | None = None       # infeasibility multipliers, same convention


# Tableau rows and z-rows are `linalg` integer rows over the columns and the
# right-hand side.

def _reduce_against_basis(z, tab, basis):
    for i, bc in enumerate(basis):
        if z[bc]:
            z = eliminate(z, tab[i], bc)
    return z


def _run_simplex(tab, basis, obj, allowed):
    """Maximize obj (a z-row over the columns and the constant term) on the
    tableau.

    obj is given in 'z_j - c_j' form already reduced against the basis and is
    updated in place.  Returns 'optimal' or 'unbounded'.  Bland's rule
    throughout.
    """
    ncols = len(obj) - 2
    while True:
        basic = set(basis)
        enter = next((j for j in range(ncols)
                      if allowed[j] and j not in basic and obj[j] < 0), None)
        if enter is None:
            return "optimal"
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                # ratio b / a, compared by cross-multiplication (a, la > 0)
                b = row[-2]
                if leave is None or b * la < lb * a or \
                        (b * la == lb * a and basis[i] < basis[leave]):
                    leave, lb, la = i, b, a
        if leave is None:
            return "unbounded"
        pivot(tab, leave, enter)
        basis[leave] = enter
        obj[:] = eliminate(obj, tab[leave], enter)


def solve_lp(lp: LinearProgram) -> LpResult:
    n = lp.n_vars
    m = len(lp.rows)
    # Normalize to b >= 0, remembering sign flips for the dual report.
    norm = []
    flipped = []
    for a, rel, b in lp.rows:
        if b < 0:
            a = [-x for x in a]
            b = -b
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            flipped.append(True)
        else:
            flipped.append(False)
        norm.append((a, rel, b))

    slack_col = [None] * m   # column of the +/-1 slack/surplus of each row
    art_col = [None] * m
    cols = n
    for i, (a, rel, b) in enumerate(norm):
        if rel in (LE, GE):
            slack_col[i] = cols
            cols += 1
        if rel in (GE, EQ):
            art_col[i] = cols
            cols += 1

    tab = []
    basis = [-1] * m
    for i, (a, rel, b) in enumerate(norm):
        row = [0] * (cols + 1)
        row[:n] = a
        if rel == LE:
            row[slack_col[i]] = 1
            basis[i] = slack_col[i]
        elif rel == GE:
            row[slack_col[i]] = -1
            row[art_col[i]] = 1
            basis[i] = art_col[i]
        else:
            row[art_col[i]] = 1
            basis[i] = art_col[i]
        row[-1] = b
        tab.append(scaled(row))

    artificials = {c for c in art_col if c is not None}
    allowed1 = [True] * cols

    # Phase 1: maximize -(sum of artificials); z-row reduced against basis.
    obj1 = [0] * (cols + 2)
    obj1[-1] = 1
    for c in artificials:
        obj1[c] = 1
    obj1 = _reduce_against_basis(obj1, tab, basis)
    if _run_simplex(tab, basis, obj1, allowed1) != "optimal":
        raise RuntimeError("phase 1 reported unbounded; its objective is bounded by 0")
    if obj1[-2] != 0:
        # Infeasible; Farkas multipliers from the phase-1 z-row.  Artificial
        # columns carry phase-1 cost -1, so their z-row entries are y_i + 1.
        y = _extract_duals(values(obj1), slack_col, art_col, m, art_cost=Fraction(-1))
        y = [-yi if fl else yi for yi, fl in zip(y, flipped)]
        return LpResult("infeasible", farkas=y)

    # Drive basic artificials out of the basis; otherwise a degenerate basic
    # artificial at zero can be pushed positive by a phase-2 pivot, silently
    # violating its row.  A row with no nonzero non-artificial entry is
    # redundant and its artificial stays pinned at zero.
    for r in range(m):
        if basis[r] in artificials:
            c = next((j for j in range(cols)
                      if j not in artificials and tab[r][j] != 0), None)
            if c is not None:
                pivot(tab, r, c)
                basis[r] = c

    # Phase 2: remaining artificials sit on redundant rows and never re-enter.
    allowed2 = [c not in artificials for c in range(cols)]
    obj2 = [-Fraction(c) for c in lp.objective[:n]] + [Fraction(0)] * (cols - n + 1)
    obj2 = _reduce_against_basis(scaled(obj2), tab, basis)
    if _run_simplex(tab, basis, obj2, allowed2) == "unbounded":
        return LpResult("unbounded")

    x = [Fraction(0)] * n
    for i, bc in enumerate(basis):
        if bc < n:
            x[bc] = Fraction(tab[i][-2], tab[i][-1])
    z = values(obj2)
    y = _extract_duals(z, slack_col, art_col, m, art_cost=Fraction(0))
    y = [-yi if fl else yi for yi, fl in zip(y, flipped)]
    return LpResult("optimal", objective=z[-1], x=x, duals=y)


def _extract_duals(obj, slack_col, art_col, m, art_cost):
    """Row duals from the z-row: slack col (+1) carries y_i, surplus (-1) -y_i,
    artificial (+1, cost art_cost) carries y_i - art_cost."""
    y = [Fraction(0)] * m
    for i in range(m):
        if slack_col[i] is not None:
            v = obj[slack_col[i]]
            y[i] = -v if art_col[i] is not None else v
        else:
            y[i] = obj[art_col[i]] + art_cost
    return y


def _row_combination(lp: LinearProgram, y):
    """(sum_i y_i a_i, sum_i y_i b_i), or None when a multiplier has the
    wrong sign: y_i >= 0 on '<=' rows, y_i <= 0 on '>=' rows, free on '='."""
    total = Fraction(0)
    comb = [Fraction(0)] * lp.n_vars
    for yi, (a, rel, b) in zip(y, lp.rows):
        if (rel == LE and yi < 0) or (rel == GE and yi > 0):
            return None
        total += yi * b
        for j, aj in enumerate(a):
            comb[j] += yi * aj
    return comb, total


def verify_dual_bound(lp: LinearProgram, y, bound: Fraction) -> bool:
    """Check that y certifies  c.x <= bound  for every feasible x >= 0:
    signed multipliers with sum_i y_i a_i >= c componentwise and
    sum_i y_i b_i == bound."""
    combined = _row_combination(lp, y)
    if combined is None:
        return False
    comb, total = combined
    return total == bound and all(cj >= oj for cj, oj in zip(comb, lp.objective))


def verify_farkas(lp: LinearProgram, y) -> bool:
    """Check that y certifies infeasibility: the combination sum_i y_i (row_i)
    has nonnegative coefficients on x but a negative right-hand side."""
    combined = _row_combination(lp, y)
    if combined is None:
        return False
    comb, total = combined
    return all(cj >= 0 for cj in comb) and total < 0
