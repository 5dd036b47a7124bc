"""Exact rational LP: two-phase tableau simplex with Bland's anti-cycling rule.

Problems are maximizations over x >= 0 with rows of relation "<=", ">="
or "=".  The solver reports an exact optimum with primal solution and
dual multipliers; on infeasibility it reports a Farkas-style witness.
Everything is exact rational arithmetic, and no floating point touches
the decision path.

The tableau is one 2-D integer array of `linalg` integer rows in lowest
terms: the constraints, then the z-row.  It is np.int64 when every entry
fits (an all-int program, such as every margin LP, goes in without a
Fraction), and each pivot is one vectorized `linalg.pivot_array`.  When
`linalg`'s guard finds that an update could overflow int64, the array is
promoted to dtype object and the solve goes on with the same code on
Python ints; entries past the bound from the start begin there.  A row in
lowest terms is the unique integer form of its values, so either dtype
makes the same Bland choices and reports the same x, duals, Farkas vector
and pivots.  Results hold Fractions of Python ints, never numpy scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import eliminate_rows, int_array, pivot_array, scaled

LE, GE, EQ = "<=", ">=", "="


def _exact(x):
    """x as an int or a Fraction: ints are kept, anything else becomes a
    Fraction."""
    return x if type(x) is int else Fraction(x)


@dataclass
class LinearProgram:
    """maximize c . x  subject to  rows (a, rel, b), x >= 0.

    Coefficients are ints or Fractions; an integer row skips the Fraction
    constructions, and the solver reads both alike."""

    n_vars: int
    objective: list[int | Fraction]
    rows: list[tuple[list[int | Fraction], str, int | Fraction]] = field(default_factory=list)

    def add_row(self, a, rel: str, b):
        if rel not in (LE, GE, EQ):
            raise ValueError(f"unknown row relation {rel!r}")
        a = list(a)
        if not set(map(type, a)) <= {int}:
            a = [_exact(x) for x in a]
        if len(a) != self.n_vars:
            raise ValueError(f"row has {len(a)} coefficients, expected {self.n_vars}")
        self.rows.append((a, rel, _exact(b)))


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    x: list[Fraction] | None = None
    duals: list[Fraction] | None = None        # one per input row, bound convention below
    farkas: list[Fraction] | None = None       # infeasibility multipliers, same convention


# The tableau is one integer array: row i < m holds constraint i and row m
# the z-row, each a `linalg` integer row over the columns and the right-hand
# side, in lowest terms.

def _reduce_against_basis(t, basis):
    """Eliminate the basic columns from the z-row."""
    m = len(basis)
    for i, bc in enumerate(basis):
        if t[m, bc]:
            t = eliminate_rows(t, [m], t[i], bc)
    return t


def _run_simplex(t, basis, allowed):
    """Maximize the z-row (in 'z_j - c_j' form, already reduced against the
    basis) on the tableau t, which the pivots update.

    Returns 'optimal' or 'unbounded', and t.  Bland's rule throughout: a
    basic column has a zero z-row entry, so the entering column is the
    first allowed one with a negative entry.
    """
    m = len(basis)
    while True:
        negative = ((t[m, :-2] < 0) & allowed).nonzero()[0]
        if not negative.size:
            return "optimal", t
        enter = int(negative[0])
        col = t[:m, enter]
        rows = (col > 0).nonzero()[0]
        leave = None
        for i, b, a in zip(rows.tolist(), t[rows, -2].tolist(), col[rows].tolist()):
            # ratio b / a, compared by cross-multiplication (a, la > 0)
            if leave is None or b * la < lb * a or \
                    (b * la == lb * a and basis[i] < basis[leave]):
                leave, lb, la = i, b, a
        if leave is None:
            return "unbounded", t
        t = pivot_array(t, leave, enter)
        basis[leave] = enter


def solve_lp(lp: LinearProgram) -> LpResult:
    n = lp.n_vars
    m = len(lp.rows)
    # Normalize to b >= 0, remembering sign flips for the dual report.
    flipped = [b < 0 for _, _, b in lp.rows]
    rels = [{LE: GE, GE: LE, EQ: EQ}[rel] if fl else rel
            for (_, rel, _), fl in zip(lp.rows, flipped)]

    slack_col = [None] * m   # column of the +/-1 slack/surplus of each row
    art_col = [None] * m
    cols = n
    for i, rel in enumerate(rels):
        if rel in (LE, GE):
            slack_col[i] = cols
            cols += 1
        if rel in (GE, EQ):
            art_col[i] = cols
            cols += 1

    # The rows' integer rows, and last the objective's as the phase-2 z-row.
    ab = int_array([scaled([*a, b]) for a, _, b in lp.rows]
                   + [scaled([-c for c in lp.objective[:n]] + [0])])
    ab[:m][flipped, :-1] *= -1
    t = np.zeros((m + 1, cols + 2), dtype=ab.dtype)
    t[:, :n] = ab[:, :n]
    t[:, -2:] = ab[:, n:]
    obj2 = t[m].copy()
    basis = [-1] * m
    for i, rel in enumerate(rels):
        den = ab[i, -1]
        if rel == LE:
            t[i, slack_col[i]] = den
            basis[i] = slack_col[i]
        else:
            if rel == GE:
                t[i, slack_col[i]] = -den
            t[i, art_col[i]] = den
            basis[i] = art_col[i]

    artificial = np.zeros(cols, dtype=bool)
    artificial[[c for c in art_col if c is not None]] = True

    # Phase 1: maximize -(sum of artificials); z-row reduced against basis.
    t[m] = 0
    t[m, :cols][artificial] = 1
    t[m, -1] = 1
    t = _reduce_against_basis(t, basis)
    status, t = _run_simplex(t, basis, np.ones(cols, dtype=bool))
    if status != "optimal":
        raise RuntimeError("phase 1 reported unbounded; its objective is bounded by 0")
    if t[m, -2] != 0:
        # Infeasible; Farkas multipliers from the phase-1 z-row.  Artificial
        # columns carry phase-1 cost -1, so their z-row entries are y_i + 1.
        y = _extract_duals(t[m].tolist(), slack_col, art_col, art_cost=-1)
        y = [-yi if fl else yi for yi, fl in zip(y, flipped)]
        return LpResult("infeasible", farkas=y)

    # Drive basic artificials out of the basis; otherwise a degenerate basic
    # artificial at zero can be pushed positive by a phase-2 pivot, silently
    # violating its row.  A row with no nonzero non-artificial entry is
    # redundant and its artificial stays pinned at zero.
    for r in range(m):
        if artificial[basis[r]]:
            nonzero = ((t[r, :cols] != 0) & ~artificial).nonzero()[0]
            if nonzero.size:
                c = int(nonzero[0])
                t = pivot_array(t, r, c)
                basis[r] = c

    # Phase 2: remaining artificials sit on redundant rows and never re-enter.
    t[m] = obj2
    t = _reduce_against_basis(t, basis)
    status, t = _run_simplex(t, basis, ~artificial)
    if status == "unbounded":
        return LpResult("unbounded")

    x = [Fraction(0)] * n
    rhs, den = t[:m, -2].tolist(), t[:m, -1].tolist()
    for i, bc in enumerate(basis):
        if bc < n:
            x[bc] = Fraction(rhs[i], den[i])
    z = t[m].tolist()
    y = _extract_duals(z, slack_col, art_col, art_cost=0)
    y = [-yi if fl else yi for yi, fl in zip(y, flipped)]
    return LpResult("optimal", objective=Fraction(z[-2], z[-1]), x=x, duals=y)


def _extract_duals(z, slack_col, art_col, art_cost):
    """Row duals from the integer z-row z: slack col (+1) carries y_i,
    surplus (-1) -y_i, artificial (+1, cost art_cost) carries y_i - art_cost."""
    y = []
    for s, a in zip(slack_col, art_col):
        if s is not None:
            v = Fraction(z[s], z[-1])
            y.append(-v if a is not None else v)
        else:
            y.append(Fraction(z[a], z[-1]) + art_cost)
    return y


def _row_combination(lp: LinearProgram, y):
    """(sum_i y_i a_i, sum_i y_i b_i), or None when y does not have one
    multiplier per row or a multiplier has the wrong sign: y_i >= 0 on '<='
    rows, y_i <= 0 on '>=' rows, free on '='."""
    if len(y) != len(lp.rows):
        return None
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
