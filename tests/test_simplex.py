"""Simplex solver tests: hand-checked optima, degenerate regressions, and a
fuzz comparison against scipy's HiGHS on random small programs."""

import random
from fractions import Fraction as F

import pytest
from scipy.optimize import linprog

from polyscribe.simplex import (EQ, GE, LE, LinearProgram, solve_lp,
                                verify_dual_bound, verify_farkas)


def _lp(n, obj, rows):
    lp = LinearProgram(n, [F(c) for c in obj])
    for a, rel, b in rows:
        lp.add_row([F(x) for x in a], rel, F(b))
    return lp


def test_simple_max():
    # max x+y s.t. x+2y<=4, 3x+y<=6 -> x=8/5, y=6/5  [DERIVED: vertex solve]
    res = solve_lp(_lp(2, [1, 1], [([1, 2], LE, 4), ([3, 1], LE, 6)]))
    assert res.status == "optimal"
    assert res.objective == F(14, 5)
    assert res.x == [F(8, 5), F(6, 5)]
    assert verify_dual_bound(_lp(2, [1, 1], [([1, 2], LE, 4), ([3, 1], LE, 6)]),
                             res.duals, res.objective)


def test_equality_and_ge():
    # max 2x+y s.t. x+y=3, x-y>=1, x,y>=0 -> x=3, y=0
    lp = _lp(2, [2, 1], [([1, 1], EQ, 3), ([1, -1], GE, 1)])
    res = solve_lp(lp)
    assert res.status == "optimal" and res.objective == 6
    assert verify_dual_bound(lp, res.duals, F(6))


def test_add_row_rejects_bad_relation_and_length():
    lp = LinearProgram(2, [F(1), F(1)])
    with pytest.raises(ValueError):
        lp.add_row([1, 2], "<", 4)
    with pytest.raises(ValueError):
        lp.add_row([1, 2, 3], LE, 4)
    assert lp.rows == []


def test_unbounded():
    res = solve_lp(_lp(2, [1, 0], [([0, 1], LE, 1)]))
    assert res.status == "unbounded"


def test_infeasible_farkas():
    lp = _lp(1, [1], [([1], GE, 2), ([1], LE, 1)])
    res = solve_lp(lp)
    assert res.status == "infeasible"
    assert verify_farkas(lp, res.farkas)


def test_degenerate_artificial_regression():
    """Zero-RHS equality/GE rows leave artificials basic at zero after phase 1;
    they must not be pushed positive by phase 2 (this once returned an
    infeasible point as 'optimal')."""
    # max t s.t. x - t >= 0, -x - t >= 0, x + t <= 1  ->  x = t = 0
    lp = _lp(2, [0, 1], [([1, -1], GE, 0), ([-1, -1], GE, 0), ([1, 1], LE, 1)])
    res = solve_lp(lp)
    assert res.status == "optimal" and res.objective == 0
    assert res.x[0] - res.x[1] >= 0 and -res.x[0] - res.x[1] >= 0


def _scipy_status(lp):
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for a, rel, b in lp.rows:
        af = [float(x) for x in a]
        if rel == LE:
            A_ub.append(af), b_ub.append(float(b))
        elif rel == GE:
            A_ub.append([-x for x in af]), b_ub.append(-float(b))
        else:
            A_eq.append(af), b_eq.append(float(b))
    return linprog([-float(c) for c in lp.objective],
                   A_ub=A_ub or None, b_ub=b_ub or None,
                   A_eq=A_eq or None, b_eq=b_eq or None,
                   bounds=[(0, None)] * lp.n_vars, method="highs")


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_against_scipy(seed):
    rng = random.Random(seed)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        lp = LinearProgram(n, [F(rng.randint(-4, 4)) for _ in range(n)])
        for _ in range(m):
            rel = rng.choice([LE, GE, EQ])
            b = F(0) if rng.random() < 0.35 else F(rng.randint(-5, 5))
            lp.add_row([F(rng.randint(-3, 3)) for _ in range(n)], rel, b)
        res = solve_lp(lp)
        ref = _scipy_status(lp)
        expect = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        assert res.status == expect
        if res.status == "optimal":
            assert abs(float(res.objective) + ref.fun) < 1e-6
            for a, rel, b in lp.rows:
                v = sum(ai * xi for ai, xi in zip(a, res.x))
                assert (rel != LE or v <= b) and (rel != GE or v >= b) \
                    and (rel != EQ or v == b)
            assert all(x >= 0 for x in res.x)
            assert verify_dual_bound(lp, res.duals, res.objective)
        elif res.status == "infeasible":
            assert verify_farkas(lp, res.farkas)


@pytest.mark.parametrize("seed", range(4))
def test_integer_rows_solve_like_fraction_rows(seed):
    # the same program with int and with Fraction coefficients: equal
    # answers, including degenerate and infeasible programs
    rng = random.Random(seed)
    statuses = set()
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        obj = [rng.randint(-4, 4) for _ in range(n)]
        rows = [([rng.randint(-3, 3) for _ in range(n)], rng.choice([LE, GE, EQ]),
                 0 if rng.random() < 0.35 else rng.randint(-5, 5)) for _ in range(m)]
        as_int = LinearProgram(n, obj)
        for a, rel, b in rows:
            as_int.add_row(a, rel, b)
        assert all(type(x) is int for a, _, b in as_int.rows for x in a + [b])
        got, ref = solve_lp(as_int), solve_lp(_lp(n, obj, rows))
        assert (got.status, got.objective, got.x, got.duals, got.farkas) == \
            (ref.status, ref.objective, ref.x, ref.duals, ref.farkas)
        statuses.add(got.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_verifiers_reject_garbage():
    lp = _lp(2, [1, 1], [([1, 2], LE, 4), ([3, 1], LE, 6)])
    assert not verify_dual_bound(lp, [F(0), F(0)], F(14, 5))
    assert not verify_farkas(lp, [F(1), F(1)])
