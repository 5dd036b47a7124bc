"""Simplex solver tests: hand-checked optima, degenerate regressions, a
fuzz comparison against scipy's HiGHS on random small programs, and a
differential test of the array tableau against the list-row solver it
replaced, which this file keeps as the reference."""

import random
from fractions import Fraction as F

import pytest
from scipy.optimize import linprog

from polyscribe import hrs, linalg, simplex
from polyscribe.corpus import CORPUS_NAMES, named_polytope
from polyscribe.linalg import eliminate, pivot, scaled
from polyscribe.maps import dual_map
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


# ------------------------------------------------- reference list-row solver

def _values(row):
    return [F(x, row[-1]) for x in row[:-1]]


def _ref_reduce_against_basis(z, tab, basis):
    for i, bc in enumerate(basis):
        if z[bc]:
            z = eliminate(z, tab[i], bc)
    return z


def _ref_run_simplex(tab, basis, obj, allowed, pivots):
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
                b = row[-2]
                if leave is None or b * la < lb * a or \
                        (b * la == lb * a and basis[i] < basis[leave]):
                    leave, lb, la = i, b, a
        if leave is None:
            return "unbounded"
        pivot(tab, leave, enter)
        pivots.append((leave, enter))
        basis[leave] = enter
        obj[:] = eliminate(obj, tab[leave], enter)


def _ref_extract_duals(obj, slack_col, art_col, m, art_cost):
    y = [F(0)] * m
    for i in range(m):
        if slack_col[i] is not None:
            v = obj[slack_col[i]]
            y[i] = -v if art_col[i] is not None else v
        else:
            y[i] = obj[art_col[i]] + art_cost
    return y


def ref_solve_lp(lp):
    """The two-phase Bland simplex on a list of integer rows; (LpResult,
    the (row, column) of every pivot in order)."""
    n, m = lp.n_vars, len(lp.rows)
    pivots = []
    norm, flipped = [], []
    for a, rel, b in lp.rows:
        flipped.append(b < 0)
        if b < 0:
            a, b, rel = [-x for x in a], -b, {LE: GE, GE: LE, EQ: EQ}[rel]
        norm.append((a, rel, b))
    slack_col, art_col = [None] * m, [None] * m
    cols = n
    for i, (a, rel, b) in enumerate(norm):
        if rel in (LE, GE):
            slack_col[i] = cols
            cols += 1
        if rel in (GE, EQ):
            art_col[i] = cols
            cols += 1
    tab, basis = [], [-1] * m
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
    obj1 = [0] * (cols + 2)
    obj1[-1] = 1
    for c in artificials:
        obj1[c] = 1
    obj1 = _ref_reduce_against_basis(obj1, tab, basis)
    assert _ref_run_simplex(tab, basis, obj1, [True] * cols, pivots) == "optimal"
    if obj1[-2] != 0:
        y = _ref_extract_duals(_values(obj1), slack_col, art_col, m, F(-1))
        return simplex.LpResult(
            "infeasible", farkas=[-yi if fl else yi for yi, fl in zip(y, flipped)]), pivots
    for r in range(m):
        if basis[r] in artificials:
            c = next((j for j in range(cols)
                      if j not in artificials and tab[r][j] != 0), None)
            if c is not None:
                pivot(tab, r, c)
                pivots.append((r, c))
                basis[r] = c
    allowed2 = [c not in artificials for c in range(cols)]
    obj2 = [-F(c) for c in lp.objective[:n]] + [F(0)] * (cols - n + 1)
    obj2 = _ref_reduce_against_basis(scaled(obj2), tab, basis)
    if _ref_run_simplex(tab, basis, obj2, allowed2, pivots) == "unbounded":
        return simplex.LpResult("unbounded"), pivots
    x = [F(0)] * n
    for i, bc in enumerate(basis):
        if bc < n:
            x[bc] = F(tab[i][-2], tab[i][-1])
    z = _values(obj2)
    y = _ref_extract_duals(z, slack_col, art_col, m, F(0))
    return simplex.LpResult("optimal", objective=z[-1], x=x,
                            duals=[-yi if fl else yi for yi, fl in zip(y, flipped)]), pivots


# ------------------------------------------------------- differential test

def _solve_counted(lp, monkeypatch):
    """solve_lp, and the (row, column) of every pivot it made."""
    pivots = []

    def counted(t, r, c):
        pivots.append((r, c))
        return linalg.pivot_array(t, r, c)
    with monkeypatch.context() as mp:
        mp.setattr(simplex, "pivot_array", counted)
        res = solve_lp(lp)
    return res, pivots


def _plain(res):
    """Every reported number is a Fraction: no int64 or other numpy scalar."""
    numbers = [res.objective] if res.objective is not None else []
    for part in (res.x, res.duals, res.farkas):
        numbers += part or []
    return all(type(v) is F and type(v.numerator) is int
               and type(v.denominator) is int for v in numbers)


def _fields(res):
    return (res.status, res.objective, res.x, res.duals, res.farkas)


def _assert_matches_reference(lp, monkeypatch):
    got, pivots = _solve_counted(lp, monkeypatch)
    ref, ref_pivots = ref_solve_lp(lp)
    assert _fields(got) == _fields(ref)
    assert pivots == ref_pivots
    assert _plain(got)
    return got, pivots


def _random_lp(rng, kind):
    """A small random program: 'int' rows, 'fraction' rows, 'wide' rows
    with entries up to 2^40, or 'big' rows whose entries reach past 2^63.
    A third of the right-hand sides are 0, which makes degenerate vertices
    common."""
    def entry(k):
        if kind == "fraction" and rng.random() < 0.5:
            return F(rng.randint(-k, k), rng.randint(1, 7))
        if kind == "wide" and rng.random() < 0.5:
            return rng.randint(-2 ** 40, 2 ** 40)
        if kind == "big" and rng.random() < 0.3:
            return rng.choice([-1, 1]) * rng.randint(2 ** 63, 2 ** 70)
        return rng.randint(-k, k)
    n, m = rng.randint(1, 6), rng.randint(1, 7)
    lp = LinearProgram(n, [entry(4) for _ in range(n)])
    for _ in range(m):
        b = 0 if rng.random() < 0.35 else entry(5)
        lp.add_row([entry(3) for _ in range(n)], rng.choice([LE, GE, EQ]), b)
    return lp


@pytest.mark.parametrize("kind", ["int", "fraction", "wide", "big"])
def test_random_lps_match_reference(kind, monkeypatch):
    rng = random.Random(kind)
    statuses = set()
    for _ in range(150):
        lp = _random_lp(rng, kind)
        statuses.add(_assert_matches_reference(lp, monkeypatch)[0].status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_big_entries_start_on_python_ints():
    t = linalg.int_array([[2 ** 63, 1], [0, 1]])
    assert t.dtype == object and type(t[0, 0]) is int
    assert linalg.int_array([[2 ** 62 - 1, -(2 ** 62 - 1)]]).dtype.kind == "i"
    assert linalg.int_array([[-(2 ** 62), 1]]).dtype == object


@pytest.fixture(scope="module")
def margin_lps():
    """The margin LP of every cutting-plane round of both decisions on the
    corpus, in the order the decisions solve them."""
    lps = []
    solve = hrs.solve_lp

    def recorded(lp):
        lps.append(lp)
        return solve(lp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hrs, "solve_lp", recorded)
        for name in CORPUS_NAMES:
            m = named_polytope(name)
            hrs.decide_circumscribable(m)
            hrs.decide_circumscribable(dual_map(m))
    return lps


def test_margin_lps_match_reference(margin_lps, monkeypatch):
    assert len(margin_lps) > 2 * len(CORPUS_NAMES)
    statuses = {_assert_matches_reference(lp, monkeypatch)[0].status for lp in margin_lps}
    assert statuses == {"optimal", "infeasible"}


class _Bound:
    """A stand-in for linalg.EXACT_BOUND = 2^62 that counts the overflow
    guard's checks (`x >= bound`) and the ones that fail.  With fail set,
    every check from number fail (0-based) on fails as well."""

    def __init__(self, fail=None):
        self.fail, self.checks, self.failed = fail, 0, 0

    def __gt__(self, x):
        return x < 2 ** 62

    def __le__(self, x):
        self.checks += 1
        failed = x >= 2 ** 62 or (self.fail is not None and self.checks > self.fail)
        self.failed += failed
        return failed


def _guarded(lp, monkeypatch, fail=None):
    """solve_lp under a _Bound; (result, pivots, the bound)."""
    bound = _Bound(fail)
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "EXACT_BOUND", bound)
        res, pivots = _solve_counted(lp, monkeypatch)
    return res, pivots, bound


def test_guard_promotes_growing_entries(monkeypatch):
    """Entries near 2^40 fit int64 at the start, but their products do
    not: the guard fails on its own, and the solve ends on Python ints
    with the reference's answer."""
    rng = random.Random(5)
    promoted = 0
    for _ in range(60):
        lp = _random_lp(rng, "wide")
        want, want_pivots = _assert_matches_reference(lp, monkeypatch)
        res, pivots, bound = _guarded(lp, monkeypatch)
        assert _fields(res) == _fields(want) and pivots == want_pivots
        # once promoted, no further check runs
        assert bound.failed <= 1
        promoted += bound.failed
    assert promoted > 20


@pytest.mark.parametrize("seed", range(3))
def test_forced_fallback_matches_int64_path(seed, margin_lps, monkeypatch):
    """The guard fails at the first check, or at a random one: the solve
    finishes on Python ints with the same result and pivots."""
    rng = random.Random(seed)
    lps = [_random_lp(rng, "int") for _ in range(40)] + rng.sample(margin_lps, 12)
    promoted = 0
    for lp in lps:
        want, want_pivots = _assert_matches_reference(lp, monkeypatch)
        checks = _guarded(lp, monkeypatch)[2].checks
        for fail in {0, rng.randrange(checks)} if checks else ():
            res, pivots, bound = _guarded(lp, monkeypatch, fail)
            # the failing check was the last on int64; the rest ran on objects
            assert bound.checks == fail + 1 and bound.failed == 1
            assert _fields(res) == _fields(want) and pivots == want_pivots
            assert _plain(res)
            promoted += fail > 0
    assert promoted > 10
