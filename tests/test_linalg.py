"""linalg's integer-row elimination against the Fraction Gauss-Jordan
elimination it replaced, which this file keeps as the reference.  The
reduced row echelon form is unique, so pivots and every reduced value must
agree exactly."""

import random
from fractions import Fraction as F

import pytest

from polyscribe.linalg import (affine_rank, dot, integer_frame, integer_rref,
                               nullspace, rref, solve_linear, vsub)


def values(row):
    """The rational entries of an integer row."""
    return [F(x, row[-1]) for x in row[:-1]]


def ref_rref(rows):
    """Reduced row echelon form on Fraction entries; (rows, pivot columns)."""
    m = [[F(x) for x in r] for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def ref_solve_linear(a_rows, b):
    if not a_rows:
        return []
    n = len(a_rows[0])
    red, pivots = ref_rref([list(r) + [bv] for r, bv in zip(a_rows, b)])
    if n in pivots:
        return None
    x = [F(0)] * n
    for i, c in enumerate(pivots):
        x[c] = red[i][n]
    return x


def ref_nullspace(rows):
    if not rows:
        return []
    n = len(rows[0])
    red, pivots = ref_rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[fc] = F(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def _entry(rng, big):
    """0, an int or a Fraction; with big, numerators and denominators
    reach past 2^200."""
    u = rng.random()
    if u < 0.25:
        return 0
    num = rng.randint(-2 ** 210, 2 ** 210) if big else rng.randint(-6, 6)
    if u < 0.55:
        return num
    return F(num, rng.randint(1, 2 ** 205 if big else 9))


def _matrices(seed, count=60):
    """Random matrices of every shape up to 6 x 6, wide and tall, some
    with a zero row, a zero column, or a duplicated or rescaled row."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        big = k % 4 == 0
        m = [[_entry(rng, big) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.3:
            m[rng.randrange(r)] = [0] * c
        if rng.random() < 0.3:
            j = rng.randrange(c)
            for row in m:
                row[j] = 0
        if rng.random() < 0.3:
            m.insert(rng.randrange(r + 1), list(m[rng.randrange(r)]))
        if rng.random() < 0.3:
            q = F(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
            m.append([q * x for x in m[rng.randrange(r)]])
        out.append(m)
    return out


EDGE_CASES = [
    [],                                  # empty input
    [[]],                                # one row, no columns
    [[0, 0, 0]],                         # single zero row
    [[0, F(3, 4), -2]],                  # single row, ints and Fractions
    [[1, 2], [2, 4], [1, 2]],            # duplicated rows
    [[0, 1], [0, 2], [0, -5]],           # zero column, tall
    [[1, 0, 2, 0, 3], [2, 0, 4, 0, 6]],  # wide, rank 1
    [[F(2 ** 201 + 1, 3), 2 ** 203], [F(-1, 2 ** 202), 7]],
]


def _check(rows, b):
    red, pivots = rref(rows)
    ref, ref_pivots = ref_rref(rows)
    assert pivots == ref_pivots
    assert [values(row) for row in red] == ref
    assert all(row[-1] > 0 for row in red)
    if all(type(x) is int for row in rows for x in row):
        assert integer_rref([list(row) + [1] for row in rows]) == (red, pivots)

    x = solve_linear(rows, b)
    assert x == ref_solve_linear(rows, b)
    assert x is None or all(isinstance(xi, F) for xi in x)

    basis = nullspace(rows)
    assert basis == ref_nullspace(rows)
    assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows for vec in basis)

    if rows:
        p0 = rows[0]
        ref_affine = len(ref_rref([list(vsub(p, p0)) for p in rows[1:]])[1])
        assert affine_rank(rows) == ref_affine


@pytest.mark.parametrize("seed", range(4))
def test_elimination_matches_fraction_reference(seed):
    rng = random.Random(seed + 100)
    for rows in _matrices(seed) + EDGE_CASES:
        n = len(rows[0]) if rows else 0
        # a right-hand side in the column span, and an arbitrary one, which
        # is inconsistent whenever the rows are dependent and it misses
        x0 = [_entry(rng, False) for _ in range(n)]
        consistent = [sum((a * xi for a, xi in zip(row, x0)), F(0)) for row in rows]
        _check(rows, consistent)
        assert solve_linear(rows, consistent) is not None
        _check(rows, [_entry(rng, False) for _ in rows])


def test_inconsistent_system_has_no_solution():
    assert solve_linear([[1, 2], [2, 4]], [1, 3]) is None
    assert ref_solve_linear([[1, 2], [2, 4]], [1, 3]) is None
    assert solve_linear([[0, 0]], [F(1, 2)]) is None


def test_big_numerators_are_covered():
    rows = [row for seed in range(4) for m in _matrices(seed) for row in m]
    assert max(abs(F(x).numerator) for row in rows for x in row) > 2 ** 200
    assert any(isinstance(x, int) for row in rows for x in row)
    assert any(isinstance(x, F) and x.denominator > 1 for row in rows for x in row)


def test_integer_frame_keeps_ints_ints():
    pts = [(F(1, 2), F(-3)), (F(2, 3), F(1, 6)), (F(0), F(5, 4))]
    origin = (F(1, 3), F(1))
    w, den = integer_frame(pts, origin)
    assert den == 12 and all(type(x) is int for v in w for x in v)
    assert [tuple(F(x, den) for x in v) for v in w] == [vsub(p, origin) for p in pts]
    assert type(dot(w[0], w[1])) is int and dot(w[0], w[1]) == 144 * dot(
        vsub(pts[0], origin), vsub(pts[1], origin))
    assert affine_rank(w) == affine_rank(pts) == 2
