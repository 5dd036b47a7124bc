"""Dense exact linear algebra over the rationals (desk scale).

Eliminations work on integer rows: the numerators of a row's rational
entries over one positive common denominator, which comes last.  Integer
arithmetic keeps every value exact and is much cheaper than Fraction
arithmetic (fraction-free elimination, Bareiss 1968); the values, and so
every pivot choice, are those of the rational rows.  Every row is kept in
lowest terms (gcd 1, positive denominator), its unique integer form, so
two kernels that reduce the same rows hold the same integers.

The Gauss-Jordan step comes in two kernels.  `pivot` works on a list of
Python-int rows; `rref` and its int-row entry `integer_rref` use it.  Their
systems are small (the Gram systems of `geometry` have at most 13 rows),
and on the cyclic-scribe benchmark the list kernel ran them in half the
time of the array kernel, whose per-call numpy overhead dominates there.
`pivot_array` works on a 2-D array (`int_array`) and updates every row
that has a nonzero in the pivot column by one vectorized
`eliminate_rows`; the simplex tableau uses it.  The array is np.int64
while its entries stay small, as they do on the angle-system LPs (about
12 bits).  Before each update a guard checks max|rows| |p| + max|col|
max|pr| < EXACT_BOUND = 2^62, which bounds every product and difference;
when it fails the array is promoted to dtype object and the same code runs
on Python ints.  Floats never enter.

Callers that work in exact geometry move a whole point set to integers
once (`integer_frame`): translating and scaling by a positive integer keep
affine ranks, hyperplane sides and nearest-point locations, so their
tests then run on Python ints.  The vector helpers keep int inputs ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

# An int64 update a * p - f * b is exact while |a| |p| + |f| |b| stays below
# this bound, a factor of two short of int64's range.
EXACT_BOUND = 1 << 62


def scaled(xs) -> list[int]:
    """The integer row of a sequence of ints and Fractions; ints alone are
    their own numerators over 1."""
    if set(map(type, xs)) <= {int}:
        return [*xs, 1]
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs] + [den]


def _lowest(row):
    g = gcd(*row)
    return row if g == 1 else [x // g for x in row]


def eliminate(row, pr, c):
    """row - row[c] * pr, where pr has value 1 in column c."""
    p, f = pr[-1], row[c]
    out = [a * p - f * b for a, b in zip(row, pr)]
    out[-1] = row[-1] * p
    return _lowest(out)


def pivot(rows, r, c):
    """One Gauss-Jordan step: divide row r by its entry in column c and
    eliminate column c from every other row; rows with a zero in column c
    are left as they are."""
    pr = rows[r][:-1] + [rows[r][c]]
    if pr[-1] < 0:
        pr = [-x for x in pr]
    rows[r] = pr = _lowest(pr)
    for i, row in enumerate(rows):
        if i != r and row[c]:
            rows[i] = eliminate(row, pr, c)


def int_array(rows):
    """Integer rows as a 2-D array: np.int64 when every entry lies below
    EXACT_BOUND in absolute value, else dtype object (Python ints)."""
    try:
        t = np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)
    if max(int(t.max()), -int(t.min())) < EXACT_BOUND:
        return t
    return t.astype(object)


def eliminate_rows(t, rows, pr, c):
    """t with each row i of `rows` replaced by t[i] - t[i, c] * pr in lowest
    terms, where the integer row pr has value 1 in column c.

    An int64 t comes back as dtype object, updated on Python ints, when
    max|t[rows]| |p| + max|t[rows, c]| max|pr| reaches EXACT_BOUND, p being
    pr's denominator: below it every product and difference is exact."""
    block = t.take(rows, axis=0)
    f = block[:, c:c + 1]
    p = pr[-1]
    if t.dtype != object and (int(np.abs(block).max()) * int(p)
                              + int(np.abs(f).max()) * int(np.abs(pr).max())
                              >= EXACT_BOUND):
        t, block, f, pr = (a.astype(object) for a in (t, block, f, pr))
    out = block * p - f * pr
    out[:, -1] = block[:, -1] * p
    g = np.gcd.reduce(out, axis=1)
    big = g > 1
    out[big] //= g[big, None]
    t[rows] = out
    return t


def pivot_array(t, r, c):
    """`pivot` on the rows of a 2-D integer array (`int_array`): the same
    rows, each updated row by one vectorized `eliminate_rows`.  Returns
    the array, which is t, or t promoted to dtype object."""
    pr = t[r].copy()
    pr[-1] = pr[c]
    if pr[-1] < 0:
        pr = -pr
    g = np.gcd.reduce(pr)
    if g > 1:
        pr //= g
    t[r] = pr
    rows = t[:, c].nonzero()[0]
    rows = rows[rows != r]
    return eliminate_rows(t, rows, pr, c) if rows.size else t


def rref(rows):
    """Reduced row echelon form as integer rows, and the pivot columns."""
    return integer_rref([scaled(r) for r in rows])


def integer_rref(m):
    """`rref` of integer rows in lowest terms (an int row with denominator
    1 is), reduced in place: m, and the pivot columns."""
    pivots = []
    for c in range(len(m[0]) - 1 if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pivot(m, r, c)
        pivots.append(c)
        if r + 1 == len(m):
            break
    return m, pivots


def solve_linear(a_rows, b):
    """One solution x of A x = b, or None if inconsistent.

    Free variables are set to 0.
    """
    if not a_rows:
        return []
    n = len(a_rows[0])
    red, pivots = rref([list(r) + [bv] for r, bv in zip(a_rows, b)])
    if n in pivots:  # pivot in the augmented column
        return None
    x = [Fraction(0)] * n
    for row, c in zip(red, pivots):
        x[c] = Fraction(row[n], row[-1])
    return x


def nullspace(rows):
    """Basis of the nullspace of A as a list of rational vectors."""
    if not rows:
        return []
    n = len(rows[0])
    red, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = Fraction(-row[fc], row[-1])
        basis.append(v)
    return basis


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def norm_sq(v):
    return dot(v, v)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def integer_frame(points, origin):
    """The vectors D (p - origin) of the points as int tuples, and D > 0,
    the common denominator of the recentred coordinates."""
    d = len(origin)
    flat = scaled([x - o for p in points for x, o in zip(p, origin)])
    den = flat.pop()
    return [tuple(flat[k:k + d]) for k in range(0, len(flat), d)], den


def affine_rank(points) -> int:
    """Dimension of the affine hull of the given points."""
    pts = list(points)
    if len(pts) <= 1:
        return 0
    p0 = pts[0]
    return len(rref([list(vsub(p, p0)) for p in pts[1:]])[1])
