"""Dense exact linear algebra over the rationals (desk scale).

Eliminations work on integer rows: the numerators of a row's rational
entries over one positive common denominator, which comes last.  Integer
arithmetic keeps every value exact and is much cheaper than Fraction
arithmetic (fraction-free elimination, Bareiss 1968); the values, and so
every pivot choice, are those of the rational rows.  `rref` and the
simplex tableau share the one Gauss-Jordan step, `pivot`.

Callers that work in exact geometry move a whole point set to integers
once (`integer_frame`): translating and scaling by a positive integer keep
affine ranks, hyperplane sides and nearest-point locations, so their
tests then run on Python ints.  The vector helpers keep int inputs ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def scaled(xs) -> list[int]:
    """The integer row of a sequence of ints and Fractions."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs] + [den]


def values(row) -> list[Fraction]:
    """The rational entries of an integer row."""
    return [Fraction(x, row[-1]) for x in row[:-1]]


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


def rref(rows):
    """Reduced row echelon form as integer rows, and the pivot columns."""
    m = [scaled(r) for r in rows]
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
