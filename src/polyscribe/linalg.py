"""Dense exact linear algebra over the rationals (desk scale)."""

from __future__ import annotations

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
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


def matrix_rank(rows) -> int:
    return len(rref(rows)[1])


def solve_linear(a_rows, b):
    """One solution x of A x = b, or None if inconsistent.

    Free variables are set to 0.
    """
    if not a_rows:
        return []
    n = len(a_rows[0])
    aug = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    red, pivots = rref(aug)
    if n in pivots:  # pivot in the augmented column
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = red[i][n]
    return x


def nullspace(rows):
    """Basis of the nullspace of A as a list of rational vectors."""
    if not rows:
        return []
    n = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(v) -> Fraction:
    return dot(v, v)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def affine_rank(points) -> int:
    """Dimension of the affine hull of the given points."""
    pts = list(points)
    if len(pts) <= 1:
        return 0
    p0 = pts[0]
    return matrix_rank([list(vsub(p, p0)) for p in pts[1:]])
