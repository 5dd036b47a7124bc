"""Exact geometric checks on realizations: sphere incidence, cut/avoid/tangent
tests, (i,j)- and k-scribedness, inscribed cyclic constructions, k-sets.

Every face question goes through one kernel per realization and sphere:
the points, recentred at the sphere center, give one exact Gram matrix, and
the point of an affine hull nearest the center is found from that matrix
alone by an exact linear solve.  The kernel lives on the point configuration
and solves each support once, so faces that share vertices or active sets
share their solves.  The minimum norm over a face enumerates the supports
of that point among the face's vertices; the same solves locate it, since
it lies in the face's relative interior iff the supports that represent it
with positive coefficients cover every vertex of the face.  No face test
solves an LP.
Avoidance enumerates active sets of other vertices: the least-norm normal of
a hyperplane through the face and an active set is the nearest point scaled
by the inverse of its squared norm.  When no hyperplane through the face has
the polytope on the center's side, the face does not avoid the ball.  Face
vertex counts are small; correctness is paramount.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import BudgetExceeded, ParseError
from .hull import FaceLattice, enumerate_facets
from .linalg import affine_rank, dot, norm_sq, solve_linear, vsub
from .points import PointConfiguration, SphereRef
from .rationals import format_rational
from .simplex import GE, LE, EQ, LinearProgram, solve_lp

DEFAULT_ACTIVE_SET_BUDGET = 12
DEFAULT_KSET_MAX_POINTS = 12

RELATIVE_INTERIOR = "relative interior"
RELATIVE_BOUNDARY = "relative boundary"


def on_sphere_check(pc: PointConfiguration, s: SphereRef) -> list[bool]:
    """Exact per-vertex test of ||v - center||^2 == radius_squared."""
    return [norm_sq(vsub(p, s.center)) == s.radius_squared for p in pc.points]


# ------------------------------------------------------------- min-norm over face

class _GramKernel:
    """The face solves of one realization against one sphere.

    Recentred at the sphere center, the points are vectors w_i with Gram
    matrix G = [w_i . w_j].  The point of aff(S) nearest the center is
    sum_S lambda_i w_i, where G_S lambda = mu 1 and 1^T lambda = 1, and mu
    is its squared distance to the center.  Every system is
    consistent (the nearest point exists); when G_S is singular lambda is
    one of many solutions, but the point, and so mu, is unique.  Each
    support is solved once."""

    def __init__(self, pc: PointConfiguration, s: SphereRef):
        w = [vsub(p, s.center) for p in pc.points]
        self.gram = [[dot(u, v) for v in w] for u in w]
        self._solved = {}
        self._bounds = {}

    def solve(self, support):
        """(lambda, mu) for a sorted tuple of point indices."""
        sol = self._solved.get(support)
        if sol is None:
            g = self.gram
            rows = [[g[i][j] for j in support] + [-1] for i in support]
            rows.append([1] * len(support) + [0])
            x = solve_linear(rows, [0] * len(support) + [1])
            if x is None:
                raise RuntimeError(f"nearest-point system of {support} is inconsistent")
            sol = self._solved[support] = (x[:-1], x[-1])
        return sol

    def bounds_polytope(self, support) -> bool:
        """Does the hyperplane through aff(support) normal to its nearest
        point x have every point u on the center's side, <x, w_u> <= mu?
        Points of the support lie on it with equality."""
        ok = self._bounds.get(support)
        if ok is None:
            lam, mu = self.solve(support)
            lam = [(i, l) for i, l in zip(support, lam) if l]
            ok = self._bounds[support] = all(
                sum(l * row[i] for i, l in lam) <= mu for row in self.gram)
        return ok


def _kernel(pc: PointConfiguration, s: SphereRef) -> _GramKernel:
    kernel = pc._kernels.get(s)
    if kernel is None:
        kernel = pc._kernels[s] = _GramKernel(pc, s)
    return kernel


def min_norm_sq_over_face(pc: PointConfiguration, face, s: SphereRef):
    """Exact minimum of ||x - center||^2 over conv(face vertices), plus
    whether the minimizer lies in the relative interior of the face.

    The minimizer x* is unique, and it is the nearest point of the affine
    hull of some support with nonnegative coefficients; the least such
    candidate value mu* is the minimum, and every candidate with value mu*
    is x*.  x* is in the relative interior iff the supports with every
    coefficient positive and value mu* cover the face (Wolfe 1976):
    averaging those representations gives a strictly positive one.
    Conversely, given a strictly positive one, a vertex of
    {lambda >= 0, sum lambda = 1, sum lambda_i v_i = x*} that maximizes
    lambda_v is an affinely independent support with x* in its relative
    interior, so x* is that support's nearest affine point, solved with
    lambda_v > 0."""
    face = sorted(face)
    if not face:
        raise ValueError("a face needs at least one vertex")
    if len(face) > DEFAULT_ACTIVE_SET_BUDGET:
        raise BudgetExceeded("active-set enumeration", len(face), DEFAULT_ACTIVE_SET_BUDGET)
    kernel = _kernel(pc, s)
    best, covered = None, set()
    for r in range(1, len(face) + 1):
        for support in combinations(face, r):
            lam, mu = kernel.solve(support)
            if any(l < 0 for l in lam):
                continue
            if best is None or mu < best:
                best, covered = mu, set()
            if mu == best and all(l > 0 for l in lam):
                covered.update(support)
    location = RELATIVE_INTERIOR if len(covered) == len(face) else RELATIVE_BOUNDARY
    return best, location


def _cuts(value, location, s: SphereRef) -> bool:
    """Cut rule: the minimum norm is below the radius, or equal with a
    relative-interior minimizer.  The points of the face strictly inside the
    ball form a relatively open set, so when nonempty they meet the relative
    interior."""
    return value < s.radius_squared or (value == s.radius_squared
                                        and location == RELATIVE_INTERIOR)


def _tangent(avoids: bool, value, s: SphereRef) -> bool:
    """Tangent rule: the face avoids the ball and touches the sphere."""
    return avoids and value == s.radius_squared


def face_cuts(pc: PointConfiguration, face, s: SphereRef) -> bool:
    """Does the face have a point of the closed ball in its relative interior?"""
    return _cuts(*min_norm_sq_over_face(pc, face, s), s)


def face_avoids(pc: PointConfiguration, face, s: SphereRef) -> bool:
    """Is there a hyperplane supporting the face with the whole polytope and
    the ball in one closed halfspace?

    After recentering to the sphere center, such a hyperplane is
    <a, x> = 1 with the polytope on the <= 1 side: a hyperplane through the
    center never has the ball on one side, and one with the polytope on the
    >= 1 side has the center strictly on the other.  The optimal a has the
    least norm among normals through the face and some active set W of
    other vertices; that a is x / ||x||^2 for x the point of aff(face + W)
    nearest the center.  None exists when x is the center, and that
    candidate's value 0 never reaches the radius.  A candidate depends only
    on the affine hull, so active sets beyond d - 1 - dim(face) vertices add
    nothing.  The face avoids the ball iff some feasible candidate has
    ||x||^2 >= radius_squared; with no feasible candidate the polytope is
    never on the center's side, and the answer is NO.
    """
    face = sorted(face)
    others = [i for i in range(pc.n_points) if i not in face]
    if len(others) > 2 * DEFAULT_KSET_MAX_POINTS:
        raise BudgetExceeded("active-set enumeration", len(others), 2 * DEFAULT_KSET_MAX_POINTS)
    kernel = _kernel(pc, s)
    free = pc.dimension - affine_rank([pc.points[i] for i in face])
    best = None
    for r in range(free):
        for active in combinations(others, r):
            support = tuple(sorted(face + list(active)))
            _, mu = kernel.solve(support)
            if kernel.bounds_polytope(support) and (best is None or mu > best):
                best = mu
    return best is not None and best >= s.radius_squared


def face_tangent(pc: PointConfiguration, face, s: SphereRef) -> bool:
    value, _ = min_norm_sq_over_face(pc, face, s)
    return _tangent(face_avoids(pc, face, s), value, s)


# ------------------------------------------------------------------ scribedness

@dataclass
class ScribeReport:
    query: str
    holds: bool
    per_face: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"query": self.query, "holds": self.holds,
                           "faces": self.per_face}, indent=1) + "\n"


def _scribe_report(pc, lattice, s, query, required) -> ScribeReport:
    """Every face of each (rank, key) pair must have its status key true."""
    report = ScribeReport(query, True)
    for rank, key in required:
        for f in lattice.faces_of_rank(rank):
            value, location = min_norm_sq_over_face(pc, f, s)
            avoids = face_avoids(pc, f, s)
            st = {"face": sorted(f), "cuts": _cuts(value, location, s),
                  "avoids": avoids, "tangent": _tangent(avoids, value, s),
                  "min_norm_sq": format_rational(value), "minimizer": location,
                  "rank": rank}
            report.per_face.append(st)
            if not st[key]:
                report.holds = False
    return report


def check_ij_scribed(pc: PointConfiguration, lattice: FaceLattice, s: SphereRef,
                     i: int, j: int) -> ScribeReport:
    """All i-faces avoid the ball and all j-faces cut it.  Proper faces only."""
    if not 0 <= i <= j <= lattice.dimension - 1:
        raise ParseError(f"need 0 <= i <= j <= d-1, got i={i}, j={j}")
    return _scribe_report(pc, lattice, s, f"({i},{j})-scribed",
                          ((i, "avoids"), (j, "cuts")))


def check_k_scribed(pc: PointConfiguration, lattice: FaceLattice, s: SphereRef,
                    k: int) -> ScribeReport:
    """All k-faces tangent to the sphere (0 = inscribed, d-1 = circumscribed)."""
    if not 0 <= k <= lattice.dimension - 1:
        raise ParseError(f"need 0 <= k <= d-1, got k={k}")
    return _scribe_report(pc, lattice, s, f"{k}-scribed", ((k, "tangent"),))


def verify_face_lattice(pc: PointConfiguration, claimed_facets):
    """True iff the claimed facets are exactly the computed ones; on failure
    returns (False, first offending facet)."""
    return match_facets(enumerate_facets(pc), claimed_facets)


def match_facets(computed_facets, claimed_facets):
    """(True, None) iff the two facet lists hold the same vertex sets, else
    (False, first facet in only one of them)."""
    computed = {frozenset(f) for f in computed_facets}
    claimed = {frozenset(f) for f in claimed_facets}
    if computed == claimed:
        return True, None
    diff = sorted((claimed - computed) | (computed - claimed), key=sorted)
    return False, sorted(diff[0])


# ------------------------------------------------------- cyclic polytope inputs

def generate_cyclic_trig(n: int, d: int, params=None) -> PointConfiguration:
    """Inscribed cyclic polytope points on the trigonometric curve
    (sin t, cos t, sin 2t, cos 2t, ...), via the rational tangent-half-angle
    substitution; every point lands exactly on the sphere of radius^2 = d/2.
    Parameters are sorted, which matches the curve order of the angles they
    represent."""
    if d % 2 != 0 or d < 4:
        raise ParseError("trigonometric construction needs even dimension >= 4")
    if n <= d:
        raise ParseError(f"need n > d, got n={n}, d={d}")
    if params is None:
        params = [Fraction(2 * i - (n - 1), 2) for i in range(n)]
    params = sorted(Fraction(u) for u in params)
    if len(set(params)) != len(params):
        raise ParseError("parameters must be distinct")
    if len(params) != n:
        raise ParseError(f"need {n} parameters, got {len(params)}")
    pts = []
    for u in params:
        den = 1 + u * u
        c1 = (1 - u * u) / den
        s1 = 2 * u / den
        coords = []
        ck, sk = c1, s1
        for _ in range(d // 2):
            coords.extend([sk, ck])
            sk, ck = sk * c1 + ck * s1, ck * c1 - sk * s1
        pts.append(tuple(coords))
    r2 = Fraction(d, 2)
    sphere = SphereRef((Fraction(0),) * d, r2)
    return PointConfiguration(d, tuple(pts), sphere)


def generate_cyclic_moment(n: int, d: int, params=None) -> PointConfiguration:
    """Cyclic polytope points on the monomial moment curve (t, t^2, ..., t^d);
    not inscribed, used for combinatorial oracles."""
    if d < 2:
        raise ParseError("moment curve needs d >= 2")
    if params is None:
        params = list(range(n))
    params = sorted(Fraction(t) for t in params)
    if len(set(params)) != len(params):
        raise ParseError("parameters must be distinct")
    if len(params) != n:
        raise ParseError(f"need {n} parameters, got {len(params)}")
    pts = tuple(tuple(t ** k for k in range(1, d + 1)) for t in params)
    return PointConfiguration(d, pts)


# -------------------------------------------------------------------- k-sets

def _separation_lp(pc: PointConfiguration, subset, inside_relation, inside_t):
    """Maximize t over box-normalized hyperplanes <a, x> = b with
    <a, p> - b + inside_t * t (inside_relation) 0 on the subset and
    b - <a, p> >= t off it."""
    d = pc.dimension
    inside = sorted(subset)
    outside = [i for i in range(pc.n_points) if i not in subset]
    bound = 1 + max(sum(abs(c) for c in p) for p in pc.points)
    # Vars: a+ (d), a- (d), b+, b-, t; all >= 0; maximize t.
    nv = 2 * d + 3
    obj = [Fraction(0)] * nv
    obj[-1] = Fraction(1)
    lp = LinearProgram(nv, obj)
    for i in inside:
        p = pc.points[i]
        row = list(p) + [-c for c in p] + [Fraction(-1), Fraction(1), inside_t]
        lp.add_row(row, inside_relation, Fraction(0))
    for i in outside:
        p = pc.points[i]
        row = [-c for c in p] + list(p) + [Fraction(1), Fraction(-1), Fraction(-1)]
        lp.add_row(row, GE, Fraction(0))
    for k in range(2 * d):
        row = [Fraction(0)] * nv
        row[k] = Fraction(1)
        lp.add_row(row, LE, Fraction(1))
    for k in (2 * d, 2 * d + 1):
        row = [Fraction(0)] * nv
        row[k] = Fraction(1)
        lp.add_row(row, LE, Fraction(bound))
    return solve_lp(lp)


def _separation_margin(pc: PointConfiguration, subset) -> Fraction:
    """Optimal margin of strict separation of the subset from the rest, with
    the normal box-normalized; positive iff strictly separable."""
    res = _separation_lp(pc, subset, GE, Fraction(-1))
    if res.status != "optimal":  # a = b = t = 0 is feasible and t is bounded
        raise RuntimeError(f"separation LP ended {res.status}")
    return res.objective


def k_sets(pc: PointConfiguration, k: int) -> list[frozenset[int]]:
    """All k-subsets strictly separable from the rest by a hyperplane.
    By convention k = n returns the full set (vacuous separation)."""
    n = pc.n_points
    if n > DEFAULT_KSET_MAX_POINTS:
        raise BudgetExceeded("k-set enumeration", n, DEFAULT_KSET_MAX_POINTS)
    if k == n:
        return [frozenset(range(n))]
    out = []
    for subset in combinations(range(n), k):
        if _separation_margin(pc, subset) > 0:
            out.append(frozenset(subset))
    return out


def is_face(pc: PointConfiguration, subset) -> bool:
    """Supporting-hyperplane test: the subset is (contained in) a proper face
    iff some hyperplane touches exactly on one side with positive margin."""
    res = _separation_lp(pc, subset, EQ, Fraction(0))
    return res.status == "optimal" and res.objective > 0
