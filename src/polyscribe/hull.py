"""Brute-force exact facet enumeration and face lattices.

Facets are found by exhausting affinely independent d-subsets: the
spanned hyperplane is a facet hyperplane iff all points lie in one closed
halfspace.  Lower faces are the intersections of facets, grouped by rank.
The points are first moved to an integer frame (`linalg.integer_frame`):
translated to the first point and scaled by the common denominator, which
keeps every hyperplane side and affine rank.  Normals are scaled to
integers, so every side test and rank runs on Python ints.
Deliberately not an incremental hull: desk scale, exact arithmetic,
simplest correct method.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceeded, DegenerateSpan
from .linalg import affine_rank, dot, integer_frame, nullspace, scaled, vsub
from .points import PointConfiguration

DEFAULT_MAX_POINTS = 12
DEFAULT_MAX_DIM = 7


@dataclass(frozen=True)
class FaceLattice:
    """Faces of ranks 0..d-1 as vertex-index sets."""

    dimension: int
    faces_by_rank: tuple[tuple[frozenset[int], ...], ...]

    @property
    def facets(self) -> tuple[frozenset[int], ...]:
        return self.faces_by_rank[-1]

    def faces_of_rank(self, k: int) -> tuple[frozenset[int], ...]:
        return self.faces_by_rank[k]


def facet_hyperplane(points, subset):
    """Normal/offset of the hyperplane through an affinely independent subset.

    Returns (a, b) with <a, x> = b on the hyperplane and a an integer
    vector (b is an int too for integer points), or None if the subset
    spans less than a hyperplane.
    """
    pts = [points[i] for i in subset]
    p0 = pts[0]
    rows = [list(vsub(p, p0)) for p in pts[1:]]
    ns = nullspace(rows)
    if len(ns) != 1:
        return None
    a = tuple(scaled(ns[0])[:-1])
    return a, dot(a, p0)


def _integer_points(pc: PointConfiguration):
    return integer_frame(pc.points, pc.points[0])[0] if pc.points else []


def enumerate_facets(pc: PointConfiguration) -> list[frozenset[int]]:
    """All facets of conv(points) as vertex-index sets."""
    n, d = pc.n_points, pc.dimension
    if n > DEFAULT_MAX_POINTS or d > DEFAULT_MAX_DIM:
        raise BudgetExceeded("facet enumeration", f"n={n}, d={d}",
                             f"n<={DEFAULT_MAX_POINTS}, d<={DEFAULT_MAX_DIM}")
    pts = _integer_points(pc)
    rank = affine_rank(pts)
    if rank != d:
        raise DegenerateSpan(f"points span affine dimension {rank}, not {d}")

    facets: set[frozenset[int]] = set()
    for subset in combinations(range(n), d):
        hp = facet_hyperplane(pts, subset)
        if hp is None:
            continue
        a, b = hp
        pos = neg = False
        on = []
        for i, p in enumerate(pts):
            s = dot(a, p) - b
            if s > 0:
                pos = True
            elif s < 0:
                neg = True
            else:
                on.append(i)
            if pos and neg:
                break
        if pos and neg:
            continue
        facets.add(frozenset(on))
    return sorted(facets, key=sorted)


def build_face_lattice(pc: PointConfiguration) -> FaceLattice:
    """Full face lattice (ranks 0..d-1) from the facet list by intersection."""
    d = pc.dimension
    facets = enumerate_facets(pc)
    # Closure of the facet sets under intersection; rank = affine dimension.
    proper: set[frozenset[int]] = set(facets)
    frontier = set(facets)
    while frontier:
        new = set()
        for f in frontier:
            for g in facets:
                h = f & g
                if h and h not in proper and h not in new:
                    new.add(h)
        proper |= new
        frontier = new
    pts = _integer_points(pc)
    by_rank: list[list[frozenset[int]]] = [[] for _ in range(d)]
    for f in proper:
        r = affine_rank([pts[i] for i in f])
        if r < d:
            by_rank[r].append(f)
    # Faces are exactly the intersections that are maximal for their vertex
    # set; the closure above can only produce genuine faces (an intersection
    # of faces is a face), so no filtering is needed.
    for r in range(d):
        by_rank[r].sort(key=sorted)
    return FaceLattice(d, tuple(tuple(r) for r in by_rank))
