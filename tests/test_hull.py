"""Facet enumeration and face lattices on integer frames, against the
Fraction enumeration they replaced, which this file keeps as the reference."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from polyscribe.errors import BudgetExceeded, DegenerateSpan
from polyscribe.geometry import generate_cyclic_trig
from polyscribe.hull import FaceLattice, build_face_lattice, enumerate_facets
from polyscribe.linalg import affine_rank, nullspace, vsub
from polyscribe.points import PointConfiguration


def _fdot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def ref_enumerate_facets(pc):
    """Every affinely independent d-subset on Fraction coordinates: its
    Fraction normal from the nullspace, and the sides of all points."""
    n, d = pc.n_points, pc.dimension
    if affine_rank(pc.points) != d:
        raise DegenerateSpan("points do not span")
    facets = set()
    for subset in combinations(range(n), d):
        p0 = pc.points[subset[0]]
        ns = nullspace([list(vsub(pc.points[i], p0)) for i in subset[1:]])
        if len(ns) != 1:
            continue
        a = tuple(ns[0])
        b = _fdot(a, p0)
        sides = [_fdot(a, p) - b for p in pc.points]
        if any(x > 0 for x in sides) and any(x < 0 for x in sides):
            continue
        facets.add(frozenset(i for i, x in enumerate(sides) if x == 0))
    return sorted(facets, key=sorted)


def ref_build_face_lattice(pc):
    """Closure of the reference facets under intersection, ranked by the
    affine rank of the Fraction points."""
    d = pc.dimension
    facets = ref_enumerate_facets(pc)
    proper, frontier = set(facets), set(facets)
    while frontier:
        frontier = {f & g for f in frontier for g in facets if f & g} - proper
        proper |= frontier
    by_rank = [[] for _ in range(d)]
    for f in proper:
        r = affine_rank([pc.points[i] for i in f])
        if r < d:
            by_rank[r].append(f)
    return FaceLattice(d, tuple(tuple(sorted(r, key=sorted)) for r in by_rank))


def _pc(pts, d=None):
    pts = tuple(tuple(F(c) for c in p) for p in pts)
    return PointConfiguration(d or len(pts[0]), pts)


def test_tetra_facets(tetra_points):
    facets = enumerate_facets(tetra_points)
    assert sorted(map(sorted, facets)) == [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


def test_cube_lattice(cube_points):
    lat = build_face_lattice(cube_points)
    assert [len(r) for r in lat.faces_by_rank] == [8, 12, 6]
    for ridge in lat.faces_of_rank(1):
        assert sum(ridge < f for f in lat.facets) == 2
    assert all(len(f) == 4 for f in lat.facets)


def test_square_in_plane():
    pc = _pc([(0, 0), (1, 0), (1, 1), (0, 1)])
    lat = build_face_lattice(pc)
    assert [len(r) for r in lat.faces_by_rank] == [4, 4]


def test_interior_point_not_vertex():
    pc = _pc([(0, 0), (4, 0), (0, 4), (1, 1)])
    facets = enumerate_facets(pc)
    assert all(3 not in f for f in facets)


def test_degenerate_span():
    with pytest.raises(DegenerateSpan):
        enumerate_facets(_pc([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]))


def test_budget():
    pts = [(i, i * i) for i in range(13)]
    with pytest.raises(BudgetExceeded):
        enumerate_facets(_pc(pts))


def test_facets_permutation_invariant(cube_points):
    base = {frozenset(f) for f in enumerate_facets(cube_points)}
    rng = random.Random(3)
    order = list(range(cube_points.n_points))
    rng.shuffle(order)
    relabel = {old: new for new, old in enumerate(order)}
    pc = PointConfiguration(3, tuple(cube_points.points[i] for i in order))
    assert {frozenset(relabel[i] for i in f) for f in base} \
        == {frozenset(f) for f in enumerate_facets(pc)}


def _outcome(fn, pc):
    try:
        return fn(pc)
    except DegenerateSpan:
        return DegenerateSpan


def _random_configuration(rng, d, scale=None):
    """Rational points in R^d with interior points (convex combinations of
    others) and points on a common supporting hyperplane x_0 = 3; with a
    scale, every coordinate x then becomes (x + a small rational) * scale,
    which moves those points slightly off their hyperplane and inside."""
    n = rng.randint(d + 1, min(12, 2 * d + 3))
    pts = []
    while len(pts) < n:
        roll = rng.random()
        if roll < 0.2 and len(pts) > d:
            ws = [F(rng.randint(1, 4)) for _ in pts]
            p = tuple(sum(w * q[j] for w, q in zip(ws, pts)) / sum(ws) for j in range(d))
        else:
            p = tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(d))
            if roll < 0.45:
                p = (F(3),) + p[1:]
        if p not in pts:
            pts.append(p)
    if scale is not None:
        pts = [tuple((x + F(rng.randint(-9, 9), rng.randint(10 ** 6, 10 ** 7))) * scale
                     for x in p) for p in pts]
    return PointConfiguration(d, tuple(pts))


def _seeded_params(n, seed):
    rng = random.Random(seed)
    params = set()
    while len(params) < n:
        params.add(F(rng.randint(-60, 60), rng.randint(1, 97)))
    return sorted(params)


def hull_reference_cases(cube_points):
    rng = random.Random(12)
    cases = [_random_configuration(rng, d) for d in (2, 3, 4, 5) for _ in range(6)]
    cases += [_random_configuration(rng, d, scale) for d in (2, 3, 4)
              for scale in (F(10) ** 40, F(1, 10 ** 40))]
    cases += [cube_points]
    cases += [generate_cyclic_trig(n, 4, params) for n in range(5, 10)
              for params in (None, _seeded_params(n, n))]
    cases += [generate_cyclic_trig(8, 6)]
    return cases


def test_hull_matches_fraction_reference(cube_points):
    coplanar = interior = 0
    for pc in hull_reference_cases(cube_points):
        facets = _outcome(enumerate_facets, pc)
        assert facets == _outcome(ref_enumerate_facets, pc), pc.points
        assert _outcome(build_face_lattice, pc) == _outcome(ref_build_face_lattice, pc), \
            pc.points
        if facets is not DegenerateSpan:
            interior += len(set().union(*facets)) < pc.n_points
            coplanar += any(len(f) > pc.dimension for f in facets)
    assert coplanar and interior
