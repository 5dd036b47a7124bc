import random
from fractions import Fraction as F

import pytest

from polyscribe.errors import BudgetExceeded, DegenerateSpan
from polyscribe.hull import build_face_lattice, enumerate_facets
from polyscribe.points import PointConfiguration


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
