from fractions import Fraction
from itertools import combinations, product

import pytest

from polyscribe.corpus import named_coordinates, named_polytope
from polyscribe.points import PointConfiguration, SphereRef


@pytest.fixture(scope="session")
def cube_map():
    return named_polytope("cube")


@pytest.fixture(scope="session")
def triakis_map():
    return named_polytope("triakis-tetrahedron")


@pytest.fixture(scope="session")
def tetra_points():
    pts, r2 = named_coordinates("tetrahedron")
    return PointConfiguration(3, tuple(pts),
                              SphereRef((Fraction(0),) * 3, r2))


@pytest.fixture(scope="session")
def cube_points():
    pts = tuple(tuple(Fraction(c) for c in p) for p in product((-1, 1), repeat=3))
    return PointConfiguration(3, pts, SphereRef((Fraction(0),) * 3, Fraction(3)))


@pytest.fixture(scope="session")
def pinched_raw():
    """Map data of four tetrahedra glued pairwise at six vertices, like the
    faces of a tetrahedron at its edges: a 3-connected graph, but not the
    faces of a polytope."""
    shared = {e: i for i, e in enumerate(combinations(range(4), 2))}
    faces = []
    for apex, corner in enumerate(combinations(range(4), 3)):
        a, b, c = (shared[e] for e in combinations(corner, 2))
        faces += [[a, b, c], [a, b, 6 + apex], [a, c, 6 + apex], [b, c, 6 + apex]]
    return {"vertices": 10, "faces": faces}
