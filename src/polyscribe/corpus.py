"""Named polytope corpus: classic maps, stackings, prisms, and rational coordinates."""

from __future__ import annotations

from fractions import Fraction

from .maps import CombinatorialMap, dual_map, validate_map

_TETRA = {"vertices": 4, "faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}

_CUBE = {
    "vertices": 8,
    "faces": [
        [0, 1, 2, 3], [4, 5, 6, 7],
        [1, 2, 6, 5], [0, 3, 7, 4],
        [0, 1, 5, 4], [2, 3, 7, 6],
    ],
}

_OCTA = {
    "vertices": 6,
    "faces": [
        [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
        [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5],
    ],
}

_ICOSA = {
    "vertices": 12,
    "faces": [
        [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1],
        [1, 5, 6], [1, 6, 7], [1, 7, 2], [2, 7, 8], [2, 8, 3],
        [3, 8, 9], [3, 9, 4], [4, 9, 10], [4, 10, 5], [5, 10, 6],
        [6, 10, 11], [6, 11, 7], [7, 11, 8], [8, 11, 9], [9, 11, 10],
    ],
}


def stack_on_face(m: CombinatorialMap, face_index: int) -> CombinatorialMap:
    """Stack a pyramid onto one face: new apex joined to every face vertex."""
    apex = m.n_vertices
    faces = [list(f) for i, f in enumerate(m.faces) if i != face_index]
    f = m.faces[face_index]
    for i in range(len(f)):
        faces.append([f[i], f[(i + 1) % len(f)], apex])
    return validate_map({"vertices": apex + 1, "faces": faces})


def kleetope(m: CombinatorialMap) -> CombinatorialMap:
    """Stack a pyramid onto every face simultaneously (triakis construction)."""
    faces = []
    for fi, f in enumerate(m.faces):
        apex = m.n_vertices + fi
        for i in range(len(f)):
            faces.append([f[i], f[(i + 1) % len(f)], apex])
    return validate_map({"vertices": m.n_vertices + m.n_faces, "faces": faces})


def prism(n: int) -> CombinatorialMap:
    if n < 3:
        raise ValueError("prism needs n >= 3")
    faces = [list(range(n)), list(range(n, 2 * n))]
    for i in range(n):
        j = (i + 1) % n
        faces.append([i, j, n + j, n + i])
    return validate_map({"vertices": 2 * n, "faces": faces})


def _rhombic_dodecahedron() -> CombinatorialMap:
    cube = validate_map(_CUBE)
    faces = [[u, 8 + f1, v, 8 + f2]
             for (u, v), (f1, f2) in sorted(cube.edge_faces.items())]
    return validate_map({"vertices": 14, "faces": faces})


def _stacked_tetra(depth: int) -> CombinatorialMap:
    m = validate_map(_TETRA)
    for _ in range(depth):
        m = stack_on_face(m, m.n_faces - 1)
    return m


def _with_name(m: CombinatorialMap, name: str) -> CombinatorialMap:
    return CombinatorialMap(m.n_vertices, m.faces, name)


_BUILDERS = {
    "tetrahedron": lambda: validate_map(_TETRA),
    "cube": lambda: validate_map(_CUBE),
    "octahedron": lambda: validate_map(_OCTA),
    "icosahedron": lambda: validate_map(_ICOSA),
    "dodecahedron": lambda: dual_map(validate_map(_ICOSA)),
    "triakis-tetrahedron": lambda: kleetope(validate_map(_TETRA)),
    "triakis-octahedron": lambda: kleetope(validate_map(_OCTA)),
    "truncated-tetrahedron": lambda: dual_map(kleetope(validate_map(_TETRA))),
    "rhombic-dodecahedron": _rhombic_dodecahedron,
    "cuboctahedron": lambda: dual_map(_rhombic_dodecahedron()),
    "stacked-tetrahedron-1": lambda: _stacked_tetra(1),
    "stacked-tetrahedron-2": lambda: _stacked_tetra(2),
    "stacked-tetrahedron-3": lambda: _stacked_tetra(3),
    "stacked-cube-1": lambda: stack_on_face(validate_map(_CUBE), 0),
}
for _n in range(3, 9):
    _BUILDERS[f"prism-{_n}"] = (lambda k: lambda: prism(k))(_n)

CORPUS_NAMES = tuple(_BUILDERS)

F = Fraction

# Rational realizations on rational-radius-squared spheres where they exist.
_COORDS = {
    "tetrahedron": (
        [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], F(3)),
    "cube": (
        [(-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
         (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1)], F(3)),
    "octahedron": (
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], F(1)),
    "rhombic-dodecahedron": (
        [(-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
         (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1),
         (0, 0, -2), (0, 0, 2), (2, 0, 0), (-2, 0, 0), (0, -2, 0), (0, 2, 0)],
        None),
}


def named_polytope(name: str) -> CombinatorialMap:
    """Corpus lookup by name; raises KeyError with the known names listed."""
    try:
        return _with_name(_BUILDERS[name](), name)
    except KeyError:
        raise KeyError(f"unknown polytope {name!r}; known: {sorted(_BUILDERS)}") from None


def named_coordinates(name: str):
    """Rational coordinates for corpus members that have them.

    Returns (points, radius_squared_of_vertex_sphere or None); the sphere is
    centered at the origin.  Raises KeyError when no rational realization is
    stored.
    """
    pts, r2 = _COORDS[name]
    return [tuple(Fraction(c) for c in p) for p in pts], r2
