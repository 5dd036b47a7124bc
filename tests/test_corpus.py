import pytest

from polyscribe.corpus import CORPUS_NAMES, named_polytope

# (vertices, edges, faces) frozen from the defining constructions
SIZES = {
    "tetrahedron": (4, 6, 4),
    "cube": (8, 12, 6),
    "octahedron": (6, 12, 8),
    "icosahedron": (12, 30, 20),
    "dodecahedron": (20, 30, 12),
    "triakis-tetrahedron": (8, 18, 12),
    "triakis-octahedron": (14, 36, 24),
    "truncated-tetrahedron": (12, 18, 8),
    "rhombic-dodecahedron": (14, 24, 12),
    "cuboctahedron": (12, 24, 14),
    "stacked-tetrahedron-1": (5, 9, 6),
    "stacked-tetrahedron-2": (6, 12, 8),
    "stacked-tetrahedron-3": (7, 15, 10),
    "stacked-cube-1": (9, 16, 9),
    "prism-3": (6, 9, 5),
    "prism-8": (16, 24, 10),
}


def full_corpus():
    """Every corpus map, built by name."""
    return [named_polytope(n) for n in CORPUS_NAMES]


def test_corpus_size():
    assert len(CORPUS_NAMES) >= 20
    assert len(full_corpus()) == len(CORPUS_NAMES)


@pytest.mark.parametrize("name", sorted(SIZES))
def test_counts(name):
    m = named_polytope(name)
    assert (m.n_vertices, len(m.edges), m.n_faces) == SIZES[name]


@pytest.mark.parametrize("n", range(3, 9))
def test_prisms(n):
    m = named_polytope(f"prism-{n}")
    assert (m.n_vertices, len(m.edges), m.n_faces) == (2 * n, 3 * n, n + 2)


def test_unknown_name():
    with pytest.raises(KeyError):
        named_polytope("great-icosahedron")
