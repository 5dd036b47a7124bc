import random
import tracemalloc
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

from polyscribe import maps
from polyscribe.corpus import (CORPUS_NAMES, kleetope, named_polytope, prism,
                               stack_on_face)
from polyscribe.errors import (DegenerateFace, EdgeNotInTwoFaces,
                               EulerViolation, NotThreeConnected, ParseError,
                               PolyscribeError)
from polyscribe.maps import (CombinatorialMap, _rotation_at_vertex, dual_map,
                             parse_map_json, serialize_map_json, validate_map)

TETRA = {"vertices": 4, "faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}


def test_validate_tetrahedron():
    m = validate_map(TETRA)
    assert m.n_vertices == 4 and len(m.edges) == 6 and m.n_faces == 4


def test_edge_in_one_face_rejected():
    with pytest.raises(EdgeNotInTwoFaces):
        validate_map({"vertices": 4, "faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3]]})


def test_euler_violation():
    # two disjoint tetrahedra: V - E + F = 8 - 12 + 8 = 4, not 2
    faces = [[a, b, c] for base in (0, 4)
             for a, b, c in [(base, base + 1, base + 2), (base, base + 1, base + 3),
                             (base, base + 2, base + 3), (base + 1, base + 2, base + 3)]]
    with pytest.raises((EulerViolation, NotThreeConnected)):
        validate_map({"vertices": 8, "faces": faces})


def test_two_connected_rejected():
    # two tetrahedra glued along an edge: vertex cut {0, 1}
    faces = [[0, 1, 2], [0, 2, 3], [1, 2, 3],
             [0, 1, 4], [0, 4, 5], [1, 4, 5], [0, 3, 5], [1, 3, 5], [2, 3, 0]]
    with pytest.raises((NotThreeConnected, EdgeNotInTwoFaces, EulerViolation,
                        DegenerateFace)):
        validate_map({"vertices": 6, "faces": faces})



@pytest.mark.parametrize("n, faces, error, message", [
    (10 ** 8, TETRA["faces"], EulerViolation,
     "Euler relation violated: V-E+F = 100000000-6+4 = 99999998 != 2"),
    # the hemi-cube: V - E + F = 2 with vertex 4 isolated
    (5, [[0, 1, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]], NotThreeConnected,
     "graph is only 0-connected (cutset ?)"),
    (10 ** 6, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 999999]], EdgeNotInTwoFaces,
     "edge (1, 3) appears in 1 faces, expected 2"),
])
def test_vertices_on_no_face_are_rejected_from_the_faces(n, faces, error, message):
    # a declared vertex that no face holds is rejected from the face list
    # alone, before anything is allocated per declared vertex
    tracemalloc.start()
    try:
        with pytest.raises(error) as info:
            validate_map({"vertices": n, "faces": faces})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == message and peak < 4 * 2 ** 20


def test_graph_is_built_once_and_frozen():
    m = named_polytope("cube")
    for owner in (m, dual_map(m)):
        g = owner.graph()
        assert owner.graph() is g
        with pytest.raises(AttributeError):
            g.add_edge(0, owner.n_vertices)
        with pytest.raises(AttributeError):
            g.adj = ()
        with pytest.raises(TypeError):
            g.adj[0] += (owner.n_vertices,)
        with pytest.raises(AttributeError):
            g.adj[0].append(owner.n_vertices)
        assert g.number_of_edges() == len(owner.edges)


def nx_graph(m):
    """m's graph in networkx, with m.graph()'s neighbour order: the
    vertices in order, then the edges in the order of m.edges."""
    g = nx.Graph()
    g.add_nodes_from(range(m.n_vertices))
    g.add_edges_from(tuple(sorted(e)) for e in m.edges)
    return g


def test_degenerate_face_rejected():
    with pytest.raises(DegenerateFace):
        validate_map({"vertices": 4,
                      "faces": [[0, 1], [0, 1, 3], [0, 2, 3], [1, 2, 3]]})
    with pytest.raises(DegenerateFace):
        validate_map({"vertices": 4,
                      "faces": [[0, 1, 1], [0, 1, 3], [0, 2, 3], [1, 2, 3]]})


def maps_isomorphic(a: CombinatorialMap, b: CombinatorialMap) -> bool:
    """Graph isomorphism respecting the face structure (faces as vertex sets)."""
    matcher = nx.algorithms.isomorphism.GraphMatcher(nx_graph(a), nx_graph(b))
    fa, fb = a.face_sets(), b.face_sets()
    return any({frozenset(mapping[v] for v in f) for f in fa} == fb
               for mapping in matcher.isomorphisms_iter())


def test_dual_involution():
    for name in CORPUS_NAMES:
        m = named_polytope(name)
        assert maps_isomorphic(dual_map(dual_map(m)), m), name


def test_dual_classical_pairs():
    assert maps_isomorphic(dual_map(named_polytope("cube")),
                           named_polytope("octahedron"))
    assert maps_isomorphic(dual_map(named_polytope("tetrahedron")),
                           named_polytope("tetrahedron"))
    assert maps_isomorphic(dual_map(named_polytope("truncated-tetrahedron")),
                           named_polytope("triakis-tetrahedron"))
    assert maps_isomorphic(dual_map(named_polytope("icosahedron")),
                           named_polytope("dodecahedron"))


def test_json_roundtrip():
    m = named_polytope("triakis-octahedron")
    again = parse_map_json(serialize_map_json(m))
    assert again.faces == m.faces and again.n_vertices == m.n_vertices


# ------------------------------------------------- reference validation

def ref_validate_map(raw, name=None):
    """Map validation as it was before 3-connectivity was read off the
    faces: networkx max-flow decides every map."""
    if isinstance(raw, CombinatorialMap):
        raw = {"vertices": raw.n_vertices, "faces": [list(f) for f in raw.faces],
               "name": name or raw.name}
    if not isinstance(raw, dict) or "vertices" not in raw or "faces" not in raw:
        raise ParseError("map data must contain 'vertices' and 'faces'")
    n = raw["vertices"]
    faces = raw["faces"]
    if not isinstance(n, int) or n < 4:
        raise ParseError(f"vertex count must be an integer >= 4, got {n!r}")
    if not isinstance(faces, (list, tuple)) or not all(isinstance(f, (list, tuple))
                                                       for f in faces):
        raise ParseError("'faces' must be a list of vertex lists")
    name = name or raw.get("name")
    for i, f in enumerate(faces):
        if len(f) < 3:
            raise DegenerateFace(i, f, "fewer than 3 vertices")
        for v in f:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise DegenerateFace(i, f, f"vertex {v} out of range [0, {n})")
        if len(set(f)) != len(f):
            raise DegenerateFace(i, f, "repeated vertex")
    edge_count = Counter()
    for f in faces:
        edge_count.update(frozenset((f[i], f[(i + 1) % len(f)])) for i in range(len(f)))
    for e, c in sorted(edge_count.items(), key=lambda kv: sorted(kv[0])):
        if c != 2:
            raise EdgeNotInTwoFaces(sorted(e), c)
    v, e, fc = n, len(edge_count), len(faces)
    if v - e + fc != 2:
        raise EulerViolation(v, e, fc)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(tuple(sorted(ed)) for ed in edge_count)
    if not nx.is_connected(g):
        raise NotThreeConnected(0, None)
    k = nx.node_connectivity(g)
    if k < 3:
        raise NotThreeConnected(k, nx.minimum_node_cut(g))
    edges = raw.get("edges")
    if edges is not None:
        if not isinstance(edges, list) or not all(
                isinstance(ed, list) and all(isinstance(v, int) for v in ed) for ed in edges):
            raise ParseError("'edges' must be a list of vertex lists")
        if {frozenset(ed) for ed in edges} != set(edge_count):
            raise ParseError("explicit edge list does not match edges derived from faces")
    return CombinatorialMap(n, tuple(tuple(f) for f in faces), name)


def ref_incidence(m):
    """(edge_faces, face_edges, stars) of m, from its faces alone."""
    def cycle(f):
        return [tuple(sorted(e)) for e in zip(f, f[1:] + f[:1])]
    edge_faces = {}
    for fi, f in enumerate(m.faces):
        for e in cycle(f):
            edge_faces.setdefault(e, []).append(fi)
    face_edges = tuple(tuple(sorted(cycle(f))) for f in m.faces)
    stars = [[(fi, f[f.index(v) - 1], f[(f.index(v) + 1) % len(f)])
              for fi, f in enumerate(m.faces) if v in f]
             for v in range(m.n_vertices)]
    return {e: tuple(fs) for e, fs in edge_faces.items()}, face_edges, stars


def ref_dual_edge_to_primal(m):
    """Dual edge (face_i, face_j) -> the primal edge their faces share,
    from m's faces alone."""
    def edge_key(e):
        u, v = sorted(e)
        return (u, v)
    faces_of_edge = {}
    for fi, f in enumerate(m.faces):
        for e in frozenset(edge_key((f[i], f[(i + 1) % len(f)])) for i in range(len(f))):
            faces_of_edge.setdefault(e, []).append(fi)
    return {edge_key(fs): e for e, fs in faces_of_edge.items()}


def ref_dual(m):
    """The dual as it was built before: rotations, then a full validation."""
    stars = ref_incidence(m)[2]
    faces = [list(_rotation_at_vertex(m.faces, star, v)) for v, star in enumerate(stars)]
    name = f"dual({m.name})" if m.name else None
    return ref_validate_map({"vertices": m.n_faces, "faces": faces}, name)


def _outcome(fn, *args):
    try:
        m = fn(*args)
    except PolyscribeError as exc:
        return type(exc), str(exc)
    return m.n_vertices, m.faces, m.name


def _raw(m):
    return {"vertices": m.n_vertices, "faces": [list(f) for f in m.faces]}


def _assert_same_as_reference(raw):
    got = _outcome(validate_map, raw)
    assert got == _outcome(ref_validate_map, raw), raw
    if isinstance(got[0], int):
        m = validate_map(raw)
        assert _outcome(dual_map, m) == _outcome(ref_dual, m), raw
    return got


def _generated_maps():
    out = [named_polytope(name) for name in CORPUS_NAMES]
    out += [prism(k) for k in range(3, 13)]
    out += [kleetope(named_polytope(name))
            for name in ("tetrahedron", "cube", "octahedron", "icosahedron",
                         "dodecahedron", "cuboctahedron")]
    out += [kleetope(kleetope(named_polytope("tetrahedron")))]
    for name in ("octahedron", "cube", "truncated-tetrahedron", "prism-5"):
        m = named_polytope(name)
        for fi in range(m.n_faces):
            out.append(stack_on_face(m, fi))
    return out


def test_validation_matches_reference_on_generated_maps():
    for m in _generated_maps():
        for raw in (_raw(m), _raw(dual_map(m))):
            assert isinstance(_assert_same_as_reference(raw)[0], int)


def _plane_map(seed):
    """Faces of a planar embedding of a random connected graph, or None.
    Even seeds draw a gnp graph; odd seeds thin a random stacked
    triangulation, which leaves many graphs 3-connected, and shuffle and
    reverse its faces."""
    rng = random.Random(seed)
    if seed % 2 == 0:
        n = rng.randint(4, 12)
        g = nx.gnp_random_graph(n, rng.uniform(0.25, 0.8), seed=seed)
    else:
        m = named_polytope("tetrahedron")
        for _ in range(rng.randint(1, 8)):
            m = stack_on_face(m, rng.randrange(m.n_faces))
        n, g = m.n_vertices, nx_graph(m)
        thin = rng.choice((0, 0.05, 0.1, 0.2))
        g.remove_edges_from([e for e in sorted(g.edges) if rng.random() < thin])
    if not nx.is_connected(g):
        return None
    planar, emb = nx.check_planarity(g)
    if not planar:
        return None
    faces, marked = [], set()
    for u, v in emb.edges():
        if (u, v) not in marked:
            faces.append(emb.traverse_face(u, v, mark_half_edges=marked))
    if seed % 2:
        rng.shuffle(faces)
        faces = [f[::-1] if rng.random() < 0.5 else f for f in faces]
    return {"vertices": n, "faces": faces}


def test_validation_matches_reference_on_random_plane_maps():
    outcomes = Counter()
    for seed in range(700):
        raw = _plane_map(seed)
        if raw is not None:
            got = _assert_same_as_reference(raw)
            outcomes[got[0] if isinstance(got[0], type) else "accepted"] += 1
    assert sum(outcomes.values()) > 450
    assert outcomes["accepted"] > 150 and outcomes[NotThreeConnected] > 100


def test_validation_matches_reference_on_special_face_lists(pinched_raw):
    # K_{2,3} as three quadrilaterals: a sphere, but two faces share three
    # vertices, and {0, 1} is a 2-cut
    k23 = {"vertices": 5, "faces": [[0, 2, 1, 3], [0, 3, 1, 4], [0, 4, 1, 2]]}
    assert _assert_same_as_reference(k23)[0] is NotThreeConnected
    # two tetrahedra glued at a vertex: V - E + F = 7 - 12 + 8 = 3
    glued = {"vertices": 7, "faces": TETRA["faces"] + [
        [0, 4, 5], [0, 4, 6], [0, 5, 6], [4, 5, 6]]}
    assert _assert_same_as_reference(glued)[0] is EulerViolation
    # a tetrahedron and a disjoint 7-vertex torus: 11 - 27 + 18 = 2
    torus = [[4 + i, 4 + (i + 1) % 7, 4 + (i + 3) % 7] for i in range(7)]
    torus += [[4 + i, 4 + (i + 2) % 7, 4 + (i + 3) % 7] for i in range(7)]
    apart = {"vertices": 11, "faces": TETRA["faces"] + torus}
    assert _assert_same_as_reference(apart)[0] is NotThreeConnected
    # two octahedra glued at both poles: 10 - 24 + 16 = 2, faces meet in at
    # most a vertex, but the poles' stars are two cycles each and the poles
    # are a 2-cut
    octa = [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
            [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
    relabel = {0: 6, 1: 7, 2: 8, 3: 9, 4: 4, 5: 5}
    poles = {"vertices": 10, "faces": octa + [[relabel[v] for v in f] for f in octa]}
    assert _assert_same_as_reference(poles)[0] is NotThreeConnected
    # four tetrahedra glued pairwise at six vertices, like the faces of a
    # tetrahedron at its edges: V - E + F = 10 - 24 + 16 = 2 and the graph
    # (an octahedron with four alternate faces stacked) is 3-connected, but
    # the stars of the six shared vertices are two cycles each.  The
    # reference accepts it; it is rejected for its first pinched star.
    assert _outcome(ref_validate_map, pinched_raw)[0] == 10
    with pytest.raises(DegenerateFace, match="vertex star of 0 not a single cycle"):
        validate_map(pinched_raw)


def test_polyhedral_maps_need_no_max_flow(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("max-flow run on a polyhedral map")
    # the fallback builds a graph, then cuts it
    for fn in ("Graph", "minimum_node_cut"):
        monkeypatch.setattr(maps, fn, refuse)
    for name in CORPUS_NAMES:
        m = parse_map_json(serialize_map_json(named_polytope(name)))
        dual_map(m)


# ------------------------------------------------------------- incidence

def _incidence_maps():
    corpus = [named_polytope(name) for name in CORPUS_NAMES]
    out = corpus + [dual_map(m) for m in corpus]
    out += [prism(k) for k in range(3, 30)]
    out.append(kleetope(kleetope(named_polytope("icosahedron"))))
    for seed in range(700):
        raw = _plane_map(seed)
        if raw is not None:
            try:
                out.append(validate_map(raw))
            except PolyscribeError:
                pass
    return out


def _ordered_edges(m):
    """The edge set, added to a set in face order: its iteration order is
    the one graph()'s neighbour order, and so the reported cuts, depend on."""
    es = set()
    for f in m.faces:
        for i, u in enumerate(f):
            es.add(frozenset((u, f[(i + 1) % len(f)])))
    return frozenset(es)


def test_incidence_matches_reference():
    maps_seen = _incidence_maps()
    assert len(maps_seen) > 250
    for m in maps_seen:
        edge_faces, face_edges, stars = ref_incidence(m)
        assert list(m.edge_faces.items()) == list(edge_faces.items()), m.faces
        assert m.face_edges == face_edges, m.faces
        assert m.stars == stars, m.faces
        assert list(m.edges) == list(_ordered_edges(m)), m.faces


def test_dual_incidence_is_the_edge_relabel():
    """The faces of a dual edge are the stars of the primal edge's ends, so
    the dual's edge_faces relabels dual edges to primal edges, and the
    map's own edge_faces is the inverse."""
    for m in _incidence_maps():
        relabel = ref_dual_edge_to_primal(m)
        assert dual_map(m).edge_faces == relabel, m.faces
        assert {e: d for d, e in relabel.items()} == m.edge_faces, m.faces
