"""Combinatorial maps: 3-connected planar graphs given with their facial cycles.

The face list is taken as an embedding witness (unique by Whitney for
3-connected planar graphs); validation is purely combinatorial: every face
is a simple cycle, every edge lies in exactly two faces, Euler's relation
holds, and the graph is 3-connected.  3-connectivity is read off the faces
themselves when they form a polyhedral map (see `_polyhedral`); only a face
list that does not is handed to networkx max-flow, which then gives the
connectivity and the cut that a rejection reports; when its graph is
3-connected all the same, some vertex star is pinched, and the faces are
rejected for it.  Polyhedral maps are closed under duality, so a dual is
built without a second validation.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from dataclasses import dataclass, field

from .errors import (
    DegenerateFace,
    EdgeNotInTwoFaces,
    EulerViolation,
    NotThreeConnected,
    ParseError,
)
from .lazy import nx


@dataclass(frozen=True)
class CombinatorialMap:
    """The combinatorial type of a 3-polytope."""

    n_vertices: int
    faces: tuple[tuple[int, ...], ...]
    name: str | None = None
    edges: frozenset[frozenset[int]] = field(init=False, compare=False)
    # The polar dual, built by the first dual_map call on this map.
    _dual: CombinatorialMap | None = field(default=None, init=False,
                                           compare=False, repr=False)

    def __post_init__(self):
        es = set()
        for f in self.faces:
            for i, u in enumerate(f):
                es.add(frozenset((u, f[(i + 1) % len(f)])))
        object.__setattr__(self, "edges", frozenset(es))

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def graph(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.n_vertices))
        g.add_edges_from(tuple(sorted(e)) for e in self.edges)
        return g

    def face_sets(self) -> set[frozenset[int]]:
        return {frozenset(f) for f in self.faces}


def validate_map(raw) -> CombinatorialMap:
    """Validate raw map data (dict with 'vertices', 'faces' and an optional
    'name') and build the map.

    Raises one of the MapValidationError subclasses naming the offending
    element, or ParseError for structurally malformed input.  Faces that
    form a polyhedral map (`_polyhedral`) certify 3-connectivity; any other
    face list is decided by networkx max-flow, which also gives the cut a
    rejection reports; if that graph is 3-connected, DegenerateFace names a
    pinched vertex star.
    """
    if not isinstance(raw, dict) or "vertices" not in raw or "faces" not in raw:
        raise ParseError("map data must contain 'vertices' and 'faces'")
    n = raw["vertices"]
    faces = raw["faces"]
    if not isinstance(n, int) or n < 4:
        raise ParseError(f"vertex count must be an integer >= 4, got {n!r}")
    if not isinstance(faces, (list, tuple)) or not all(isinstance(f, (list, tuple))
                                                       for f in faces):
        raise ParseError("'faces' must be a list of vertex lists")

    for i, f in enumerate(faces):
        if len(f) < 3:
            raise DegenerateFace(i, f, "fewer than 3 vertices")
        for v in f:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise DegenerateFace(i, f, f"vertex {v} out of range [0, {n})")
        if len(set(f)) != len(f):
            raise DegenerateFace(i, f, "repeated vertex")

    # Edges are keyed in the order networkx is given them below, which
    # decides the cut that a rejection reports.
    edge_faces: dict[frozenset[int], list[int]] = {}
    for fi, f in enumerate(faces):
        for i, u in enumerate(f):
            edge_faces.setdefault(frozenset((u, f[(i + 1) % len(f)])), []).append(fi)
    for e, fs in sorted(edge_faces.items(), key=lambda kv: sorted(kv[0])):
        if len(fs) != 2:
            raise EdgeNotInTwoFaces(sorted(e), len(fs))

    v, e, fc = n, len(edge_faces), len(faces)
    if v - e + fc != 2:
        raise EulerViolation(v, e, fc)

    stars = _vertex_stars(n, faces)
    if not _polyhedral(stars, edge_faces):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(tuple(sorted(ed)) for ed in edge_faces)
        if not nx.is_connected(g):
            raise NotThreeConnected(0, None)
        k = nx.node_connectivity(g)
        if k < 3:
            cut = nx.minimum_node_cut(g)
            raise NotThreeConnected(k, cut)
        # Faces whose vertex stars are single cycles glue into the sphere,
        # and with a 3-connected graph they are polyhedral; so some vertex
        # star here is pinched into several cycles.
        for v, star in enumerate(stars):
            _rotation_at_vertex(faces, star, v)

    edges = raw.get("edges")
    if edges is not None:
        if not isinstance(edges, list) or not all(
                isinstance(ed, list) and all(isinstance(v, int) for v in ed) for ed in edges):
            raise ParseError("'edges' must be a list of vertex lists")
        given = {frozenset(ed) for ed in edges}
        if given != set(edge_faces):
            raise ParseError("explicit edge list does not match edges derived from faces")

    return CombinatorialMap(n, tuple(tuple(f) for f in faces), raw.get("name"))


def _vertex_stars(n: int, faces) -> list[list[tuple[int, int, int]]]:
    """For each vertex v, (face index, vertex before v, vertex after v) of
    every face through v, in face order."""
    stars = [[] for _ in range(n)]
    for fi, f in enumerate(faces):
        for i, v in enumerate(f):
            stars[v].append((fi, f[i - 1], f[(i + 1) % len(f)]))
    return stars


def _star_walk(star) -> list[int]:
    """Walk the faces of one vertex star through the edges at the vertex.

    Consecutive faces around a vertex share an edge at it.  Face
    orientations are not assumed consistent: the walk enters each face
    through one of its two edges at the vertex and leaves through the
    other.  It starts at the first face, entering through the edge to the
    vertex before the centre, and stops on returning there, or after one
    step per face of the star, so the star is a single cycle exactly when
    the walk lists every face of it.  Needs every edge at the centre in
    exactly two faces of the star.
    """
    ends = {fi: (a, b) for fi, a, b in star}
    faces_at = {}
    for fi, a, b in star:
        faces_at.setdefault(a, []).append(fi)
        faces_at.setdefault(b, []).append(fi)
    start = star[0][0]
    order = [start]
    cur, entry = start, ends[start][0]
    for _ in star:
        a, b = ends[cur]
        leave = b if entry == a else a
        f1, f2 = faces_at[leave]
        nxt = f2 if f1 == cur else f1
        if nxt == start:
            break
        order.append(nxt)
        cur, entry = nxt, leave
    return order


def _polyhedral(stars, edge_faces) -> bool:
    """Whether faces already known to be simple cycles, with every edge in
    exactly two faces and V - E + F = 2, form a polyhedral map on the
    sphere, whose graph is then 3-connected.

    It checks that (a) the graph is connected, (b) the faces through each
    vertex form a single cycle when linked through the edges at that vertex,
    and (c) two distinct faces share nothing, one vertex, or exactly the two
    ends of one edge they both contain.

    Proof.  Glue a disk to every facial cycle.  Every edge lies on two
    disks, and by (b) the disks around each vertex close up into one disk
    around it, so the result is a closed surface; by (a) it is connected,
    and its Euler characteristic V - E + F = 2 makes it the sphere.  With
    (c) the faces meet as in a polyhedral map, and a map on the sphere is
    polyhedral exactly when its graph is 3-connected (Brehm-Schulte,
    "Polyhedral maps", Handbook of Discrete and Computational Geometry).
    The cost is O(sum of squared degrees).  False means only that the
    faces do not show it; the caller then decides with max-flow.
    """
    seen = {0}
    todo = [0]
    while todo:
        for _, a, b in stars[todo.pop()]:
            for u in (a, b):
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
    if len(seen) != len(stars):
        return False
    if any(len(_star_walk(star)) != len(star) for star in stars):
        return False
    shared = Counter()
    for star in stars:
        shared.update(combinations([fi for fi, _, _ in star], 2))
    edge_pairs = {tuple(fs) for fs in edge_faces.values()}
    return all(c < 2 or (c == 2 and pair in edge_pairs) for pair, c in shared.items())


def _rotation_at_vertex(faces, star, v: int) -> list[int]:
    """Indices of the faces incident to v, in rotation order around v."""
    order = _star_walk(star)
    if len(order) != len(star):
        raise DegenerateFace(order[0], faces[order[0]],
                             f"vertex star of {v} not a single cycle")
    return order


def dual_map(m: CombinatorialMap) -> CombinatorialMap:
    """Polar dual: vertices <-> faces, dual faces = vertex stars in rotation
    order.  It is built once per map object and kept on it.  The dual of a
    polyhedral map is polyhedral, so it is not validated again; m must be a
    validated map."""
    if m._dual is None:
        object.__setattr__(m, "_dual", _build_dual(m))
    return m._dual


def _build_dual(m: CombinatorialMap) -> CombinatorialMap:
    stars = _vertex_stars(m.n_vertices, m.faces)
    dual_faces = tuple(tuple(_rotation_at_vertex(m.faces, star, v))
                       for v, star in enumerate(stars))
    name = f"dual({m.name})" if m.name else None
    return CombinatorialMap(m.n_faces, dual_faces, name)


def maps_isomorphic(a: CombinatorialMap, b: CombinatorialMap) -> bool:
    """Graph isomorphism respecting the face structure (faces as vertex sets)."""
    ga, gb = a.graph(), b.graph()
    matcher = nx.algorithms.isomorphism.GraphMatcher(ga, gb)
    fa = a.face_sets()
    fb = b.face_sets()
    for mapping in matcher.isomorphisms_iter():
        if {frozenset(mapping[v] for v in f) for f in fa} == fb:
            return True
    return False


def parse_map_json(text: str) -> CombinatorialMap:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    return validate_map(raw)


def serialize_map_json(m: CombinatorialMap) -> str:
    data = {}
    if m.name:
        data["name"] = m.name
    data["vertices"] = m.n_vertices
    data["faces"] = [list(f) for f in m.faces]
    return json.dumps(data, indent=1) + "\n"
