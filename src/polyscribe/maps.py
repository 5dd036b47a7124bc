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

A map carries its incidence, built once with it: the faces of each edge,
the edges of each face and the faces around each vertex.  Validation, the
dual and the angle systems all read it.  Its graph and its dual are built
on first use and kept on it, so every reader shares one of each; the graph
is frozen, and a reader that edits it takes a copy.  `edges` keeps the
order it is built in, because networkx's cuts depend on the order
`graph()` hands it the edges.  The faces of a dual edge are the stars of
the two ends of the primal edge it crosses, so `dual_map(m).edge_faces` is
the relabel from dual edges to primal edges, and `m.edge_faces` is its
inverse.
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
    """The combinatorial type of a 3-polytope, with its incidence.

    `edge_faces` maps each sorted edge (u, v) to its face indices in face
    order, keyed in order of first appearance; `face_edges` holds each
    face's sorted edges, sorted; `stars` holds, for each vertex v, the
    (face index, vertex before v, vertex after v) of every face through v,
    in face order.  `graph()` inserts edges in the iteration order of
    `edges`, which decides the cuts networkx reports."""

    n_vertices: int
    faces: tuple[tuple[int, ...], ...]
    name: str | None = None
    edges: frozenset[frozenset[int]] = field(init=False, compare=False)
    edge_faces: dict[tuple[int, int], tuple[int, ...]] = field(
        init=False, compare=False, repr=False)
    face_edges: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, compare=False, repr=False)
    stars: list[list[tuple[int, int, int]]] = field(init=False, compare=False, repr=False)
    # The polar dual, built by the first dual_map call on this map.
    _dual: CombinatorialMap | None = field(default=None, init=False,
                                           compare=False, repr=False)
    # The frozen graph, built by the first graph() call.
    _graph: nx.Graph | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        edge_faces: dict = {}
        face_edges = []
        stars = [[] for _ in range(self.n_vertices)]
        for fi, f in enumerate(self.faces):
            fe = []
            for i, u in enumerate(f):
                v = f[(i + 1) % len(f)]
                e = (u, v) if u < v else (v, u)
                edge_faces.setdefault(e, []).append(fi)
                fe.append(e)
                stars[u].append((fi, f[i - 1], v))
            face_edges.append(tuple(sorted(fe)))
        # Through a set: a frozenset made straight from the pairs would
        # iterate in another order, and the cuts networkx reports with it.
        object.__setattr__(self, "edges", frozenset(set(map(frozenset, edge_faces))))
        object.__setattr__(self, "edge_faces",
                           {e: tuple(fs) for e, fs in edge_faces.items()})
        object.__setattr__(self, "face_edges", tuple(face_edges))
        object.__setattr__(self, "stars", stars)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def graph(self) -> nx.Graph:
        """The graph of the map, built once and frozen (`nx.freeze`)."""
        if self._graph is None:
            object.__setattr__(self, "_graph", nx.freeze(_build_graph(self)))
        return self._graph

    def face_sets(self) -> set[frozenset[int]]:
        return {frozenset(f) for f in self.faces}


def _build_graph(m: CombinatorialMap) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(m.n_vertices))
    g.add_edges_from(tuple(sorted(e)) for e in m.edges)
    return g


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

    # These checks read the face list alone, so a vertex count far above
    # what the faces hold costs nothing before the map is built.
    counts = Counter((u, v) if u < v else (v, u)
                     for f in faces for u, v in zip(f, [*f[1:], f[0]]))
    for e, c in sorted(counts.items()):
        if c != 2:
            raise EdgeNotInTwoFaces(e, c)
    if n - len(counts) + len(faces) != 2:
        raise EulerViolation(n, len(counts), len(faces))
    if len({v for f in faces for v in f}) < n:
        raise NotThreeConnected(0, None)  # a vertex on no face is isolated

    m = CombinatorialMap(n, tuple(tuple(f) for f in faces), raw.get("name"))
    if not _polyhedral(m):
        # Edges go to networkx in order of first appearance, which decides
        # the cut that a rejection reports.
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(m.edge_faces)
        if not nx.is_connected(g):
            raise NotThreeConnected(0, None)
        k = nx.node_connectivity(g)
        if k < 3:
            cut = nx.minimum_node_cut(g)
            raise NotThreeConnected(k, cut)
        # Faces whose vertex stars are single cycles glue into the sphere,
        # and with a 3-connected graph they are polyhedral; so some vertex
        # star here is pinched into several cycles.
        for v, star in enumerate(m.stars):
            _rotation_at_vertex(faces, star, v)

    edges = raw.get("edges")
    if edges is not None:
        if not isinstance(edges, list) or not all(
                isinstance(ed, list) and all(isinstance(v, int) for v in ed) for ed in edges):
            raise ParseError("'edges' must be a list of vertex lists")
        if {frozenset(ed) for ed in edges} != m.edges:
            raise ParseError("explicit edge list does not match edges derived from faces")

    return m


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


def _polyhedral(m: CombinatorialMap) -> bool:
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
    stars = m.stars
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
    edge_pairs = set(m.edge_faces.values())
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
    dual_faces = tuple(tuple(_rotation_at_vertex(m.faces, star, v))
                       for v, star in enumerate(m.stars))
    name = f"dual({m.name})" if m.name else None
    return CombinatorialMap(m.n_faces, dual_faces, name)


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
