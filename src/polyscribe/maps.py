"""Combinatorial maps: 3-connected planar graphs given with their facial cycles.

The face list is taken as an embedding witness (unique by Whitney for
3-connected planar graphs); validation is purely combinatorial: every
edge lies in exactly two faces, Euler's relation holds, and the graph is
simple and 3-connected.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import networkx as nx

from .errors import (
    DegenerateFace,
    EdgeNotInTwoFaces,
    EulerViolation,
    NotThreeConnected,
    ParseError,
)


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
    def n_edges(self) -> int:
        return len(self.edges)

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


def _face_edge_list(face):
    return [frozenset((face[i], face[(i + 1) % len(face)])) for i in range(len(face))]


def validate_map(raw, name: str | None = None) -> CombinatorialMap:
    """Validate raw map data (dict with 'vertices' and 'faces') and build the map.

    Raises one of the MapValidationError subclasses naming the offending
    element, or ParseError for structurally malformed input.
    """
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
        edge_count.update(_face_edge_list(f))
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
        cut = nx.minimum_node_cut(g)
        raise NotThreeConnected(k, cut)

    edges = raw.get("edges")
    if edges is not None:
        if not isinstance(edges, list) or not all(
                isinstance(ed, list) and all(isinstance(v, int) for v in ed) for ed in edges):
            raise ParseError("'edges' must be a list of vertex lists")
        given = {frozenset(ed) for ed in edges}
        if given != set(edge_count):
            raise ParseError("explicit edge list does not match edges derived from faces")

    return CombinatorialMap(n, tuple(tuple(f) for f in faces), name)


def _rotation_at_vertex(m: CombinatorialMap, v: int) -> list[int]:
    """Indices of the faces incident to v, in rotation order around v."""
    incident = {}
    for fi, f in enumerate(m.faces):
        if v in f:
            i = f.index(v)
            e1 = frozenset((v, f[i - 1]))
            e2 = frozenset((v, f[(i + 1) % len(f)]))
            incident[fi] = (e1, e2)
    by_edge = {}
    for fi, (e1, e2) in incident.items():
        by_edge.setdefault(e1, []).append(fi)
        by_edge.setdefault(e2, []).append(fi)
    # Consecutive faces around v share an edge at v.  Face orientations are
    # not assumed consistent: enter each face through one of its two edges
    # at v and leave through the other.
    start = min(incident)
    order = [start]
    cur, entry = start, incident[start][0]
    while True:
        e1, e2 = incident[cur]
        exit_edge = e2 if entry == e1 else e1
        a, b = by_edge[exit_edge]
        nxt = b if a == cur else a
        if nxt == start:
            break
        order.append(nxt)
        cur, entry = nxt, exit_edge
        if len(order) > len(incident):
            raise DegenerateFace(cur, m.faces[cur], f"inconsistent rotation at vertex {v}")
    if len(order) != len(incident):
        raise DegenerateFace(start, m.faces[start], f"vertex star of {v} not a single cycle")
    return order


def dual_map(m: CombinatorialMap) -> CombinatorialMap:
    """Polar dual: vertices <-> faces, dual faces = vertex stars in rotation
    order.  It is built and validated once per map object and kept on it."""
    if m._dual is None:
        object.__setattr__(m, "_dual", _build_dual(m))
    return m._dual


def _build_dual(m: CombinatorialMap) -> CombinatorialMap:
    dual_faces = tuple(tuple(_rotation_at_vertex(m, v)) for v in range(m.n_vertices))
    name = f"dual({m.name})" if m.name else None
    out = CombinatorialMap(m.n_faces, dual_faces, name)
    return validate_map({"vertices": out.n_vertices,
                         "faces": [list(f) for f in out.faces]}, name)


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
