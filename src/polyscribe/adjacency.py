"""The library's one graph type, immutable neighbour lists, and networkx's
minimum vertex cut on it."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on the vertices 0, ..., n - 1; adj[v]
    holds v's neighbours in the order of the edges through v."""

    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        return cls(tuple(map(tuple, adj)))

    @property
    def nodes(self) -> range:
        return range(len(self.adj))

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Each edge (u, v) once with u < v, by u, then in u's neighbour order."""
        return [(u, v) for u, nbrs in enumerate(self.adj) for v in nbrs if u < v]

    def has_edge(self, u, v) -> bool:
        return u in self.nodes and v in self.adj[u]

    def number_of_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    def component_sizes(self, removed=()) -> list[int]:
        """The sizes of the components of the graph less the vertices
        removed, by least vertex."""
        seen = set(removed)
        sizes = []
        for root in self.nodes:
            if root not in seen:
                seen.add(root)
                todo = [root]
                for v in todo:
                    fresh = [u for u in self.adj[v] if u not in seen]
                    seen.update(fresh)
                    todo += fresh
                sizes.append(len(todo))
        return sizes


def minimum_node_cut(g: Graph) -> set[int]:
    """networkx 3.6.1's minimum_node_cut(G), G with g's neighbour order: a
    least vertex set whose removal disconnects g (Even 1975; Esfahanian's
    reduction to the pairs through one vertex).  v is the first vertex of
    least degree; an s-t cut replaces the cut, first v's neighbours, when
    no larger, for (v, w) over w in `set(nodes) - set(adj[v]) - {v}`, then
    for the non-adjacent pairs of `combinations(adj[v], 2)`.

    An s-t cut is a maximum flow from 2s + 1 to 2t on g split: vertex x is
    the arc 2x -> 2x + 1, edge xy the arcs 2x + 1 -> 2y and 2y + 1 -> 2x,
    all of capacity 1.  The sink side, the nodes with a residual path to
    2t, is the same for every maximum flow; the cut is the vertices of the
    arcs into it, less s and t (an edge arc into 2t counts too)."""
    adj = g.adj
    arcs = [(2 * x, 2 * x + 1) for x in g.nodes]
    arcs += [(2 * x + 1, 2 * y) for x in g.nodes for y in adj[x]]
    around = [[] for _ in range(2 * len(adj))]
    for a, b in arcs:
        around[a].append(b)
        around[b].append(a)
    capacity = dict.fromkeys(arcs, 1)
    capacity.update(dict.fromkeys(((b, a) for a, b in arcs), 0))

    def st_cut(s, t):
        residual = capacity.copy()

        def reach(start, backward):     # node -> the node it was reached from
            parent = {start: None}
            queue = [start]
            for a in queue:
                for b in around[a]:
                    if b not in parent and residual[(b, a) if backward else (a, b)]:
                        parent[b] = a
                        queue.append(b)
            return parent

        source, sink = 2 * s + 1, 2 * t
        while sink in (parent := reach(source, False)):
            b = sink
            while b != source:
                a = parent[b]
                residual[a, b] -= 1
                residual[b, a] += 1
                b = a
        inside = reach(sink, True)
        return {end >> 1 for a, b in arcs if b in inside and a not in inside
                for end in (a, b)} - {s, t}

    v = min(g.nodes, key=lambda x: len(adj[x]))
    cut = set(adj[v])
    pairs = [(v, w) for w in set(g.nodes) - set(adj[v]) - {v}]
    pairs += [(x, y) for x, y in combinations(adj[v], 2) if y not in adj[x]]
    for s, t in pairs:
        this = st_cut(s, t)
        if len(cut) >= len(this):
            cut = this
    return cut
