"""Exact graph-theoretic tests: independence, toughness, connectivity, Hamiltonicity.

All searches are exponential but budgeted; exceeding a budget raises
BudgetExceeded so callers can degrade to UNKNOWN instead of guessing.
Searches use deterministic vertex orders so results are reproducible.
The independent-set, toughness and Hamiltonian searches share one
adjacency, each vertex's neighbours as a bitmask over the search's vertex
order (`_neighbor_masks`).  The re-checks in `verdicts` read the graph's
neighbour lists instead, so that they share no code with the searches they
check.
1-toughness and 1-supertoughness are answered together by one scan of the
cutsets (`toughness_scan`), which counts the components left by each
vertex subset once; `is_one_tough` and `is_one_supertough` read their
answer from it.  The scan takes a validated map, not a bare graph: in a
3-connected planar graph every component left by a cutset S sends at
least 3 edges to S, so a cutset that leaves c >= 2 components has at
least 3c edges leaving it, and c <= 2|S| - 4.  The scan skips the
cutsets these bounds rule out, and only those, so it reports the same
first violators as the unpruned scan.
"""

from __future__ import annotations

from .adjacency import Graph, minimum_node_cut
from .errors import BudgetExceeded
from .maps import CombinatorialMap, dual_map
from .verdicts import Answer, Certificate, CertKind, Verdict

DEFAULT_INDEP_BUDGET = 40
DEFAULT_TOUGHNESS_BUDGET = 22
DEFAULT_HAMILTON_BUDGET = 30


# ---------------------------------------------------------------- adjacency

def _neighbor_masks(g: Graph, order) -> list[int]:
    """The neighbours of order[i] as a bitmask over positions in order."""
    idx = {v: i for i, v in enumerate(order)}
    return [sum(1 << idx[u] for u in g.adj[v]) for v in order]


def _bits(mask: int):
    """The positions of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------- independent set

def max_independent_set(g: Graph, budget: int = DEFAULT_INDEP_BUDGET) -> set[int]:
    """Maximum-cardinality independent set by branch and bound.

    Bound: greedy clique cover of the remaining candidates.  Vertex order:
    ascending degree, then label, for reproducibility; bit i of each mask
    is the i-th vertex, and candidates are tried in ascending bit order.
    """
    n = len(g.adj)
    if n > budget:
        raise BudgetExceeded("independent set search", n, budget)
    order = sorted(g.nodes, key=lambda v: (len(g.adj[v]), v))
    masks = _neighbor_masks(g, order)
    best = 0

    def clique_cover_bound(cands: int) -> int:
        cliques = []
        for v in _bits(cands):
            for j, c in enumerate(cliques):
                if c & ~masks[v] == 0:
                    cliques[j] = c | 1 << v
                    break
            else:
                cliques.append(1 << v)
        return len(cliques)

    def extend(current: int, cands: int):
        nonlocal best
        size = current.bit_count()
        if size > best.bit_count():
            best = current
        if not cands or size + clique_cover_bound(cands) <= best.bit_count():
            return
        for v in _bits(cands):
            cands ^= 1 << v               # leaves the candidates after v
            extend(current | 1 << v, cands & ~masks[v])

    extend(0, (1 << n) - 1)
    return {order[i] for i in _bits(best)}


def is_bipartite_classes(g: Graph):
    """(class_a, class_b) if g is connected and bipartite, else None: the
    parity classes of a breadth-first search from vertex 0, the class of
    vertex 0 first."""
    side = [None] * len(g.adj)
    side[0] = 0
    todo = [0]
    for v in todo:
        for u in g.adj[v]:
            if side[u] is None:
                side[u] = 1 - side[v]
                todo.append(u)
            elif side[u] == side[v]:
                return None
    if len(todo) < len(g.adj):
        return None
    return {v for v in g.nodes if side[v] == 0}, {v for v in g.nodes if side[v] == 1}


def independent_set_obstruction(g: Graph,
                                budget: int = DEFAULT_INDEP_BUDGET) -> Certificate | None:
    """Not-inscribable witness: independent set of more than half the vertices,
    or exactly half with the graph not bipartite.  None means no conclusion."""
    n = len(g.adj)
    s = max_independent_set(g, budget)
    if 2 * len(s) > n or (2 * len(s) == n and is_bipartite_classes(g) is None):
        return Certificate(
            CertKind.INDEPENDENT_SET_OBSTRUCTION,
            {"independent_set": sorted(s), "n_vertices": n},
            f"independent set of size {len(s)} of {n} vertices: not inscribable",
        )
    return None


def steinitz_paint_test(m: CombinatorialMap,
                        budget: int = DEFAULT_INDEP_BUDGET) -> Certificate | None:
    """Facet-painting obstruction to circumscribability: runs the independent
    set obstruction on the dual graph.  In the exactly-half case the dual,
    which is connected, is not bipartite, so two white facets share an edge:
    else (black, white) would be its bipartition."""
    dg = dual_map(m).graph()
    cert = independent_set_obstruction(dg, budget)
    if cert is None:
        return None
    black = set(cert.data["independent_set"])
    white = set(dg.nodes) - black
    return Certificate(
        CertKind.PAINT_OBSTRUCTION,
        {"independent_set": sorted(black), "white_facets": sorted(white),
         "n_vertices": len(dg.adj)},
        f"{len(black)} of {len(dg.adj)} facets painted black: not circumscribable",
    )


# ---------------------------------------------------------------- toughness

def _components_mask(masks, alive: int) -> int:
    count = 0
    rem = alive
    while rem:
        seed = rem & -rem
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= masks[b.bit_length() - 1]
                m ^= b
            nxt &= alive & ~comp
            comp |= nxt
            frontier = nxt
        rem &= ~comp
        count += 1
    return count


def toughness_scan(m: CombinatorialMap):
    """1-toughness and 1-supertoughness of a map's graph from one scan of
    the cutsets.

    Cutsets S are taken by size k, then in lexicographic order, and the
    components of G - S are counted once for both tests.  1-toughness fails
    at the first S that leaves more than k components, with
    k <= (n-1)//2 since components(G-S) <= n-k; 1-supertoughness fails at
    the first S with 2 <= k <= n//2 that leaves at least k components.
    The scan stops once both are decided.  Returns (tough, supertough),
    each (True, None) or (False, certificate).  Over the budget of
    DEFAULT_TOUGHNESS_BUDGET vertices, each is instead the BudgetExceeded its
    own test raises (see is_one_tough and is_one_supertough).

    m must be a map that validate_map accepted, or a dual of one: its graph
    is 3-connected and planar, and the scan skips only the cutsets that
    this rules out, so each first violator is the unpruned scan's.
    - Every component C of G - S, when there are c >= 2 of them, has at
      least 3 neighbours in S, since they separate C from the rest.  So
      3c <= sigma(S) = sum of deg(v) over S - 2 e(S), the edges from S to
      G - S.  The scan builds S a vertex at a time and drops a branch once
      sigma + (slots left) * (largest degree left) < 3 * (the fewest
      components an open test still needs): k for supertoughness, k + 1
      for toughness alone.
    - Contracting each component to a vertex leaves a simple bipartite
      plane graph on k + c vertices with at least 3c edges, and such a
      graph has at most 2(k + c) - 4 edges, so c <= 2k - 4.  No S with
      k <= 4 violates toughness and none with k <= 3 supertoughness.
    """
    g = m.graph()
    n, budget = len(g.adj), DEFAULT_TOUGHNESS_BUDGET
    if n > budget:
        return (BudgetExceeded("toughness enumeration", n, budget),
                BudgetExceeded("supertoughness enumeration", n, budget))
    masks = _neighbor_masks(g, g.nodes)
    deg = [mask.bit_count() for mask in masks]
    # top[i]: the largest degree among vertices i, ..., n - 1
    top = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        top[i] = max(deg[i], top[i + 1])
    full = (1 << n) - 1
    last_tough = (n - 1) // 2
    tough = supertough = None

    def violation(kind, name, chosen, comps):
        cut = [i for i in range(n) if chosen >> i & 1]
        return False, Certificate(
            kind, {"cutset": cut, "components": comps},
            f"removing {len(cut)} vertices leaves {comps} components: not {name}")

    def extend(k, start, chosen, sigma, left):
        """Each completion of the cutset chosen, from vertices start on with
        left slots to fill, in lexicographic order."""
        nonlocal tough, supertough, check_tough, check_super
        for i in range(start, n - left + 1):
            if not (check_tough or check_super):
                return
            s = sigma + deg[i] - 2 * (masks[i] & chosen).bit_count()
            if s + (left - 1) * top[i + 1] < 3 * (k if check_super else k + 1):
                continue
            cut = chosen | 1 << i
            if left > 1:
                extend(k, i + 1, cut, s, left - 1)
                continue
            comps = _components_mask(masks, full ^ cut)
            if check_tough and comps > k:
                tough = violation(CertKind.TOUGHNESS_VIOLATION, "1-tough", cut, comps)
                check_tough = False
            if check_super and comps >= k:
                supertough = violation(CertKind.SUPERTOUGH_VIOLATION, "1-supertough",
                                       cut, comps)
                check_super = False

    # c <= 2k - 4: toughness can fail from k = 5 on, supertoughness from 4
    for k in range(4, n // 2 + 1):
        check_tough = tough is None and 5 <= k <= last_tough
        check_super = supertough is None
        extend(k, 0, 0, 0, k)
    return tough or (True, None), supertough or (True, None)


def _answer(result):
    if isinstance(result, BudgetExceeded):
        raise result
    return result


def is_one_tough(m: CombinatorialMap):
    """True, or (False, ToughnessViolation certificate) with a cutset S such
    that G - S has more than |S| components, for the graph G of the map m."""
    return _answer(toughness_scan(m)[0])


def is_one_supertough(m: CombinatorialMap):
    """True, or (False, SupertoughViolation) with S, |S| = k >= 2, such that
    G - S has at least k components, for the graph G of the map m."""
    return _answer(toughness_scan(m)[1])


# ---------------------------------------------------------------- connectivity

def vertex_connectivity(g: Graph):
    """Exact vertex connectivity, plus a minimum cutset witness (None for
    complete graphs, which have no cutset and connectivity n - 1).  One
    max-flow pass finds a minimum cut, and the connectivity is its size."""
    n = len(g.adj)
    k, cutset = n - 1, None
    if g.number_of_edges() < n * (n - 1) // 2:
        cutset = sorted(minimum_node_cut(g))
        k = len(cutset)
    cert = Certificate(
        CertKind.CONNECTIVITY_WITNESS,
        {"connectivity": k, "cutset": cutset},
        f"vertex connectivity {k}",
    )
    return k, cert


def degree_range_check(g: Graph) -> bool:
    """Whether every vertex degree lies in [4, 6]."""
    return all(4 <= len(nbrs) <= 6 for nbrs in g.adj)


# ---------------------------------------------------------------- Hamiltonicity

def hamiltonian_cycle(g: Graph):
    """A Hamiltonian cycle as a vertex list, or None after exhaustive search
    of graphs with at most DEFAULT_HAMILTON_BUDGET vertices.  Vertex order:
    ascending label, as bits 0, 1, ...; the path starts at bit 0 and tries
    its tail's unused neighbours in ascending bit order."""
    n = len(g.adj)
    if n > DEFAULT_HAMILTON_BUDGET:
        raise BudgetExceeded("Hamiltonian cycle search", n, DEFAULT_HAMILTON_BUDGET)
    if n < 3:
        return None
    masks = _neighbor_masks(g, g.nodes)
    full = (1 << n) - 1
    path = [0]

    def dfs(used: int) -> bool:
        tail = path[-1]
        if len(path) == n:
            return bool(masks[tail] & 1)
        # every unused vertex still needs 2 free neighbours (path ends count)
        unused = full ^ used
        free = unused | 1 << tail | 1
        if any((masks[v] & free).bit_count() < 2 for v in _bits(unused)):
            return False
        for u in _bits(masks[tail] & unused):
            path.append(u)
            if dfs(used | 1 << u):
                return True
            path.pop()
        return False

    return path if dfs(1) else None


def hamiltonian_certificate(cycle) -> Certificate:
    return Certificate(CertKind.HAMILTONIAN_CYCLE, {"cycle": list(cycle)},
                       "Hamiltonian cycle found")


# ---------------------------------------------------------------- simple polytopes

def simple_polytope_characterization(m: CombinatorialMap, supertough) -> Verdict | None:
    """Exact inscribability for simple 3-polytopes (all degrees 3): the graph
    must be bipartite with a 4-connected dual, or 1-supertough.  Returns None
    when the map is not simple.  supertough is toughness_scan(m)[1];
    it is read only when the first test fails, and a BudgetExceeded there is
    raised."""
    g = m.graph()
    if any(len(nbrs) != 3 for nbrs in g.adj):
        return None
    certs = []
    classes = is_bipartite_classes(g)
    if classes is not None:
        dual_g = dual_map(m).graph()
        k, cut_cert = vertex_connectivity(dual_g)
        if k >= 4:
            certs.append(Certificate(
                CertKind.BIPARTITE_CLASSES,
                {"class_a": sorted(classes[0]), "class_b": sorted(classes[1])},
                "graph bipartite"))
            certs.append(cut_cert)
            return Verdict(Answer.YES, tuple(certs),
                           "simple, bipartite with 4-connected dual: inscribable")
    ok, viol = _answer(supertough)
    if ok:
        return Verdict(Answer.YES, tuple(certs), "simple and 1-supertough: inscribable")
    certs.append(viol)
    return Verdict(Answer.NO, tuple(certs),
                   "simple, not (bipartite with 4-connected dual), not 1-supertough")
