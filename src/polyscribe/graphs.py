"""Exact graph-theoretic tests: independence, toughness, connectivity, Hamiltonicity.

All searches are exponential but budgeted; exceeding a budget raises
BudgetExceeded so callers can degrade to UNKNOWN instead of guessing.
Searches use deterministic vertex orders so results are reproducible.
1-toughness and 1-supertoughness are answered together by one scan of the
cutsets (`toughness_scan`), which counts the components left by each
vertex subset once; `is_one_tough` and `is_one_supertough` read their
answer from it.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BudgetExceeded
from .lazy import nx
from .maps import CombinatorialMap, dual_map
from .verdicts import Answer, Certificate, CertKind, Verdict

DEFAULT_INDEP_BUDGET = 40
DEFAULT_TOUGHNESS_BUDGET = 22
DEFAULT_HAMILTON_BUDGET = 30


# ---------------------------------------------------------------- independent set

def max_independent_set(g: nx.Graph, budget: int = DEFAULT_INDEP_BUDGET) -> set[int]:
    """Maximum-cardinality independent set by branch and bound.

    Bound: greedy clique cover of the remaining candidates.  Vertex order:
    ascending degree, then label, for reproducibility.
    """
    n = g.number_of_nodes()
    if n > budget:
        raise BudgetExceeded("independent set search", n, budget)
    order = sorted(g.nodes, key=lambda v: (g.degree(v), v))
    pos = {v: i for i, v in enumerate(order)}
    adj = {v: {u for u in g[v]} for v in g.nodes}

    best: list[int] = []

    def clique_cover_bound(cands: list[int]) -> int:
        cliques = []
        for v in cands:
            for c in cliques:
                if all(u in adj[v] for u in c):
                    c.append(v)
                    break
            else:
                cliques.append([v])
        return len(cliques)

    def extend(current: list[int], cands: list[int]):
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        if not cands:
            return
        if len(current) + clique_cover_bound(cands) <= len(best):
            return
        for i, v in enumerate(cands):
            rest = [u for u in cands[i + 1:] if u not in adj[v]]
            extend(current + [v], rest)

    extend([], order)
    return set(best)


def is_bipartite_classes(g: nx.Graph):
    """(class_a, class_b) if bipartite, else None."""
    try:
        a, b = nx.bipartite.sets(g)
        return set(a), set(b)
    except (nx.NetworkXError, nx.AmbiguousSolution):
        return None


def independent_set_obstruction(g: nx.Graph,
                                budget: int = DEFAULT_INDEP_BUDGET) -> Certificate | None:
    """Not-inscribable witness: independent set of more than half the vertices,
    or exactly half with the graph not bipartite.  None means no conclusion."""
    n = g.number_of_nodes()
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
    set obstruction on the dual graph.  For the exactly-half case the needed
    edge between two white facets is checked explicitly."""
    dg = dual_map(m).graph()
    cert = independent_set_obstruction(dg, budget)
    if cert is None:
        return None
    black = set(cert.data["independent_set"])
    white = set(dg.nodes) - black
    if 2 * len(black) == dg.number_of_nodes() and not any(
            dg.has_edge(u, v) for u in white for v in white if u < v):
        raise RuntimeError("half-size independent set in a non-bipartite graph "
                           "left no white-white edge")
    return Certificate(
        CertKind.PAINT_OBSTRUCTION,
        {"independent_set": sorted(black), "white_facets": sorted(white),
         "n_vertices": dg.number_of_nodes()},
        f"{len(black)} of {dg.number_of_nodes()} facets painted black: not circumscribable",
    )


# ---------------------------------------------------------------- toughness

def _neighbor_masks(g: nx.Graph):
    nodes = sorted(g.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    masks = [0] * len(nodes)
    for u, v in g.edges:
        masks[idx[u]] |= 1 << idx[v]
        masks[idx[v]] |= 1 << idx[u]
    return nodes, masks


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


def toughness_scan(g: nx.Graph):
    """1-toughness and 1-supertoughness from one scan of the cutsets.

    Cutsets S are taken by size k, then in lexicographic order, and the
    components of g - S are counted once for both tests.  1-toughness fails
    at the first S that leaves more than k components, with
    k <= (n-1)//2 since components(g-S) <= n-k; 1-supertoughness fails at
    the first S with 2 <= k <= n//2 that leaves at least k components.
    The scan stops once both are decided.  Returns (tough, supertough),
    each (True, None) or (False, certificate).  Over the budget of
    DEFAULT_TOUGHNESS_BUDGET vertices, each is instead the BudgetExceeded its
    own test raises (see is_one_tough and is_one_supertough).
    """
    n, budget = g.number_of_nodes(), DEFAULT_TOUGHNESS_BUDGET
    if n > budget:
        return (BudgetExceeded("toughness enumeration", n, budget),
                BudgetExceeded("supertoughness enumeration", n, budget))
    nodes, masks = _neighbor_masks(g)
    bits = [1 << i for i in range(n)]
    full = (1 << n) - 1
    last_tough = (n - 1) // 2
    tough = supertough = None

    def violation(kind, name, subset, comps):
        cut = [nodes[b.bit_length() - 1] for b in subset]
        return False, Certificate(
            kind, {"cutset": cut, "components": comps},
            f"removing {len(cut)} vertices leaves {comps} components: not {name}")

    for k in range(1, n // 2 + 1):
        check_tough = tough is None and k <= last_tough
        check_super = supertough is None and k >= 2
        if not (check_tough or check_super):
            continue
        for subset in combinations(bits, k):
            comps = _components_mask(masks, full ^ sum(subset))
            if check_tough and comps > k:
                tough = violation(CertKind.TOUGHNESS_VIOLATION, "1-tough", subset, comps)
                check_tough = False
            if check_super and comps >= k:
                supertough = violation(CertKind.SUPERTOUGH_VIOLATION, "1-supertough",
                                       subset, comps)
                check_super = False
            if not (check_tough or check_super):
                break
    return tough or (True, None), supertough or (True, None)


def _answer(result):
    if isinstance(result, BudgetExceeded):
        raise result
    return result


def is_one_tough(g: nx.Graph):
    """True, or (False, ToughnessViolation certificate) with a cutset S such
    that g - S has more than |S| components.  Exhaustive over subsets."""
    return _answer(toughness_scan(g)[0])


def is_one_supertough(g: nx.Graph):
    """True, or (False, SupertoughViolation) with S, |S| = k >= 2, such that
    g - S has at least k components."""
    return _answer(toughness_scan(g)[1])


# ---------------------------------------------------------------- connectivity

def vertex_connectivity(g: nx.Graph):
    """Exact vertex connectivity, plus a minimum cutset witness (None for
    complete graphs, which have no cutset and connectivity n - 1).  One
    max-flow pass finds a minimum cut, and the connectivity is its size."""
    n = g.number_of_nodes()
    k, cutset = n - 1, None
    if g.number_of_edges() < n * (n - 1) // 2:
        cutset = sorted(nx.minimum_node_cut(g))
        k = len(cutset)
    cert = Certificate(
        CertKind.CONNECTIVITY_WITNESS,
        {"connectivity": k, "cutset": cutset},
        f"vertex connectivity {k}",
    )
    return k, cert


def degree_range_check(g: nx.Graph) -> bool:
    """Whether every vertex degree lies in [4, 6]."""
    return all(4 <= d <= 6 for _, d in g.degree)


# ---------------------------------------------------------------- Hamiltonicity

def hamiltonian_cycle(g: nx.Graph):
    """A Hamiltonian cycle as a vertex list, or None after exhaustive search
    of graphs with at most DEFAULT_HAMILTON_BUDGET vertices."""
    n = g.number_of_nodes()
    if n > DEFAULT_HAMILTON_BUDGET:
        raise BudgetExceeded("Hamiltonian cycle search", n, DEFAULT_HAMILTON_BUDGET)
    if n < 3:
        return None
    nodes = sorted(g.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    adj = [sorted(idx[u] for u in g[v]) for v in nodes]
    start = 0
    path = [start]
    used = [False] * n
    used[start] = True

    def feasible():
        # every unused vertex still needs 2 free neighbors (path ends count)
        tail = path[-1]
        for v in range(n):
            if used[v]:
                continue
            free = sum(1 for u in adj[v] if not used[u] or u == tail or u == start)
            if free < 2:
                return False
        return True

    def dfs():
        if len(path) == n:
            return start in adj[path[-1]]
        if not feasible():
            return False
        for u in adj[path[-1]]:
            if not used[u]:
                used[u] = True
                path.append(u)
                if dfs():
                    return True
                path.pop()
                used[u] = False
        return False

    if dfs():
        return [nodes[i] for i in path]
    return None


def hamiltonian_certificate(cycle) -> Certificate:
    return Certificate(CertKind.HAMILTONIAN_CYCLE, {"cycle": list(cycle)},
                       "Hamiltonian cycle found")


# ---------------------------------------------------------------- simple polytopes

def simple_polytope_characterization(m: CombinatorialMap, supertough) -> Verdict | None:
    """Exact inscribability for simple 3-polytopes (all degrees 3): the graph
    must be bipartite with a 4-connected dual, or 1-supertough.  Returns None
    when the map is not simple.  supertough is toughness_scan(m.graph())[1];
    it is read only when the first test fails, and a BudgetExceeded there is
    raised."""
    g = m.graph()
    if any(d != 3 for _, d in g.degree):
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
