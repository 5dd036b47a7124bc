import random
from itertools import combinations
from math import comb

import networkx as nx
import numpy as np
import pytest

from polyscribe import graphs
from polyscribe.adjacency import Graph, minimum_node_cut
from polyscribe.corpus import (CORPUS_NAMES, kleetope, named_polytope, prism,
                              stack_on_face)
from polyscribe.errors import BudgetExceeded, PolyscribeError
from polyscribe.graphs import (hamiltonian_cycle, independent_set_obstruction,
                               is_one_supertough, is_one_tough,
                               max_independent_set,
                               simple_polytope_characterization,
                               steinitz_paint_test, toughness_scan,
                               vertex_connectivity)
from polyscribe.maps import dual_map, validate_map
from polyscribe.verdicts import (Answer, CertKind, Certificate,
                                 recheck_certificate)
from test_maps import _plane_map, nx_graph


def _graph(h):
    """The library graph of a networkx graph on the vertices 0, ..., n - 1."""
    return Graph.from_edges(h.number_of_nodes(), h.edges)


def _brute_alpha(g):
    nodes = sorted(g.nodes)
    best = 0
    for r in range(len(nodes), 0, -1):
        for s in combinations(nodes, r):
            if not any(g.has_edge(u, v) for u, v in combinations(s, 2)):
                return r
    return best


@pytest.mark.parametrize("seed", range(6))
def test_max_independent_set_vs_bruteforce(seed):
    g = _graph(nx.gnp_random_graph(11, 0.35, seed=seed))
    s = max_independent_set(g)
    assert not any(g.has_edge(u, v) for u, v in combinations(s, 2))
    assert len(s) == _brute_alpha(g)


def test_independent_set_budget():
    with pytest.raises(BudgetExceeded):
        max_independent_set(_graph(nx.path_graph(50)), budget=40)


def test_triakis_obstruction():
    # 4 stacking apexes of 8 vertices: exactly half, graph not bipartite
    m = named_polytope("triakis-tetrahedron")
    cert = independent_set_obstruction(m.graph())
    assert cert is not None
    assert len(cert.data["independent_set"]) == 4
    assert recheck_certificate(cert, m.graph())


def test_rhombic_dodecahedron_obstruction():
    # 8 degree-3 vertices out of 14: strictly more than half
    m = named_polytope("rhombic-dodecahedron")
    cert = independent_set_obstruction(m.graph())
    assert cert is not None and len(cert.data["independent_set"]) == 8
    assert recheck_certificate(cert, m.graph())


def test_cube_no_obstruction():
    assert independent_set_obstruction(named_polytope("cube").graph()) is None


def test_paint_test_truncated_tetrahedron():
    # its dual is the triakis tetrahedron, so painting finds 4 of 8 facets
    cert = steinitz_paint_test(named_polytope("truncated-tetrahedron"))
    assert cert is not None
    assert len(cert.data["independent_set"]) == 4


def test_paint_test_dodecahedron_clean():
    assert steinitz_paint_test(named_polytope("dodecahedron")) is None


def test_triakis_octahedron_not_tough():
    # removing the 6 original octahedron vertices leaves the 8 apexes isolated
    m = named_polytope("triakis-octahedron")
    g = m.graph()
    ok, cert = is_one_tough(m)
    assert not ok
    assert cert.data["components"] > len(cert.data["cutset"])
    assert recheck_certificate(cert, g)


def test_cube_tough_but_not_supertough():
    m = named_polytope("cube")
    g = m.graph()
    assert is_one_tough(m)[0]
    ok, cert = is_one_supertough(m)
    assert not ok and cert.data["components"] >= len(cert.data["cutset"]) == 4
    assert recheck_certificate(cert, g)


def test_tetrahedron_supertough():
    assert is_one_supertough(named_polytope("tetrahedron"))[0]


def test_connectivity():
    k, cert = vertex_connectivity(named_polytope("icosahedron").graph())
    assert k == 5
    assert recheck_certificate(cert, named_polytope("icosahedron").graph())
    k, cert = vertex_connectivity(_graph(nx.complete_graph(4)))
    assert k == 3 and cert.data["cutset"] is None


def test_connectivity_is_the_cut_size():
    # the corpus, the duals and prisms 3-19: the size of the one minimum cut
    # is networkx's node connectivity, and the cut separates the graph
    ms = [named_polytope(name) for name in CORPUS_NAMES]
    ms += [dual_map(m) for m in ms] + [prism(k) for k in range(3, 20)]
    k4 = nx.complete_graph(4)
    for g, h in [(m.graph(), nx_graph(m)) for m in ms] + [(_graph(k4), k4)]:
        k, cert = vertex_connectivity(g)
        assert k == nx.node_connectivity(h)
        cut = cert.data["cutset"]
        if cut is None:
            assert h.number_of_edges() == k * (k + 1) // 2
        else:
            assert len(cut) == k and not nx.is_connected(h.subgraph(set(h) - set(cut)))
        assert recheck_certificate(cert, g)


def _cut_graphs():
    """Pairs of a library graph and the networkx graph with its neighbour
    order: the corpus, prisms 9-12 and seeded stackings, with their duals;
    the 3-connected random plane maps of test_maps; connected gnp graphs."""
    ms = [named_polytope(name) for name in CORPUS_NAMES]
    ms += [prism(k) for k in range(9, 13)] + seeded_stackings(8, 16)
    ms += [dual_map(m) for m in ms]
    for seed in range(0, 700, 3):
        raw = _plane_map(seed)
        if raw is None:
            continue
        try:
            ms.append(validate_map(raw))
        except PolyscribeError:
            continue
    pairs = [(m.graph(), nx_graph(m)) for m in ms]
    rng = random.Random(0)
    while len(pairs) < len(ms) + 40:
        n = rng.randint(4, 12)
        h = nx.gnp_random_graph(n, rng.uniform(0.2, 0.7), seed=rng.randrange(10 ** 6))
        if nx.is_connected(h) and h.number_of_edges() < n * (n - 1) // 2:
            pairs.append((_graph(h), h))
    return pairs


def test_minimum_node_cut_matches_networkx():
    # the same cut as networkx's, not only one of the same size: which of
    # several least cuts is reported follows the neighbour order
    pairs = _cut_graphs()
    assert len(pairs) > 150
    for g, h in pairs:
        assert [tuple(h.adj[v]) for v in h] == list(g.adj)
        assert minimum_node_cut(g) == nx.minimum_node_cut(h), g.adj


# ------------------------------------------- certificates naming bad vertices

def _recheck(kind, g, **data):
    return recheck_certificate(Certificate(kind, data, ""), g)


@pytest.mark.parametrize("kind", [CertKind.INDEPENDENT_SET_OBSTRUCTION,
                                  CertKind.PAINT_OBSTRUCTION])
def test_recheck_rejects_independent_set_outside_the_graph(kind):
    # K4 is inscribable; two absent vertices made the set more than half
    k4 = named_polytope("tetrahedron").graph()
    assert not _recheck(kind, k4, independent_set=[0, 98, 99], n_vertices=4)
    # a real obstruction of the triakis tetrahedron, with a vertex repeated
    g = named_polytope("triakis-tetrahedron").graph()
    cert = independent_set_obstruction(g)
    assert _recheck(kind, g, **cert.data)
    repeated = cert.data["independent_set"] + cert.data["independent_set"][:1]
    assert not _recheck(kind, g, independent_set=repeated, n_vertices=8)


def test_recheck_rejects_toughness_cutset_outside_the_graph():
    star = _graph(nx.star_graph(3))
    assert _recheck(CertKind.TOUGHNESS_VIOLATION, star, cutset=[0], components=3)
    assert not _recheck(CertKind.TOUGHNESS_VIOLATION, star, cutset=[0, 99], components=3)
    assert not _recheck(CertKind.TOUGHNESS_VIOLATION, star, cutset=[0, 0], components=3)


def test_recheck_rejects_supertoughness_cutset_outside_the_graph():
    # the path 0-1-2 is 1-supertough; an absent vertex made the cutset size 2
    path = _graph(nx.path_graph(3))
    assert not _recheck(CertKind.SUPERTOUGH_VIOLATION, path, cutset=[1, 99], components=2)
    assert not _recheck(CertKind.SUPERTOUGH_VIOLATION, path, cutset=[1, 1], components=2)
    longer = _graph(nx.path_graph(5))
    assert _recheck(CertKind.SUPERTOUGH_VIOLATION, longer, cutset=[1, 3], components=3)


def test_recheck_rejects_bipartite_class_naming_a_vertex_twice():
    hexagon = _graph(nx.cycle_graph(6))
    assert _recheck(CertKind.BIPARTITE_CLASSES, hexagon, class_a=[0, 2, 4], class_b=[1, 3, 5])
    assert not _recheck(CertKind.BIPARTITE_CLASSES, hexagon,
                        class_a=[0, 2, 4, 0], class_b=[1, 3, 5])
    assert not _recheck(CertKind.BIPARTITE_CLASSES, hexagon,
                        class_a=[0, 2, 4, 99], class_b=[1, 3, 5])


def test_recheck_rejects_connectivity_cutset_outside_the_graph():
    # a 6-cycle is 2-connected; an absent vertex made its cut look like 3
    hexagon = _graph(nx.cycle_graph(6))
    assert _recheck(CertKind.CONNECTIVITY_WITNESS, hexagon, connectivity=2, cutset=[0, 3])
    assert not _recheck(CertKind.CONNECTIVITY_WITNESS, hexagon,
                        connectivity=3, cutset=[0, 3, 99])
    assert not _recheck(CertKind.CONNECTIVITY_WITNESS, hexagon,
                        connectivity=3, cutset=[0, 3, 3])


def test_recheck_rejects_a_complete_graph_witness_on_other_graphs():
    # connectivity n - 1 without a cutset claims that every two vertices
    # are adjacent; only the tetrahedron's graph, K4, is complete
    for name in CORPUS_NAMES:
        m = named_polytope(name)
        for g in (m.graph(), dual_map(m).graph()):
            forged = _recheck(CertKind.CONNECTIVITY_WITNESS, g,
                              connectivity=len(g.adj) - 1, cutset=None)
            assert forged is (name == "tetrahedron"), name
    k4 = named_polytope("tetrahedron").graph()
    k, cert = vertex_connectivity(k4)
    assert (k, cert.data["cutset"]) == (3, None) and recheck_certificate(cert, k4)


def test_hamiltonian_cube():
    g = named_polytope("cube").graph()
    cyc = hamiltonian_cycle(g)
    assert cyc is not None and len(cyc) == 8
    assert all(g.has_edge(cyc[i], cyc[(i + 1) % 8]) for i in range(8))


def test_triakis_tetrahedron_is_hamiltonian():
    # regression: exhaustive search must find a cycle here (e.g. alternating
    # original vertices and stacking apexes)
    g = named_polytope("triakis-tetrahedron").graph()
    assert hamiltonian_cycle(g) is not None


def test_rhombic_dodecahedron_not_hamiltonian():
    assert hamiltonian_cycle(named_polytope("rhombic-dodecahedron").graph()) is None


def _characterize(name):
    m = named_polytope(name)
    return simple_polytope_characterization(m, toughness_scan(m)[1])


def test_simple_characterization():
    assert _characterize("octahedron") is None
    v = _characterize("cube")
    assert v is not None and v.answer is Answer.YES
    # bipartite-with-4-connected-dual path is not taken here, so this exercises
    # the supertoughness branch
    v = _characterize("truncated-tetrahedron")
    assert v is not None and v.answer is Answer.YES
    assert "supertough" in v.note


# ------------------------------------------------- reference toughness

def _component_counter(g):
    """The number of components of g - S for each bit set S over
    sorted(g.nodes) in an int64 array, apart from the library's count: all
    sets at once, each component grown from its least vertex by closing
    under neighbour tables, one per byte of the set."""
    nodes = sorted(g.nodes)
    n = len(nodes)
    if n > 24:
        raise ValueError("three byte tables cover at most 24 vertices")
    idx = {v: i for i, v in enumerate(nodes)}
    masks = [0] * 24
    for u, v in g.edges:
        masks[idx[u]] |= 1 << idx[v]
        masks[idx[v]] |= 1 << idx[u]
    tables = [[0] * 256 for _ in range(3)]
    for t, table in enumerate(tables):
        for byte in range(1, 256):
            low = byte & -byte
            table[byte] = table[byte ^ low] | masks[8 * t + low.bit_length() - 1]
    t0, t1, t2 = np.array(tables, dtype=np.int64)
    full = (1 << n) - 1

    def count(removed):
        alive = full & ~removed
        counts = np.zeros(len(removed), dtype=np.int64)
        while alive.any():
            counts += alive != 0
            comp = alive & -alive
            while True:
                grown = (comp | t0[comp & 255] | t1[comp >> 8 & 255]
                         | t2[comp >> 16]) & alive
                if np.array_equal(grown, comp):
                    break
                comp = grown
            alive &= ~comp
        return counts
    return count


def _cutset_scan(g, budget, what, ks, at_least, kind, name):
    """The separate scan each toughness test ran before they shared one:
    every cutset S by size k in ks, then in lexicographic order, for one
    that leaves more than k components (at least k when at_least);
    (True, None) if there is none."""
    n = len(g.adj)
    if n > budget:
        raise BudgetExceeded(what, n, budget)
    nodes = sorted(g.nodes)
    count = _component_counter(g)
    bits = [1 << i for i in range(n)]
    for k in ks:
        subsets = np.fromiter(map(sum, combinations(bits, k)), dtype=np.int64,
                              count=comb(n, k))
        counts = count(subsets)
        hits = np.flatnonzero(counts >= (k if at_least else k + 1))
        if hits.size:
            cut = [nodes[i] for i in range(n) if int(subsets[hits[0]]) >> i & 1]
            comps = int(counts[hits[0]])
            return False, Certificate(
                kind, {"cutset": cut, "components": comps},
                f"removing {k} vertices leaves {comps} components: not {name}",
            )
    return True, None


def _ref_tests(g, budget):
    n = len(g.adj)
    out = []
    for args in (("toughness enumeration", range(1, (n - 1) // 2 + 1), False,
                  CertKind.TOUGHNESS_VIOLATION, "1-tough"),
                 ("supertoughness enumeration", range(2, n // 2 + 1), True,
                  CertKind.SUPERTOUGH_VIOLATION, "1-supertough")):
        try:
            out.append(_cutset_scan(g, budget, *args))
        except BudgetExceeded as exc:
            out.append(str(exc))
    return out


def _projected(fn, m):
    try:
        return fn(m)
    except BudgetExceeded as exc:
        return str(exc)


def _assert_scan_matches_reference(m):
    """The pruned scan and both projections against the unpruned reference:
    (tough, supertough), each cutset, component count and conclusion."""
    ref = _ref_tests(m.graph(), graphs.DEFAULT_TOUGHNESS_BUDGET)
    scan = [str(r) if isinstance(r, BudgetExceeded) else r
            for r in toughness_scan(m)]
    assert scan == ref, m.faces
    assert [_projected(is_one_tough, m), _projected(is_one_supertough, m)] == ref
    return ref


def _verdicts(refs):
    return {tuple(r if isinstance(r, str) else r[0] for r in ref) for ref in refs}


def test_toughness_scan_matches_reference_on_random_maps():
    # every 3-connected map the random plane maps of test_maps yield; their
    # graphs have at most 12 vertices
    refs = []
    for seed in range(700):
        raw = _plane_map(seed)
        if raw is None:
            continue
        try:
            m = validate_map(raw)
        except PolyscribeError:
            continue
        refs.append(_assert_scan_matches_reference(m))
    assert len(refs) > 150
    # no toughness violator: that needs a cutset of at least 5 vertices
    # leaving 6 components, so 11 vertices and more structure than these
    # maps have; the corpus has some
    assert _verdicts(refs) == {(True, True), (True, False)}


def _reference_maps():
    """The corpus, prisms 9 and 10 (prisms 3-8 are in the corpus) and all
    their duals: every graph has at most 20 vertices but the dual of the
    triakis octahedron, with 24, which both scans refuse."""
    ms = [named_polytope(name) for name in CORPUS_NAMES] + [prism(9), prism(10)]
    return ms + [dual_map(m) for m in ms]


def test_toughness_scan_matches_reference_on_corpus_and_prisms(monkeypatch):
    monkeypatch.setattr(graphs, "DEFAULT_TOUGHNESS_BUDGET", 20)
    assert [named_polytope(f"prism-{k}").faces for k in range(3, 9)] == [
        prism(k).faces for k in range(3, 9)]
    refs = [_assert_scan_matches_reference(m) for m in _reference_maps()]
    assert _verdicts(refs) == {(True, True), (True, False), (False, False),
                               ("toughness enumeration: needs 24, budget 20",
                                "supertoughness enumeration: needs 24, budget 20")}


def test_toughness_scan_finds_violators_at_the_planar_bound():
    # a kleetope loses toughness at its original vertices, which leave one
    # apex per face; over the triangular bipyramid (stacked-tetrahedron-1)
    # that is 5 vertices leaving 6 components, the least cutset with
    # c <= 2k - 4 that violates
    ms = [kleetope(named_polytope(f"stacked-tetrahedron-{d}")) for d in (1, 2, 3)]
    refs = [_assert_scan_matches_reference(m) for m in ms]
    ok, cert = refs[0][0]
    assert not ok and (len(cert.data["cutset"]), cert.data["components"]) == (5, 6)
    assert _verdicts(refs) == {(False, False)}


def test_toughness_scan_over_budget():
    m = stack_on_face(prism(11), 0)
    ref = _assert_scan_matches_reference(m)
    assert ref == ["toughness enumeration: needs 23, budget 22",
                   "supertoughness enumeration: needs 23, budget 22"]


# ------------------------------------- reference independent set and cycle

def ref_max_independent_set(g):
    """Reference for max_independent_set on a dict-of-sets adjacency with
    list candidates: branch and bound over vertices by ascending degree,
    then label, bounded by a greedy clique cover."""
    order = sorted(g.nodes, key=lambda v: (len(g.adj[v]), v))
    adj = {v: set(g.adj[v]) for v in g.nodes}
    best = []

    def clique_cover_bound(cands):
        cliques = []
        for v in cands:
            for c in cliques:
                if all(u in adj[v] for u in c):
                    c.append(v)
                    break
            else:
                cliques.append([v])
        return len(cliques)

    def extend(current, cands):
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


def ref_hamiltonian_cycle(g):
    """Reference for hamiltonian_cycle on relabelled index lists and a
    used[] array: a path from the least label, extended through the tail's
    neighbours in label order, cut once an unused vertex has fewer than 2
    free neighbours."""
    n = len(g.adj)
    if n < 3:
        return None
    nodes = sorted(g.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    adj = [sorted(idx[u] for u in g.adj[v]) for v in nodes]
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


def seeded_stackings(count, max_vertices):
    """count octahedra, each stacked on seeded faces 2 to max_vertices - 6
    times."""
    rng = random.Random(0)
    out = []
    for _ in range(count):
        m = named_polytope("octahedron")
        for _ in range(rng.randint(2, max_vertices - 6)):
            m = stack_on_face(m, rng.randrange(m.n_faces))
        out.append(m)
    return out


def _differential_graphs():
    """The corpus, prisms 3-15 and seeded stackings of at most 22 vertices,
    each with its dual, and the gnp graphs of the independent-set test."""
    ms = [named_polytope(name) for name in CORPUS_NAMES]
    ms += [prism(k) for k in range(3, 16)] + seeded_stackings(15, 22)
    gs = [m.graph() for m in ms + [dual_map(m) for m in ms]]
    return gs + [_graph(nx.gnp_random_graph(11, 0.35, seed=seed)) for seed in range(6)]


def test_searches_match_reference():
    # the same independent set, and the same first cycle or None
    # on every graph within each search's budget: all 102 and 95 of them
    sets = cycles = 0
    for g in _differential_graphs():
        n = len(g.adj)
        if n <= graphs.DEFAULT_INDEP_BUDGET:
            assert max_independent_set(g) == ref_max_independent_set(g)
            sets += 1
        if n <= graphs.DEFAULT_HAMILTON_BUDGET:
            assert hamiltonian_cycle(g) == ref_hamiltonian_cycle(g)
            cycles += 1
    assert (sets, cycles) == (102, 95)
