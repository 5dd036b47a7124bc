import random
from itertools import combinations

import networkx as nx
import pytest

from polyscribe import graphs
from polyscribe.corpus import CORPUS_NAMES, named_polytope, prism
from polyscribe.errors import BudgetExceeded
from polyscribe.graphs import (_components_mask, _neighbor_masks,
                               hamiltonian_cycle, independent_set_obstruction,
                               is_one_supertough, is_one_tough,
                               max_independent_set,
                               simple_polytope_characterization,
                               steinitz_paint_test, toughness_scan,
                               vertex_connectivity)
from polyscribe.maps import dual_map
from polyscribe.verdicts import (Answer, CertKind, Certificate,
                                 recheck_certificate)


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
    g = nx.gnp_random_graph(11, 0.35, seed=seed)
    s = max_independent_set(g)
    assert not any(g.has_edge(u, v) for u, v in combinations(s, 2))
    assert len(s) == _brute_alpha(g)


def test_independent_set_budget():
    with pytest.raises(BudgetExceeded):
        max_independent_set(nx.path_graph(50), budget=40)


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
    g = named_polytope("triakis-octahedron").graph()
    ok, cert = is_one_tough(g)
    assert not ok
    assert cert.data["components"] > len(cert.data["cutset"])
    assert recheck_certificate(cert, g)


def test_cube_tough_but_not_supertough():
    g = named_polytope("cube").graph()
    assert is_one_tough(g)[0]
    ok, cert = is_one_supertough(g)
    assert not ok and cert.data["components"] >= len(cert.data["cutset"]) == 4
    assert recheck_certificate(cert, g)


def test_tetrahedron_supertough():
    assert is_one_supertough(named_polytope("tetrahedron").graph())[0]


def test_connectivity():
    k, cert = vertex_connectivity(named_polytope("icosahedron").graph())
    assert k == 5
    assert recheck_certificate(cert, named_polytope("icosahedron").graph())
    k, cert = vertex_connectivity(nx.complete_graph(4))
    assert k == 3 and cert.data["cutset"] is None


def test_connectivity_is_the_cut_size():
    # the corpus, the duals and prisms 3-19: the size of the one minimum cut
    # is networkx's node connectivity, and the cut separates the graph
    ms = [named_polytope(name) for name in CORPUS_NAMES]
    ms += [dual_map(m) for m in ms] + [prism(k) for k in range(3, 20)]
    for g in [m.graph() for m in ms] + [nx.complete_graph(4)]:
        k, cert = vertex_connectivity(g)
        assert k == nx.node_connectivity(g)
        cut = cert.data["cutset"]
        if cut is None:
            assert g.number_of_edges() == k * (k + 1) // 2
        else:
            assert len(cut) == k and not nx.is_connected(g.subgraph(set(g) - set(cut)))
        assert recheck_certificate(cert, g)


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
    return simple_polytope_characterization(m, toughness_scan(m.graph())[1])


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

def _cutset_scan(g, budget, what, ks, at_least, kind, name):
    """The separate scan each toughness test ran before they shared one:
    cutsets S by size k in ks for one that leaves more than k components
    (at least k when at_least); (True, None) if there is none."""
    n = g.number_of_nodes()
    if n > budget:
        raise BudgetExceeded(what, n, budget)
    nodes, masks = _neighbor_masks(g)
    full = (1 << n) - 1
    for k in ks:
        for subset in combinations(range(n), k):
            rm = 0
            for i in subset:
                rm |= 1 << i
            comps = _components_mask(masks, full & ~rm)
            if comps >= (k if at_least else k + 1):
                cut = [nodes[i] for i in subset]
                return False, Certificate(
                    kind, {"cutset": cut, "components": comps},
                    f"removing {k} vertices leaves {comps} components: not {name}",
                )
    return True, None


def _ref_tests(g, budget):
    n = g.number_of_nodes()
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


def _projected(fn, g):
    try:
        return fn(g)
    except BudgetExceeded as exc:
        return str(exc)


def _assert_scan_matches_reference(g):
    ref = _ref_tests(g, graphs.DEFAULT_TOUGHNESS_BUDGET)
    scan = [str(r) if isinstance(r, BudgetExceeded) else r
            for r in toughness_scan(g)]
    assert scan == ref
    assert [_projected(is_one_tough, g), _projected(is_one_supertough, g)] == ref
    return ref


def test_toughness_scan_matches_reference_on_random_graphs():
    verdicts = set()
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        g = nx.gnp_random_graph(n, rng.uniform(0.1, 0.7), seed=seed)
        if seed % 3 == 0 and n > 2:
            # a pendant path through a cut vertex
            g.add_edges_from([(0, n), (n, n + 1)])
        ref = _assert_scan_matches_reference(g)
        verdicts.add((ref[0][0], ref[1][0]))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_toughness_scan_matches_reference_on_corpus(monkeypatch):
    monkeypatch.setattr(graphs, "DEFAULT_TOUGHNESS_BUDGET", 16)
    for name in CORPUS_NAMES:
        g = named_polytope(name).graph()
        _assert_scan_matches_reference(g)


def test_toughness_scan_over_budget():
    g = nx.cycle_graph(23)
    ref = _assert_scan_matches_reference(g)
    assert ref == ["toughness enumeration: needs 23, budget 22",
                   "supertoughness enumeration: needs 23, budget 22"]
