from fractions import Fraction as F
from heapq import heappop, heappush

import pytest

from polyscribe import hrs
from polyscribe.corpus import CORPUS_NAMES, named_polytope, prism, stack_on_face
from polyscribe.hrs import (Circuit, _min_nonfacial_circuit, decide_circumscribable,
                            decide_inscribable, decide_quadric_inscribable, edge_key,
                            enumerate_simple_circuits, margin_lp,
                            parse_angle_assignment, solve_max_margin,
                            verify_angle_assignment, verify_certificate,
                            verify_dual_witness)
from polyscribe.linalg import scaled
from polyscribe.maps import dual_map
from polyscribe.rationals import parse_rational
from polyscribe.simplex import verify_farkas
from polyscribe.verdicts import Answer, Certificate, CertKind


def _solve(name):
    m = named_polytope(name)
    circuits = enumerate_simple_circuits(m)
    return m, circuits, solve_max_margin(m, circuits)


def test_circuit_counts():
    m = named_polytope("tetrahedron")
    cc = enumerate_simple_circuits(m)
    assert len(cc) == 7 and sum(c.facial for c in cc) == 4
    m = named_polytope("cube")
    cc = enumerate_simple_circuits(m)
    assert len(cc) == 28 and sum(c.facial for c in cc) == 6


# optimal margins computed by the exact LP and frozen; the symmetric weights
# (2/3 per tetrahedron edge, 1/2 per cube edge, 2/5 per dodecahedron edge)
# confirm feasibility by hand
@pytest.mark.parametrize("name,t_star", [
    ("tetrahedron", F(1, 3)),
    ("cube", F(1, 2)),
    ("octahedron", F(1, 3)),
    ("dodecahedron", F(2, 5)),
    ("truncated-tetrahedron", F(0)),
    ("triakis-tetrahedron", F(1, 4)),
])
def test_margin_optima(name, t_star):
    _, _, out = _solve(name)
    assert out.status == "optimal" and out.t_star == t_star


def test_symmetric_weights_verify():
    m = named_polytope("tetrahedron")
    w = {e: F(2, 3) for e in ({tuple(sorted(e)) for e in m.edges})}
    assert verify_angle_assignment(m, w)
    m = named_polytope("cube")
    w = {tuple(sorted(e)): F(1, 2) for e in m.edges}
    assert verify_angle_assignment(m, w)


def test_contradictory_face_row_infeasible():
    # each cuboctahedron edge lies on one triangle and one square, so the
    # 8 triangle rows and the 6 square rows give two different totals
    # (16 and 12) for the same sum over all edges
    m = named_polytope("cuboctahedron")
    out = solve_max_margin(m, enumerate_simple_circuits(m))
    assert out.status == "infeasible" and out.t_star is None
    assert out.active_circuits == []
    assert verify_farkas(margin_lp(m, out.active_circuits), out.farkas)


def test_decide_circumscribable_yes_no():
    assert decide_circumscribable(named_polytope("tetrahedron")).answer is Answer.YES
    v = decide_circumscribable(named_polytope("truncated-tetrahedron"))
    assert v.answer is Answer.NO
    assert v.certificates[0].kind is CertKind.LP_DUAL_WITNESS
    assert verify_dual_witness(named_polytope("truncated-tetrahedron"),
                               v.certificates[0])


def test_yes_certificate_verifies():
    m = named_polytope("dodecahedron")
    v = decide_circumscribable(m)
    assert v.answer is Answer.YES
    w = parse_angle_assignment(v.certificates[0])
    assert verify_angle_assignment(m, w)
    # tampering breaks it
    e = next(iter(w))
    w[e] += F(1, 1000)
    assert not verify_angle_assignment(m, w)


def test_infeasible_system_cuboctahedron():
    # 8 triangles vs 6 squares force contradictory facial sums; the verdict is
    # NO with a Farkas witness rather than a finite t*
    m = named_polytope("cuboctahedron")
    v = decide_circumscribable(m)
    assert v.answer is Answer.NO
    cert = v.certificates[0]
    assert cert.data["t_star"] is None
    assert verify_dual_witness(m, cert)


def test_inscribable_examples():
    assert decide_inscribable(named_polytope("cube")).answer is Answer.YES
    assert decide_inscribable(named_polytope("triakis-tetrahedron")).answer is Answer.NO
    assert decide_inscribable(named_polytope("rhombic-dodecahedron")).answer is Answer.NO


def test_inscribable_certificate_keys_are_primal_edges():
    m = named_polytope("cube")
    v = decide_inscribable(m)
    w = parse_angle_assignment(v.certificates[0])
    assert set(w) == {tuple(sorted(e)) for e in m.edges}


def test_duality_consistency():
    for name in ("cube", "prism-5", "triakis-tetrahedron", "cuboctahedron"):
        m = named_polytope(name)
        assert decide_inscribable(m).answer \
            == decide_circumscribable(dual_map(m)).answer


def _stacked(name, *faces):
    m = named_polytope(name) if isinstance(name, str) else name
    for f in faces:
        m = stack_on_face(m, f)
    return m


# Maps small enough to enumerate every simple circuit: the corpus, prism(9)
# and stackings on several bases, each also dualized.
_BUILT = {
    "prism(9)": lambda: prism(9),
    "stack(cube)": lambda: _stacked("cube", 0),
    "stack(octahedron)": lambda: _stacked("octahedron", 0),
    "stack(octahedron,x2)": lambda: _stacked("octahedron", 0, 8),
    "stack(prism(5))": lambda: _stacked(prism(5), 0),
    "stack(prism(6),square)": lambda: _stacked(prism(6), 2),
    "stack(truncated-tetrahedron,hexagon)": lambda: _stacked(
        "truncated-tetrahedron", next(i for i, f in enumerate(
            named_polytope("truncated-tetrahedron").faces) if len(f) == 6)),
    "stack(triakis-tetrahedron)": lambda: _stacked("triakis-tetrahedron", 0),
}
REFERENCE_MAPS = {**{n: (lambda n=n: named_polytope(n)) for n in CORPUS_NAMES}, **_BUILT}
REFERENCE_MAPS.update({f"dual({n})": (lambda f=f: dual_map(f()))
                       for n, f in list(REFERENCE_MAPS.items())})


def _enumerated_min(circuits, w):
    return min(sum((w[e] for e in c.edges), F(0)) for c in circuits if not c.facial)


def _oracle_agrees(m, circuits, w):
    assert _min_nonfacial_circuit(m, w)[1] == _enumerated_min(circuits, w)
    assert verify_angle_assignment(m, w) == verify_angle_assignment(m, w, circuits)


@pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
def test_decision_matches_full_enumeration(name):
    """The oracle's cutting planes against solve_max_margin over every
    enumerated circuit: a YES has the full t* and weights that pass the
    enumerated check; a NO has full t* <= relaxed t* <= 0, or both systems
    are infeasible."""
    m = REFERENCE_MAPS[name]()
    circuits = enumerate_simple_circuits(m)
    full = solve_max_margin(m, circuits)
    v = decide_circumscribable(m)
    cert = v.certificates[0]
    if v.answer is Answer.YES:
        assert full.status == "optimal" and full.t_star > 0
        assert parse_rational(cert.data["margin"]) == full.t_star
        w = parse_angle_assignment(cert)
        assert verify_angle_assignment(m, w, circuits)
        _oracle_agrees(m, circuits, w)
        tampered = dict(w)
        tampered[min(w)] += F(1, 1000)
        _oracle_agrees(m, circuits, tampered)
    else:
        assert v.answer is Answer.NO and verify_dual_witness(m, cert)
        if cert.data["t_star"] is None:
            assert full.status == "infeasible"
        else:
            assert full.status == "optimal"
            assert full.t_star <= parse_rational(cert.data["t_star"]) <= 0
    # positive weights with no structure, so face sums do not decide
    w = {e: F(1 + i % 5, 7) for i, e in enumerate(sorted(m.edge_faces))}
    _oracle_agrees(m, circuits, w)


def test_oracle_verify_rejects_short_nonfacial_circuit():
    # faces-and-box optimum of the triakis tetrahedron: facial sums are 2 and
    # every weight lies in (0,1), but a non-facial circuit sums to at most 2
    m = named_polytope("triakis-tetrahedron")
    circuits = enumerate_simple_circuits(m)
    w = solve_max_margin(m, []).weights
    assert all(0 < x < 1 for x in w.values())
    assert _enumerated_min(circuits, w) <= 2
    assert not verify_angle_assignment(m, w)
    assert not verify_angle_assignment(m, w, circuits)


def test_oracle_needs_positive_weights():
    m = named_polytope("tetrahedron")
    w = {tuple(sorted(e)): F(2, 3) for e in m.edges}
    w[min(w)] = F(0)
    with pytest.raises(ValueError):
        _min_nonfacial_circuit(m, w)


def _quadric(name):
    m = named_polytope(name)
    return decide_quadric_inscribable(m, decide_inscribable(m))


def test_quadric():
    v = _quadric("cube")
    assert v.answer is Answer.YES
    assert any(c.kind is CertKind.HAMILTONIAN_CYCLE for c in v.certificates)
    assert _quadric("triakis-tetrahedron").answer is Answer.NO
    v = _quadric("rhombic-dodecahedron")
    assert v.answer is Answer.NO


@pytest.mark.parametrize("mutate", [
    lambda d: d + ["5"],
    lambda d: d + ["0", "0"],
    lambda d: d[:-1],
], ids=["extra-5", "extra-0-0", "last-dropped"])
def test_dual_witness_of_wrong_length_is_rejected(mutate):
    m = named_polytope("triakis-tetrahedron")
    cert = decide_inscribable(m).certificates[0]
    assert cert.kind is CertKind.LP_DUAL_WITNESS and cert.data["duals"]
    assert verify_certificate(m, cert)
    bad = Certificate(cert.kind, {**cert.data, "duals": mutate(cert.data["duals"])},
                      cert.conclusion)
    assert not verify_certificate(m, bad)


# ------------------------------------------- reference separation oracle

def _ref_shortest_path(adj, s, t, limit):
    dist, prev, done = {s: 0}, {}, set()
    heap = [(0, s)]
    while heap:
        d, x = heappop(heap)
        if x == t:
            path = [t]
            while path[-1] != s:
                path.append(prev[path[-1]])
            return d, path
        if x in done:
            continue
        done.add(x)
        for y, k in adj[x].items():
            nd = d + k
            if (limit is None or nd < limit) and (y not in dist or nd < dist[y]):
                dist[y] = nd
                prev[y] = x
                heappush(heap, (nd, y))
    return None


def ref_min_nonfacial_circuit(m, w):
    """The separation oracle on a dict-of-dicts graph, deleting the three
    cut edges before each search and restoring them after."""
    *nums, scale = scaled(w.values())
    iw = dict(zip(w, nums))
    adj = {}
    for (u, v), k in iw.items():
        adj.setdefault(u, {})[v] = k
        adj.setdefault(v, {})[u] = k
    best = best_w = None
    for e, (f1, f2) in sorted(m.edge_faces.items()):
        u, v = e
        for e1 in m.face_edges[f1]:
            for e2 in m.face_edges[f2]:
                if e in (e1, e2):
                    continue
                cut = {e, e1, e2}
                for a, b in cut:
                    del adj[a][b], adj[b][a]
                found = _ref_shortest_path(adj, u, v, None if best is None else best_w - iw[e])
                for a, b in cut:
                    adj[a][b] = adj[b][a] = iw[(a, b)]
                if found is not None:
                    length, path = found
                    es = frozenset(edge_key((path[i], path[i + 1]))
                                   for i in range(len(path) - 1)) | {e}
                    best, best_w = Circuit(es, False), length + iw[e]
    return None if best is None else (best, F(best_w, scale))


ORACLE_MAPS = {**{n: (lambda n=n: named_polytope(n)) for n in CORPUS_NAMES},
               **{f"prism({k})": (lambda k=k: prism(k)) for k in range(3, 20)}}
ORACLE_MAPS.update({f"dual({n})": (lambda f=f: dual_map(f()))
                    for n, f in list(ORACLE_MAPS.items())})


@pytest.mark.parametrize("name", sorted(ORACLE_MAPS))
def test_oracle_matches_reference(name, monkeypatch):
    """The same (circuit, weight) as the dict-based oracle on the weights
    of every cutting-plane round, on weights where many circuits tie, and
    on unstructured weights."""
    m = ORACLE_MAPS[name]()
    rounds = []

    def recorded(mm, w):
        rounds.append(dict(w))
        return _min_nonfacial_circuit(mm, w)
    monkeypatch.setattr(hrs, "_min_nonfacial_circuit", recorded)
    decide_circumscribable(m)
    monkeypatch.undo()
    edges = sorted(m.edge_faces)
    weights = rounds + [
        {e: F(1, 2) for e in edges},
        {e: F(1) for e in edges},
        {e: F(1 + i % 2, 3) for i, e in enumerate(edges)},
        {e: F(1 + i % 5, 7) for i, e in enumerate(edges)},
    ]
    for w in weights:
        assert _min_nonfacial_circuit(m, w) == ref_min_nonfacial_circuit(m, w)
