from fractions import Fraction as F

import pytest

from polyscribe.corpus import CORPUS_NAMES, named_polytope, prism, stack_on_face
from polyscribe.hrs import (MarginSystem, _min_nonfacial_circuit,
                            decide_circumscribable, decide_inscribable,
                            decide_quadric_inscribable, enumerate_simple_circuits,
                            parse_angle_assignment, solve_max_margin,
                            verify_angle_assignment, verify_dual_witness)
from polyscribe.maps import dual_map
from polyscribe.rationals import parse_rational
from polyscribe.simplex import verify_farkas
from polyscribe.verdicts import Answer, CertKind


def _solve(name):
    m = named_polytope(name)
    circuits = enumerate_simple_circuits(m, 10 ** 6)
    return m, circuits, solve_max_margin(MarginSystem.from_map(m), circuits)


def test_circuit_counts():
    m = named_polytope("tetrahedron")
    cc = enumerate_simple_circuits(m, 10 ** 6)
    assert len(cc) == 7 and sum(c.facial for c in cc) == 4
    m = named_polytope("cube")
    cc = enumerate_simple_circuits(m, 10 ** 6)
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
    system = MarginSystem.from_map(m)
    out = solve_max_margin(system, enumerate_simple_circuits(m, 10 ** 6))
    assert out.status == "infeasible" and out.t_star is None
    assert out.active_circuits == []
    assert verify_farkas(system.build_lp(out.active_circuits), out.farkas)


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
    full = solve_max_margin(MarginSystem.from_map(m), circuits)
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
    w = {e: F(1 + i % 5, 7) for i, e in enumerate(sorted(MarginSystem.from_map(m).edges))}
    _oracle_agrees(m, circuits, w)


def test_oracle_verify_rejects_short_nonfacial_circuit():
    # faces-and-box optimum of the triakis tetrahedron: facial sums are 2 and
    # every weight lies in (0,1), but a non-facial circuit sums to at most 2
    m = named_polytope("triakis-tetrahedron")
    circuits = enumerate_simple_circuits(m)
    w = solve_max_margin(MarginSystem.from_map(m), []).weights
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


def test_quadric():
    v = decide_quadric_inscribable(named_polytope("cube"))
    assert v.answer is Answer.YES
    assert any(c.kind is CertKind.HAMILTONIAN_CYCLE for c in v.certificates)
    assert decide_quadric_inscribable(named_polytope("triakis-tetrahedron")).answer \
        is Answer.NO
    v = decide_quadric_inscribable(named_polytope("rhombic-dodecahedron"), "cylinder")
    assert v.answer is Answer.NO
    with pytest.raises(ValueError):
        decide_quadric_inscribable(named_polytope("cube"), "paraboloid")
