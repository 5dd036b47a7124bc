"""Acceptance gate: one test per criterion, exact unless marked statistical."""

from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

from polyscribe import caps as caps_mod
from polyscribe import geometry, hrs
from polyscribe.corpus import CORPUS_NAMES, named_coordinates, named_polytope
from polyscribe.graphs import (independent_set_obstruction, is_one_tough,
                               simple_polytope_characterization,
                               steinitz_paint_test, toughness_scan,
                               vertex_connectivity)
from polyscribe.hull import build_face_lattice, enumerate_facets
from polyscribe.maps import dual_map
from polyscribe.points import PointConfiguration, SphereRef
from polyscribe.verdicts import Answer, CertKind


@lru_cache(maxsize=None)
def _insc(name):
    return hrs.decide_inscribable(named_polytope(name))


@lru_cache(maxsize=None)
def _circ(name):
    return hrs.decide_circumscribable(named_polytope(name))


def _reverdict(name):
    return named_polytope(name), _insc(name), _circ(name)


def _verify_yes(m, verdict):
    """An inscribable/circumscribable YES must carry a strict angle
    assignment: weights in (0,1) pi-units, facial sums exactly 2, every
    non-facial simple circuit strictly above 2."""
    cert = next(c for c in verdict.certificates
                if c.kind is CertKind.ANGLE_ASSIGNMENT)
    target = dual_map(m) if cert.data.get("on_dual") else m
    w = hrs.parse_angle_assignment(cert)
    if cert.data.get("on_dual"):
        w = {m.edge_faces[e]: x for e, x in w.items()}
    assert all(0 < x < 1 for x in w.values())
    circuits = hrs.enumerate_simple_circuits(target)
    for c in circuits:
        s = sum((w[e] for e in c.edges), F(0))
        assert s == 2 if c.facial else s > 2
    assert hrs.verify_angle_assignment(target, w, circuits)


def test_criterion_01_named_example_verdicts():
    m, insc, circ = _reverdict("triakis-tetrahedron")
    assert insc.answer is Answer.NO
    assert independent_set_obstruction(m.graph()) is not None
    cert = insc.certificates[0]
    assert cert.kind is CertKind.LP_DUAL_WITNESS
    assert hrs.verify_dual_witness(dual_map(m), cert)
    m, insc, circ = _reverdict("truncated-tetrahedron")
    assert circ.answer is Answer.NO
    assert hrs.verify_dual_witness(m, circ.certificates[0])
    for name in ("tetrahedron", "cube", "octahedron", "dodecahedron",
                 "icosahedron"):
        m, insc, circ = _reverdict(name)
        assert insc.answer is Answer.YES and circ.answer is Answer.YES, name
        _verify_yes(m, insc)
        _verify_yes(m, circ)


def test_criterion_02_duality_and_certificate_transfer():
    for name in CORPUS_NAMES:
        m = named_polytope(name)
        insc = _insc(name)
        circ_dual = hrs.decide_circumscribable(dual_map(m))
        assert insc.answer == circ_dual.answer, name
        # the relabeled certificate re-verifies on the dual map
        cert = insc.certificates[0]
        if cert.kind is CertKind.ANGLE_ASSIGNMENT:
            _verify_yes(m, insc)
        else:
            assert hrs.verify_dual_witness(dual_map(m), cert), name


def test_criterion_03_soundness_no_false_obstructions():
    assert len(CORPUS_NAMES) >= 20
    for name in CORPUS_NAMES:
        m = named_polytope(name)
        g = m.graph()
        if _insc(name).answer is Answer.YES:
            assert independent_set_obstruction(g) is None, name
            assert is_one_tough(g)[0], name
        # the facet-painting test obstructs tangency of all facets, i.e.
        # circumscribability of m (equivalently inscribability of its dual)
        if _circ(name).answer is Answer.YES:
            assert steinitz_paint_test(m) is None, name


def test_criterion_04_sufficient_conditions():
    hit = 0
    for name in CORPUS_NAMES:
        m = named_polytope(name)
        g = m.graph()
        degs = [d for _, d in g.degree]
        if vertex_connectivity(g)[0] >= 4 or all(4 <= d <= 6 for d in degs):
            hit += 1
            assert _insc(name).answer is Answer.YES, name
    assert hit >= 3     # octahedron, icosahedron, cuboctahedron at least


def test_criterion_05_simple_characterization_agrees():
    hit = 0
    for name in CORPUS_NAMES:
        m = named_polytope(name)
        v = simple_polytope_characterization(m, toughness_scan(m.graph())[1])
        if v is None:
            continue
        hit += 1
        assert v.answer == _insc(name).answer, name
    assert hit >= 8     # tetrahedron, cube, dodecahedron, prisms, ...


def _quadric(name):
    m = named_polytope(name)
    return hrs.decide_quadric_inscribable(m, hrs.decide_inscribable(m))


def test_criterion_06_quadric_criterion():
    v = _quadric("cube")
    assert v.answer is Answer.YES
    assert any(c.kind is CertKind.HAMILTONIAN_CYCLE for c in v.certificates)
    assert _quadric("triakis-tetrahedron").answer is Answer.NO
    assert _quadric("rhombic-dodecahedron").answer is Answer.NO


def _gale_even(n, subset):
    out = [i for i in range(n) if i not in subset]
    return all(sum(1 for x in subset if a < x < b) % 2 == 0
               for a, b in combinations(out, 2))


def test_criterion_07_inscribed_cyclic_construction():
    for n in range(6, 11):
        pc = geometry.generate_cyclic_trig(n, 4)
        assert pc.sphere.radius_squared == 2
        assert all(geometry.on_sphere_check(pc, pc.sphere))
        facets = {frozenset(f) for f in enumerate_facets(pc)}
        assert len(facets) == n * (n - 3) // 2
        oracle = {frozenset(s) for s in combinations(range(n), 4)
                  if _gale_even(n, s)}
        assert facets == oracle
        assert all(geometry.is_face(pc, pair)
                   for pair in combinations(range(n), 2))


def test_criterion_08_five_sets_contain_facets():
    pc = geometry.generate_cyclic_trig(8, 4)
    facets = {frozenset(f) for f in enumerate_facets(pc)}
    fives = geometry.k_sets(pc, 5)
    assert fives    # exhaustive enumeration over all C(8,5) subsets
    for s in fives:
        assert any(f <= s for f in facets), sorted(s)


def test_criterion_09_scribedness():
    tetra = PointConfiguration(3, (
        (F(1), F(1), F(1)), (F(1), F(-1), F(-1)),
        (F(-1), F(1), F(-1)), (F(-1), F(-1), F(1))),
        SphereRef((F(0),) * 3, F(3)))
    lat = build_face_lattice(tetra)
    assert geometry.check_ij_scribed(tetra, lat, tetra.sphere, 0, 2).holds
    pts, r2 = named_coordinates("cube")
    for rr, query in ((F(3), ("ij", 0, 2)), (F(1), ("k", 2)),
                      (F(2), ("k", 1))):
        pc = PointConfiguration(3, pts, SphereRef((F(0),) * 3, rr))
        lat = build_face_lattice(pc)
        if query[0] == "ij":
            rep = geometry.check_ij_scribed(pc, lat, pc.sphere, *query[1:])
        else:
            rep = geometry.check_k_scribed(pc, lat, pc.sphere, query[1])
        assert rep.holds, (rr, query)


def test_criterion_10_separator_scaling_and_ply_oracle():
    # statistical part: sqrt(n) scaling of median hits on 1-ply systems
    medians = {}
    for n in (125, 500):
        cs = caps_mod.near_uniform_system(n, seed=1)
        rep = caps_mod.random_hyperplane_separator(cs, trials=200, seed=7)
        medians[n] = rep.median_hits
    ratio = F(medians[500]) / F(medians[125])
    assert F(14, 10) <= ratio <= F(3), ratio
    # exact part: ply depth equals the dense-sampling oracle
    for seed in range(5):
        cs = caps_mod.random_visibility_system(30, seed=seed)
        depth, _ = caps_mod.ply_depth(cs)
        lower, _ = caps_mod.ply_depth_sampling(cs, samples=20000, seed=17)
        assert lower == depth, seed
