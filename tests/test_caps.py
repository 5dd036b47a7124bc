import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyscribe.caps import (CapSystem, SphericalCap, cap_intersection_graph,
                             centerpoint_normalize, hyperplane_hits,
                             near_uniform_system, parse_caps_json, ply_depth,
                             ply_depth_sampling, random_hyperplane_separator,
                             random_visibility_system, serialize_caps_json,
                             visibility_cap, visibility_system)
from polyscribe.errors import (DegenerateConfiguration, MonteCarloOnly,
                               ParseError, PointInsideBall)
from polyscribe.linalg import dot, norm_sq


def _octa_system(scale=2):
    pts = []
    for i in range(3):
        for s in (scale, -scale):
            p = [F(0)] * 3
            p[i] = F(s)
            pts.append(tuple(p))
    return CapSystem(3, tuple(visibility_cap(p) for p in pts))


def test_visibility_cap_examples():
    c = visibility_cap((2, 0, 0))
    assert c.axis == (F(2), F(0), F(0)) and c.offset == 1
    assert c.cos_sq == F(1, 4)      # cosine 1/2, angular radius pi/3
    assert visibility_cap((0, 0, 10)).cos_sq == F(1, 100)
    with pytest.raises(PointInsideBall):
        visibility_cap((1, 0, 0))
    with pytest.raises(PointInsideBall):
        visibility_cap((F(1, 2), 0, 0))


def test_membership_matches_direct_visibility():
    v = (F(3, 2), F(1, 2), F(0))
    cap = visibility_cap(v)
    # rational points on the sphere via stereographic-like parametrization
    for a, b in [(0, 0), (1, 2), (-2, 1), (3, -1), (5, 5), (-7, 2)]:
        den = 1 + a * a + b * b
        x = (F(2 * a, den), F(2 * b, den), F(den - 2, den))
        assert norm_sq(x) == 1
        assert cap.contains(x) == (dot(v, x) >= 1)


def test_intersection_graph_cases():
    third = SphericalCap(axis=(F(1), F(0), F(0)), cos_radius=F(1, 2))
    anti = SphericalCap(axis=(F(-1), F(0), F(0)), cos_radius=F(1, 2))
    g = cap_intersection_graph(CapSystem(3, (third, anti)))
    assert g.number_of_edges() == 0     # pi/3 + pi/3 < pi
    g = cap_intersection_graph(CapSystem(3, (third, third)))
    assert g.number_of_edges() == 1     # identical caps meet
    hemi = SphericalCap(axis=(F(1), F(0), F(0)), cos_radius=F(0))
    anti_hemi = SphericalCap(axis=(F(-1), F(0), F(0)), cos_radius=F(0))
    assert cap_intersection_graph(CapSystem(3, (hemi, anti_hemi))).number_of_edges() == 1


def test_inscribed_polytope_graph_inside_cap_graph(cube_points, cube_map):
    # all cube edges avoid the insphere, so adjacent vertices' caps intersect
    cs = visibility_system(cube_points)
    g = cap_intersection_graph(cs)
    for u, v in cube_map.edges:
        assert g.has_edge(u, v)


def test_ply_trivial():
    up = SphericalCap(axis=(F(0), F(0), F(1)), cos_radius=F(9, 10))
    down = SphericalCap(axis=(F(0), F(0), F(-1)), cos_radius=F(9, 10))
    assert ply_depth(CapSystem(3, (up, down)))[0] == 1
    assert ply_depth(CapSystem(3, (up, up, down)))[0] == 2
    assert ply_depth(CapSystem(3, ()))[0] == 0


def test_ply_octahedron_vs_oracle():
    cs = _octa_system()
    depth, witness = ply_depth(cs)
    assert depth == 3 and witness["kind"] == "circle-intersection"
    lower, _ = ply_depth_sampling(cs, samples=5000, seed=3)
    assert lower <= depth
    assert lower == depth   # dense enough for this symmetric system


@pytest.mark.parametrize("seed", range(3))
def test_ply_random_systems_vs_oracle(seed):
    cs = random_visibility_system(25, seed=seed)
    depth, _ = ply_depth(cs)
    lower, _ = ply_depth_sampling(cs, samples=12000, seed=11)
    assert lower <= depth
    assert depth - lower <= 1   # sampling occasionally misses a thin cell


def test_ply_wrong_dimension():
    cap = SphericalCap(axis=(F(1), F(0), F(0), F(0)), cos_radius=F(1, 2))
    with pytest.raises(MonteCarloOnly):
        ply_depth(CapSystem(4, (cap,)))
    assert ply_depth_sampling(CapSystem(4, (cap,)), samples=200, seed=0)[0] >= 1


def test_ply_degenerate_concurrency(cube_points):
    # four cube-vertex visibility circles meet at each face center
    with pytest.raises(DegenerateConfiguration):
        ply_depth(visibility_system(cube_points))


def test_separator_single_cap_oracle():
    cap = SphericalCap(axis=(F(0), F(0), F(1)), cos_radius=F(1, 2))
    cs = CapSystem(3, (cap,))
    rep = random_hyperplane_separator(cs, trials=1, seed=5)
    from polyscribe.caps import _trial_normal
    u = _trial_normal(5, 0, 3)
    t = dot(u, cap.axis)
    expect = t * t <= (1 - cap.cos_sq) * norm_sq(u) * cap.norm_sq
    assert rep.hit_counts == [1 if expect else 0]


def test_separator_hits_are_reproducible():
    cs = _octa_system()
    a = random_hyperplane_separator(cs, trials=30, seed=9)
    b = random_hyperplane_separator(cs, trials=30, seed=9)
    assert a.hit_counts == b.hit_counts and a.best_hits == b.best_hits
    c = random_hyperplane_separator(cs, trials=30, seed=10)
    assert a.hit_counts != c.hit_counts


def test_separator_hits_match_reevaluation():
    cs = random_visibility_system(15, seed=2)
    rep = random_hyperplane_separator(cs, trials=5, seed=4)
    from polyscribe.caps import _trial_normal
    assert rep.best_hits == hyperplane_hits(cs, _trial_normal(4, rep.best_trial, 3))


def test_clustered_tiny_caps_rarely_hit():
    # small caps near the north pole: most random great circles miss them all
    caps = []
    for k in range(8):
        ax = (F(k, 50), F(1, 50), F(1))
        caps.append(SphericalCap(axis=ax, cos_radius=F(999, 1000)))
    rep = random_hyperplane_separator(CapSystem(3, tuple(caps)), trials=60, seed=1)
    assert rep.min_hits == 0
    assert sum(1 for c in rep.hit_counts if c == 0) > 30


def test_near_uniform_disjoint():
    cs = near_uniform_system(60, seed=5)
    assert cap_intersection_graph(cs).number_of_edges() == 0


def test_centerpoint_normalize():
    cs = _octa_system()
    assert centerpoint_normalize(cs).normalized == "heuristic: unchanged"
    # clustered system gets rebalanced
    caps = tuple(SphericalCap(axis=(F(k, 10), F(1, 10), F(1)), cos_radius=F(9, 10))
                 for k in range(5))
    skew = CapSystem(3, caps)
    out = centerpoint_normalize(skew, iterations=25)
    assert out.normalized == "heuristic"

    def mean_norm(sys_):
        import numpy as np
        axes = [np.array([float(c) for c in cap.axis]) for cap in sys_.caps]
        axes = [a / np.linalg.norm(a) for a in axes]
        return float(np.linalg.norm(np.mean(axes, axis=0)))

    assert mean_norm(out) < mean_norm(skew)
    assert centerpoint_normalize(skew, iterations=0).caps == skew.caps


def test_json_roundtrip():
    cs = _octa_system()
    again = parse_caps_json(serialize_caps_json(cs))
    assert again.caps == cs.caps and again.dimension == 3
    plain = CapSystem(3, (SphericalCap(axis=(F(1), F(2), F(3)), cos_radius=F(1, 3)),))
    assert parse_caps_json(serialize_caps_json(plain)).caps == plain.caps
    with pytest.raises(ParseError):
        parse_caps_json('{"dimension": 3}')


@settings(deadline=None, max_examples=40)
@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
       st.fractions(min_value=F(-9, 10), max_value=F(9, 10)))
def test_membership_matches_float_oracle(ax, cos_r):
    if ax == (0, 0, 0):
        return
    cap = SphericalCap(axis=tuple(F(a) for a in ax), cos_radius=cos_r)
    for x in [(F(1), F(0), F(0)), (F(-2, 3), F(1, 3), F(2, 3)), (F(1), F(1), F(1))]:
        exact = cap.contains(x)
        lhs = float(dot(cap.axis, x))
        rhs = float(cos_r) * math.sqrt(float(cap.norm_sq) * float(norm_sq(x)))
        if abs(lhs - rhs) > 1e-9:
            assert exact == (lhs >= rhs)
