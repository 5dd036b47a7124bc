import math
import random
from itertools import combinations
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyscribe import caps
from polyscribe.caps import (CapSystem, SphericalCap, _caps_overlap, _sign,
                             _trial_normal, cap_intersection_graph,
                             hyperplane_hits, near_uniform_system,
                             parse_caps_json, ply_depth, ply_depth_sampling,
                             random_hyperplane_separator,
                             random_visibility_system, serialize_caps_json,
                             visibility_cap, visibility_system)
from polyscribe.errors import (DegenerateConfiguration, MonteCarloOnly,
                               ParseError, PointInsideBall)
from polyscribe.linalg import dot, norm_sq, scaled
from polyscribe.rationals import format_rational, format_vector


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


# ------------------------------------------------- reference sign predicates
# The case analyses the one-kernel predicates replaced, kept as the oracle of
# the differential tests below.

def ref_plus_sqrt_nonneg(r, s, rho):
    """r + s*sqrt(rho) >= 0 for rationals with rho >= 0."""
    if s == 0 or rho == 0:
        return r >= 0
    if r >= 0 and s > 0:
        return True
    if r < 0 and s < 0:
        return False
    if s < 0:
        return r * r >= s * s * rho
    return s * s * rho >= r * r


def ref_contains(cap, x):
    lhs = dot(cap.axis, x)
    if cap.offset is not None:
        return ref_plus_sqrt_nonneg(lhs, -cap.offset, norm_sq(x))
    return ref_plus_sqrt_nonneg(lhs, -cap.cos_radius, norm_sq(cap.axis) * norm_sq(x))


def ref_cos(cap):
    """(sign, square) of the cap's cosine, computed from the input form."""
    if cap.cos_radius is not None:
        c = cap.cos_radius
        return (c > 0) - (c < 0), c * c
    b = cap.offset
    return (b > 0) - (b < 0), b * b / norm_sq(cap.axis)


def ref_caps_overlap(ci, cj):
    ni, nj = norm_sq(ci.axis), norm_sq(cj.axis)
    (si, qi), (sj, qj) = ref_cos(ci), ref_cos(cj)
    if si <= 0 and sj <= 0:
        return True
    if not (si >= 0 and sj >= 0):
        neg_q, pos_q = (qi, qj) if si < 0 else (qj, qi)
        if neg_q >= pos_q:
            return True
    p = dot(ci.axis, cj.axis)
    alpha = (1 - qi) * (1 - qj) * ni * nj
    beta = qi * qj * ni * nj
    sign = si * sj
    if sign <= 0:
        if p >= 0:
            return True
        gap = p * p - alpha - sign * sign * beta
        if gap <= 0:
            return True
        return 4 * sign * sign * alpha * beta >= gap * gap
    if p >= 0:
        return ref_plus_sqrt_nonneg(p * p + alpha - beta, 2 * p, alpha)
    return ref_plus_sqrt_nonneg(alpha - beta - p * p, 2 * p, beta)


# Cosine/sine pairs of angular radii with both values rational.
RATIONAL_ANGLES = [(F(1), F(0)), (F(0), F(1))] + [
    (sg * F(a, c), F(b, c)) for a, b, c in ((3, 4, 5), (4, 3, 5), (5, 12, 13),
                                            (12, 5, 13), (8, 15, 17), (7, 24, 25))
    for sg in (1, -1)]


def _rotation(rng):
    """Rational rotation matrix of a random integer quaternion."""
    while True:
        w, x, y, z = (rng.randint(-3, 3) for _ in range(4))
        n = w * w + x * x + y * y + z * z
        if n:
            break
    rows = ((w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)),
            (2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)),
            (2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z))
    return [[F(v, n) for v in row] for row in rows]


def _apply(rot, v):
    return tuple(dot(row, v) for row in rot)


def _cap(axis, cos, length, rng):
    """The cap with unit axis direction axis/length and cosine cos, in a
    random one of the two input forms."""
    if rng.random() < 0.5:
        return SphericalCap(axis=axis, cos_radius=cos)
    return SphericalCap(axis=axis, offset=cos * length)


def _random_cap(rng):
    while True:
        axis = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
        if any(axis):
            break
    if rng.random() < 0.5:
        cos = F(rng.randint(-9, 10), 10)
        if cos == -1:
            cos = F(0)
        return SphericalCap(axis=axis, cos_radius=cos)
    n2 = norm_sq(axis)
    while True:
        b = F(rng.randint(-40, 40), rng.randint(1, 8))
        if (b >= 0 and b * b <= n2) or (b < 0 and b * b < n2):
            return SphericalCap(axis=axis, offset=b)


def _tangent_pair(rng):
    """Two caps whose angular distance is exactly the sum of their radii,
    unless that sum exceeds pi."""
    (c1, s1), (c2, s2) = rng.choice(RATIONAL_ANGLES), rng.choice(RATIONAL_ANGLES)
    rot = _rotation(rng)
    k1, k2 = rng.randint(1, 4), rng.randint(1, 4)
    a1 = _apply(rot, (F(k1), F(0), F(0)))
    a2 = _apply(rot, (k2 * (c1 * c2 - s1 * s2), k2 * (s1 * c2 + c1 * s2), F(0)))
    return _cap(a1, c1, k1, rng), _cap(a2, c2, k2, rng)


def test_caps_overlap_matches_reference():
    rng = random.Random(20)
    pairs = [(_random_cap(rng), _random_cap(rng)) for _ in range(3000)]
    pairs += [_tangent_pair(rng) for _ in range(1500)]
    signs = set()
    outcomes = set()
    for ci, cj in pairs:
        signs.add((ci.cos_sign, cj.cos_sign))
        got = _caps_overlap(ci, cj)
        outcomes.add(got)
        assert got == ref_caps_overlap(ci, cj) == ref_caps_overlap(cj, ci), (ci, cj)
        # the float-filtered graph of the pair as a 2-cap system
        edges = cap_intersection_graph(CapSystem(3, (ci, cj))).number_of_edges()
        assert edges == got, (ci, cj)
    assert outcomes == {True, False}
    assert {(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 1), (1, 0)} <= signs


def test_contains_matches_reference():
    rng = random.Random(21)
    seen = set()
    for _ in range(600):
        cap = _random_cap(rng)
        points = [tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3))
                  for _ in range(6)]
        for x in points:
            if any(x):
                got = cap.contains(x)
                seen.add((cap.offset is None, cap.cos_sign, got))
                assert got == ref_contains(cap, x), (cap, x)
    # points exactly on the boundary circle of rotated caps
    for _ in range(600):
        c, s = rng.choice(RATIONAL_ANGLES)
        rot = _rotation(rng)
        k = rng.randint(1, 4)
        cap = _cap(_apply(rot, (F(k), F(0), F(0))), c, k, rng)
        scale = F(rng.randint(1, 5), rng.randint(1, 5))
        for x in [_apply(rot, (scale * c, scale * s, F(0))),
                  _apply(rot, (scale * c, F(0), -scale * s))]:
            got = cap.contains(x)
            assert got and got == ref_contains(cap, x), (cap, x)
    assert {(plain, sign) for plain, sign, _ in seen} == {
        (p, sg) for p in (True, False) for sg in (-1, 0, 1)}
    assert {got for *_, got in seen} == {True, False}


def _decimal_sign(r, a, x, b, y):
    """Sign of r + a sqrt(x) + b sqrt(y) at 60 digits, or None when the
    value is within 1e-30 of zero."""
    with localcontext() as ctx:
        ctx.prec = 60
        def dec(q):
            return Decimal(q.numerator) / Decimal(q.denominator)
        value = dec(r) + dec(a) * dec(x).sqrt() + dec(b) * dec(y).sqrt()
        if abs(value) <= Decimal("1e-30"):
            return None
        return 1 if value > 0 else -1


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
radicands = st.fractions(min_value=0, max_value=50, max_denominator=30)


@settings(deadline=None, max_examples=400)
@given(rationals, rationals, rationals, radicands, radicands,
       st.sampled_from(["any", "squares", "zero"]))
def test_sign_matches_oracle(r, a, b, u, v, mode):
    # "zero" picks r so that the value is exactly 0 with square radicands
    if mode == "zero":
        r = -(a * u + b * v)
    squares = mode != "any"
    x, y = (u * u, v * v) if squares else (u, v)
    got = _sign(r, a, x, b, y)
    if squares:
        value = r + a * u + b * v
        assert got == (value > 0) - (value < 0)
    else:
        expect = _decimal_sign(r, a, x, b, y)
        if expect is not None:
            assert got == expect
    assert _sign(r, a, x) == _sign(r, a, x, b, 0) == _sign(r, a, x, 0, y)
    assert _sign(-r, -a, x, -b, y) == -got


def test_sign_exact_zeros_and_negative_radicands():
    assert _sign(0, 3, F(2), -1, F(18)) == 0          # 3 sqrt 2 - sqrt 18
    assert _sign(F(1, 2), -1, F(1, 4)) == 0
    assert _sign(-5, 1, F(4), 1, F(9)) == 0
    assert _sign(3, -1, F(2), -1, F(8)) == -1         # 3 - 3 sqrt 2
    assert _sign(F(1, 10**9), 1, F(2), -1, F(2)) == 1
    with pytest.raises(ValueError):
        _sign(0, 1, F(-1))
    with pytest.raises(ValueError):
        _sign(0, 1, F(1), 1, F(-1, 3))


# ------------------------------------------- float filter against exact code
# The per-cap loops the filtered whole-system predicates replaced, kept as
# the oracle of the differential tests below.

def ref_graph_edges(cs):
    return {(i, j) for i, j in combinations(range(cs.n_caps), 2)
            if ref_caps_overlap(cs.caps[i], cs.caps[j])}


def ref_hyperplane_hits(cs, u):
    un = norm_sq(u)
    return [i for i, cap in enumerate(cs.caps)
            if dot(u, cap.axis) ** 2 <= (1 - cap.cos_sq) * un * cap.norm_sq]


def _ref_samples(samples, seed, d):
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | 0xCA95))
    return [tuple(F(float(c)) for c in rng.standard_normal(d))
            for _ in range(samples)]


def ref_ply_depth_sampling(cs, samples, seed):
    best = (0, None)
    for x in _ref_samples(samples, seed, cs.dimension):
        if norm_sq(x) == 0:
            continue
        depth = sum(1 for cap in cs.caps if ref_contains(cap, x))
        if depth > best[0]:
            best = (depth, {"kind": "sample", "mode": "monte-carlo lower bound",
                            "direction": [str(c) for c in x]})
    return best


def _all_exact(monkeypatch):
    """Switch the filter off: every value goes to the exact fallback."""
    def decide(values, bound, exact):
        signs = np.zeros(values.shape, dtype=int)
        for idx in np.ndindex(values.shape):
            signs[idx] = exact(*idx)
        return signs
    monkeypatch.setattr(caps, "_decide", decide)


def _edges(cs):
    return set(cap_intersection_graph(cs).edges)


@pytest.mark.parametrize("seed", range(3))
def test_graph_matches_reference(seed):
    systems = [near_uniform_system(125, seed=seed),
               random_visibility_system(40, seed=seed),
               random_visibility_system(25, seed=seed, d=4)]
    for cs in systems:
        assert _edges(cs) == ref_graph_edges(cs)
    assert ref_graph_edges(systems[1])          # some systems do have edges


def _boundary_cap(rng):
    """A rotated cap with rational cosine and sine, its rotation, its axis
    length and its (cos, sin)."""
    c, s = rng.choice(RATIONAL_ANGLES)
    rot = _rotation(rng)
    k = rng.randint(1, 4)
    return _cap(_apply(rot, (F(k), F(0), F(0))), c, k, rng), rot, (c, s)


def test_hyperplane_hits_on_boundary_points():
    rng = random.Random(23)
    built = [_boundary_cap(rng) for _ in range(40)]
    cs = CapSystem(3, tuple(cap for cap, _, _ in built))
    for k, (cap, rot, (c, s)) in enumerate(built):
        # normals orthogonal to the boundary point rot(c, s, 0): the first
        # great circle touches the cap there, the second crosses its boundary
        tangent = _apply(rot, (-s, c, F(0)))
        crossing = _apply(rot, (-s, c, F(rng.randint(1, 5), rng.randint(1, 5))))
        for u in (tangent, crossing):
            hits = hyperplane_hits(cs, u)
            assert k in hits and hits == ref_hyperplane_hits(cs, u)
    for t in range(20):
        u = _trial_normal(3, t, 3)
        assert hyperplane_hits(cs, u) == ref_hyperplane_hits(cs, u)


def test_sampling_with_samples_on_boundaries():
    # caps whose closed boundary passes exactly through sampled points:
    # hemispheres orthogonal to the sample (both forms, both sides) and
    # point caps at the sample
    samples, seed = 60, 4
    cap_list = []
    for x in _ref_samples(samples, seed, 3)[::3]:
        w = (x[1] - x[2], x[2] - x[0], x[0] - x[1])      # x cross (1, 1, 1)
        cap_list += [SphericalCap(axis=w, cos_radius=F(0)),
                     SphericalCap(axis=tuple(-c for c in w), offset=F(0)),
                     SphericalCap(axis=tuple(2 * c for c in x), cos_radius=F(1))]
    cs = CapSystem(3, tuple(cap_list))
    got = ply_depth_sampling(cs, samples=samples, seed=seed)
    assert got == ref_ply_depth_sampling(cs, samples, seed)
    assert got[0] >= 3


def test_extreme_caps_match_reference(monkeypatch):
    # 1 - q below 1e-20, and axes whose components overflow or underflow
    # float64: no float copy, so these caps are decided exactly
    big, tiny = F(10) ** 400, F(1, 10 ** 400)
    eps = F(1, 10 ** 21)
    cap_list = [
        SphericalCap(axis=(F(2), F(0), F(0)), cos_radius=F(4, 5)),
        SphericalCap(axis=(F(2), F(1), F(2)), cos_radius=F(7, 10)),
        SphericalCap(axis=(F(0), F(0), F(1)), cos_radius=1 - eps),
        SphericalCap(axis=(F(0), F(3), F(4)), cos_radius=1 - eps),
        SphericalCap(axis=(F(0), F(0), F(-5)), offset=5 * (1 - eps)),
        SphericalCap(axis=(3 * big, 4 * big, F(0)), cos_radius=F(1, 2)),
        SphericalCap(axis=(F(0), 5 * big, F(0)), offset=-4 * big),
        SphericalCap(axis=(tiny, F(0), F(0)), cos_radius=F(1, 3)),
        SphericalCap(axis=(F(0), 3 * tiny, 4 * tiny), cos_radius=F(-1, 5)),
    ]
    cs = CapSystem(3, tuple(cap_list))
    assert np.isnan(cs.floats.axes[5:]).all()
    assert not np.isnan(cs.floats.axes[:5]).any()
    assert _edges(cs) == ref_graph_edges(cs)
    normals = [_trial_normal(1, t, 3) for t in range(30)]
    normals += [(big, F(1), F(0)), (tiny, F(0), F(1)), (F(0), F(0), F(1))]
    for u in normals:
        assert hyperplane_hits(cs, u) == ref_hyperplane_hits(cs, u)
    assert ply_depth_sampling(cs, 1000, 5) == ref_ply_depth_sampling(cs, 1000, 5)
    got = ply_depth(cs)
    _all_exact(monkeypatch)
    assert got == ply_depth(cs)


@pytest.mark.parametrize("seed", range(3))
def test_filtered_predicates_match_exact_path(seed, monkeypatch):
    cs = random_visibility_system(20, seed=seed)
    normals = [_trial_normal(seed, t, 3) for t in range(10)]
    got = (ply_depth(cs), ply_depth_sampling(cs, 500, seed), _edges(cs),
           [hyperplane_hits(cs, u) for u in normals])
    _all_exact(monkeypatch)
    assert got == (ply_depth(cs), ply_depth_sampling(cs, 500, seed), _edges(cs),
                   [hyperplane_hits(cs, u) for u in normals])


def test_fallback_runs_only_near_zero(monkeypatch):
    calls = []
    sign = caps._sign

    def counted(*args):
        calls.append(args)
        return sign(*args)
    monkeypatch.setattr(caps, "_sign", counted)
    rng = random.Random(24)
    tangent = 0
    while tangent < 20:
        cs = CapSystem(3, _tangent_pair(rng))
        if cs.floats.cos.sum() <= 0.5:      # radii sum to about pi or more
            continue
        tangent += 1
        before = len(calls)
        assert cap_intersection_graph(cs).number_of_edges() == 1
        assert len(calls) > before
    calls.clear()
    cs = near_uniform_system(125, seed=1)
    assert cap_intersection_graph(cs).number_of_edges() == 0
    assert len(calls) < cs.n_caps * (cs.n_caps - 1) // 2


def test_sampling_rejects_no_samples():
    cs = _octa_system()
    for samples in (0, -5):
        with pytest.raises(ParseError):
            ply_depth_sampling(cs, samples=samples, seed=1)


@pytest.mark.parametrize("scale", [F(1, 10 ** 400), F(10) ** 400])
def test_ply_witness_of_extreme_axes(scale):
    # the squared axis norm underflows or overflows float64; the witness
    # floats come from the axis scaled by a power of two and never raise
    cs = CapSystem(3, (SphericalCap(axis=(scale, F(0), F(0)), cos_radius=F(1, 3)),))
    depth, witness = ply_depth(cs)
    assert depth == 1 and witness["kind"] == "axis"
    assert witness["approx"] == [1.0, 0.0, 0.0]
    # two such caps: the circle-intersection direction has components near
    # 10^-800 or 10^800
    pair = CapSystem(3, (cs.caps[0], SphericalCap(axis=(F(0), scale, F(0)),
                                                  cos_radius=F(1, 3))))
    depth, witness = ply_depth(pair)
    assert depth == 2 and witness["kind"] == "circle-intersection"
    x, y, z = witness["approx"]
    assert x == y == 1 / 3 and math.isclose(z, math.sqrt(F(7, 9)), rel_tol=1e-15)


def test_ply_witness_floats_unscaled_in_range():
    # in float range the power-of-two scaling changes no rounding
    cap = SphericalCap(axis=(F(3), F(4), F(0)), cos_radius=F(1, 3))
    _, witness = ply_depth(CapSystem(3, (cap,)))
    assert witness["approx"] == [3.0 / math.sqrt(25.0), 4.0 / math.sqrt(25.0), 0.0]


# ------------------------------------------------- exact ply against Fractions
# The per-pair Fraction loop the integer candidates replaced, kept as the
# oracle of the differential tests below, with its own cap identity (axis
# ray, cosine sign and squared cosine).

def _canonical_ray(v):
    """Primitive integer direction of a rational vector, preserving sign."""
    *nums, _ = scaled(v)
    g = math.gcd(*nums)
    return tuple(x // g for x in nums)


def _identity_key(cap):
    return _canonical_ray(cap.axis), cap.cos_sign, cap.cos_sq


def ref_ply_depth(cs):
    if cs.dimension != 3:
        raise MonteCarloOnly(f"exact ply depth needs dimension 3, got {cs.dimension}")
    if cs.n_caps == 0:
        return 0, None
    planes = caps._boundary_planes(cs)
    groups = {}
    for i, cap in enumerate(cs.caps):
        groups.setdefault(_identity_key(cap), []).append(i)
    reps = [members[0] for members in groups.values()]
    weight = np.array([len(members) for members in groups.values()])
    f = cs.floats
    axes, cos = f.axes[reps], f.cos[reps]

    def depth_at(values, exact):
        signs = caps._decide(values, f.bound, lambda m: exact(reps[m]))
        return int(weight[signs >= 0].sum()), int((signs == 0).sum())

    best = None
    at_axes = axes @ axes.T - cos[:, None]
    for m, i in enumerate(reps):
        a = cs.caps[i].axis
        na = norm_sq(a)
        total, nb = depth_at(at_axes[:, m], lambda k: _sign(
            dot(planes[k][0], a), -planes[k][1], na))
        if nb > 0:
            raise DegenerateConfiguration("a boundary circle passes through a cap axis")
        if best is None or total > best[0]:
            k = caps._pow2_scale(a)
            root = math.sqrt(float(na * k * k))
            best = (total, {"kind": "axis", "cap": i, "axis": format_vector(a),
                            "approx": [float(c * k) / root for c in a]})
    for ii in range(len(reps)):
        for jj in range(ii + 1, len(reps)):
            i, j = reps[ii], reps[jj]
            wi, bi = planes[i]
            wj, bj = planes[j]
            ni, nj, p = cs.caps[i].norm_sq, cs.caps[j].norm_sq, dot(wi, wj)
            det = ni * nj - p * p
            if det == 0:
                if bj == p / ni * bi:
                    raise DegenerateConfiguration("distinct caps share a boundary circle")
                continue
            alpha, beta = (bi * nj - bj * p) / det, (bj * ni - bi * p) / det
            x0 = tuple(alpha * a + beta * b for a, b in zip(wi, wj))
            n = caps._cross(wi, wj)
            rho = (1 - norm_sq(x0)) / norm_sq(n)
            if rho < 0:
                continue
            if rho == 0:
                raise DegenerateConfiguration("tangent boundary circles")
            x0f, nf = caps._floats(x0), caps._floats(n)
            rootf = np.sqrt(caps._floats((rho,))[0])
            for sgn in (1, -1):
                total, nb = depth_at(axes @ (x0f + sgn * rootf * nf) - cos,
                                     lambda k: 0 if k in (i, j) else _sign(
                                         dot(planes[k][0], x0) - planes[k][1],
                                         sgn * dot(planes[k][0], n), rho))
                if nb > 2:
                    raise DegenerateConfiguration("three boundary circles meet at a point")
                if best is None or total > best[0]:
                    k = caps._pow2_scale(n)
                    rr = math.sqrt(float(rho / (k * k)))
                    best = (total, {
                        "kind": "circle-intersection", "caps": [i, j],
                        "base": format_vector(x0), "direction": format_vector(n),
                        "scale_sq": format_rational(rho), "sign": sgn,
                        "approx": [float(r) + sgn * rr * float(d * k)
                                   for r, d in zip(x0, n)]})
    return best


def _ply_outcome(fn, cs):
    try:
        return fn(cs)
    except DegenerateConfiguration as exc:
        return type(exc), str(exc)


def _visibility(*points):
    return tuple(visibility_cap(tuple(F(c) for c in p)) for p in points)


# Boundary circles through the north pole: the caps of (1, 0, 1), (0, 1, 1)
# and (-1, 0, 1) meet there.
CONCURRENT = _visibility((1, 0, 1), (0, 1, 1), (-1, 0, 1))
# Two caps of cosine 3/5 whose axes are twice their angular radius apart:
# their boundary circles touch at (4/5, 0, -3/5).
TANGENT = (SphericalCap(axis=(F(0), F(0), F(-1)), cos_radius=F(3, 5)),
           SphericalCap(axis=(F(24, 25), F(0), F(7, 25)), cos_radius=F(3, 5)))
# A cap and its complement: one boundary circle.
SHARED = (SphericalCap(axis=(F(2), F(1), F(-2)), cos_radius=F(1, 2)),
          SphericalCap(axis=(F(-2), F(-1), F(2)), offset=F(-3, 2)))
# The equator passes through the axis of the second cap.
THROUGH_AXIS = (SphericalCap(axis=(F(0), F(0), F(1)), cos_radius=F(0)),
                SphericalCap(axis=(F(1), F(0), F(0)), cos_radius=F(1, 2)))


@pytest.fixture(params=[None, 7], ids=["one-block", "blocks-of-7"])
def ply_block(request, monkeypatch):
    """Run with the default block, and with blocks of 7 candidates so that
    the first deepest and the first degenerate candidate cross blocks."""
    if request.param is not None:
        monkeypatch.setattr(caps, "_SAMPLE_BLOCK", request.param)


def _assert_ply_matches_reference(cs):
    got = _ply_outcome(ply_depth, cs)
    assert got == _ply_outcome(ref_ply_depth, cs)
    return got


@pytest.mark.parametrize("n", [5, 20, 30, 40])
def test_ply_depth_matches_reference(n, ply_block, monkeypatch):
    systems = [random_visibility_system(n, seed=seed) for seed in range(4)]
    expect = [ref_ply_depth(cs) for cs in systems]
    assert [ply_depth(cs) for cs in systems] == expect
    assert "circle-intersection" in {witness["kind"] for _, witness in expect}
    _all_exact(monkeypatch)     # every entry through the integer fallback
    assert [ply_depth(cs) for cs in systems] == expect


def test_ply_depth_matches_reference_on_special_systems(ply_block):
    octa = _octa_system()
    assert _assert_ply_matches_reference(octa)[0] == 3
    dup = random_visibility_system(12, seed=3)
    dup = CapSystem(3, dup.caps + dup.caps[4:7] + dup.caps[5:6])
    assert _assert_ply_matches_reference(dup)[0] >= 3
    big, tiny = F(10) ** 400, F(1, 10 ** 400)
    extreme = [
        CapSystem(3, (SphericalCap(axis=(3 * big, 4 * big, F(0)), cos_radius=F(1, 2)),
                      SphericalCap(axis=(F(0), 5 * big, F(0)), offset=-4 * big),
                      SphericalCap(axis=(tiny, F(0), F(0)), cos_radius=F(1, 3)),
                      SphericalCap(axis=(F(0), 3 * tiny, 4 * tiny), cos_radius=F(-1, 5)),
                      SphericalCap(axis=(F(2), F(1), F(2)), cos_radius=F(7, 10)))),
        CapSystem(3, (SphericalCap(axis=(big, F(0), F(0)), cos_radius=F(1, 3)),
                      SphericalCap(axis=(F(0), big, F(0)), cos_radius=F(1, 3)))),
        CapSystem(3, (SphericalCap(axis=(tiny, F(0), F(0)), cos_radius=F(1, 3)),
                      SphericalCap(axis=(F(0), tiny, F(0)), cos_radius=F(1, 3))))]
    for cs in extreme:
        assert _assert_ply_matches_reference(cs)[0] >= 2


def test_ply_depth_degeneracies_match_reference(cube_points, ply_block):
    cases = [(visibility_system(cube_points), "three boundary circles meet at a point"),
             (CapSystem(3, TANGENT), "tangent boundary circles"),
             (CapSystem(3, SHARED), "distinct caps share a boundary circle"),
             (CapSystem(3, THROUGH_AXIS), "a boundary circle passes through a cap axis"),
             # two degeneracies: the first candidate in order decides
             (CapSystem(3, CONCURRENT + TANGENT), "three boundary circles meet at a point"),
             (CapSystem(3, TANGENT + CONCURRENT), "tangent boundary circles"),
             (CapSystem(3, TANGENT + THROUGH_AXIS),
              "a boundary circle passes through a cap axis"),
             (CapSystem(3, CONCURRENT + SHARED), "three boundary circles meet at a point"),
             (CapSystem(3, SHARED + CONCURRENT), "distinct caps share a boundary circle")]
    for cs, message in cases:
        assert _assert_ply_matches_reference(cs) == (DegenerateConfiguration, message)
    # each degeneracy alone is no error once its circles are apart
    for part in (CONCURRENT[:2], TANGENT[:1], SHARED[:1], THROUGH_AXIS[1:]):
        assert _assert_ply_matches_reference(CapSystem(3, part))[0] >= 1


def test_ply_depth_fraction_work_is_linear(monkeypatch):
    # the candidates are decided in ints; Fraction dot products are left
    # to the witness, not made once per pair of caps
    cs = random_visibility_system(30, seed=0)
    calls = []
    for name in ("dot", "norm_sq"):
        def counted(*args, fn=getattr(caps, name)):
            calls.append(fn)
            return fn(*args)
        monkeypatch.setattr(caps, name, counted)
    depth, witness = ply_depth(cs)
    assert witness["kind"] == "circle-intersection"
    assert 0 < len(calls) <= cs.n_caps
