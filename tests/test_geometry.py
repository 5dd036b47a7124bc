import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyscribe import geometry, simplex
from polyscribe.errors import ParseError
from polyscribe.geometry import (RELATIVE_BOUNDARY, RELATIVE_INTERIOR, _kernel,
                                 check_ij_scribed, check_k_scribed, face_avoids,
                                 generate_cyclic_moment, generate_cyclic_trig,
                                 min_norm_sq_over_face, on_sphere_check,
                                 verify_face_lattice)
from polyscribe.errors import DegenerateSpan
from polyscribe.hull import build_face_lattice, enumerate_facets
from polyscribe.linalg import affine_rank, dot, norm_sq, solve_linear, vsub
from polyscribe.points import PointConfiguration, SphereRef
from polyscribe.simplex import EQ, GE, LE, LinearProgram, solve_lp


def gale_even(n, subset):
    """Facet test for cyclic polytopes in even dimension: between any two
    non-members there are evenly many members (end runs unconstrained)."""
    out = [i for i in range(n) if i not in subset]
    return all(sum(1 for x in subset if a < x < b) % 2 == 0
               for a, b in combinations(out, 2))


def face_cuts(pc, face, s):
    """Reference: does the face have a point of the closed ball in its
    relative interior?  Its minimum norm is below the radius, or equal with
    a relative-interior minimizer."""
    value, location = min_norm_sq_over_face(pc, face, s)
    return value < s.radius_squared or (value == s.radius_squared
                                        and location == RELATIVE_INTERIOR)


def face_tangent(pc, face, s):
    """Reference: the face avoids the ball and touches the sphere."""
    value, _ = min_norm_sq_over_face(pc, face, s)
    return face_avoids(pc, face, s) and value == s.radius_squared


def test_on_sphere(tetra_points):
    assert all(on_sphere_check(tetra_points, tetra_points.sphere))
    off = SphereRef((F(0),) * 3, F(2))
    assert not any(on_sphere_check(tetra_points, off))


def test_tetra_facet_min_norm(tetra_points):
    # centroid of a facet at distance r/3: squared 3/9 = 1/3
    value, loc = min_norm_sq_over_face(tetra_points, [0, 1, 2], tetra_points.sphere)
    assert value == F(1, 3) and loc == RELATIVE_INTERIOR


def test_edge_min_norm_on_boundary(cube_points):
    # a vertex can be the closest point of an edge to an off-center sphere
    s = SphereRef((F(-2), F(-2), F(-2)), F(1))
    value, loc = min_norm_sq_over_face(cube_points, [0, 1], s)
    assert loc == RELATIVE_BOUNDARY and value == 3


def test_cuts_avoids_tangent(tetra_points):
    s = tetra_points.sphere
    assert face_cuts(tetra_points, [0, 1, 2], s)
    assert not face_avoids(tetra_points, [0, 1, 2], s)
    mid = SphereRef((F(0),) * 3, F(1))
    assert face_tangent(tetra_points, [0, 1], mid)   # edges touch the midsphere
    assert face_avoids(tetra_points, [0], mid)
    assert not face_cuts(tetra_points, [0], mid)


def kkt_face_avoids(pc, face, s):
    """Reference: min ||a||^2 over <a, x - c> = 1 on the face and <= 1 on the
    other vertices, by solving the (d + m) x (d + m) KKT system 2a = B^T mu,
    B a = 1 for every active set.  None when no active set is feasible."""
    others = [i for i in range(pc.n_points) if i not in face]
    eq = [vsub(pc.points[i], s.center) for i in face]
    ineq = [vsub(pc.points[i], s.center) for i in others]
    d = pc.dimension
    best = None
    for r in range(len(ineq) + 1):
        for active in combinations(range(len(ineq)), r):
            rows = eq + [ineq[i] for i in active]
            m = len(rows)
            sys_rows = [[F(2) if jj == j else F(0) for jj in range(d)]
                        + [-rows[i][j] for i in range(m)] for j in range(d)]
            sys_rows += [list(row) + [F(0)] * m for row in rows]
            sol = solve_linear(sys_rows, [F(0)] * d + [F(1)] * m)
            if sol is None:
                continue
            a = sol[:d]
            if any(dot(a, u) > 1 for u in ineq):
                continue
            if best is None or norm_sq(a) < best:
                best = norm_sq(a)
    return None if best is None else best * s.radius_squared <= 1


def seeded_params(n, seed):
    rng = random.Random(seed)
    params = set()
    while len(params) < n:
        params.add(F(rng.randint(-40, 40), rng.randint(1, 10)))
    return sorted(params)


def random_3d_configuration(seed):
    """Seven integer points with an off-centre sphere, or None if flat."""
    rng = random.Random(seed)
    pts = tuple(tuple(F(rng.randint(-4, 4)) for _ in range(3)) for _ in range(7))
    center = tuple(F(rng.randint(-6, 6), 2) for _ in range(3))
    return PointConfiguration(3, pts, SphereRef(center, F(rng.randint(1, 12), 2)))


def differential_cases():
    configs = [generate_cyclic_trig(n, 4) for n in (5, 6, 7)]
    configs += [generate_cyclic_trig(5, 4, seeded_params(5, seed)) for seed in (1, 2, 3)]
    configs += [random_3d_configuration(seed) for seed in range(6)]
    for pc in configs:
        try:
            lattice = build_face_lattice(pc)
        except DegenerateSpan:
            continue
        for rank in range(pc.dimension):
            for face in lattice.faces_of_rank(rank):
                yield pc, sorted(face)


def test_face_avoids_matches_kkt_reference():
    outcomes = {True: 0, False: 0, None: 0}
    for pc, face in differential_cases():
        want = kkt_face_avoids(pc, face, pc.sphere)
        outcomes[want] += 1
        # no supporting hyperplane with the polytope on the center's side:
        # the face does not avoid the ball
        assert face_avoids(pc, face, pc.sphere) is bool(want), (pc.points, face)
    assert all(outcomes.values()), outcomes


def ref_min_norm_candidate(verts, center, support):
    """Reference: the stationarity system of ||sum l_i v_i - center||^2 over
    the affine hull of the supported vertices, built from Fraction dot
    products of the points; (lambda, point, value) or None."""
    vs = [verts[i] for i in support]
    k = len(vs)
    rows = [[dot(vi, vj) for vj in vs] + [F(-1)] for vi in vs]
    rhs = [dot(vi, center) for vi in vs]
    rows.append([F(1)] * k + [F(0)])
    rhs.append(F(1))
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    lam = sol[:k]
    x = tuple(sum((l * v[j] for l, v in zip(lam, vs)), F(0))
              for j in range(len(center)))
    return lam, x, norm_sq(vsub(x, center))


def ref_in_relative_interior(verts, x) -> bool:
    """Reference: is x a strictly positive convex combination of the given
    vertices?  Decided by an exact margin LP, max t over lambda >= t."""
    k = len(verts)
    lp = LinearProgram(k + 1, [F(0)] * k + [F(1)])
    for j in range(len(x)):
        lp.add_row([v[j] for v in verts] + [F(0)], EQ, x[j])
    lp.add_row([F(1)] * k + [F(0)], EQ, F(1))
    for i in range(k):
        row = [F(0)] * (k + 1)
        row[i], row[k] = F(1), F(-1)
        lp.add_row(row, GE, F(0))
    res = solve_lp(lp)
    return res.status == "optimal" and res.objective > 0


def ref_min_norm_sq_over_face(pc, face, s):
    """Reference: every support of the face, with x* re-checked by the
    relative-interior LP; returns (value, location, x*)."""
    verts = [pc.points[i] for i in sorted(face)]
    best = None
    for r in range(1, len(verts) + 1):
        for support in combinations(range(len(verts)), r):
            cand = ref_min_norm_candidate(verts, s.center, support)
            if cand is None or any(l < 0 for l in cand[0]):
                continue
            if best is None or cand[2] < best[1]:
                best = (cand[1], cand[2])
    x_star, value = best
    location = RELATIVE_INTERIOR if ref_in_relative_interior(verts, x_star) \
        else RELATIVE_BOUNDARY
    return value, location, x_star


def ref_face_avoids(pc, face, s):
    """Reference: the active-set enumeration of face_avoids on
    ref_min_norm_candidate, with Fraction normals and points."""
    face = sorted(face)
    others = [i for i in range(pc.n_points) if i not in face]
    ineq = [vsub(pc.points[i], s.center) for i in others]
    free = pc.dimension - affine_rank([pc.points[i] for i in face])
    best = None
    for r in range(free):
        for active in combinations(others, r):
            cand = ref_min_norm_candidate(pc.points, s.center, face + list(active))
            if cand is None or cand[2] == 0:
                continue
            _, x, value = cand
            normal = vsub(x, s.center)
            if any(dot(normal, u) > value for u in ineq):
                continue
            if best is None or value > best:
                best = value
    return best is not None and best >= s.radius_squared


def random_rational_configuration(seed, center_outside):
    """Eight rational points in R^3 with an off-centre sphere; with
    center_outside the center lies beyond every point in x."""
    rng = random.Random(seed)
    pts = tuple(tuple(F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(3))
                for _ in range(8))
    if center_outside:
        center = (F(rng.randint(13, 30), 2),) + tuple(F(rng.randint(-5, 5), 3)
                                                      for _ in range(2))
    else:
        center = tuple(F(rng.randint(-9, 9), 5) for _ in range(3))
    return PointConfiguration(3, pts, SphereRef(center, F(rng.randint(1, 40), 3)))


def kernel_cases(cube_points):
    configs = [generate_cyclic_trig(n, 4) for n in (5, 6, 7, 8)]
    configs += [generate_cyclic_trig(n, 4, seeded_params(n, n)) for n in (5, 6, 7, 8)]
    configs += [cube_points]
    configs += [PointConfiguration(3, cube_points.points, SphereRef(c, r2))
                for c, r2 in (((F(1, 3), F(-1, 2), F(0)), F(2)),
                              ((F(5), F(1, 2), F(1, 7)), F(3, 2)))]
    configs += [random_rational_configuration(seed, seed % 2 == 1) for seed in range(6)]
    for pc in configs:
        lattice = build_face_lattice(pc)
        yield pc, [sorted(face) for rank in range(pc.dimension)
                   for face in lattice.faces_of_rank(rank)]


def _kernel_point(pc, support, lam, q):
    """The point sum lambda_i p_i of a kernel solve's numerators over q."""
    return tuple(sum((F(l, q) * pc.points[i][j] for i, l in zip(support, lam)), F(0))
                 for j in range(pc.dimension))


def test_face_kernel_matches_reference(cube_points):
    dependent = outside = 0
    for pc, faces in kernel_cases(cube_points):
        s = pc.sphere
        kernel = _kernel(pc, s)
        outside += not ref_in_relative_interior(pc.points, s.center)
        for face in faces:
            value, location, x_star = ref_min_norm_sq_over_face(pc, face, s)
            assert min_norm_sq_over_face(pc, face, s) == (value, location), (pc.points, face)
            assert face_avoids(pc, face, s) == ref_face_avoids(pc, face, s), (pc.points, face)
            # the minimizer is unique: the kernel's least nonnegative
            # candidate is the reference's point, and its integer value is
            # the reference's scaled by q D^2
            candidates = [(sup, *kernel.solve(sup)) for r in range(1, len(face) + 1)
                          for sup in combinations(face, r)]
            support, lam, mu, q = min((c for c in candidates if all(l >= 0 for l in c[1])),
                                      key=lambda c: F(c[2], c[3]))
            assert q > 0 and mu == value * q * kernel.den_sq
            assert _kernel_point(pc, support, lam, q) == x_star
            dependent += len(face) > affine_rank([pc.points[i] for i in face]) + 1
    assert dependent and outside


def test_gram_kernel_on_dependent_supports(cube_points):
    # every support of up to five points, so that most are affinely
    # dependent and their Gram systems singular: the nearest point and its
    # squared distance still match the Fraction reference
    configs = [cube_points, random_rational_configuration(0, False),
               random_rational_configuration(1, True)]
    for pc in configs:
        kernel = _kernel(pc, pc.sphere)
        for r in range(1, 6):
            for support in combinations(range(pc.n_points), r):
                _, x, value = ref_min_norm_candidate(pc.points, pc.sphere.center, support)
                lam, mu, q = kernel.solve(support)
                assert q > 0 and mu == value * q * kernel.den_sq
                assert _kernel_point(pc, support, lam, q) == x


def test_each_support_solved_once(monkeypatch):
    pc = generate_cyclic_trig(7, 4)
    lattice = build_face_lattice(pc)
    # the kernel's only elimination is its support solve
    calls, requests = [], []
    reduce, kernel_solve = geometry.integer_rref, geometry._GramKernel.solve

    def counted(rows):
        calls.append(rows)
        return reduce(rows)

    def requested(self, support):
        requests.append(support)
        return kernel_solve(self, support)
    monkeypatch.setattr(geometry, "integer_rref", counted)
    monkeypatch.setattr(geometry._GramKernel, "solve", requested)
    report = check_ij_scribed(pc, lattice, pc.sphere, 1, 2)
    assert not report.holds and report.per_face
    assert len(calls) == len({frozenset(r) for r in requests}) < len(requests)
    # a second query on the same realization reuses every solve
    solved = len(calls)
    check_ij_scribed(pc, lattice, pc.sphere, 1, 2)
    assert len(calls) == solved


def test_kernel_kept_for_the_last_sphere_object(monkeypatch):
    # the kernel is matched to its sphere by identity, so a query on the
    # realization's own sphere hashes no Fraction; an equal copy of the
    # sphere, or another sphere, builds a new kernel
    pc = generate_cyclic_trig(6, 4)
    lattice = build_face_lattice(pc)
    kernel = _kernel(pc, pc.sphere)
    check_ij_scribed(pc, lattice, pc.sphere, 1, 2)
    hashes = []
    fraction_hash = F.__hash__

    def counted(self):
        hashes.append(self)
        return fraction_hash(self)
    monkeypatch.setattr(F, "__hash__", counted)
    report = check_ij_scribed(pc, lattice, pc.sphere, 1, 2)
    assert report.per_face and hashes == []
    assert _kernel(pc, pc.sphere) is kernel
    copy = SphereRef(pc.sphere.center, pc.sphere.radius_squared)
    assert copy == pc.sphere and _kernel(pc, copy) is not kernel
    larger = SphereRef(pc.sphere.center, 2 * pc.sphere.radius_squared)
    other = _kernel(pc, larger)
    assert other.r2 != kernel.r2 and _kernel(pc, larger) is other
    # one slot: the realization's own sphere now builds its kernel again
    again = _kernel(pc, pc.sphere)
    assert again is not kernel and again.r2 == kernel.r2


def test_scribe_with_equal_ranks_requires_both_keys(cube_points):
    # (i, i): each i-face is listed once and must both avoid and cut
    lattice = build_face_lattice(cube_points)
    for r2 in (F(1), F(2), F(3)):
        s = SphereRef((F(0),) * 3, r2)
        for i in range(3):
            report = check_ij_scribed(cube_points, lattice, s, i, i)
            faces = [tuple(st["face"]) for st in report.per_face]
            assert len(faces) == len(set(faces)) == len(lattice.faces_of_rank(i))
            assert report.holds == all(st["avoids"] and st["cuts"]
                                       for st in report.per_face)


def test_scribe_queries_solve_no_lp(monkeypatch, cube_points):
    # the minimizer of each face is located from the support solves alone;
    # the cube's square faces have affinely dependent vertex sets, and the
    # off-centre sphere puts some minimizers on face boundaries
    def no_lp(lp):
        raise AssertionError("a face test solved an LP")
    # geometry binds no LP solver; any other route goes through simplex
    assert not hasattr(geometry, "solve_lp")
    monkeypatch.setattr(simplex, "solve_lp", no_lp)
    off_centre = PointConfiguration(3, cube_points.points,
                                    SphereRef((F(5), F(1, 2), F(1, 7)), F(3, 2)))
    for pc in (cube_points, off_centre, generate_cyclic_trig(7, 4)):
        lattice = build_face_lattice(pc)
        d = pc.dimension
        reports = [check_k_scribed(pc, lattice, pc.sphere, k) for k in range(d)]
        reports += [check_ij_scribed(pc, lattice, pc.sphere, i, j)
                    for i in range(d) for j in range(i, d)]
        if pc is off_centre:
            assert {st["minimizer"] for r in reports for st in r.per_face} \
                == {RELATIVE_INTERIOR, RELATIVE_BOUNDARY}


def test_face_avoids_with_center_outside():
    # a unit square beside the ball: the lines of the top and far edges have
    # the square and the ball on one side; the line of the near edge has the
    # square on the side away from the center, and that of the bottom edge
    # runs through the center, so neither of those two edges avoids
    pts = ((F(2), F(0)), (F(3), F(0)), (F(2), F(1)), (F(3), F(1)))
    pc = PointConfiguration(2, pts)
    s = SphereRef((F(0), F(0)), F(1))
    assert face_avoids(pc, [2, 3], s) and face_avoids(pc, [1, 3], s)
    assert not face_avoids(pc, [0, 2], s)
    assert not face_avoids(pc, [0, 1], s)
    assert not face_tangent(pc, [0, 2], s)
    assert not face_cuts(pc, [0, 2], s)


def test_k_scribed_cube(cube_points):
    lat = build_face_lattice(cube_points)
    for r2, k in ((F(3), 0), (F(2), 1), (F(1), 2)):
        s = SphereRef((F(0),) * 3, r2)
        assert check_k_scribed(cube_points, lat, s, k).holds, (r2, k)
    assert not check_k_scribed(cube_points, lat, SphereRef((F(0),) * 3, F(3)), 2).holds


def test_ij_scribed(cube_points):
    lat = build_face_lattice(cube_points)
    s = SphereRef((F(0),) * 3, F(2))
    assert check_ij_scribed(cube_points, lat, s, 0, 2).holds
    with pytest.raises(ParseError):
        check_ij_scribed(cube_points, lat, s, 2, 0)


def test_verify_face_lattice(cube_map):
    from polyscribe.corpus import named_coordinates
    pts, r2 = named_coordinates("cube")
    pc = PointConfiguration(3, pts, SphereRef((F(0),) * 3, r2))
    ok, bad = verify_face_lattice(pc, cube_map.face_sets())
    assert ok and bad is None
    wrong = list(cube_map.face_sets())[:-1] + [frozenset({0, 1, 2})]
    ok, bad = verify_face_lattice(pc, wrong)
    assert not ok and bad is not None


@pytest.mark.parametrize("n", range(6, 11))
def test_cyclic_trig_inscribed(n):
    pc = generate_cyclic_trig(n, 4)
    assert pc.sphere.radius_squared == 2
    assert all(on_sphere_check(pc, pc.sphere))
    facets = {frozenset(f) for f in enumerate_facets(pc)}
    assert len(facets) == n * (n - 3) // 2
    oracle = {frozenset(s) for s in combinations(range(n), 4) if gale_even(n, s)}
    assert facets == oracle


def test_cyclic_trig_rejects():
    with pytest.raises(ParseError):
        generate_cyclic_trig(8, 3)
    with pytest.raises(ParseError):
        generate_cyclic_trig(8, 4, params=[F(1)] * 8)
    with pytest.raises(ParseError, match="need 6 parameters, got 3"):
        generate_cyclic_trig(6, 4, params=[F(0), F(1), F(2)])


def test_cyclic_moment_combinatorics_match():
    trig = {frozenset(f) for f in enumerate_facets(generate_cyclic_trig(7, 4))}
    mom = {frozenset(f) for f in enumerate_facets(generate_cyclic_moment(7, 4))}
    assert trig == mom


def test_cyclic_moment_square():
    facets = enumerate_facets(generate_cyclic_moment(4, 2))
    assert len(facets) == 4  # convex quadrilateral


# ------------------------------------------------- reference k-sets and faces

def _separation_lp(pc, subset, inside_relation, inside_t):
    """Maximize t over box-normalized hyperplanes <a, x> = b with
    <a, p> - b + inside_t * t (inside_relation) 0 on the subset and
    b - <a, p> >= t off it."""
    d = pc.dimension
    inside = sorted(subset)
    outside = [i for i in range(pc.n_points) if i not in subset]
    bound = 1 + max(sum(abs(c) for c in p) for p in pc.points)
    # Vars: a+ (d), a- (d), b+, b-, t; all >= 0; maximize t.
    nv = 2 * d + 3
    obj = [F(0)] * nv
    obj[-1] = F(1)
    lp = LinearProgram(nv, obj)
    for i in inside:
        p = pc.points[i]
        row = list(p) + [-c for c in p] + [F(-1), F(1), inside_t]
        lp.add_row(row, inside_relation, F(0))
    for i in outside:
        p = pc.points[i]
        row = [-c for c in p] + list(p) + [F(1), F(-1), F(-1)]
        lp.add_row(row, GE, F(0))
    for k in range(2 * d):
        row = [F(0)] * nv
        row[k] = F(1)
        lp.add_row(row, LE, F(1))
    for k in (2 * d, 2 * d + 1):
        row = [F(0)] * nv
        row[k] = F(1)
        lp.add_row(row, LE, F(bound))
    return solve_lp(lp)


def _separation_margin(pc, subset):
    """Optimal margin of strict separation of the subset from the rest, with
    the normal box-normalized; positive iff strictly separable."""
    res = _separation_lp(pc, subset, GE, F(-1))
    if res.status != "optimal":  # a = b = t = 0 is feasible and t is bounded
        raise RuntimeError(f"separation LP ended {res.status}")
    return res.objective


def k_sets(pc, k):
    """Reference: all k-subsets strictly separable from the rest by a
    hyperplane.  By convention k = n returns the full set (vacuous
    separation)."""
    n = pc.n_points
    if k == n:
        return [frozenset(range(n))]
    return [frozenset(subset) for subset in combinations(range(n), k)
            if _separation_margin(pc, subset) > 0]


def is_face(pc, subset):
    """Reference supporting-hyperplane test: the subset is (contained in) a
    proper face iff some hyperplane touches exactly on one side with
    positive margin."""
    res = _separation_lp(pc, subset, EQ, F(0))
    return res.status == "optimal" and res.objective > 0


def test_two_neighborly():
    pc = generate_cyclic_trig(8, 4)
    assert all(is_face(pc, pair) for pair in combinations(range(8), 2))


def test_k_sets_square():
    pc = generate_cyclic_moment(4, 2)  # convex position
    assert len(k_sets(pc, 1)) == 4
    assert len(k_sets(pc, 2)) == 4     # the four edges; diagonals not separable
    assert k_sets(pc, 4) == [frozenset(range(4))]


def test_k_sets_interior_point_never_separated():
    pts = ((F(0), F(0)), (F(4), F(0)), (F(0), F(4)), (F(1), F(1)))
    pc = PointConfiguration(2, pts)
    assert all(3 in s for s in k_sets(pc, 3))
    assert not any(3 in s for s in k_sets(pc, 1))


@settings(deadline=None, max_examples=15)
@given(st.integers(-50, 50))
def test_cyclic_trig_param_shift(shift):
    # shifting all parameters re-points the curve but keeps everything on the
    # sphere
    params = [F(shift) + F(i, 3) for i in range(6)]
    pc = generate_cyclic_trig(6, 4, params)
    assert all(on_sphere_check(pc, pc.sphere))
