"""Spherical cap systems: visibility caps, intersection graphs, ply depth,
and the random-hyperplane separator experiment.

Caps come in two exact representations sharing one membership semantics
{x on the unit sphere : <axis, x> >= cos_radius * ||axis||}:

- "plain": a rational axis plus a rational cosine of the angular radius;
- "halfspace": a rational axis w and rational offset b, the cap
  {x : <w, x> >= b}, whose cosine b/||w|| need not be rational.

Either way a cap is held in one form: the squared axis norm N, and the sign
s and square q of its cosine, all rational.  Every predicate below is the
exact sign of r + a*sqrt(x) + b*sqrt(y) for rationals r, a, b and x, y >= 0,
decided by one kernel, `_sign`.

Predicates over a whole system are float-filtered.  Each CapSystem keeps a
float64 copy of the form (unit axes, cosines, sines) and evaluates a
predicate for all caps at once with numpy.  A value within the forward error
bound derived in `_FloatForm` of zero, and every cap or query point without
a float copy, is decided by the exact code (`_sign`, `_caps_overlap`,
`SphericalCap.contains`, or a squared rational comparison), so every answer
is the exact one.  Exact ply depth scales each boundary plane once to
integers, so its candidates, and their fallbacks, are exact in integer
arithmetic rather than `Fraction`s.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter, mul
from typing import NamedTuple

import numpy as np

from .adjacency import Graph
from .errors import (DegenerateConfiguration, MonteCarloOnly, ParseError,
                     PointInsideBall)
from .linalg import dot, norm_sq, scaled
from .points import PointConfiguration
from .rationals import format_rational, format_vector, parse_rational, parse_vector


# ----------------------------------------------------------- exact sqrt signs

def _sign_root(r, a, x) -> int:
    """Exact sign of r + a*sqrt(x) for rationals with x >= 0."""
    if x < 0:
        raise ValueError(f"square root of negative {x}")
    sr = (r > 0) - (r < 0)
    sa = (a > 0) - (a < 0) if x else 0
    if sr == 0 or sa == 0 or sr == sa:
        return sr or sa
    # Opposite signs: the part with the larger square wins.
    d = r * r - a * a * x
    return sr * ((d > 0) - (d < 0))


def _sign(r, a, x, b=0, y=0) -> int:
    """Exact sign of r + a*sqrt(x) + b*sqrt(y) for rationals with x, y >= 0.

    With A = r + a*sqrt(x) and B = b*sqrt(y) of opposite signs, A + B has
    the sign of A times the sign of A^2 - B^2 = (r^2 + a^2 x - b^2 y)
    + 2 r a sqrt(x), again a one-root sign.
    """
    if y < 0:
        raise ValueError(f"square root of negative {y}")
    sa = _sign_root(r, a, x)
    sb = (b > 0) - (b < 0) if y else 0
    if sa == 0 or sb == 0 or sa == sb:
        return sa or sb
    return sa * _sign_root(r * r + a * a * x - b * b * y, 2 * r * a, x)


# ------------------------------------------------------------------- cap type

@dataclass(frozen=True)
class SphericalCap:
    """axis + cos_radius (plain) or axis + offset (halfspace); see module doc.

    norm_sq, cos_sign and cos_sq are the cap form every predicate reads; they
    are set once at construction and take no part in equality."""

    axis: tuple[Fraction, ...]
    cos_radius: Fraction | None = None
    offset: Fraction | None = None
    norm_sq: Fraction = field(init=False, compare=False, repr=False)
    cos_sign: int = field(init=False, compare=False, repr=False)
    cos_sq: Fraction = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if (self.cos_radius is None) == (self.offset is None):
            raise ParseError("cap needs exactly one of cos_radius, offset")
        n2 = norm_sq(self.axis)
        if n2 == 0:
            raise ParseError("cap axis must be nonzero")
        # Proper cap: cosine in (-1, 1].
        if self.cos_radius is not None:
            c = self.cos_radius
            if not -1 < c <= 1:
                raise ParseError("cos_radius must lie in (-1, 1]")
            q = c * c
        else:
            c = self.offset
            if c > 0 and c * c > n2:
                raise ParseError("cap is empty: offset exceeds axis norm")
            if c < 0 and c * c >= n2:
                raise ParseError("cap is the whole sphere")
            q = c * c / n2
        object.__setattr__(self, "norm_sq", n2)
        object.__setattr__(self, "cos_sign", (c > 0) - (c < 0))
        object.__setattr__(self, "cos_sq", q)

    def boundary_plane(self):
        """(w, b) with the boundary circle on <w, x> = b, both rational, or
        None when the plane offset is irrational in this representation."""
        root = _rational_sqrt(self.cos_sq * self.norm_sq)
        if root is None:
            return None
        return self.axis, self.cos_sign * root

    def contains(self, x) -> bool:
        """Closed membership for a rational point x (any positive norm):
        <axis, x> - s sqrt(q N ||x||^2) >= 0."""
        return _sign(dot(self.axis, x), -self.cos_sign,
                     self.cos_sq * self.norm_sq * norm_sq(x)) >= 0


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    a, b = q.numerator, q.denominator
    ra, rb = math.isqrt(a), math.isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


# --------------------------------------------------------------- float filter

_U = 2.0 ** -53                      # unit roundoff of float64
_TINY, _HUGE = 2.0 ** -500, 2.0 ** 500
_SAMPLE_BLOCK = 1024                 # rows (samples, ply candidates) per product


def _float(v, den: int = 1) -> float:
    """v / den for a rational v (an int when den > 1) and a positive int
    den, correctly rounded; inf when it overflows and NaN when a nonzero
    value rounds to zero."""
    try:
        x = float(v) if den == 1 else v / den
    except OverflowError:
        return math.inf
    return math.nan if x == 0 and v else x


def _safe(m):
    """m with NaN wherever a nonzero entry lies outside [2^-500, 2^500]."""
    mag = np.abs(m)
    return np.where((mag == 0) | ((mag >= _TINY) & (mag <= _HUGE)), m, np.nan)


def _floats(values):
    return _safe(np.array([_float(v) for v in values], dtype=float))


def _pow2_scale(v) -> Fraction:
    """A power of two k with max |v_i| * k in (1/2, 2), for a nonzero
    rational vector.  Scaling by k brings the vector into float range, and
    where its floats neither overflow nor underflow it changes no rounding:
    float(c * k) == float(c) * k."""
    top = max(abs(Fraction(c)) for c in v)
    return Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length())


def _unit_rows(m):
    """The rows of m scaled to unit length; a zero row, or one with an entry
    outside the safe range, becomes NaN."""
    m = _safe(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        return m / np.sqrt(np.einsum("ij,ij->i", m, m))[:, None]


class _FloatForm(NamedTuple):
    """Float64 copy of a cap system's form, for filtering its predicates.

    Row i holds the unit axis a_i/||a_i||, c_i = s_i sqrt(q_i) and
    sin_i = sqrt(1 - q_i).  Every nonzero input (axis component, q_i,
    1 - q_i, query component) must convert to a magnitude in
    [2^-500, 2^500]; otherwise its row is NaN, NaN fails both comparisons
    in `_decide`, and every predicate on that cap or query is decided
    exactly.  In that range no square, sum or norm over- or underflows for
    d < 2^23, so each operation has relative error at most u = 2^-53; an
    underflowing product of unit-scale components adds at most 2^-1074.

    Forward error of each value the filter reads (gamma_d = du/(1-du),
    Higham, Accuracy and Stability of Numerical Algorithms, section 3.1):

    - float(Fraction) rounds correctly: relative error u per input.
    - A unit vector (an axis or a query direction): the float norm
      sqrt(sum v_k^2) is within gamma_d/2 + u relative, so each component is
      within (d/2 + 4)u relative, counting conversions and the division.
    - c_i and sin_i: one conversion and one sqrt, within 2u relative.
    - The dot product of two unit vectors, summed in any order: the inputs
      add (d + 8)u and the rounding gamma_d, so (2d + 9)u.
    - Graph value <a_i, a_j> - c_i c_j + sin_i sin_j: each product of two
      cosines or sines adds 5u and the two additions 2u + 3u, so
      (2d + 24)u; c_i + c_j is within 6u.
    - Membership <a_i, x> - c_i and hit value sin_i - |<a_i, u>|: (2d + 13)u.
    - A ply candidate x0 +/- sqrt(rho) n is a unit vector and is not
      renormalized.  Its inputs are integer quotients, each correctly
      rounded (`_float(v, den)`): x0 = X/det, rho = R/det^3 and n = N, with
      x0 = 0 for an axis.  So each component is within
      4.5u (|x0_k| + sqrt(rho)|n_k|), at most 6.4u in norm since
      ||x0||^2 + rho ||n||^2 = 1, and its membership value is within
      (1.5d + 14.5)u.

    `bound` = (2d + 32)u exceeds each of these with room for the O(u^2)
    terms, so a value beyond +/- bound has its exact sign.
    """

    axes: np.ndarray    # n x d
    cos: np.ndarray
    sin: np.ndarray
    bound: float


def _decide(values, bound, exact):
    """Signs of an array of filter values: the float sign where a value
    clears +/- bound, exact(*index) elsewhere (near zero, or NaN for an
    input without a float copy)."""
    signs = np.where(values > bound, 1, np.where(values < -bound, -1, 0))
    for idx in zip(*np.nonzero(signs == 0)):
        signs[idx] = exact(*idx)
    return signs


@dataclass(frozen=True)
class CapSystem:
    dimension: int
    caps: tuple[SphericalCap, ...]

    def __post_init__(self):
        for c in self.caps:
            if len(c.axis) != self.dimension:
                raise ParseError("cap axis dimension mismatch")

    @cached_property
    def floats(self) -> _FloatForm:
        """The float copy every filtered predicate reads, built on first use."""
        d = self.dimension
        axes = np.array([[_float(c) for c in cap.axis] for cap in self.caps],
                        dtype=float).reshape(self.n_caps, d)
        sign = np.array([cap.cos_sign for cap in self.caps], dtype=float)
        return _FloatForm(_unit_rows(axes),
                          sign * np.sqrt(_floats(cap.cos_sq for cap in self.caps)),
                          np.sqrt(_floats(1 - cap.cos_sq for cap in self.caps)),
                          (2 * d + 32) * _U)

    @property
    def n_caps(self) -> int:
        return len(self.caps)


def visibility_cap(v) -> SphericalCap:
    """Cap of unit-sphere points visible from the exterior point v:
    {x : <v, x> >= 1}; cosine of the angular radius is 1/||v||."""
    v = tuple(Fraction(c) for c in v)
    if norm_sq(v) <= 1:
        raise PointInsideBall(f"point with squared norm {norm_sq(v)} is not "
                              "strictly outside the unit ball")
    return SphericalCap(axis=v, offset=Fraction(1))


def visibility_system(pc: PointConfiguration) -> CapSystem:
    caps = tuple(visibility_cap(p) for p in pc.points)
    return CapSystem(pc.dimension, caps)


# -------------------------------------------------------- intersection graph

def _caps_overlap(ci: SphericalCap, cj: SphericalCap) -> bool:
    """Angular distance between axes <= sum of angular radii, exactly.

    With cosines c_i = s_i sqrt(q_i), squared axis norms N_i and
    p = <a_i, a_j>: if c_i + c_j <= 0 the radii sum to at least pi and the
    caps always meet; otherwise the condition cos(dist) >= c_i c_j -
    sin r_i sin r_j becomes, after scaling by ||a_i|| ||a_j||,

        p + sqrt((1-q_i)(1-q_j) N_i N_j) - s_i s_j sqrt(q_i q_j N_i N_j) >= 0.
    """
    si, sj = ci.cos_sign, cj.cos_sign
    qi, qj = ci.cos_sq, cj.cos_sq
    if _sign(0, si, qi, sj, qj) <= 0:
        return True
    nn = ci.norm_sq * cj.norm_sq
    return _sign(dot(ci.axis, cj.axis), 1, (1 - qi) * (1 - qj) * nn,
                 -si * sj, qi * qj * nn) >= 0


def cap_intersection_graph(cs: CapSystem) -> Graph:
    """Caps i < j meet iff c_i + c_j <= 0 or <a_i, a_j> - c_i c_j +
    sin_i sin_j >= 0 (unit axes; see `_caps_overlap`), that is iff the
    larger of the negated first and the second value is >= 0.  Both come
    from one Gram matrix; pairs within the filter bound go to
    `_caps_overlap`."""
    f = cs.floats
    i, j = np.triu_indices(cs.n_caps, 1)
    gap = (f.axes @ f.axes.T)[i, j] - f.cos[i] * f.cos[j] + f.sin[i] * f.sin[j]
    meet = _decide(np.maximum(-(f.cos[i] + f.cos[j]), gap), f.bound,
                   lambda k: 1 if _caps_overlap(cs.caps[i[k]], cs.caps[j[k]])
                   else -1) >= 0
    return Graph.from_edges(cs.n_caps, zip(i[meet].tolist(), j[meet].tolist()))


# ------------------------------------------------------------------ ply depth

def _idot(u, v) -> int:
    return sum(map(mul, u, v))


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _boundary_planes(cs: CapSystem):
    planes = []
    for cap in cs.caps:
        hp = cap.boundary_plane()
        if hp is None:
            raise DegenerateConfiguration(
                "exact ply needs rational boundary planes; cap cosine times "
                "axis norm is irrational")
        planes.append(hp)
    return planes


class _Candidate(NamedTuple):
    """A ply candidate in integer form: the point X/det + sgn sqrt(R/det^3) N
    (det, R > 0).  `caps` are the positions of the caps whose axis (one) or
    boundary-circle intersection (two) it is; `on` are the caps whose
    boundary circles pass through it by construction."""

    caps: tuple
    on: tuple
    X: tuple
    det: int
    N: tuple
    R: int
    sgn: int


def _ply_candidates(W, B):
    """The ply candidates of the integer boundary planes <W_k, x> = B_k, in
    order: each axis, then the two intersections of each pair of boundary
    circles.  A shared or tangent pair of circles raises
    DegenerateConfiguration where its candidates would be."""
    norms = [_idot(w, w) for w in W]
    for m, (w, n) in enumerate(zip(W, norms)):
        # the axis w/sqrt(n): x0 = 0 and rho = 1/n
        yield _Candidate((m,), (), (0,) * len(w), n, w, n * n, 1)
    for i, (wi, bi, ni) in enumerate(zip(W, B, norms)):
        for j in range(i + 1, len(W)):
            wj, bj, nj = W[j], B[j], norms[j]
            p = _idot(wi, wj)
            det = ni * nj - p * p               # ||wi x wj||^2 (Lagrange)
            if det == 0:  # parallel boundary planes
                if bj * ni == p * bi:
                    raise DegenerateConfiguration(
                        "distinct caps share a boundary circle")
                continue
            # x0 = X/det with <wi, x0> = bi and <wj, x0> = bj, in span(wi, wj);
            # x = x0 +/- sqrt(rho) (wi x wj) with rho = (1 - ||x0||^2)/det
            a, b = bi * nj - bj * p, bj * ni - bi * p
            X = tuple(a * u + b * v for u, v in zip(wi, wj))
            R = det * det - _idot(X, X)
            if R < 0:
                continue
            if R == 0:
                raise DegenerateConfiguration("tangent boundary circles")
            N = _cross(wi, wj)
            for sgn in (1, -1):
                yield _Candidate((i, j), (i, j), X, det, N, R, sgn)


def ply_depth(cs: CapSystem):
    """Exact maximum number of open caps sharing a point (d = 3).

    Candidates: cap axes and pairwise boundary-circle intersections; in
    general position the closed count at some candidate attains the open
    maximum.  Tangent, coincident, or concurrent boundary circles raise
    DegenerateConfiguration (the first such candidate in order decides the
    message); dimensions other than 3 raise MonteCarloOnly.  Every
    candidate is exact in integers: each boundary plane is scaled once to
    integers (a positive multiple, so no sign changes).  Candidates are
    decided a block at a time by one float-filtered product.  Returns
    (depth, witness) with an exact witness point description; the first
    candidate of maximum depth is the witness.
    """
    if cs.dimension != 3:
        raise MonteCarloOnly(f"exact ply depth needs dimension 3, got {cs.dimension}")
    if cs.n_caps == 0:
        return 0, None
    planes = _boundary_planes(cs)
    # Collapse identical caps; they contribute multiplicity, not geometry.
    # Two caps are equal as sets exactly when their boundary planes
    # <w, x> >= b agree in lowest integer terms.
    groups: dict = {}
    for i, (w, b) in enumerate(planes):
        row = scaled(w + (b,))[:-1]
        g = math.gcd(*row)
        groups.setdefault(tuple(x // g for x in row), []).append(i)
    reps = [members[0] for members in groups.values()]
    weight = np.array([len(members) for members in groups.values()])
    W, B = [row[:-1] for row in groups], [row[-1] for row in groups]

    # The sign of <W_k, x> - B_k at a unit candidate x is that of
    # <a_k/||a_k||, x> - c_k: one product per block of candidates against
    # all caps.  Only entries within the filter bound get the exact term,
    # among them the caps whose boundary circles pass through x; scaled by
    # det^2 it is det (<W_k, X> - B_k det) + sgn <W_k, N> sqrt(R det).
    f = cs.floats
    axes, cos = f.axes[reps], f.cos[reps]

    def deepest(block):
        """(depth, candidate) of the first deepest candidate of a block;
        raises at its first degenerate candidate."""
        if not block:
            return -1, None
        x0 = _safe(np.array([[_float(x, c.det) for x in c.X] for c in block]))
        n = _safe(np.array([[_float(x) for x in c.N] for c in block]))
        root = np.sqrt(_safe(np.array([_float(c.R, c.det ** 3) for c in block])))
        sgn = np.array([c.sgn for c in block])

        def exact(r, k):
            c = block[r]
            if k in c.on:
                return 0
            return _sign_root(c.det * (_idot(W[k], c.X) - B[k] * c.det),
                              c.sgn * _idot(W[k], c.N), c.R * c.det)
        signs = _decide((x0 + (sgn * root)[:, None] * n) @ axes.T - cos,
                        f.bound, exact)
        on = np.array([len(c.on) for c in block])
        bad = np.flatnonzero((signs == 0).sum(axis=1) > on)
        if bad.size:
            raise DegenerateConfiguration(
                "three boundary circles meet at a point" if on[bad[0]]
                else "a boundary circle passes through a cap axis")
        depths = (signs >= 0) @ weight
        r = int(np.argmax(depths))
        return int(depths[r]), block[r]

    # max keeps the earlier of two equal depths: the first deepest candidate
    best, block = (-1, None), []
    try:
        for c in _ply_candidates(W, B):
            block.append(c)
            if len(block) == _SAMPLE_BLOCK:
                best, block = max(best, deepest(block), key=itemgetter(0)), []
    except DegenerateConfiguration:
        deepest(block)            # a degenerate candidate before it comes first
        raise
    depth, c = max(best, deepest(block), key=itemgetter(0))
    return depth, _ply_witness(cs, [reps[m] for m in c.caps], c)


def _ply_witness(cs: CapSystem, caps, c: _Candidate):
    """The exact witness of the axis of one cap, or of a circle
    intersection of two caps, read off the winning candidate c."""
    if len(caps) == 1:
        i, = caps
        a = cs.caps[i].axis
        k = _pow2_scale(a)
        root = math.sqrt(float(cs.caps[i].norm_sq * k * k))
        return {"kind": "axis", "cap": i, "axis": format_vector(a),
                "approx": [float(x * k) / root for x in a]}
    i, j = caps
    # x0 = X/det does not depend on how each boundary plane is scaled, and
    # n is the candidate's direction up to a positive factor
    x0 = tuple(Fraction(x, c.det) for x in c.X)
    n = _cross(cs.caps[i].axis, cs.caps[j].axis)
    rho = (1 - norm_sq(x0)) / norm_sq(n)
    k = _pow2_scale(n)
    rr = math.sqrt(float(rho / (k * k)))
    return {"kind": "circle-intersection", "caps": [i, j],
            "base": format_vector(x0), "direction": format_vector(n),
            "scale_sq": format_rational(rho), "sign": c.sgn,
            "approx": [float(r) + c.sgn * rr * float(d * k)
                       for r, d in zip(x0, n)]}


def ply_depth_sampling(cs: CapSystem, samples: int = 20000, seed: int = 0):
    """Monte Carlo lower bound on the ply depth, any dimension; clearly a
    lower bound, never an exact answer.  Membership per sample is exact:
    float-filtered, with `SphericalCap.contains` on the sample's dyadic
    rational coordinates near the boundary."""
    if samples < 1:
        raise ParseError(f"need at least one sample, got {samples}")
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | 0xCA95))
    f = cs.floats
    best = (0, None)
    for start in range(0, samples, _SAMPLE_BLOCK):
        # one draw of k x d normals equals k draws of d normals
        z = rng.standard_normal((min(_SAMPLE_BLOCK, samples - start), cs.dimension))
        values = _unit_rows(z) @ f.axes.T - f.cos
        values[~z.any(axis=1)] = -np.inf      # a zero sample counts nothing

        def exact(r, k):
            return 1 if cs.caps[k].contains(_dyadic(z[r])) else -1
        depths = (_decide(values, f.bound, exact) >= 0).sum(axis=1)
        r = int(np.argmax(depths))
        if depths[r] > best[0]:
            best = (int(depths[r]), {"kind": "sample",
                                     "mode": "monte-carlo lower bound",
                                     "direction": format_vector(_dyadic(z[r]))})
    return best


def _dyadic(z):
    return tuple(Fraction(float(c)) for c in z)


# ------------------------------------------------------- separator experiment

@dataclass
class SeparatorReport:
    trials: int
    seed: int
    hit_counts: list[int]
    best_trial: int
    best_hits: list[int]
    best_components: list[int]
    min_hits: int
    median_hits: Fraction
    mean_hits: Fraction


def _trial_normal(seed: int, trial: int, d: int):
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | trial))
    while True:
        z = rng.standard_normal(d)
        u = tuple(Fraction(float(c)) for c in z)
        if any(u):
            return u


def hyperplane_hits(cs: CapSystem, u) -> list[int]:
    """Caps whose closure meets the hyperplane with normal u:
    |<u, axis>| <= sin(radius) ||u|| ||axis||.  One product of the unit axes
    with u/||u|| gives sin_i - |<a_i, u>| / (||a_i|| ||u||) for all caps;
    values within the filter bound are decided by the rational comparison
    in squared form."""
    f = cs.floats

    def exact(i):
        cap = cs.caps[i]
        t = dot(u, cap.axis)
        slack = (1 - cap.cos_sq) * norm_sq(u) * cap.norm_sq - t * t
        return (slack > 0) - (slack < 0)
    x = _unit_rows(_floats(u)[None, :])[0]
    return np.flatnonzero(
        _decide(f.sin - np.abs(f.axes @ x), f.bound, exact) >= 0).tolist()


def random_hyperplane_separator(cs: CapSystem, trials: int,
                                seed: int) -> SeparatorReport:
    """Sample random hyperplanes through the origin; hit decisions are exact
    for each sampled (dyadic-rationalized) normal.  Each trial's generator is
    keyed by (seed, trial), so a trial's hits do not depend on the others."""
    if trials < 1:
        raise ParseError(f"need at least one trial, got {trials}")
    if cs.dimension < 1:
        raise ParseError(f"need a positive dimension, got {cs.dimension}")
    g = cap_intersection_graph(cs)
    all_hits = [hyperplane_hits(cs, _trial_normal(seed, t, cs.dimension))
                for t in range(trials)]
    counts = [len(h) for h in all_hits]
    best = min(range(trials), key=lambda t: (counts[t], t))
    comps = sorted(g.component_sizes(all_hits[best]), reverse=True)
    return SeparatorReport(
        trials=trials, seed=seed, hit_counts=counts,
        best_trial=best, best_hits=all_hits[best], best_components=comps,
        min_hits=min(counts),
        median_hits=Fraction(statistics.median(counts)),
        mean_hits=Fraction(sum(counts), trials))


# ------------------------------------------------------------------ generators

def near_uniform_system(n: int, seed: int = 0) -> CapSystem:
    """n jittered Fibonacci-lattice caps on S^2 with cos_radius about
    sqrt(1 - 1/n): angular radii about 1/sqrt(n), so the caps are pairwise
    disjoint (a 1-ply system) and a random great circle hits Theta(sqrt(n))
    of them."""
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | 0xF1B0))
    golden = (1 + math.sqrt(5)) / 2
    cos_r = Fraction(float(math.sqrt(1 - 1 / n)))
    caps = []
    for i in range(n):
        z = 1 - (2 * i + 1) / n
        r = math.sqrt(max(0.0, 1 - z * z))
        phi = 2 * math.pi * i / golden
        v = np.array([r * math.cos(phi), r * math.sin(phi), z])
        v = v + 0.05 / math.sqrt(n) * rng.standard_normal(3)
        v = v / np.linalg.norm(v)
        # modest denominators keep downstream exact arithmetic cheap
        axis = tuple(Fraction(float(c)).limit_denominator(10 ** 6) for c in v)
        caps.append(SphericalCap(axis=axis, cos_radius=cos_r))
    return CapSystem(3, tuple(caps))


def random_visibility_system(n: int, seed: int = 0, d: int = 3) -> CapSystem:
    """n visibility caps of random rational exterior points at distance
    roughly 1.2..1.9 from the center; all exact data, so ply_depth works."""
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | 0x5EED))
    caps = []
    while len(caps) < n:
        z = rng.standard_normal(d)
        nz = np.linalg.norm(z)
        if nz == 0:
            continue
        scale = rng.uniform(1.2, 1.9)
        v = tuple(Fraction(float(c * scale / nz)).limit_denominator(1000)
                  for c in z)
        if norm_sq(v) <= 1:
            continue
        caps.append(visibility_cap(v))
    return CapSystem(d, tuple(caps))


# --------------------------------------------------------------------- JSON IO

def parse_caps_json(text: str) -> CapSystem:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict) or "dimension" not in raw or "caps" not in raw:
        raise ParseError("cap file must contain 'dimension' and 'caps'")
    d = raw["dimension"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ParseError(f"'dimension' must be a positive integer, got {d!r}")
    if not isinstance(raw["caps"], list):
        raise ParseError("'caps' must be a list")
    caps = []
    for entry in raw["caps"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("axis"), list):
            raise ParseError("each cap must be an object with an 'axis' list")
        axis = parse_vector(entry["axis"])
        # SphericalCap rejects an entry with neither or both of these
        size = {k: parse_rational(entry[k]) for k in ("cos_radius", "offset") if k in entry}
        caps.append(SphericalCap(axis=axis, **size))
    return CapSystem(d, tuple(caps))


def serialize_caps_json(cs: CapSystem) -> str:
    entries = []
    for cap in cs.caps:
        e = {"axis": format_vector(cap.axis)}
        if cap.cos_radius is not None:
            e["cos_radius"] = format_rational(cap.cos_radius)
        else:
            e["offset"] = format_rational(cap.offset)
        entries.append(e)
    return json.dumps({"dimension": cs.dimension, "caps": entries}, indent=1) + "\n"
