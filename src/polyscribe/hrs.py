"""Exact circumscribability/inscribability of 3-polytopes via edge-angle systems.

Works in units of pi so the whole system is rational: edge weights must
lie strictly in (0, 1), sum to exactly 2 around every face, and exceed 2
on every simple non-facial circuit (Hodgson-Rivin-Smith).  Strictness is
reduced to a single margin variable t maximized by exact LP; the open
system is feasible iff t* > 0.

Decisions add circuit rows by cutting planes from a shortest-path
separation oracle, so the exponentially many circuits are never listed.
A YES stops when the oracle finds no violated circuit: the relaxed
optimum is then optimal for the full system.  A NO stops as soon as the
relaxed t* <= 0, because dropping circuit rows can only raise t*; its
certificate is the LP dual over the binding circuits.  The full circuit
enumeration and `solve_max_margin` over it remain as the reference the
tests check the decisions against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

import networkx as nx

from .errors import BudgetExceeded
from .graphs import DEFAULT_HAMILTON_BUDGET, hamiltonian_cycle, hamiltonian_certificate
from .linalg import scaled
from .maps import CombinatorialMap, dual_map
from .rationals import format_rational, parse_rational
from .simplex import GE, LE, EQ, LinearProgram, solve_lp, verify_dual_bound, verify_farkas
from .verdicts import Answer, Certificate, CertKind, Verdict

DEFAULT_CYCLE_BUDGET = 1_000_000


def edge_key(e) -> tuple[int, int]:
    u, v = sorted(e)
    return (u, v)


def _face_edges(face) -> frozenset[tuple[int, int]]:
    return frozenset(edge_key((face[i], face[(i + 1) % len(face)])) for i in range(len(face)))


@dataclass(frozen=True)
class Circuit:
    edges: frozenset[tuple[int, int]]
    facial: bool


def enumerate_simple_circuits(m: CombinatorialMap,
                              budget: int = DEFAULT_CYCLE_BUDGET) -> list[Circuit]:
    """Every vertex-simple cycle of the graph, flagged facial/non-facial.

    A cycle equals a face boundary iff their edge sets coincide (cyclic
    sequences up to rotation and reflection are determined by their edges).
    """
    face_sets = {_face_edges(f) for f in m.faces}
    out = []
    for i, cyc in enumerate(nx.simple_cycles(m.graph())):
        if i >= budget:
            raise BudgetExceeded("simple circuit enumeration", f"> {budget}", budget)
        es = frozenset(edge_key((cyc[j], cyc[(j + 1) % len(cyc)])) for j in range(len(cyc)))
        out.append(Circuit(es, es in face_sets))
    out.sort(key=lambda c: (len(c.edges), sorted(c.edges)))
    return out


# --------------------------------------------------------------------- LP core

@dataclass
class MarginSystem:
    """The max-margin LP data: substitute w_e = v_e + t with v_e >= 0 so all
    structural variables are nonnegative (t split into t+ - t-).  Every
    face row sums to 2."""

    edges: list[tuple[int, int]]
    face_edge_lists: list[list[tuple[int, int]]]

    @classmethod
    def from_map(cls, m: CombinatorialMap):
        edges = sorted(edge_key(e) for e in m.edges)
        fe = [sorted(_face_edges(f)) for f in m.faces]
        return cls(edges, fe)

    def build_lp(self, circuits: list[Circuit]) -> LinearProgram:
        ne = len(self.edges)
        idx = {e: i for i, e in enumerate(self.edges)}
        ncols = ne + 2  # v_e ..., t+, t-
        obj = [Fraction(0)] * ncols
        obj[ne] = Fraction(1)
        obj[ne + 1] = Fraction(-1)
        lp = LinearProgram(ncols, obj)
        for fe in self.face_edge_lists:
            row = [Fraction(0)] * ncols
            for e in fe:
                row[idx[e]] = Fraction(1)
            row[ne] = Fraction(len(fe))
            row[ne + 1] = Fraction(-len(fe))
            lp.add_row(row, EQ, Fraction(2))
        for e in self.edges:
            row = [Fraction(0)] * ncols
            row[idx[e]] = Fraction(1)
            row[ne] = Fraction(2)
            row[ne + 1] = Fraction(-2)
            lp.add_row(row, LE, Fraction(1))
        for c in circuits:
            row = [Fraction(0)] * ncols
            for e in c.edges:
                row[idx[e]] = Fraction(1)
            row[ne] = Fraction(len(c.edges) - 1)
            row[ne + 1] = Fraction(-(len(c.edges) - 1))
            lp.add_row(row, GE, Fraction(2))
        return lp


@dataclass
class MarginOutcome:
    status: str                       # "optimal" | "infeasible"
    t_star: Fraction | None           # None is the -infinity sentinel
    weights: dict | None              # edge -> Fraction, w_e = v_e + t
    active_circuits: list[Circuit]
    duals: list[Fraction] | None
    farkas: list[Fraction] | None = None


def _cutting_planes(system: MarginSystem, separate) -> MarginOutcome:
    """Start with faces and box rows; while separate(w, t) returns a
    circuit, add its row and re-solve.  The outcome is the optimum of the
    last relaxation, with the circuits added as its binding set."""
    ne = len(system.edges)
    active: list[Circuit] = []
    while True:
        res = solve_lp(system.build_lp(active))
        if res.status == "infeasible":
            return MarginOutcome("infeasible", None, None, active, None, res.farkas)
        if res.status != "optimal":
            raise RuntimeError(f"margin LP is {res.status}; t is bounded by the weight box")
        t = res.x[ne] - res.x[ne + 1]
        w = {e: res.x[i] + t for i, e in enumerate(system.edges)}
        violated = separate(w, t)
        if violated is None:
            return MarginOutcome("optimal", t, w, active, res.duals)
        active.append(violated)


def solve_max_margin(system: MarginSystem, circuits: list[Circuit]) -> MarginOutcome:
    """Exact optimum of the margin LP against the full given circuit set:
    cutting planes that add the most violated non-facial circuit of the
    list (the first in list order among ties) until none is violated."""
    nonfacial = [c for c in circuits if not c.facial]

    def most_violated(w, t):
        worst, worst_gap = None, Fraction(0)
        for c in nonfacial:
            gap = sum((w[e] for e in c.edges), Fraction(0)) - (2 + t)
            if gap < worst_gap:
                worst, worst_gap = c, gap
        return worst

    return _cutting_planes(system, most_violated)


# ----------------------------------------------------------- separation oracle

def _shortest_path(adj: dict, s: int, t: int, limit: int | None):
    """Dijkstra from s to t on integer weights: (length, path) of a shortest
    s-t path shorter than limit, or None if there is none."""
    dist = {s: 0}
    prev = {}
    done = set()
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


def _min_nonfacial_circuit(m: CombinatorialMap, w: dict) -> tuple[Circuit, Fraction] | None:
    """A minimum-weight non-facial simple circuit and its weight, by
    per-edge shortest paths.

    Only sound for strictly positive weights (Dijkstra).  A non-facial
    circuit through edge e misses at least one other edge of each of the two
    faces of e, so the minimum over those deletions is exhaustive.  The three
    deleted edges are removed from one graph and restored after each search.
    Weights are scaled by their common denominator, so the searches run on
    integers and stay exact; a search stops once it cannot beat the best
    circuit so far.
    """
    if any(x <= 0 for x in w.values()):
        raise ValueError("the separation oracle needs strictly positive weights")
    *nums, scale = scaled(w.values())
    iw = dict(zip(w, nums))
    adj: dict = {}
    for (u, v), k in iw.items():
        adj.setdefault(u, {})[v] = k
        adj.setdefault(v, {})[u] = k
    faces_of_edge: dict = {}
    for f in m.faces:
        fe = _face_edges(f)
        for e in fe:
            faces_of_edge.setdefault(e, []).append(fe)
    best = None
    best_w = None
    for e, (f1, f2) in sorted(faces_of_edge.items()):
        u, v = e
        for e1 in sorted(f1 - {e}):
            for e2 in sorted(f2 - {e}):
                cut = {e, e1, e2}
                for a, b in cut:
                    del adj[a][b], adj[b][a]
                found = _shortest_path(adj, u, v, None if best is None else best_w - iw[e])
                for a, b in cut:
                    adj[a][b] = adj[b][a] = iw[(a, b)]
                if found is not None:
                    length, path = found
                    es = frozenset(edge_key((path[i], path[i + 1]))
                                   for i in range(len(path) - 1)) | {e}
                    best, best_w = Circuit(es, False), length + iw[e]
    return None if best is None else (best, Fraction(best_w, scale))


def _min_violated_circuit(m: CombinatorialMap, w: dict, t: Fraction) -> Circuit | None:
    """The minimum-weight non-facial circuit if its row sum(w) >= 2 + t fails."""
    found = _min_nonfacial_circuit(m, w)
    if found is not None and found[1] < 2 + t:
        return found[0]
    return None


# ----------------------------------------------------------------- certificates

def angle_assignment_certificate(weights: dict, margin: Fraction) -> Certificate:
    return Certificate(
        CertKind.ANGLE_ASSIGNMENT,
        {"unit": "pi",
         "weights": {f"{u}-{v}": format_rational(x) for (u, v), x in sorted(weights.items())},
         "margin": format_rational(margin)},
        "edge angle assignment: circumscribable",
    )


def parse_angle_assignment(cert: Certificate) -> dict:
    out = {}
    for k, v in cert.data["weights"].items():
        u, _, w_ = k.partition("-")
        out[(int(u), int(w_))] = parse_rational(v)
    return out


def verify_angle_assignment(m: CombinatorialMap, weights: dict,
                            circuits: list[Circuit] | None = None) -> bool:
    """Re-check a YES certificate: weights strictly in (0,1), facial sums
    exactly 2, every non-facial simple circuit strictly above 2.

    Without a circuit list the last check runs in polynomial time: the
    separation oracle's minimum non-facial circuit weight must exceed 2.
    """
    if set(weights) != {edge_key(e) for e in m.edges}:
        return False
    if any(not 0 < x < 1 for x in weights.values()):
        return False
    for f in m.faces:
        if sum((weights[e] for e in _face_edges(f)), Fraction(0)) != 2:
            return False
    if circuits is None:
        found = _min_nonfacial_circuit(m, weights)
        return found is None or found[1] > 2
    return all(c.facial or sum((weights[e] for e in c.edges), Fraction(0)) > 2
               for c in circuits)


def dual_witness_certificate(outcome: MarginOutcome) -> Certificate:
    if outcome.status == "infeasible":
        return Certificate(
            CertKind.LP_DUAL_WITNESS,
            {"t_star": None,
             "farkas": [format_rational(y) for y in outcome.farkas],
             "binding_circuits": [sorted(map(list, c.edges)) for c in outcome.active_circuits]},
            "angle system infeasible (Farkas witness): not circumscribable",
        )
    return Certificate(
        CertKind.LP_DUAL_WITNESS,
        {"t_star": format_rational(outcome.t_star),
         "duals": [format_rational(y) for y in outcome.duals],
         "binding_circuits": [sorted(map(list, c.edges)) for c in outcome.active_circuits]},
        f"margin optimum t* = {format_rational(outcome.t_star)} <= 0: not circumscribable",
    )


def verify_dual_witness(m: CombinatorialMap, cert: Certificate) -> bool:
    """Rebuild the relaxed LP from the certificate's binding circuits and check
    the multipliers: either a dual bound proving t <= t* <= 0, or a Farkas
    witness of outright infeasibility."""
    system = MarginSystem.from_map(m)
    circuits = [Circuit(frozenset(edge_key(e) for e in ce), False)
                for ce in cert.data["binding_circuits"]]
    lp = system.build_lp(circuits)
    if cert.data["t_star"] is None:
        return verify_farkas(lp, [parse_rational(y) for y in cert.data["farkas"]])
    t_star = parse_rational(cert.data["t_star"])
    if t_star > 0:
        return False
    duals = [parse_rational(y) for y in cert.data["duals"]]
    return verify_dual_bound(lp, duals, t_star)


# ------------------------------------------------------------------- decisions

def decide_circumscribable(m: CombinatorialMap) -> Verdict:
    """Cutting planes against the separation oracle.  A relaxed t* <= 0
    already proves NO, and the oracle needs positive weights, so the loop
    stops there."""
    outcome = _cutting_planes(
        MarginSystem.from_map(m),
        lambda w, t: _min_violated_circuit(m, w, t) if t > 0 else None)
    if outcome.status == "infeasible":
        # Even the closed system (face equalities within the weight box) has
        # no solution; t* = -infinity sentinel.
        return Verdict(Answer.NO, (dual_witness_certificate(outcome),),
                       "angle system infeasible: not circumscribable")
    if outcome.t_star > 0:
        cert = angle_assignment_certificate(outcome.weights, outcome.t_star)
        return Verdict(Answer.YES, (cert,),
                       "margin t* > 0 and the separation oracle finds no violated circuit")
    return Verdict(Answer.NO, (dual_witness_certificate(outcome),),
                   "relaxed margin t* <= 0: not circumscribable")


def _dual_edge_to_primal(m: CombinatorialMap) -> dict:
    """Dual edge {face_i, face_j} -> the primal edge their faces share."""
    faces_of_edge: dict = {}
    for fi, f in enumerate(m.faces):
        for e in _face_edges(f):
            faces_of_edge.setdefault(e, []).append(fi)
    return {edge_key(fs): e for e, fs in faces_of_edge.items()}


def decide_inscribable(m: CombinatorialMap) -> Verdict:
    """Inscribable iff the polar dual is circumscribable; angle certificates
    are relabeled from dual edges to the primal edges they cross."""
    dm = dual_map(m)
    verdict = decide_circumscribable(dm)
    relabel = _dual_edge_to_primal(m)
    certs = []
    for cert in verdict.certificates:
        if cert.kind is CertKind.ANGLE_ASSIGNMENT:
            weights = parse_angle_assignment(cert)
            primal = {relabel[e]: x for e, x in weights.items()}
            data = dict(cert.data)
            data["weights"] = {f"{u}-{v}": format_rational(x)
                               for (u, v), x in sorted(primal.items())}
            data["on_dual"] = True
            certs.append(Certificate(cert.kind, data,
                                     cert.conclusion + " (dual angles keyed by primal edges)"))
        else:
            data = dict(cert.data)
            data["on_dual"] = True
            certs.append(Certificate(cert.kind, data, cert.conclusion + " (on the dual map)"))
    return Verdict(verdict.answer, tuple(certs), f"via dual: {verdict.note}")


def decide_quadric_inscribable(m: CombinatorialMap, quadric: str = "hyperboloid", *,
                               sphere: Verdict | None = None) -> Verdict:
    """Inscribable in the hyperboloid/cylinder iff sphere-inscribable and
    Hamiltonian.  A caller that already holds decide_inscribable(m) passes
    it as sphere so the angle system is not solved again."""
    if quadric not in ("hyperboloid", "cylinder"):
        raise ValueError(f"unknown quadric {quadric!r}")
    if sphere is None:
        sphere = decide_inscribable(m)
    if sphere.is_no:
        return Verdict(Answer.NO, sphere.certificates, "not sphere-inscribable")
    try:
        cyc = hamiltonian_cycle(m.graph(), DEFAULT_HAMILTON_BUDGET)
    except BudgetExceeded:
        cyc = "unknown"
    if cyc == "unknown" or sphere.answer is Answer.UNKNOWN:
        return Verdict(Answer.UNKNOWN, (), "a subdecision exceeded its budget")
    if cyc is None:
        return Verdict(Answer.NO, sphere.certificates,
                       "sphere-inscribable but graph not Hamiltonian (exhaustive search)")
    return Verdict(Answer.YES, sphere.certificates + (hamiltonian_certificate(cyc),),
                   "sphere-inscribable with a Hamiltonian cycle")
