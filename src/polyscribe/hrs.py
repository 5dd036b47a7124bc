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

Inscribability is circumscribability of the polar dual.  Its angle weights
are reported on the primal edges the dual edges cross: that relabel is the
dual's own edge-face incidence, `dual_map(m).edge_faces`, and the map's
`m.edge_faces` keys them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .errors import BudgetExceeded
from .graphs import hamiltonian_cycle, hamiltonian_certificate
from .linalg import scaled
from .maps import CombinatorialMap, dual_map
from .rationals import format_rational, parse_rational
from .simplex import GE, LE, EQ, LinearProgram, solve_lp, verify_dual_bound, verify_farkas
from .verdicts import Answer, Certificate, CertKind, Verdict

DEFAULT_CYCLE_BUDGET = 1_000_000


def edge_key(e) -> tuple[int, int]:
    u, v = sorted(e)
    return (u, v)


@dataclass(frozen=True)
class Circuit:
    edges: frozenset[tuple[int, int]]
    facial: bool


def enumerate_simple_circuits(m: CombinatorialMap) -> list[Circuit]:
    """Every vertex-simple cycle of the graph, flagged facial/non-facial;
    more than DEFAULT_CYCLE_BUDGET of them raise BudgetExceeded.

    A cycle equals a face boundary iff their edge sets coincide (cyclic
    sequences up to rotation and reflection are determined by their edges).
    networkx lists the cycles; only the tests' and the benchmark's
    reference calls this, so it imports networkx and no decision does.
    """
    import networkx as nx

    face_sets = set(map(frozenset, m.face_edges))
    budget = DEFAULT_CYCLE_BUDGET
    out = []
    for i, cyc in enumerate(nx.simple_cycles(nx.Graph(m.graph().edges))):
        if i >= budget:
            raise BudgetExceeded("simple circuit enumeration", f"> {budget}", budget)
        es = frozenset(edge_key((cyc[j], cyc[(j + 1) % len(cyc)])) for j in range(len(cyc)))
        out.append(Circuit(es, es in face_sets))
    out.sort(key=lambda c: (len(c.edges), sorted(c.edges)))
    return out


# --------------------------------------------------------------------- LP core

def margin_lp(m: CombinatorialMap, circuits: list[Circuit]) -> LinearProgram:
    """The max-margin LP: substitute w_e = v_e + t with v_e >= 0 so all
    structural variables are nonnegative (t split into t+ - t-).  Columns
    are the edges in sorted order, then t+ and t-.  Every face row sums to
    2, every weight is at most 1, and every circuit row is at least 2."""
    edges = sorted(m.edge_faces)
    ne = len(edges)
    idx = {e: i for i, e in enumerate(edges)}
    ncols = ne + 2  # v_e ..., t+, t-
    obj = [0] * ncols
    obj[ne] = 1
    obj[ne + 1] = -1
    lp = LinearProgram(ncols, obj)
    for fe in m.face_edges:
        row = [0] * ncols
        for e in fe:
            row[idx[e]] = 1
        row[ne] = len(fe)
        row[ne + 1] = -len(fe)
        lp.add_row(row, EQ, 2)
    for e in edges:
        row = [0] * ncols
        row[idx[e]] = 1
        row[ne] = 2
        row[ne + 1] = -2
        lp.add_row(row, LE, 1)
    for c in circuits:
        row = [0] * ncols
        for e in c.edges:
            row[idx[e]] = 1
        row[ne] = len(c.edges) - 1
        row[ne + 1] = -(len(c.edges) - 1)
        lp.add_row(row, GE, 2)
    return lp


@dataclass
class MarginOutcome:
    status: str                       # "optimal" | "infeasible"
    t_star: Fraction | None           # None is the -infinity sentinel
    weights: dict | None              # edge -> Fraction, w_e = v_e + t
    active_circuits: list[Circuit]
    duals: list[Fraction] | None
    farkas: list[Fraction] | None = None


def _cutting_planes(m: CombinatorialMap, separate) -> MarginOutcome:
    """Start with faces and box rows; while separate(w, t) returns a
    circuit, add its row and re-solve.  The outcome is the optimum of the
    last relaxation, with the circuits added as its binding set."""
    edges = sorted(m.edge_faces)
    ne = len(edges)
    active: list[Circuit] = []
    while True:
        res = solve_lp(margin_lp(m, active))
        if res.status == "infeasible":
            return MarginOutcome("infeasible", None, None, active, None, res.farkas)
        if res.status != "optimal":
            raise RuntimeError(f"margin LP is {res.status}; t is bounded by the weight box")
        t = res.x[ne] - res.x[ne + 1]
        w = {e: res.x[i] + t for i, e in enumerate(edges)}
        violated = separate(w, t)
        if violated is None:
            return MarginOutcome("optimal", t, w, active, res.duals)
        active.append(violated)


def solve_max_margin(m: CombinatorialMap, circuits: list[Circuit]) -> MarginOutcome:
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

    return _cutting_planes(m, most_violated)


# ----------------------------------------------------------- separation oracle

def _shortest_path(adj, s: int, t: int, limit: int, cut):
    """Dijkstra from s to t on integer weights, skipping the edge ids in
    cut: (length, path) of a shortest s-t path shorter than limit, or None
    if there is none.  adj[x] lists (y, weight, edge id) per neighbour y.

    dist only falls and each push lowers it, so a popped (d, x) with
    d > dist[x] is stale, and x is done at its one pop with d = dist[x].
    Heap keys (d, x) are unique, so prev[y] is the first popped node that
    reaches dist[y]: the path does not depend on the neighbour order."""
    dist = [limit] * len(adj)
    prev = [-1] * len(adj)
    dist[s] = 0
    heap = [(0, s)]
    while heap:
        d, x = heappop(heap)
        if x == t:
            path = [t]
            while path[-1] != s:
                path.append(prev[path[-1]])
            return d, path
        if d > dist[x]:
            continue
        for y, k, i in adj[x]:
            nd = d + k
            if nd < dist[y] and i not in cut:
                dist[y] = nd
                prev[y] = x
                heappush(heap, (nd, y))
    return None


def _min_nonfacial_circuit(m: CombinatorialMap, w: dict) -> tuple[Circuit, Fraction] | None:
    """A minimum-weight non-facial simple circuit and its weight, by
    per-edge shortest paths.

    Only sound for strictly positive weights (Dijkstra).  A non-facial
    circuit through edge e misses at least one other edge of each of the two
    faces of e, so the minimum over those deletions is exhaustive; each
    search skips the three deleted edges.  Weights are scaled by their
    common denominator, so the searches run on integers and stay exact; a
    search stops once it cannot beat the best circuit so far.
    """
    if any(x <= 0 for x in w.values()):
        raise ValueError("the separation oracle needs strictly positive weights")
    *nums, scale = scaled(w.values())
    iw = dict(zip(w, nums))
    ids = {e: i for i, e in enumerate(w)}
    adj = [[] for _ in range(m.n_vertices)]
    for (u, v), k in iw.items():
        adj[u].append((v, k, ids[(u, v)]))
        adj[v].append((u, k, ids[(u, v)]))
    face_ids = [[ids[e] for e in fe] for fe in m.face_edges]
    # Longer than every simple path: the limit while no circuit is known.
    best_w = sum(nums) + 1
    best = None
    for e, (f1, f2) in sorted(m.edge_faces.items()):
        u, v = e
        ie, we = ids[e], iw[e]
        for i1 in face_ids[f1]:
            for i2 in face_ids[f2]:
                if ie in (i1, i2):
                    continue
                found = _shortest_path(adj, u, v, best_w - we, (ie, i1, i2))
                if found is not None:
                    length, path = found
                    es = frozenset(edge_key((path[i], path[i + 1]))
                                   for i in range(len(path) - 1)) | {e}
                    best, best_w = Circuit(es, False), length + we
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
    return {tuple(map(int, k.split("-"))): parse_rational(v)
            for k, v in cert.data["weights"].items()}


def verify_angle_assignment(m: CombinatorialMap, weights: dict,
                            circuits: list[Circuit] | None = None) -> bool:
    """Re-check a YES certificate: weights strictly in (0,1), facial sums
    exactly 2, every non-facial simple circuit strictly above 2.

    The sums run on integers: the weights are scaled by their common
    denominator D, and each sum is compared with 2D.  Without a circuit
    list the last check runs in polynomial time: the separation oracle's
    minimum non-facial circuit weight must exceed 2.
    """
    if weights.keys() != m.edge_faces.keys():
        return False
    if any(not 0 < x < 1 for x in weights.values()):
        return False
    *nums, den = scaled(weights.values())
    iw = dict(zip(weights, nums))
    two = 2 * den
    if any(sum(iw[e] for e in fe) != two for fe in m.face_edges):
        return False
    if circuits is None:
        found = _min_nonfacial_circuit(m, weights)
        return found is None or found[1] > 2
    return all(c.facial or sum(iw[e] for e in c.edges) > two for c in circuits)


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
    circuits = [Circuit(frozenset(edge_key(e) for e in ce), False)
                for ce in cert.data["binding_circuits"]]
    lp = margin_lp(m, circuits)
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
        m, lambda w, t: _min_violated_circuit(m, w, t) if t > 0 else None)
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
    """Dual edge (face_i, face_j) -> the primal edge their faces share."""
    return dual_map(m).edge_faces


def decide_inscribable(m: CombinatorialMap) -> Verdict:
    """Inscribable iff the polar dual is circumscribable; the certificates
    are marked on_dual, and angle weights are rekeyed from dual edges to the
    primal edges they cross, which are the dual's own edge-face incidence
    (verify_certificate keys them back with m's)."""
    dual = dual_map(m)
    verdict = decide_circumscribable(dual)
    relabel = {f"{a}-{b}": e for (a, b), e in dual.edge_faces.items()}
    certs = []
    for cert in verdict.certificates:
        data = {**cert.data, "on_dual": True}
        if cert.kind is CertKind.ANGLE_ASSIGNMENT:
            primal = sorted((relabel[k], x) for k, x in data["weights"].items())
            data["weights"] = {f"{u}-{v}": x for (u, v), x in primal}
            certs.append(Certificate(cert.kind, data,
                                     cert.conclusion + " (dual angles keyed by primal edges)"))
        else:
            certs.append(Certificate(cert.kind, data, cert.conclusion + " (on the dual map)"))
    return Verdict(verdict.answer, tuple(certs), f"via dual: {verdict.note}")


def verify_certificate(m: CombinatorialMap, cert: Certificate) -> bool:
    """Re-check an angle-system certificate of m (an angle assignment or an
    LP dual witness) from its data alone.  A certificate marked on_dual is
    about the polar dual, and its weights are keyed back to dual edges."""
    if cert.kind not in (CertKind.ANGLE_ASSIGNMENT, CertKind.LP_DUAL_WITNESS):
        raise ValueError(f"no angle-system recheck for certificate kind {cert.kind}")
    on_dual = cert.data.get("on_dual", False)
    target = dual_map(m) if on_dual else m
    if cert.kind is CertKind.LP_DUAL_WITNESS:
        return verify_dual_witness(target, cert)
    weights = parse_angle_assignment(cert)
    if on_dual:
        weights = {m.edge_faces.get(e): x for e, x in weights.items()}
    return verify_angle_assignment(target, weights)


def decide_quadric_inscribable(m: CombinatorialMap, sphere: Verdict) -> Verdict:
    """Inscribable in the one-sheet hyperboloid, and equally in the
    cylinder, iff sphere-inscribable and Hamiltonian; sphere is
    decide_inscribable(m)."""
    if sphere.is_no:
        return Verdict(Answer.NO, sphere.certificates, "not sphere-inscribable")
    try:
        cyc = hamiltonian_cycle(m.graph())
    except BudgetExceeded:
        cyc = "unknown"
    if cyc == "unknown" or sphere.answer is Answer.UNKNOWN:
        return Verdict(Answer.UNKNOWN, (), "a subdecision exceeded its budget")
    if cyc is None:
        return Verdict(Answer.NO, sphere.certificates,
                       "sphere-inscribable but graph not Hamiltonian (exhaustive search)")
    return Verdict(Answer.YES, sphere.certificates + (hamiltonian_certificate(cyc),),
                   "sphere-inscribable with a Hamiltonian cycle")
