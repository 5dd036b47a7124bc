"""Verdicts and machine-checkable certificates.

Every certificate carries enough data to be re-validated in polynomial
time without re-running the search that produced it; the re-checkers
live here next to the data they check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .lazy import nx


class Answer(enum.Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"


class CertKind(enum.Enum):
    INDEPENDENT_SET_OBSTRUCTION = "IndependentSetObstruction"
    PAINT_OBSTRUCTION = "PaintObstruction"
    TOUGHNESS_VIOLATION = "ToughnessViolation"
    SUPERTOUGH_VIOLATION = "SupertoughViolation"
    BIPARTITE_CLASSES = "BipartiteClasses"
    HAMILTONIAN_CYCLE = "HamiltonianCycle"
    CONNECTIVITY_WITNESS = "ConnectivityWitness"
    ANGLE_ASSIGNMENT = "AngleAssignment"
    LP_DUAL_WITNESS = "LpDualWitness"


@dataclass(frozen=True)
class Certificate:
    kind: CertKind
    data: dict
    conclusion: str


@dataclass(frozen=True)
class Verdict:
    answer: Answer
    certificates: tuple[Certificate, ...] = field(default_factory=tuple)
    note: str = ""

    @property
    def is_no(self):
        return self.answer is Answer.NO


def _count_components(g: nx.Graph, removed) -> int:
    h = g.copy()
    h.remove_nodes_from(removed)
    return nx.number_connected_components(h) if h.number_of_nodes() else 0


def recheck_certificate(cert: Certificate, g: nx.Graph) -> bool:
    """Re-validate a graph certificate from its data alone."""
    k, d = cert.kind, cert.data
    if k in (CertKind.INDEPENDENT_SET_OBSTRUCTION, CertKind.PAINT_OBSTRUCTION):
        s = set(d["independent_set"])
        n = d["n_vertices"]
        if g.number_of_nodes() != n:
            return False
        if any(g.has_edge(u, v) for u in s for v in s if u < v):
            return False
        if 2 * len(s) > n:
            return True
        if 2 * len(s) == n:
            rest = set(g.nodes) - s
            return any(g.has_edge(u, v) for u in rest for v in rest if u < v)
        return False
    if k in (CertKind.TOUGHNESS_VIOLATION, CertKind.SUPERTOUGH_VIOLATION):
        s = set(d["cutset"])
        comps = _count_components(g, s)
        if comps != d["components"]:
            return False
        if k is CertKind.TOUGHNESS_VIOLATION:
            return comps > len(s)
        return len(s) >= 2 and comps >= len(s)
    if k is CertKind.BIPARTITE_CLASSES:
        a, b = set(d["class_a"]), set(d["class_b"])
        if a | b != set(g.nodes) or a & b:
            return False
        return all((u in a) != (v in a) for u, v in g.edges)
    if k is CertKind.HAMILTONIAN_CYCLE:
        cyc = list(d["cycle"])
        if sorted(cyc) != sorted(g.nodes):
            return False
        return all(g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))
    if k is CertKind.CONNECTIVITY_WITNESS:
        if d.get("cutset") is None:  # complete graph: no cutset exists
            return d["connectivity"] == g.number_of_nodes() - 1
        s = set(d["cutset"])
        return len(s) == d["connectivity"] and _count_components(g, s) > 1
    raise ValueError(f"no graph recheck for certificate kind {k}")
