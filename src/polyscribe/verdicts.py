"""Verdicts and machine-checkable certificates.

Every certificate carries enough data to be re-validated in polynomial
time without re-running the search that produced it; the re-checkers
live here next to the data they check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .adjacency import Graph


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


def _vertex_set(g: Graph, vertices) -> set | None:
    """The vertices as a set, or None when they name a vertex g does not
    have or name one twice."""
    s = set(vertices)
    if len(s) != len(vertices) or not all(v in g.nodes for v in s):
        return None
    return s


def recheck_certificate(cert: Certificate, g: Graph) -> bool:
    """Re-validate a graph certificate from its data alone.  A cutset,
    independent set or bipartite class that names a vertex outside g, or
    one vertex twice, fails; so does a connectivity witness without a
    cutset, unless g is complete."""
    k, d = cert.kind, cert.data
    if k in (CertKind.INDEPENDENT_SET_OBSTRUCTION, CertKind.PAINT_OBSTRUCTION):
        s = _vertex_set(g, d["independent_set"])
        n = d["n_vertices"]
        if s is None or len(g.adj) != n:
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
        s = _vertex_set(g, d["cutset"])
        if s is None:
            return False
        comps = len(g.component_sizes(s))
        if comps != d["components"]:
            return False
        if k is CertKind.TOUGHNESS_VIOLATION:
            return comps > len(s)
        return len(s) >= 2 and comps >= len(s)
    if k is CertKind.BIPARTITE_CLASSES:
        a, b = _vertex_set(g, d["class_a"]), _vertex_set(g, d["class_b"])
        if a is None or b is None or a | b != set(g.nodes) or a & b:
            return False
        return all((u in a) != (v in a) for u, v in g.edges)
    if k is CertKind.HAMILTONIAN_CYCLE:
        cyc = list(d["cycle"])
        if sorted(cyc) != sorted(g.nodes):
            return False
        return all(g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc)))
    if k is CertKind.CONNECTIVITY_WITNESS:
        n = len(g.adj)
        if d.get("cutset") is None:  # only a complete graph has no cutset
            return d["connectivity"] == n - 1 and g.number_of_edges() == n * (n - 1) // 2
        s = _vertex_set(g, d["cutset"])
        return (s is not None and len(s) == d["connectivity"]
                and len(g.component_sizes(s)) > 1)
    raise ValueError(f"no graph recheck for certificate kind {k}")
