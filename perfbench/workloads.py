"""Seeded inputs, question lists and answer checks of the benchmark workloads.

``build(workload, seed, workdir)`` writes a workload's input files and
returns its questions.  A question is one ``polyscribe`` command line; its
check compares the command's output with a source other than the code path
that produced it: a fixed verdict table, Gale evenness, exact on-sphere
arithmetic, float cross-checks with a safety margin, or an untimed
certificate re-check.  Checks run after the timed pass.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

from polyscribe import caps, corpus, geometry, hrs, maps, points
from polyscribe.verdicts import Certificate, CertKind

WORKLOADS = ("maps-analyze", "cyclic-scribe", "cap-systems")

OK, UNKNOWN, FAILED, KNOWN_DEFECT = "ok", "unknown", "failed", "known-defect"

# Message of polyscribe.errors.InfeasibleSupport.  At the seed commit
# `scribe` exits 1 with it when the sphere center lies outside the polytope
# (face_avoids only searches hyperplanes with the polytope on the <= 1
# side).  Such a question counts as failed; the benchmark keeps it.
INFEASIBLE_SUPPORT = "admits no supporting hyperplane"


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    error: str | None = None          # repr of an exception that escaped main()


@dataclass
class Question:
    qid: str
    argv: list[str]
    check: Callable[[Outcome], tuple[str, str]]   # -> (status, detail)


def build(workload: str, seed: int, workdir: Path) -> list[Question]:
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return {"maps-analyze": _maps_analyze, "cyclic-scribe": _cyclic_scribe,
            "cap-systems": _cap_systems}[workload](rng, workdir)


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _exit_ok(out: Outcome):
    """(status, detail) for a question that did not exit cleanly, else None."""
    if out.error is not None:
        return FAILED, f"raised {out.error}"
    if out.rc == 2:
        return UNKNOWN, "exit 2"
    if out.rc != 0:
        return FAILED, f"exit {out.rc}: {out.stderr.strip()[:200]}"
    return None


# ================================================================ maps-analyze

# Verdict table of the 20 corpus maps: (inscribable, circumscribable,
# hyperboloid = cylinder).  Criterion 01 fixes the platonic solids and the
# triakis/truncated tetrahedra.  The other rows are the seed commit's
# verdicts: their certificates re-check, and they agree with polar duality
# (DUAL_PAIRS) and with the classical Archimedean/Catalan facts.
CORPUS_VERDICTS = {
    "tetrahedron": ("YES", "YES", "YES"),
    "cube": ("YES", "YES", "YES"),
    "octahedron": ("YES", "YES", "YES"),
    "icosahedron": ("YES", "YES", "YES"),
    "dodecahedron": ("YES", "YES", "YES"),
    "triakis-tetrahedron": ("NO", "YES", "NO"),
    "triakis-octahedron": ("NO", "YES", "NO"),
    "truncated-tetrahedron": ("YES", "NO", "YES"),
    "rhombic-dodecahedron": ("NO", "YES", "NO"),
    "cuboctahedron": ("YES", "NO", "YES"),
    "stacked-tetrahedron-1": ("YES", "YES", "YES"),
    "stacked-tetrahedron-2": ("YES", "YES", "YES"),
    "stacked-tetrahedron-3": ("YES", "YES", "YES"),
    "stacked-cube-1": ("YES", "YES", "YES"),
    **{f"prism-{k}": ("YES", "YES", "YES") for k in range(3, 9)},
}
DUAL_PAIRS = (("tetrahedron", "tetrahedron"), ("cube", "octahedron"),
              ("icosahedron", "dodecahedron"),
              ("triakis-tetrahedron", "truncated-tetrahedron"),
              ("rhombic-dodecahedron", "cuboctahedron"))

# Left out of the analyze questions to fit the run length: at the seed
# commit `analyze` takes 33 s on triakis-octahedron, 14 s on dodecahedron
# and 4 s on icosahedron.
ANALYZE_SKIPPED = ("triakis-octahedron", "dodecahedron", "icosahedron")

DECIDE_QUESTIONS = ("inscribable", "circumscribable", "hyperboloid")


def _faces_of_size(m, size, rng):
    return rng.choice([i for i, f in enumerate(m.faces) if len(f) == size])


def _generated_maps(rng):
    """Eight maps built with the corpus combinators; the seed picks the
    stacked faces and the prism sizes.  Except for the second stacking on
    the octahedron, stacked faces are drawn from one face orbit of a
    face-transitive base, so the seed changes labels and cut order, not the
    combinatorial type.  (A random relabeling on top made the decide times
    swing by up to 3 s between seeds.)"""
    named = corpus.named_polytope
    k = rng.randint(9, 12)
    octa = named("octahedron")
    once = corpus.stack_on_face(octa, rng.randrange(octa.n_faces))
    ico = named("icosahedron")
    trunc = named("truncated-tetrahedron")
    triakis = named("triakis-tetrahedron")
    p6 = corpus.prism(6)
    out = {
        "icosahedron-stacked": corpus.stack_on_face(ico, rng.randrange(ico.n_faces)),
        f"prism-{k}": corpus.prism(k),
        f"prism-{21 - k}": corpus.prism(21 - k),
        "truncated-tetrahedron-stacked": corpus.stack_on_face(
            trunc, _faces_of_size(trunc, 3, rng)),
        "octahedron-stacked-twice-dual": maps.dual_map(
            corpus.stack_on_face(once, _faces_of_size(once, 3, rng))),
        "triakis-tetrahedron-stacked-dual": maps.dual_map(
            corpus.stack_on_face(triakis, rng.randrange(triakis.n_faces))),
        "prism-6-stacked": corpus.stack_on_face(p6, _faces_of_size(p6, 4, rng)),
        "triakis-tetrahedron-stacked": corpus.stack_on_face(
            triakis, rng.randrange(triakis.n_faces)),
    }
    return out


def _maps_analyze(rng, workdir: Path) -> list[Question]:
    questions = []
    answers: dict[str, dict] = {}
    for name in corpus.CORPUS_NAMES:
        if name in ANALYZE_SKIPPED:
            continue
        path = _write(workdir / f"{name}.json",
                      maps.serialize_map_json(corpus.named_polytope(name)))
        questions.append(Question(
            f"analyze:{name}", ["analyze", path, "--json", "--verify-certificates"],
            _check_analyze(name, answers)))
    verifier = _CertificateVerifier()
    for name, m in _generated_maps(rng).items():
        path = _write(workdir / f"gen-{name}.json", maps.serialize_map_json(m))
        seen: dict[str, str] = {}
        for q in DECIDE_QUESTIONS:
            questions.append(Question(
                f"decide:{name}:{q}", ["decide", path, "--question", q, "--json"],
                _check_decide(m, q, seen, verifier)))
    return questions


def _check_analyze(name, answers):
    insc, circ, quad = CORPUS_VERDICTS[name]
    expected = {"inscribable": insc, "circumscribable": circ,
                "hyperboloid": quad, "cylinder": quad}

    def check(out: Outcome):
        bad = _exit_ok(out)
        if bad:
            return bad
        rep = json.loads(out.stdout)
        if rep["verdicts"] != expected:
            return FAILED, f"verdicts {rep['verdicts']} != table {expected}"
        if rep["certificates_verified"] is not True:
            return FAILED, "certificates_verified is not true"
        answers[name] = rep["verdicts"]
        for a, b in DUAL_PAIRS:
            if {a, b} <= answers.keys() and name in (a, b):
                if answers[a]["inscribable"] != answers[b]["circumscribable"] or \
                        answers[b]["inscribable"] != answers[a]["circumscribable"]:
                    return FAILED, f"duality broken between {a} and {b}"
        return OK, ""
    return check


class _CertificateVerifier:
    """Untimed HRS certificate re-checks; circuit lists are cached per map."""

    def __init__(self):
        self._circuits = {}

    def angles(self, target, weights) -> bool:
        key = (target.n_vertices, target.faces)
        if key not in self._circuits:
            self._circuits[key] = hrs.enumerate_simple_circuits(target)
        return hrs.verify_angle_assignment(target, weights, self._circuits[key])

    def sphere(self, m, certs, on_dual: bool) -> str | None:
        """The answer the certificates prove (YES/NO), or None if none verifies."""
        target = maps.dual_map(m) if on_dual else m
        back = {v: k for k, v in hrs._dual_edge_to_primal(m).items()} if on_dual else None
        for cert in certs:
            if cert.kind is CertKind.ANGLE_ASSIGNMENT:
                weights = hrs.parse_angle_assignment(cert)
                if back is not None:
                    weights = {back[e]: x for e, x in weights.items()}
                if self.angles(target, weights):
                    return "YES"
            elif cert.kind is CertKind.LP_DUAL_WITNESS:
                if hrs.verify_dual_witness(target, cert):
                    return "NO"
        return None


def _hamiltonian(g) -> bool:
    """Independent exhaustive Hamiltonian-cycle search (bitmask DFS)."""
    nodes = sorted(g.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    adj = [0] * len(nodes)
    for u, v in g.edges:
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]
    full = (1 << len(nodes)) - 1

    def dfs(v, used):
        if used == full:
            return adj[v] & 1
        rest = adj[v] & ~used
        while rest:
            b = rest & -rest
            rest ^= b
            if dfs(b.bit_length() - 1, used | b):
                return True
        return False
    return bool(dfs(0, 1))


def _check_decide(m, question, seen, verifier):
    def check(out: Outcome):
        bad = _exit_ok(out)
        if bad:
            return bad
        rep = json.loads(out.stdout)
        answer = rep["answer"]
        certs = [Certificate(CertKind(c["kind"]), c["data"], c["conclusion"])
                 for c in rep["certificates"]]
        proved = verifier.sphere(m, certs, on_dual=question != "circumscribable")
        if question == "hyperboloid":
            cycles = [c for c in certs if c.kind is CertKind.HAMILTONIAN_CYCLE]
            if answer == "YES":
                cyc = cycles[0].data["cycle"] if cycles else []
                g = m.graph()
                if proved != "YES" or sorted(cyc) != sorted(g.nodes) or not all(
                        g.has_edge(cyc[i], cyc[i - 1]) for i in range(len(cyc))):
                    return FAILED, "hyperboloid YES without a verified sphere and cycle"
            elif proved != "NO" and not (proved == "YES" and not _hamiltonian(m.graph())):
                return FAILED, "hyperboloid NO not confirmed"
            sphere = proved
        else:
            if proved != answer:
                return FAILED, f"answer {answer} but certificates prove {proved}"
            sphere = answer if question == "inscribable" else None
        if sphere is not None:
            if seen.setdefault("sphere", sphere) != sphere:
                return FAILED, "inscribable and hyperboloid disagree on the sphere"
        return OK, ""
    return check


# =============================================================== cyclic-scribe

SCRIBE_QUERIES = (("check",), ("scribe", "--k", "0"), ("scribe", "--k", "1"),
                  ("scribe", "--k", "3"), ("scribe", "--i", "0", "--j", "3"),
                  ("scribe", "--i", "1", "--j", "2"), ("scribe", "--i", "0", "--j", "2"))

# (n, parameters): None is the default parameter set, "seed" draws distinct
# rationals.  C_4(8) (about 45 s per realization at the seed commit) is left
# out to fit the run length.  Seeded realizations use n=5: a seeded n=6 or
# n=7 answers 0, 2 or 4 more of its questions depending on how many hit the
# InfeasibleSupport defect, which swung wall_s by up to 15% between seeds.
CYCLIC_REALIZATIONS = ((5, None), (5, "seed"), (5, "seed"), (5, "seed"),
                       (6, None), (7, None))


def gale_facets(n: int, d: int = 4) -> set[frozenset[int]]:
    """Facets of C_d(n), d even, by Gale's evenness condition."""
    out = set()
    for s in combinations(range(n), d):
        rest = [i for i in range(n) if i not in s]
        if all(sum(1 for x in s if a < x < b) % 2 == 0 for a, b in combinations(rest, 2)):
            out.add(frozenset(s))
    return out


def _seeded_params(n, rng):
    params: set[Fraction] = set()
    while len(params) < n:
        params.add(Fraction(rng.randint(-40, 40), rng.randint(1, 10)))
    return sorted(params)


def _cyclic_scribe(rng, workdir: Path) -> list[Question]:
    questions = []
    for idx, (n, kind) in enumerate(CYCLIC_REALIZATIONS):
        params = _seeded_params(n, rng) if kind == "seed" else None
        pc = geometry.generate_cyclic_trig(n, 4, params)
        facets = gale_facets(n)
        pc = points.PointConfiguration(pc.dimension, pc.points, pc.sphere,
                                       tuple(sorted(facets, key=sorted)))
        tag = f"c4-{n}-{'default' if kind is None else 'seeded'}-{idx}"
        path = _write(workdir / f"{tag}.json", points.serialize_points_json(pc))
        on_sphere = all(sum(x * x for x in p) == pc.sphere.radius_squared
                        for p in pc.points) and not any(pc.sphere.center)
        for q in SCRIBE_QUERIES:
            questions.append(Question(
                f"{' '.join(q)}:{tag}", [q[0], path, "--json", *q[1:]],
                _check_cyclic(q, facets, on_sphere)))
    return questions


def _faces_of_rank(facets, rank):
    return {frozenset(s) for f in facets for s in combinations(sorted(f), rank + 1)}


def _check_cyclic(query, facets, on_sphere):
    """Expected answers for points exactly on the sphere: a vertex is
    tangent, avoids and cuts; a face of rank >= 1 has two points on the
    sphere, so its relative interior lies strictly inside the ball: it cuts,
    neither avoids nor is tangent."""
    def check(out: Outcome):
        if out.rc == 1 and INFEASIBLE_SUPPORT in out.stderr and query[0] == "scribe":
            return KNOWN_DEFECT, out.stderr.strip()[:200]
        bad = _exit_ok(out)
        if bad:
            return bad
        rep = json.loads(out.stdout)
        if not on_sphere:
            return FAILED, "input points are not on the sphere"
        if query[0] == "check":
            want = {"on_sphere": True, "off_sphere_vertices": [],
                    "claimed_facets_match": True}
            if rep["results"] != want or rep["status"] != "PASS":
                return FAILED, f"check reported {rep['results']}"
            return OK, ""
        args = dict(zip(query[1::2], map(int, query[2::2])))
        if "--k" in args:
            ranks, holds = [args["--k"]], args["--k"] == 0
        else:
            ranks, holds = [args["--i"], args["--j"]], args["--i"] == 0
        if rep["holds"] is not holds:
            return FAILED, f"holds={rep['holds']}, expected {holds}"
        for rank in ranks:
            got = {frozenset(f["face"]) for f in rep["faces"] if f["rank"] == rank}
            if got != _faces_of_rank(facets, rank):
                return FAILED, f"rank-{rank} faces differ from Gale evenness"
        for f in rep["faces"]:
            vertex = f["rank"] == 0
            if (f["cuts"], f["avoids"], f["tangent"]) != (True, vertex, vertex):
                return FAILED, f"face {f['face']} status {f}"
        return OK, ""
    return check


# ================================================================= cap-systems

# (kind, n, count, size): size is the separator's trials or the sampling
# ply's samples.  Weighted toward small systems; the largest sizes of the
# mix (separator n=250 and 500, exact ply n=40) are left out to fit the run
# length.
CAP_MIX = (("separator", 60, 20, 20), ("separator", 125, 2, 20),
           ("ply-exact", 20, 13, None), ("ply-exact", 30, 1, None),
           ("ply-sampling", 20, 4, 1000))

MARGIN = 1e-9


def _cap_floats(cs):
    """Unit axes and angular radii in float64."""
    axes = np.array([[float(c) for c in cap.axis] for cap in cs.caps])
    norms = np.linalg.norm(axes, axis=1)
    cos = np.array([float(cap.cos_radius) if cap.cos_radius is not None
                    else float(cap.offset) / n for cap, n in zip(cs.caps, norms)])
    return axes / norms[:, None], np.arccos(np.clip(cos, -1, 1))


def _edge_bounds(cs):
    """(pairs that surely overlap, pairs that might) by float angles."""
    u, r = _cap_floats(cs)
    ang = np.arccos(np.clip(u @ u.T, -1, 1))
    gap = ang - (r[:, None] + r[None, :])
    iu = np.triu_indices(len(r), 1)
    return int((gap[iu] < -MARGIN).sum()), int((gap[iu] <= MARGIN).sum())


def _depth_bounds(cs, x):
    """(caps surely containing unit point x, caps that might)."""
    u, r = _cap_floats(cs)
    ang = np.arccos(np.clip(u @ (x / np.linalg.norm(x)), -1, 1))
    return int((ang < r - MARGIN).sum()), int((ang <= r + MARGIN).sum())


def _exact_hits(cs, u):
    un = sum(c * c for c in u)
    return [i for i, cap in enumerate(cs.caps)
            if sum(a * b for a, b in zip(u, cap.axis)) ** 2
            <= (1 - cap.cos_sq) * un * cap.norm_sq]


def _contains(cap, x, xn) -> bool:
    """<axis, x> >= cos_radius * |axis| * |x|, decided by signs and squares."""
    t = sum(a * b for a, b in zip(cap.axis, x))
    rhs_sq = cap.cos_sq * cap.norm_sq * xn
    if cap.cos_sign >= 0:
        return t >= 0 and t * t >= rhs_sq
    return t >= 0 or t * t <= rhs_sq


def _trial_normal(seed, trial, d):
    """The separator's documented normal of trial t: standard normals from
    Philox keyed by (seed << 64) | t, redrawn while zero."""
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | trial))
    while True:
        u = [Fraction(float(c)) for c in rng.standard_normal(d)]
        if any(u):
            return u


def _cap_systems(rng, workdir: Path) -> list[Question]:
    questions = []
    for kind, n, count, size in CAP_MIX:
        for i in range(count):
            sys_seed = rng.randrange(1 << 16)
            if kind == "separator":
                cs = caps.near_uniform_system(n, seed=sys_seed)
            else:
                cs = caps.random_visibility_system(n, seed=sys_seed)
            tag = f"{kind}-{n}-{i}"
            path = _write(workdir / f"{tag}.json", caps.serialize_caps_json(cs))
            run_seed = rng.randrange(1 << 16)
            if kind == "separator":
                argv = ["separator", path, "--trials", str(size), "--seed",
                        str(run_seed), "--json"]
                check = _check_separator(cs, size, run_seed)
            elif kind == "ply-exact":
                argv = ["caps", path, "--ply", "exact", "--json"]
                check = _check_ply(cs, None, None)
            else:
                argv = ["caps", path, "--ply", "sampling", "--samples", str(size),
                        "--seed", str(run_seed), "--json"]
                check = _check_ply(cs, size, run_seed)
            questions.append(Question(f"{kind}:{tag}", argv, check))
    return questions


def _check_separator(cs, trials, seed):
    def check(out: Outcome):
        bad = _exit_ok(out)
        if bad:
            return bad
        rep = json.loads(out.stdout)
        counts = rep["hit_counts"]
        best = rep["best_trial"]
        if len(counts) != trials or rep["min_hits"] != min(counts) or \
                best != counts.index(min(counts)):
            return FAILED, "hit count summary inconsistent"
        if Fraction(rep["median_hits"]) != Fraction(statistics.median(counts)) or \
                Fraction(rep["mean_hits"]) != Fraction(sum(counts), trials):
            return FAILED, "median/mean inconsistent"
        for t in sorted({0, best, trials - 1}):
            hits = _exact_hits(cs, _trial_normal(seed, t, cs.dimension))
            if len(hits) != counts[t] or (t == best and hits != rep["best_hits"]):
                return FAILED, f"trial {t} hits differ from an exact recount"
        sure, maybe = _edge_bounds(cs)
        comps = rep["best_components"]
        if sum(comps) != cs.n_caps - len(rep["best_hits"]):
            return FAILED, "components do not cover the caps left"
        if maybe == 0 and comps != [1] * sum(comps):
            return FAILED, "disjoint caps reported as connected"
        return OK, ""
    return check


def _check_ply(cs, samples, seed):
    def check(out: Outcome):
        bad = _exit_ok(out)
        if bad:
            return bad
        rep = json.loads(out.stdout)
        sure, maybe = _edge_bounds(cs)
        if not sure <= rep["intersection_edges"] <= maybe:
            return FAILED, f"{rep['intersection_edges']} edges outside [{sure}, {maybe}]"
        depth, witness = rep["ply"]["depth"], rep["ply"]["witness"]
        lo, hi = _depth_bounds(cs, np.array(witness["approx"] if samples is None else
                                            [float(Fraction(c)) for c in witness["direction"]]))
        if not lo <= depth <= hi:
            return FAILED, f"depth {depth} outside witness recount [{lo}, {hi}]"
        if samples is None:
            # Dense float sampling never beats the exact maximum.
            z = np.random.default_rng(0).standard_normal((4000, cs.dimension))
            u, r = _cap_floats(cs)
            ang = np.arccos(np.clip((z / np.linalg.norm(z, axis=1)[:, None]) @ u.T, -1, 1))
            if int((ang < r - MARGIN).sum(axis=1).max()) > depth:
                return FAILED, "a sample lies in more caps than the exact depth"
        else:
            x = [Fraction(c) for c in witness["direction"]]
            xn = sum(c * c for c in x)
            exact = sum(1 for cap in cs.caps if _contains(cap, x, xn))
            if exact != depth:
                return FAILED, f"witness lies in {exact} caps, reported {depth}"
        return OK, ""
    return check
