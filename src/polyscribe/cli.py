"""Command-line surface: reproducible analyses with text and JSON reports.

Exit codes: 0 success (any verdict), 1 input error, 2 a budget produced
UNKNOWN.  JSON reports are byte-identical across runs for identical inputs,
flags, and seed; wall-clock timing therefore only appears in text output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

from . import caps as caps_mod
from . import corpus, geometry, graphs, hrs, hull, maps, points
from .errors import BudgetExceeded, ParseError, PolyscribeError
from .rationals import format_rational, parse_rational
from .verdicts import Answer, CertKind, recheck_certificate

SCHEMA = 1


def _cert_json(cert):
    return {"kind": cert.kind.value, "data": cert.data, "conclusion": cert.conclusion}


@dataclass
class AnalysisReport:
    schema: int
    input: dict
    structure: dict
    tests: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    budgets: dict = field(default_factory=dict)
    certificates_verified: bool | None = None
    timing: dict = field(default_factory=dict)  # text output only

    def to_json(self) -> str:
        data = asdict(self)
        del data["timing"]
        return json.dumps(data, indent=1) + "\n"

    def to_text(self) -> str:
        lines = [f"analysis of {self.input['name']} ({self.input['sha256'][:12]})",
                 f"  vertices {self.structure['vertices']}, edges "
                 f"{self.structure['edges']}, faces {self.structure['faces']}"]
        for t in self.tests:
            lines.append(f"  [{t['outcome']:>9s}] {t['name']}: {t['note']}")
        lines.append("verdicts:")
        for q, a in self.verdicts.items():
            lines.append(f"  {q}: {a}")
        if self.certificates_verified is not None:
            lines.append(f"certificates re-checked: {self.certificates_verified}")
        if self.timing:
            lines.append(f"elapsed: {self.timing['seconds']:.3f}s")
        return "\n".join(lines) + "\n"


def _input_identity(path: str, text: str) -> dict:
    return {"name": Path(path).name, "path": str(path),
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    """Write text to path, or to stdout without a path."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
    sys.stdout.write(f"wrote {path}\n")


# ------------------------------------------------------------------ analyze

def _run_analysis(m, path_text, path, budget_subsets,
                  verify_certs: bool) -> AnalysisReport:
    t0 = time.monotonic()
    g = m.graph()
    dual = maps.dual_map(m)
    report = AnalysisReport(
        schema=SCHEMA,
        input=_input_identity(path, path_text),
        structure={"vertices": m.n_vertices, "edges": len(m.edges),
                   "faces": m.n_faces},
        budgets={"subsets": budget_subsets,
                 "toughness": graphs.DEFAULT_TOUGHNESS_BUDGET},
    )
    tests = report.tests
    verified = True

    def add(name, outcome, note="", certs=()):
        tests.append({"name": name, "outcome": outcome, "note": note,
                      "certificates": [_cert_json(c) for c in certs]})

    add("validation", "PASS", "map is a valid 3-connected planar map with facial cycles")

    # Independent-set obstruction (inscribability necessary condition).
    try:
        cert = graphs.independent_set_obstruction(g, budget_subsets)
        if cert is None:
            add("independent-set obstruction", "NONE",
                "no independent set above the inscribability threshold")
        else:
            add("independent-set obstruction", "FOUND", cert.conclusion, (cert,))
            if verify_certs:
                verified &= recheck_certificate(cert, g)
    except BudgetExceeded as exc:
        add("independent-set obstruction", "UNKNOWN", str(exc))

    # Facet paint test (circumscribability necessary condition).
    try:
        cert = graphs.steinitz_paint_test(m, budget_subsets)
        if cert is None:
            add("facet paint test", "NONE", "no facet-painting obstruction")
        else:
            add("facet paint test", "FOUND", cert.conclusion, (cert,))
            if verify_certs:
                verified &= recheck_certificate(cert, dual.graph())
    except BudgetExceeded as exc:
        add("facet paint test", "UNKNOWN", str(exc))

    # Toughness and supertoughness enumerate vertex subsets, so they keep
    # their own smaller budget rather than --budget-subsets.  The
    # supertoughness result is kept for the simple-polytope characterization.
    supertough = None
    for name, fn in (("1-tough", graphs.is_one_tough),
                     ("1-supertough", graphs.is_one_supertough)):
        try:
            ok, cert = fn(g, graphs.DEFAULT_TOUGHNESS_BUDGET)
            if name == "1-supertough":
                supertough = ok, cert
            if ok:
                add(name, "PASS", f"graph is {name}")
            else:
                add(name, "FAIL", cert.conclusion, (cert,))
                if verify_certs:
                    verified &= recheck_certificate(cert, g)
        except BudgetExceeded as exc:
            add(name, "UNKNOWN", str(exc))

    k, conn_cert = graphs.vertex_connectivity(g)
    add("connectivity", "PASS", f"vertex connectivity {k}", (conn_cert,))
    if verify_certs:
        verified &= recheck_certificate(conn_cert, g)

    in_range = graphs.degree_range_check(g)
    add("degree range [4,6]", "PASS" if in_range else "FAIL",
        "all degrees in [4,6]" if in_range else "some degree outside [4,6]")

    try:
        simple = graphs.simple_polytope_characterization(
            m, graphs.DEFAULT_TOUGHNESS_BUDGET, supertough=supertough)
        if simple is None:
            add("simple-polytope characterization", "SKIP", "map is not simple")
        else:
            add("simple-polytope characterization", simple.answer.value,
                simple.note, simple.certificates)
    except BudgetExceeded as exc:
        add("simple-polytope characterization", "UNKNOWN", str(exc))

    # HRS both directions and the quadric criterion.
    insc = hrs.decide_inscribable(m)
    circ = hrs.decide_circumscribable(m)
    quad = hrs.decide_quadric_inscribable(m, "hyperboloid", sphere=insc)
    add("inscribable (angle system on dual)", insc.answer.value, insc.note,
        insc.certificates)
    add("circumscribable (angle system)", circ.answer.value, circ.note,
        circ.certificates)
    add("quadric-inscribable", quad.answer.value, quad.note, quad.certificates)
    if verify_certs:
        verified &= _verify_hrs_certs(m, circ, on_dual=False)
        verified &= _verify_hrs_certs(m, insc, on_dual=True)
        for cert in quad.certificates:
            if cert.kind is CertKind.HAMILTONIAN_CYCLE:
                verified &= recheck_certificate(cert, g)

    report.verdicts = {
        "inscribable": insc.answer.value,
        "circumscribable": circ.answer.value,
        "hyperboloid": quad.answer.value,
        "cylinder": quad.answer.value,
    }
    if verify_certs:
        report.certificates_verified = verified
    report.timing = {"seconds": time.monotonic() - t0}
    return report


def _verify_hrs_certs(m, verdict, on_dual: bool) -> bool:
    target = maps.dual_map(m) if on_dual else m
    ok = True
    for cert in verdict.certificates:
        if cert.kind is CertKind.ANGLE_ASSIGNMENT:
            weights = hrs.parse_angle_assignment(cert)
            if cert.data.get("on_dual"):
                back = {v: k for k, v in hrs._dual_edge_to_primal(m).items()}
                weights = {back[e]: x for e, x in weights.items()}
            ok &= hrs.verify_angle_assignment(target, weights)
        elif cert.kind is CertKind.LP_DUAL_WITNESS:
            ok &= hrs.verify_dual_witness(target, cert)
    return ok


def cmd_analyze(args) -> int:
    text = _read(args.mapfile)
    m = maps.parse_map_json(text)
    report = _run_analysis(m, text, args.mapfile, args.budget_subsets,
                           args.verify_certificates)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    if "UNKNOWN" in {t["outcome"] for t in report.tests} | set(report.verdicts.values()):
        return 2
    return 0


def cmd_decide(args) -> int:
    text = _read(args.mapfile)
    m = maps.parse_map_json(text)
    if args.question == "inscribable":
        v = hrs.decide_inscribable(m)
    elif args.question == "circumscribable":
        v = hrs.decide_circumscribable(m)
    else:
        v = hrs.decide_quadric_inscribable(m, args.question)
    if args.json:
        sys.stdout.write(json.dumps({
            "schema": SCHEMA, "input": _input_identity(args.mapfile, text),
            "question": args.question, "answer": v.answer.value, "note": v.note,
            "certificates": [_cert_json(c) for c in v.certificates]},
            indent=1) + "\n")
    else:
        sys.stdout.write(f"{args.question}: {v.answer.value} ({v.note})\n")
    return 2 if v.answer is Answer.UNKNOWN else 0


# ------------------------------------------------------------------ generate

def cmd_generate(args) -> int:
    fam = args.family
    params = [parse_rational(p) for p in args.params] if args.params else None
    if fam == "cyclic-trig":
        if args.n is None or args.d is None:
            raise ParseError("cyclic-trig needs --n and --d")
        pc = geometry.generate_cyclic_trig(args.n, args.d, params)
        out = points.serialize_points_json(pc)
    elif fam == "cyclic-moment":
        if args.n is None or args.d is None:
            raise ParseError("cyclic-moment needs --n and --d")
        pc = geometry.generate_cyclic_moment(args.n, args.d, params)
        out = points.serialize_points_json(pc)
    elif fam == "stacked":
        depth = args.depth if args.depth is not None else 1
        name = f"stacked-tetrahedron-{depth}"
        if name not in corpus.CORPUS_NAMES:
            raise ParseError(f"stacking depth {depth} not available")
        out = maps.serialize_map_json(corpus.named_polytope(name))
    elif fam in corpus.CORPUS_NAMES:
        if args.coordinates:
            try:
                pts, r2 = corpus.named_coordinates(fam)
            except KeyError:
                raise ParseError(f"no rational coordinates available for {fam}") from None
            m = corpus.named_polytope(fam)
            sphere = None
            if r2 is not None:
                sphere = points.SphereRef((Fraction(0),) * len(pts[0]), r2)
            pc = points.PointConfiguration(len(pts[0]), tuple(pts), sphere,
                                           tuple(m.face_sets()))
            out = points.serialize_points_json(pc)
        else:
            out = maps.serialize_map_json(corpus.named_polytope(fam))
    else:
        raise ParseError(f"unknown family {fam!r}; choose cyclic-trig, "
                         f"cyclic-moment, stacked, or one of {', '.join(corpus.CORPUS_NAMES)}")
    _write(args.output, out)
    return 0


# ------------------------------------------------------------------ check

def cmd_check(args) -> int:
    text = _read(args.pointfile)
    pc = points.parse_points_json(text)
    results = {}
    if pc.sphere is not None:
        on = geometry.on_sphere_check(pc, pc.sphere)
        results["on_sphere"] = all(on)
        results["off_sphere_vertices"] = [i for i, b in enumerate(on) if not b]
    facets = None
    if pc.claimed_faces is not None:
        facets = hull.enumerate_facets(pc)
        ok, bad = geometry.match_facets(facets, pc.claimed_faces)
        results["claimed_facets_match"] = ok
        if not ok:
            results["first_mismatch"] = bad
    if args.map:
        m = maps.parse_map_json(_read(args.map))
        if facets is None:
            facets = hull.enumerate_facets(pc)
        results["map_facets_match"] = set(facets) == m.face_sets()
    passed = all(v for k, v in results.items() if isinstance(v, bool))
    if args.json:
        sys.stdout.write(json.dumps(
            {"schema": SCHEMA, "input": _input_identity(args.pointfile, text),
             "results": results, "status": "PASS" if passed else "FAIL"},
            indent=1) + "\n")
    else:
        for k, v in results.items():
            sys.stdout.write(f"{k}: {v}\n")
        sys.stdout.write("PASS\n" if passed else "FAIL\n")
    return 0


# ------------------------------------------------------------------ scribe

def cmd_scribe(args) -> int:
    text = _read(args.pointfile)
    pc = points.parse_points_json(text)
    if pc.sphere is None:
        raise ParseError("scribe needs a sphere in the point file")
    lattice = hull.build_face_lattice(pc)
    if args.k is not None:
        report = geometry.check_k_scribed(pc, lattice, pc.sphere, args.k)
    else:
        if args.i is None or args.j is None:
            raise ParseError("scribe needs --k or both --i and --j")
        report = geometry.check_ij_scribed(pc, lattice, pc.sphere, args.i, args.j)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(f"{report.query}: {'YES' if report.holds else 'NO'}\n")
        for st in report.per_face:
            sys.stdout.write(
                f"  rank {st['rank']} face {st['face']}: cuts={st['cuts']} "
                f"avoids={st['avoids']} tangent={st['tangent']}\n")
    return 0


# ------------------------------------------------------------------ caps

def cmd_caps(args) -> int:
    if args.from_points:
        pc = points.parse_points_json(_read(args.from_points))
        _write(args.output, caps_mod.serialize_caps_json(caps_mod.visibility_system(pc)))
        return 0
    if args.capfile is None:
        raise ParseError("caps needs a CAPFILE or --from-points")
    text = _read(args.capfile)
    cs = caps_mod.parse_caps_json(text)
    g = caps_mod.cap_intersection_graph(cs)
    info = {"schema": SCHEMA, "input": _input_identity(args.capfile, text),
            "dimension": cs.dimension, "caps": cs.n_caps,
            "intersection_edges": g.number_of_edges()}
    if args.ply == "exact":
        depth, witness = caps_mod.ply_depth(cs)
        info["ply"] = {"mode": "exact", "depth": depth, "witness": witness}
    elif args.ply == "sampling":
        depth, witness = caps_mod.ply_depth_sampling(cs, args.samples, args.seed)
        info["ply"] = {"mode": "monte-carlo lower bound", "depth": depth,
                       "witness": witness}
    if args.json:
        sys.stdout.write(json.dumps(info, indent=1) + "\n")
    else:
        sys.stdout.write(f"{cs.n_caps} caps in dimension {cs.dimension}; "
                         f"{g.number_of_edges()} intersection edges\n")
        if "ply" in info:
            sys.stdout.write(f"ply depth ({info['ply']['mode']}): "
                             f"{info['ply']['depth']}\n")
    return 0


# ------------------------------------------------------------------ separator

def cmd_separator(args) -> int:
    text = _read(args.capfile)
    cs = caps_mod.parse_caps_json(text)
    rep = caps_mod.random_hyperplane_separator(cs, args.trials, args.seed)
    if args.json:
        data = json.loads(rep.to_json())
        data["schema"] = SCHEMA
        data["input"] = _input_identity(args.capfile, text)
        sys.stdout.write(json.dumps(data, indent=1) + "\n")
    else:
        sys.stdout.write(
            f"{args.trials} trials, seed {args.seed}: min {rep.min_hits}, "
            f"median {format_rational(rep.median_hits)}, "
            f"mean {format_rational(rep.mean_hits)} hits\n"
            f"best trial {rep.best_trial}: {len(rep.best_hits)} hits, "
            f"components {rep.best_components}\n")
    return 0


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    def global_flags(parser, suppress: bool):
        # The subparsers re-declare the global flags with SUPPRESS defaults so
        # flags given before the subcommand are not clobbered by defaults.
        d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
        parser.add_argument("--json", action="store_true", default=d(False),
                            help="machine-readable output")
        parser.add_argument("--budget-subsets", type=int, metavar="N",
                            default=d(graphs.DEFAULT_INDEP_BUDGET),
                            help="vertex budget for subset searches")
        parser.add_argument("--seed", type=int, default=d(0))

    common = argparse.ArgumentParser(add_help=False)
    global_flags(common, suppress=True)
    p = argparse.ArgumentParser(prog="polyscribe",
                                description="exact scribability analysis of polytopes")
    global_flags(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True)

    def add_sub(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    a = add_sub("analyze", help="full test pipeline on a map file")
    a.add_argument("mapfile")
    a.add_argument("--verify-certificates", action="store_true")
    a.set_defaults(fn=cmd_analyze)

    d = add_sub("decide", help="single decision on a map file")
    d.add_argument("mapfile")
    d.add_argument("--question", required=True,
                   choices=["inscribable", "circumscribable", "hyperboloid", "cylinder"])
    d.set_defaults(fn=cmd_decide)

    g = add_sub("generate", help="write a map or point file")
    g.add_argument("--family", required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--depth", type=int)
    g.add_argument("--params", nargs="*")
    g.add_argument("--coordinates", action="store_true",
                   help="emit coordinates instead of the map, when available")
    g.add_argument("-o", "--output")
    g.set_defaults(fn=cmd_generate)

    c = add_sub("check", help="verify a realization file")
    c.add_argument("pointfile")
    c.add_argument("--map")
    c.set_defaults(fn=cmd_check)

    s = add_sub("scribe", help="(i,j)- or k-scribedness of a realization")
    s.add_argument("pointfile")
    s.add_argument("--i", type=int)
    s.add_argument("--j", type=int)
    s.add_argument("--k", type=int)
    s.set_defaults(fn=cmd_scribe)

    k = add_sub("caps", help="cap-system statistics and ply depth")
    k.add_argument("capfile", nargs="?")
    k.add_argument("--from-points", metavar="POINTFILE",
                   help="build a visibility-cap system from exterior points")
    k.add_argument("--ply", choices=["exact", "sampling"])
    k.add_argument("--samples", type=int, default=20000)
    k.add_argument("-o", "--output")
    k.set_defaults(fn=cmd_caps)

    r = add_sub("separator", help="random-hyperplane separator experiment")
    r.add_argument("capfile")
    r.add_argument("--trials", type=int, default=100)
    r.set_defaults(fn=cmd_separator)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return 2
    except PolyscribeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
