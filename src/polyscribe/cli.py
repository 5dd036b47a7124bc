"""Command-line surface: reproducible analyses with text and JSON reports.

Exit codes: 0 success (any verdict), 1 input error (usage errors
included), 2 a budget produced UNKNOWN.  JSON reports are byte-identical
across runs for identical inputs, flags, and seed; wall-clock timing
therefore only appears in text output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
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

def _recheck(cert, on) -> bool:
    """Re-check a certificate about the map `on` from its data alone."""
    if cert.kind in (CertKind.ANGLE_ASSIGNMENT, CertKind.LP_DUAL_WITNESS):
        return hrs.verify_certificate(on, cert)
    return recheck_certificate(cert, on.graph())


def _run_analysis(m, path_text, path, budget_subsets, verify_certs: bool) -> dict:
    """The analysis report, as the dict its JSON output prints."""
    g = m.graph()
    dual = maps.dual_map(m)
    tests = []
    # Each distinct certificate, by identity, with the map it is about: add's
    # `on` is that map, or a function of the certificate that gives it.
    about = {}

    def add(name, outcome, note="", certs=(), on=m):
        tests.append({"name": name, "outcome": outcome, "note": note,
                      "certificates": [_cert_json(c) for c in certs]})
        for c in certs:
            about.setdefault(id(c), (c, on(c) if callable(on) else on))

    def obstruction(name, search, arg, none_note, on):
        """An obstruction search under --budget-subsets."""
        try:
            cert = search(arg, budget_subsets)
        except BudgetExceeded as exc:
            add(name, "UNKNOWN", str(exc))
            return
        if cert is None:
            add(name, "NONE", none_note)
        else:
            add(name, "FOUND", cert.conclusion, (cert,), on)

    add("validation", "PASS", "map is a valid 3-connected planar map with facial cycles")
    # Necessary conditions: of inscribability on the graph, of
    # circumscribability on the dual's.
    obstruction("independent-set obstruction", graphs.independent_set_obstruction, g,
                "no independent set above the inscribability threshold", m)
    obstruction("facet paint test", graphs.steinitz_paint_test, m,
                "no facet-painting obstruction", dual)

    # Toughness and supertoughness enumerate vertex subsets, so they keep
    # their own smaller budget rather than --budget-subsets.  One scan
    # answers both, and the simple-polytope characterization reads its
    # supertoughness result.
    scan = graphs.toughness_scan(g)
    for name, result in zip(("1-tough", "1-supertough"), scan):
        if isinstance(result, BudgetExceeded):
            add(name, "UNKNOWN", str(result))
            continue
        ok, cert = result
        if ok:
            add(name, "PASS", f"graph is {name}")
        else:
            add(name, "FAIL", cert.conclusion, (cert,))

    k, conn_cert = graphs.vertex_connectivity(g)
    add("connectivity", "PASS", f"vertex connectivity {k}", (conn_cert,))

    in_range = graphs.degree_range_check(g)
    add("degree range [4,6]", "PASS" if in_range else "FAIL",
        "all degrees in [4,6]" if in_range else "some degree outside [4,6]")

    try:
        simple = graphs.simple_polytope_characterization(m, scan[1])
        if simple is None:
            add("simple-polytope characterization", "SKIP", "map is not simple")
        else:
            # its connectivity witness is the dual's (4-connected dual)
            add("simple-polytope characterization", simple.answer.value,
                simple.note, simple.certificates,
                lambda c: dual if c.kind is CertKind.CONNECTIVITY_WITNESS else m)
    except BudgetExceeded as exc:
        add("simple-polytope characterization", "UNKNOWN", str(exc))

    # HRS both directions and the quadric criterion, which repeats the
    # inscribability certificates.
    insc = hrs.decide_inscribable(m)
    circ = hrs.decide_circumscribable(m)
    quad = hrs.decide_quadric_inscribable(m, insc)
    add("inscribable (angle system on dual)", insc.answer.value, insc.note,
        insc.certificates)
    add("circumscribable (angle system)", circ.answer.value, circ.note,
        circ.certificates)
    add("quadric-inscribable", quad.answer.value, quad.note, quad.certificates)

    return {
        "schema": SCHEMA,
        "input": _input_identity(path, path_text),
        "structure": {"vertices": m.n_vertices, "edges": len(m.edges),
                      "faces": m.n_faces},
        "tests": tests,
        "verdicts": {"inscribable": insc.answer.value,
                     "circumscribable": circ.answer.value,
                     "hyperboloid": quad.answer.value,
                     "cylinder": quad.answer.value},
        "budgets": {"subsets": budget_subsets,
                    "toughness": graphs.DEFAULT_TOUGHNESS_BUDGET},
        "certificates_verified": (all(_recheck(c, on) for c, on in about.values())
                                  if verify_certs else None),
    }


def _analysis_text(report: dict, seconds: float) -> str:
    lines = [f"analysis of {report['input']['name']} ({report['input']['sha256'][:12]})",
             "  vertices {vertices}, edges {edges}, faces {faces}".format(
                 **report["structure"])]
    for t in report["tests"]:
        lines.append(f"  [{t['outcome']:>9s}] {t['name']}: {t['note']}")
    lines.append("verdicts:")
    for q, a in report["verdicts"].items():
        lines.append(f"  {q}: {a}")
    if report["certificates_verified"] is not None:
        lines.append(f"certificates re-checked: {report['certificates_verified']}")
    lines.append(f"elapsed: {seconds:.3f}s")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    text = _read(args.mapfile)
    m = maps.parse_map_json(text)
    t0 = time.monotonic()
    report = _run_analysis(m, text, args.mapfile, args.budget_subsets,
                           args.verify_certificates)
    sys.stdout.write(json.dumps(report, indent=1) + "\n" if args.json
                     else _analysis_text(report, time.monotonic() - t0))
    outcomes = {t["outcome"] for t in report["tests"]} | set(report["verdicts"].values())
    return 2 if "UNKNOWN" in outcomes else 0


def cmd_decide(args) -> int:
    text = _read(args.mapfile)
    m = maps.parse_map_json(text)
    if args.question == "inscribable":
        v = hrs.decide_inscribable(m)
    elif args.question == "circumscribable":
        v = hrs.decide_circumscribable(m)
    else:
        v = hrs.decide_quadric_inscribable(m, hrs.decide_inscribable(m))
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

# The point-file generators; each reads --n, --d and --params.
_CYCLIC = {"cyclic-trig": geometry.generate_cyclic_trig,
           "cyclic-moment": geometry.generate_cyclic_moment}


def cmd_generate(args) -> int:
    fam = args.family
    if fam not in _CYCLIC and fam not in corpus.CORPUS_NAMES:
        raise ParseError(f"unknown family {fam!r}; choose cyclic-trig, "
                         f"cyclic-moment, or one of {', '.join(corpus.CORPUS_NAMES)}")
    reads = ("n", "d", "params") if fam in _CYCLIC else ("coordinates",)
    for flag in ("n", "d", "params", "coordinates"):
        if flag not in reads and getattr(args, flag) not in (None, False):
            raise ParseError(f"--family {fam} does not read --{flag}")
    if fam in _CYCLIC:
        if args.n is None or args.d is None:
            raise ParseError(f"{fam} needs --n and --d")
        params = [parse_rational(p) for p in args.params] if args.params else None
        out = points.serialize_points_json(_CYCLIC[fam](args.n, args.d, params))
    elif args.coordinates:
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
    if args.k is not None and (args.i is not None or args.j is not None):
        raise ParseError("scribe --k takes no --i or --j")
    if args.k is None and (args.i is None or args.j is None):
        raise ParseError("scribe needs --k or both --i and --j")
    text = _read(args.pointfile)
    pc = points.parse_points_json(text)
    if pc.sphere is None:
        raise ParseError("scribe needs a sphere in the point file")
    lattice = hull.build_face_lattice(pc)
    if args.k is not None:
        report = geometry.check_k_scribed(pc, lattice, pc.sphere, args.k)
    else:
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
    sampling = {flag: getattr(args, flag) for flag in ("samples", "seed")
                if getattr(args, flag) is not None}
    if sampling and args.ply != "sampling":
        raise ParseError(f"--{next(iter(sampling))} needs --ply sampling")
    if args.from_points:
        if args.capfile is not None or args.ply:
            raise ParseError("caps --from-points takes no CAPFILE and no --ply")
        pc = points.parse_points_json(_read(args.from_points))
        _write(args.output, caps_mod.serialize_caps_json(caps_mod.visibility_system(pc)))
        return 0
    if args.capfile is None:
        raise ParseError("caps needs a CAPFILE or --from-points")
    if args.output is not None:
        raise ParseError("caps -o needs --from-points")
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
        depth, witness = caps_mod.ply_depth_sampling(cs, **sampling)
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
        data = {**vars(rep), "median_hits": format_rational(rep.median_hits),
                "mean_hits": format_rational(rep.mean_hits), "schema": SCHEMA,
                "input": _input_identity(args.capfile, text)}
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

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 1);
    argparse's own exit code 2 is the one that means UNKNOWN here."""

    def error(self, message):
        raise ParseError(f"{message} (see {self.prog} --help)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Each flag is
    declared on the subcommands that read it; --json is global."""
    # The subparsers re-declare --json with a SUPPRESS default so a --json
    # given before the subcommand is not clobbered by their default.
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    p = _Parser(prog="polyscribe", description="exact scribability analysis of polytopes")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    def add_sub(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    a = add_sub("analyze", help="full test pipeline on a map file")
    a.add_argument("mapfile")
    a.add_argument("--verify-certificates", action="store_true")
    a.add_argument("--budget-subsets", type=int, metavar="N",
                   default=graphs.DEFAULT_INDEP_BUDGET,
                   help="vertex budget of the independent-set and facet-paint searches")
    a.set_defaults(fn=cmd_analyze)

    d = add_sub("decide", help="single decision on a map file")
    d.add_argument("mapfile")
    d.add_argument("--question", required=True,
                   choices=["inscribable", "circumscribable", "hyperboloid", "cylinder"])
    d.set_defaults(fn=cmd_decide)

    g = add_sub("generate", help="write a map or point file")
    g.add_argument("--family", required=True,
                   help="cyclic-trig, cyclic-moment, or a corpus name")
    g.add_argument("--n", type=int, help="points of a cyclic family")
    g.add_argument("--d", type=int, help="dimension of a cyclic family")
    g.add_argument("--params", nargs="*", help="curve parameters of a cyclic family")
    g.add_argument("--coordinates", action="store_true",
                   help="a corpus name's coordinates instead of its map, when available")
    g.add_argument("-o", "--output")
    g.set_defaults(fn=cmd_generate)

    c = add_sub("check", help="verify a realization file")
    c.add_argument("pointfile")
    c.add_argument("--map")
    c.set_defaults(fn=cmd_check)

    s = add_sub("scribe", help="(i,j)- or k-scribedness of a realization")
    s.add_argument("pointfile")
    s.add_argument("--i", type=int, help="rank of the faces that avoid the ball")
    s.add_argument("--j", type=int, help="rank of the faces that cut it")
    s.add_argument("--k", type=int, help="rank of the faces tangent to it; not with --i, --j")
    s.set_defaults(fn=cmd_scribe)

    k = add_sub("caps", help="cap-system statistics and ply depth")
    k.add_argument("capfile", nargs="?")
    k.add_argument("--from-points", metavar="POINTFILE",
                   help="build a visibility-cap system from exterior points")
    k.add_argument("--ply", choices=["exact", "sampling"])
    k.add_argument("--samples", type=int,
                   help="samples of --ply sampling (default 20000)")
    k.add_argument("--seed", type=int, help="seed of --ply sampling (default 0)")
    k.add_argument("-o", "--output", help="where --from-points writes its caps")
    k.set_defaults(fn=cmd_caps)

    r = add_sub("separator", help="random-hyperplane separator experiment")
    r.add_argument("capfile")
    r.add_argument("--trials", type=int, default=100)
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(fn=cmd_separator)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return 2
    except PolyscribeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
