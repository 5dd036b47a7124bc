"""In-memory span tracer for the benchmark's traced runs.

Every function listed in LAYERS is wrapped at each module attribute of the
polyscribe package that refers to it, so a call from another layer (say
``polyscribe.geometry.solve_linear``) and a call inside its own module both
open a span.  A span records its name, start, end, parent span, question id,
the exception type it ended with, and the work counts computed from its
arguments and result.  Spans stay in a list until the run ends.
"""

from __future__ import annotations

import sys
from math import comb
from time import perf_counter

# Layer module -> functions that form its boundary.  Vector helpers such as
# linalg.dot are left out: they run millions of times and do no work of a
# layer on their own.
LAYERS = {
    "cli": ("main",),
    "maps": ("parse_map_json", "dual_map"),
    "points": ("parse_points_json",),
    "graphs": ("independent_set_obstruction", "steinitz_paint_test",
               "is_one_tough", "is_one_supertough", "vertex_connectivity",
               "hamiltonian_cycle", "simple_polytope_characterization"),
    "hrs": ("decide_inscribable", "decide_circumscribable",
            "decide_quadric_inscribable", "enumerate_simple_circuits",
            "solve_max_margin", "verify_angle_assignment",
            "verify_dual_witness"),
    "simplex": ("solve_lp", "verify_dual_bound", "verify_farkas"),
    "linalg": ("solve_linear", "nullspace", "affine_rank"),
    "geometry": ("on_sphere_check", "verify_face_lattice", "check_k_scribed",
                 "check_ij_scribed", "min_norm_sq_over_face", "face_avoids"),
    "hull": ("build_face_lattice", "enumerate_facets"),
    "caps": ("parse_caps_json", "cap_intersection_graph",
             "random_hyperplane_separator", "hyperplane_hits", "ply_depth",
             "ply_depth_sampling"),
    "verdicts": ("recheck_certificate",),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _face_avoids_sets(args, kwargs):
    pc, face = _arg(args, kwargs, 0, "pc"), _arg(args, kwargs, 1, "face")
    return 2 ** (pc.n_points - len(set(face)))


def _ply_candidates(args, kwargs):
    n = _arg(args, kwargs, 0, "cs").n_caps
    return n + n * (n - 1)


# Counts computed from argument sizes: they repeat exactly for equal inputs.
ARG_COUNTS = {
    "simplex.solve_lp": lambda a, k: {
        "simplex.lp_cells": len(_arg(a, k, 0, "lp").rows) * _arg(a, k, 0, "lp").n_vars},
    "geometry.face_avoids": lambda a, k: {"geometry.active_sets": _face_avoids_sets(a, k)},
    "geometry.min_norm_sq_over_face": lambda a, k: {
        "geometry.active_sets": 2 ** len(set(_arg(a, k, 1, "face")))},
    "hull.enumerate_facets": lambda a, k: {
        "hull.subsets": comb(_arg(a, k, 0, "pc").n_points, _arg(a, k, 0, "pc").dimension)},
    "caps.cap_intersection_graph": lambda a, k: {
        "caps.pairs_tested": comb(_arg(a, k, 0, "cs").n_caps, 2)},
    "caps.ply_depth": lambda a, k: {"caps.ply_candidates": _ply_candidates(a, k)},
    "caps.ply_depth_sampling": lambda a, k: {
        "caps.contains_evals": _arg(a, k, 1, "samples") * _arg(a, k, 0, "cs").n_caps},
    # Identifies the decided map, for hrs.repeat_decides.
    "hrs.decide_circumscribable": lambda a, k: {
        "map": hash((_arg(a, k, 0, "m").n_vertices, _arg(a, k, 0, "m").faces))},
}

# Counts read off a successful call's result.
RESULT_COUNTS = {
    "hrs.enumerate_simple_circuits": lambda r: {"hrs.circuits": len(r)},
    "caps.cap_intersection_graph": lambda r: {"caps.edges_found": r.number_of_edges()},
}

# Per-layer metrics of BENCHMARK.json, with their units, in report order.
TIMED = [
    "maps.parse_map_json", "maps.dual_map",
    "graphs.is_one_tough", "graphs.is_one_supertough",
    "graphs.independent_set_obstruction", "graphs.steinitz_paint_test",
    "graphs.hamiltonian_cycle", "graphs.vertex_connectivity",
    "hrs.decide_circumscribable", "hrs.enumerate_simple_circuits",
    "hrs.solve_max_margin", "hrs.verify_angle_assignment",
    "hrs.verify_dual_witness", "simplex.solve_lp", "linalg.solve_linear",
    "linalg.nullspace", "geometry.face_avoids", "geometry.min_norm_sq_over_face",
    "hull.build_face_lattice", "caps.cap_intersection_graph",
    "caps.hyperplane_hits", "caps.ply_depth", "caps.ply_depth_sampling",
    "caps.parse_caps_json", "verdicts.recheck_certificate",
]
CALLED = [
    "maps.dual_map", "hrs.decide_circumscribable", "hrs.decide_inscribable",
    "simplex.solve_lp", "linalg.solve_linear", "geometry.face_avoids",
    "geometry.min_norm_sq_over_face", "caps.hyperplane_hits",
    "verdicts.recheck_certificate",
]
COUNTED = [
    "graphs.budget_exceeded", "hrs.repeat_decides", "hrs.circuits",
    "simplex.lp_cells", "geometry.active_sets", "geometry.infeasible_support",
    "hull.subsets", "caps.pairs_tested", "caps.edges_found",
    "caps.ply_candidates", "caps.contains_evals",
]
SELF = ["cli", "hrs", "geometry"]


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {f"{name}.s": "s" for name in TIMED}
    units.update({f"{name}.calls": "count" for name in CALLED})
    units.update({name: "count" for name in COUNTED})
    units.update({f"{layer}.self_s": "s" for layer in SELF})
    units["simplex.verify.s"] = "s"
    units["caps.pair_edge_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "share"
    units["trace.spans"] = "count"
    return units


class Tracer:
    """Wraps the LAYERS functions while installed; spans accumulate in
    ``self.spans`` as lists [name, start, end, parent, qid, error, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.qid = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        arg_counts, result_counts = ARG_COUNTS.get(name), RESULT_COUNTS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.qid, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                span[5] = type(exc).__name__
                raise
            else:
                span[2] = perf_counter()
                if result_counts is not None:
                    span[6] = result_counts(result)
                return result
            finally:
                stack.pop()
                if arg_counts is not None:
                    counts = arg_counts(args, kwargs)
                    span[6] = counts if span[6] is None else {**span[6], **counts}

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "polyscribe" or key.startswith("polyscribe."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"polyscribe.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def aggregate(spans, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (see metric_units)."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {name: 0 for name in COUNTED}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    layer_self: dict[str, float] = {}
    raised_inside = {(s[3], s[5]) for s in spans if s[5] is not None}
    seen_maps: set = set()
    top_level = 0.0
    for i, (name, start, end, parent, qid, error, span_counts) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if not _inside_same(spans, parent, name):
            totals[name] = totals.get(name, 0.0) + dur
        if parent < 0:
            top_level += dur
        if error == "BudgetExceeded" and layer == "graphs" and (i, error) not in raised_inside:
            counts["graphs.budget_exceeded"] += 1
        if error == "InfeasibleSupport" and name == "geometry.face_avoids":
            counts["geometry.infeasible_support"] += 1
        for key, value in (span_counts or {}).items():
            if key == "map":
                if (qid, value) in seen_maps:
                    counts["hrs.repeat_decides"] += 1
                seen_maps.add((qid, value))
            else:
                counts[key] += value
    out = {}
    for name in TIMED:
        out[f"{name}.s"] = totals.get(name, 0.0)
    for name in CALLED:
        out[f"{name}.calls"] = calls.get(name, 0)
    out.update(counts)
    for layer in SELF:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    out["simplex.verify.s"] = (totals.get("simplex.verify_dual_bound", 0.0)
                               + totals.get("simplex.verify_farkas", 0.0))
    pairs = counts["caps.pairs_tested"]
    out["caps.pair_edge_ratio"] = counts["caps.edges_found"] / pairs if pairs else 0.0
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    out["trace.coverage"] = top_level / traced_wall_s
    out["trace.spans"] = len(spans)
    return out


def _inside_same(spans, parent, name) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
