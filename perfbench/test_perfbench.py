"""Tests of the benchmark itself:

    python3 -m pytest perfbench/test_perfbench.py

They use a cheap subset of each workload's questions.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run._import_program()
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3
CHEAP = {
    "maps-analyze": ("analyze:tetrahedron", "analyze:cuboctahedron",
                     "analyze:triakis-tetrahedron", "decide:cube-stacked-twice"),
    "cyclic-scribe": ("c4-5-",),
    "cap-systems": ("separator-60-0", "ply-exact-20-0", "ply-sampling-20-0"),
}
COUNT_METRICS = [name for name, unit in spans.metric_units().items() if unit == "count"]


def _questions(workload, directory):
    qs = workloads.build(workload, SEED, directory)
    return [q for q in qs if any(tag in q.qid for tag in CHEAP[workload])]


def _traced(questions):
    with spans.Tracer() as tracer:
        latencies, outcomes = run.run_pass(questions, tracer)
    return outcomes, spans.aggregate(tracer.spans, sum(latencies), sum(latencies))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_outputs_are_byte_identical(workload, tmp_path):
    questions = _questions(workload, tmp_path)
    _, plain = run.run_pass(questions)
    traced, _ = _traced(questions)
    for q, a, b in zip(questions, plain, traced):
        assert (a.rc, a.stdout, a.stderr) == (b.rc, b.stdout, b.stderr), q.qid
    counts, notes = run.check_pass(questions, plain)
    assert counts[workloads.FAILED] == 0, notes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_for_one_seed(workload, tmp_path):
    first = _questions(workload, tmp_path / "a")
    second = _questions(workload, tmp_path / "b")
    assert run._digest(tmp_path / "a") == run._digest(tmp_path / "b")
    _, m1 = _traced(first)
    _, m2 = _traced(second)
    assert {k: m1[k] for k in COUNT_METRICS} == {k: m2[k] for k in COUNT_METRICS}


def test_tracer_wraps_every_binding_and_restores_it():
    from polyscribe import cli, geometry, linalg
    originals = (cli.main, geometry.solve_linear, linalg.solve_linear)
    with spans.Tracer():
        assert geometry.solve_linear is linalg.solve_linear
        assert geometry.solve_linear.__wrapped__ is originals[2]
    assert (cli.main, geometry.solve_linear, linalg.solve_linear) == originals


def test_self_time_excludes_children():
    spans_ = [["cli.main", 0.0, 10.0, -1, "q", None, None],
              ["hrs.decide_inscribable", 1.0, 9.0, 0, "q", None, None],
              ["hrs.decide_circumscribable", 2.0, 8.0, 1, "q", None, {"map": 7}],
              ["simplex.solve_lp", 3.0, 4.0, 2, "q", None, {"simplex.lp_cells": 12}],
              ["hrs.decide_circumscribable", 8.5, 8.75, 1, "q", None, {"map": 7}]]
    m = spans.aggregate(spans_, 10.0, 9.0)
    assert m["cli.self_s"] == 2.0
    assert m["hrs.self_s"] == (8 - 6 - 0.25) + (6 - 1) + 0.25
    assert m["simplex.lp_cells"] == 12
    assert m["hrs.repeat_decides"] == 1
    assert m["trace.overhead_s"] == 1.0 and m["trace.coverage"] == 1.0


def test_manifest_input_digests(tmp_path):
    manifest = json.loads((run.BENCH_DIR / "manifest.json").read_text())
    for workload, by_seed in manifest["inputs_sha256"].items():
        for seed, digest in by_seed.items():
            directory = tmp_path / f"{workload}-{seed}"
            workloads.build(workload, int(seed), directory)
            assert run._digest(directory) == digest, (workload, seed)
