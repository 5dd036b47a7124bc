"""polyscribe benchmark: times CLI questions end to end and layer by layer.

    python3 perfbench/run.py --workload cyclic-scribe --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; polyscribe is imported from its
``src`` directory.  Workloads are listed in workloads.WORKLOADS; ``--workload
all`` runs each of them in a fresh process, one after another.

A run sets the workload up five times (import polyscribe in a fresh
interpreter, then generate and write the seeded inputs) and reports the
median as setup_s.  It then asks every question of the workload through
``polyscribe.cli.main(argv)`` in this process, one after another (a closed
loop with one client), and repeats the whole list while another pass fits in
``--seconds``.  Answers are checked after the timed passes.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run makes an untraced, a traced
and another untraced pass and reports the per-layer metrics of the traced
one.  The spans of the traced pass are written to
.perfbench/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5

IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import polyscribe; "
                "print(time.perf_counter() - t)")


def _import_program():
    """Import polyscribe from ./src, refusing any other copy."""
    package = SRC / "polyscribe"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no polyscribe sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import polyscribe
    if Path(polyscribe.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported polyscribe from {polyscribe.__file__}, not {package}")


def _time_import() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def setup(workload: str, seed: int, rundir: Path):
    """Set up SETUP_REPEATS times; returns (questions, median setup time,
    input digest, whether every setup wrote identical inputs)."""
    import workloads
    times, digests, questions = [], [], None
    for k in range(SETUP_REPEATS):
        import_s = _time_import()
        t0 = time.perf_counter()
        questions = workloads.build(workload, seed, rundir / f"inputs-{k}")
        times.append(import_s + time.perf_counter() - t0)
        digests.append(_digest(rundir / f"inputs-{k}"))
    return questions, statistics.median(times), digests[-1], len(set(digests)) == 1


def run_pass(questions, tracer=None):
    """Ask every question once; returns (latencies, outcomes)."""
    from polyscribe import cli
    from workloads import Outcome
    latencies, outcomes = [], []
    for q in questions:
        if tracer is not None:
            tracer.qid = q.qid
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(q.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # counted as a failed question
                rc, error = None, repr(exc)
        latencies.append(time.perf_counter() - t0)
        outcomes.append(Outcome(rc, out.getvalue(), err.getvalue(), error))
    return latencies, outcomes


def check_pass(questions, outcomes):
    """Status counts and the details of every question not answered OK."""
    import workloads
    counts = {workloads.OK: 0, workloads.UNKNOWN: 0, workloads.FAILED: 0,
              workloads.KNOWN_DEFECT: 0}
    notes = []
    for q, out in zip(questions, outcomes):
        try:
            status, detail = q.check(out)
        except Exception as exc:  # malformed output fails its check
            status, detail = workloads.FAILED, f"check raised {exc!r}"
        counts[status] += 1
        if status != workloads.OK:
            notes.append(f"{status}: {q.qid}: {detail}")
    return counts, notes


def measure(questions, seconds):
    """Passes over the questions: one, then more while another one fits in
    the given seconds."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + sum(passes[-1][0]) <= seconds:
        passes.append(run_pass(questions))
    return passes


def trace_run(questions, workload, seed):
    from spans import Tracer, aggregate
    # Untraced passes on both sides of the traced one, so that first-pass
    # warm-up does not count as tracing overhead.
    before = run_pass(questions)
    with Tracer() as tracer:
        traced = run_pass(questions, tracer)
    after = run_pass(questions)
    same = all(a.stdout == b.stdout and a.stderr == b.stderr and a.rc == b.rc
               for a, b in zip(before[1], traced[1]))
    spans_path = WORK / f"spans-{workload}-{seed}.jsonl"
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    untraced_s = (sum(before[0]) + sum(after[0])) / 2
    metrics = aggregate(tracer.spans, sum(traced[0]), untraced_s)
    return [before, traced, after], metrics, same, spans_path


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    _import_program()
    import workloads
    if workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}")
    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    try:
        questions, setup_s, digest, same_inputs = setup(workload, seed, rundir)
        if trace:
            passes, layer_metrics, same_outputs, spans_path = trace_run(
                questions, workload, seed)
        else:
            passes, same_outputs = measure(questions, seconds), True
        # The high-water mark before the untimed checks, which hold circuit
        # lists of their own.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        counts = {}
        notes = []
        for _, outcomes in passes:
            c, n = check_pass(questions, outcomes)
            for k, v in c.items():
                counts[k] = counts.get(k, 0) + v
            notes = n
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(counts.values())
    failed = counts[workloads.FAILED] + counts[workloads.KNOWN_DEFECT]
    unknown = counts[workloads.UNKNOWN]
    correct = counts[workloads.FAILED] == 0 and same_inputs and same_outputs
    latencies = [x for lat, _ in passes for x in lat]
    walls = [sum(lat) for lat, _ in passes]

    print(f"workload {workload}, seed {seed}: {len(questions)} questions, "
          f"{len(passes)} passes, inputs sha256 {digest}")
    for note in notes:
        print(f"  {note}")
    # Printed but not in BENCHMARK.json: per-question percentiles move by up
    # to a third between seeds (the seed reshapes the question mix near the
    # median), and the failed and unknown shares are 0 on some workloads.
    # The JSON carries the never-zero complements of the two shares.
    print(f"  op_p50_s {statistics.median(latencies):.6g} s, "
          f"op_p75_s {statistics.quantiles(latencies, n=4)[2]:.6g} s, "
          f"failed_share {failed / attempted:.4f} share, "
          f"unknown_share {unknown / attempted:.4f} share")
    if not same_inputs:
        print("  setups wrote different inputs for one seed")
    if not same_outputs:
        print("  traced and untraced passes gave different CLI outputs")
    if trace:
        from spans import metric_units
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in metric_units().items()}
        print(f"  spans written to {spans_path}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "answered_share": {"value": 1 - failed / attempted, "unit": "share"},
            "decided_share": {"value": 1 - unknown / attempted, "unit": "share"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload != "all":
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    _import_program()
    import workloads
    rc = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], check=False)
        rc = rc or child.returncode
    return rc


if __name__ == "__main__":
    sys.exit(main())
