import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from polyscribe import hrs
from polyscribe.verdicts import Answer

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cyclic_scribe_table_smoke():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "cyclic_scribe_table.py"),
                          "--n-max", "6"], capture_output=True, text=True, env=env,
                         timeout=300, check=True).stdout.splitlines()
    heads = out[0].split()
    assert heads[:5] == ["n", "k=0", "k=1", "k=2", "k=3"] and len(heads) == 15
    assert [line.split()[0] for line in out[1:]] == ["5", "6"]
    # every vertex lies on the sphere: vertices are tangent and avoid the
    # ball, and every face of rank >= 1 cuts it
    for line in out[1:]:
        answers = dict(zip(heads[1:], line.split()[1:]))
        for head, answer in answers.items():
            holds = head == "k=0" or head.startswith("(0,")
            assert answer == ("YES" if holds else "NO"), (line, head)


def test_separator_scaling_smoke():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "separator_scaling.py"),
                          "--sizes", "60", "125", "--trials", "20"], capture_output=True,
                         text=True, env=env, timeout=300, check=True).stdout.splitlines()
    assert out[0].split() == ["n", "median", "mean", "min", "median/sqrt(n)"]
    rows = [line.split() for line in out[1:] if line.strip()]
    assert [row[0] for row in rows[:2]] == ["60", "125"]
    assert all(len(row) == 5 for row in rows[:2])
    assert rows[2][:2] == ["fitted", "exponent:"] and len(rows) == 3
    assert 0 < float(rows[2][2]) < 1


def test_cyclic_scribe_table_rejects_n_past_the_hull_limit():
    table = load_script("cyclic_scribe_table")
    try:
        table.main(["--n-max", "13"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("n = 13 was accepted")


def test_corpus_survey_exits_nonzero_on_duality_mismatch(monkeypatch, capsys):
    survey = load_script("corpus_survey")
    monkeypatch.setattr(survey, "CORPUS_NAMES", ["tetrahedron", "cube"])
    assert survey.main() == 0
    assert "cross-check passed" in capsys.readouterr().out
    decide = hrs.decide_inscribable

    def flipped(m):
        v = decide(m)
        if m.n_vertices != 8:  # the cube, not its dual, the octahedron
            return v
        return replace(v, answer=Answer.NO if v.answer is Answer.YES else Answer.YES)
    monkeypatch.setattr(survey, "decide_inscribable", flipped)
    assert survey.main() == 1
    assert "cross-check failed for cube" in capsys.readouterr().err
