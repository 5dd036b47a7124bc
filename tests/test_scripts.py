import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

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


def test_separator_scaling_one_size_has_no_exponent(capsys):
    load_script("separator_scaling").main(["--sizes", "60", "--trials", "5"])
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[0] == "60"
    assert out[-1] == "fitted exponent: n/a"


def test_separator_scaling_fits_only_positive_medians(monkeypatch, capsys):
    scaling = load_script("separator_scaling")
    medians = {100: 10, 200: 0, 400: 40}

    def separator(n, trials, seed):
        return SimpleNamespace(median_hits=medians[n], mean_hits=medians[n], min_hits=0)
    monkeypatch.setattr(scaling, "near_uniform_system", lambda n, seed: n)
    monkeypatch.setattr(scaling, "random_hyperplane_separator", separator)
    scaling.main(["--sizes", "100", "200", "400"])
    # log(40/10) / log(400/100): the zero median at n = 200 is left out,
    # and n = 400 keeps its own median
    assert capsys.readouterr().out.splitlines()[-1].startswith("fitted exponent: 1.000 ")
    medians[400] = 0
    scaling.main(["--sizes", "100", "200", "400"])
    assert capsys.readouterr().out.splitlines()[-1] == "fitted exponent: n/a"


def test_cyclic_scribe_table_rejects_n_past_the_hull_limit():
    table = load_script("cyclic_scribe_table")
    try:
        table.main(["--n-max", "13"])
    except SystemExit as exc:
        assert exc.code == 2
    else:
        raise AssertionError("n = 13 was accepted")


def test_corpus_survey_exits_nonzero_on_an_unproved_verdict(monkeypatch, capsys):
    # a flipped answer keeps the certificate of the other answer, which
    # does not prove it
    survey = load_script("corpus_survey")
    monkeypatch.setattr(survey, "CORPUS_NAMES", ["tetrahedron", "cube"])
    assert survey.main() == 0
    assert "re-check passed" in capsys.readouterr().out
    decide = hrs.decide_inscribable

    def flipped(m):
        v = decide(m)
        if m.n_vertices != 8:  # the cube
            return v
        return replace(v, answer=Answer.NO if v.answer is Answer.YES else Answer.YES)
    monkeypatch.setattr(survey, "decide_inscribable", flipped)
    assert survey.main() == 1
    assert "re-check failed for cube" in capsys.readouterr().err


def test_corpus_survey_exits_nonzero_on_a_certificate_that_does_not_recheck(
        monkeypatch, capsys):
    # the cube's angle assignment with one weight changed breaks a face sum
    survey = load_script("corpus_survey")
    monkeypatch.setattr(survey, "CORPUS_NAMES", ["cube"])
    decide = hrs.decide_circumscribable

    def corrupted(m):
        v = decide(m)
        cert = v.certificates[0]
        weights = dict(cert.data["weights"])
        edge = min(weights)
        weights[edge] = "1/7" if weights[edge] != "1/7" else "1/5"
        bad = replace(cert, data={**cert.data, "weights": weights})
        return replace(v, certificates=(bad,))
    monkeypatch.setattr(survey, "decide_circumscribable", corrupted)
    assert survey.main() == 1
    assert "re-check failed for cube" in capsys.readouterr().err
