import json

import pytest

from polyscribe import graphs, hrs, hull, maps
from polyscribe.cli import main
from polyscribe.caps import random_visibility_system, serialize_caps_json
from polyscribe.corpus import named_polytope, prism
from polyscribe.maps import serialize_map_json


@pytest.fixture
def mapfile(tmp_path):
    def write(name):
        p = tmp_path / f"{name}.json"
        p.write_text(serialize_map_json(named_polytope(name)))
        return str(p)
    return write


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_analyze_json_deterministic(mapfile, capsys):
    f = mapfile("triakis-tetrahedron")
    rc1, out1 = run(capsys, "analyze", f, "--json")
    rc2, out2 = run(capsys, "--json", "analyze", f)
    assert rc1 == rc2 == 0
    assert out1 == out2          # timing excluded, output is byte-stable
    rep = json.loads(out1)
    assert rep["verdicts"]["inscribable"] == "NO"
    assert rep["verdicts"]["circumscribable"] == "YES"


def test_analyze_verify_certificates(mapfile, capsys):
    rc, out = run(capsys, "analyze", mapfile("cube"), "--json",
                  "--verify-certificates")
    rep = json.loads(out)
    assert rc == 0 and rep["certificates_verified"] is True


def test_analyze_decides_inscribability_once(mapfile, capsys, monkeypatch):
    calls = []
    decide = hrs.decide_inscribable

    def counted(m):
        calls.append(m)
        return decide(m)
    monkeypatch.setattr(hrs, "decide_inscribable", counted)
    rc, out = run(capsys, "analyze", mapfile("cube"), "--json")
    assert rc == 0 and json.loads(out)["verdicts"]["hyperboloid"] == "YES"
    assert len(calls) == 1


def test_analyze_decides_supertoughness_once(mapfile, capsys, monkeypatch):
    # the truncated tetrahedron is simple and not bipartite, so the
    # simple-polytope characterization needs the supertoughness answer
    calls = []
    supertough = graphs.is_one_supertough

    def counted(g, budget):
        calls.append(g)
        return supertough(g, budget)
    monkeypatch.setattr(graphs, "is_one_supertough", counted)
    rc, out = run(capsys, "analyze", mapfile("truncated-tetrahedron"), "--json")
    assert rc == 0 and len(calls) == 1
    outcomes = {t["name"]: t["outcome"] for t in json.loads(out)["tests"]}
    assert outcomes["1-supertough"] == "PASS"
    assert outcomes["simple-polytope characterization"] == "YES"


def test_analyze_builds_one_dual(mapfile, capsys, monkeypatch):
    # the paint test, the simple-polytope characterization, the
    # inscribability decision and the certificate re-checks share one dual
    files = [mapfile("cube"), mapfile("truncated-tetrahedron")]
    calls = []
    build = maps._build_dual

    def counted(m):
        calls.append(m)
        return build(m)
    monkeypatch.setattr(maps, "_build_dual", counted)
    for f in files:
        rc, out = run(capsys, "analyze", f, "--json", "--verify-certificates")
        assert rc == 0 and json.loads(out)["certificates_verified"] is True
    # each run parses its own map and builds its own dual
    assert len(calls) == 2


def test_analyze_prism_15_toughness_unknown(tmp_path, capsys):
    # 30 vertices exceed the toughness budget of 22: those tests answer
    # UNKNOWN (exit 2) instead of enumerating subsets for minutes
    f = tmp_path / "prism15.json"
    f.write_text(serialize_map_json(prism(15)))
    rc, out = run(capsys, "analyze", str(f), "--json")
    rep = json.loads(out)
    outcomes = {t["name"]: t["outcome"] for t in rep["tests"]}
    assert rc == 2
    assert outcomes["1-tough"] == outcomes["1-supertough"] == "UNKNOWN"
    assert rep["budgets"]["toughness"] == 22
    assert rep["verdicts"]["inscribable"] == rep["verdicts"]["circumscribable"] == "YES"


def test_decide_exit_codes(mapfile, capsys, tmp_path):
    rc, out = run(capsys, "decide", mapfile("cube"), "--question", "inscribable")
    assert rc == 0 and "YES" in out
    rc, out = run(capsys, "decide", mapfile("rhombic-dodecahedron"),
                  "--question", "hyperboloid", "--json")
    assert rc == 0 and json.loads(out)["answer"] == "NO"
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["decide", str(bad), "--question", "inscribable"]) == 1
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1


def test_generate_check_scribe_pipeline(tmp_path, capsys):
    pts = tmp_path / "c6.json"
    rc, _ = run(capsys, "generate", "--family", "cyclic-trig", "--n", "6",
                "--d", "4", "-o", str(pts))
    assert rc == 0
    rc, out = run(capsys, "check", str(pts), "--json")
    assert rc == 0 and json.loads(out)["status"] == "PASS"
    rc, out = run(capsys, "scribe", str(pts), "--k", "0", "--json")
    assert rc == 0 and json.loads(out)["holds"] is True


def test_generate_named_coordinates_roundtrip(tmp_path, capsys):
    pts = tmp_path / "cube.json"
    mp = tmp_path / "cube-map.json"
    assert run(capsys, "generate", "--family", "cube", "--coordinates",
               "-o", str(pts))[0] == 0
    assert run(capsys, "generate", "--family", "cube", "-o", str(mp))[0] == 0
    rc, out = run(capsys, "check", str(pts), "--map", str(mp), "--json")
    res = json.loads(out)["results"]
    assert rc == 0 and res["on_sphere"] and res["map_facets_match"]


def test_check_with_map_enumerates_facets_once(tmp_path, capsys, monkeypatch):
    pts = tmp_path / "cube.json"
    mp = tmp_path / "cube-map.json"
    assert run(capsys, "generate", "--family", "cube", "--coordinates",
               "-o", str(pts))[0] == 0
    assert run(capsys, "generate", "--family", "cube", "-o", str(mp))[0] == 0
    calls = []
    enumerate_facets = hull.enumerate_facets

    def counted(pc):
        calls.append(pc)
        return enumerate_facets(pc)
    monkeypatch.setattr(hull, "enumerate_facets", counted)
    rc, out = run(capsys, "check", str(pts), "--map", str(mp), "--json")
    res = json.loads(out)["results"]
    assert rc == 0 and res["claimed_facets_match"] and res["map_facets_match"]
    assert len(calls) == 1


def test_generate_unknown_family(capsys):
    assert main(["generate", "--family", "nonexistent-solid"]) == 1


def test_caps_and_separator(tmp_path, capsys):
    pts = tmp_path / "octa.json"
    capsfile = tmp_path / "caps.json"
    assert run(capsys, "generate", "--family", "octahedron", "--coordinates",
               "-o", str(pts))[0] == 0
    # octahedron vertices lie ON the unit sphere; scale by 2 so every vertex
    # is exterior and defines a visibility cap
    from fractions import Fraction

    from polyscribe.points import (PointConfiguration, parse_points_json,
                                   serialize_points_json)
    pc = parse_points_json(pts.read_text())
    scaled = tuple(tuple(2 * Fraction(c) for c in p) for p in pc.points)
    pts.write_text(serialize_points_json(PointConfiguration(3, scaled)))
    assert run(capsys, "caps", "--from-points", str(pts),
               "-o", str(capsfile))[0] == 0
    rc, out = run(capsys, "caps", str(capsfile), "--ply", "exact", "--json")
    assert rc == 0 and json.loads(out)["ply"]["depth"] == 3
    rc1, out1 = run(capsys, "separator", str(capsfile), "--trials", "20",
                    "--seed", "3", "--json")
    rc2, out2 = run(capsys, "--seed", "3", "separator", str(capsfile),
                    "--trials", "20", "--json")
    assert rc1 == rc2 == 0 and out1 == out2
    rc3, out3 = run(capsys, "separator", str(capsfile), "--trials", "20",
                    "--seed", "4", "--json")
    assert json.loads(out3)["hit_counts"] != json.loads(out1)["hit_counts"]


def test_separator_rejects_zero_trials(tmp_path, capsys):
    capsfile = tmp_path / "caps.json"
    capsfile.write_text(serialize_caps_json(random_visibility_system(4, seed=1)))
    rc = main(["separator", str(capsfile), "--trials", "0"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err.startswith("error:")


@pytest.mark.parametrize("text", [
    '{"dimension": 3, "caps": [{"cos_radius": "1/2"}]}',
    '{"dimension": 3, "caps": [{"axis": "1", "cos_radius": "1/2"}]}',
    '{"dimension": 3, "caps": [5]}',
    '{"dimension": 3, "caps": 5}',
    '{"dimension": 0, "caps": []}',
    '{"dimension": -2, "caps": []}',
    '{"dimension": "3", "caps": []}',
    '{"dimension": 2.5, "caps": []}',
    '{"dimension": true, "caps": []}',
])
@pytest.mark.parametrize("command", ["caps", "separator"])
def test_malformed_cap_files_fail_cleanly(tmp_path, capsys, text, command):
    capsfile = tmp_path / "caps.json"
    capsfile.write_text(text)
    rc = main([command, str(capsfile)])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err.startswith("error:")


TETRA_POINTS = ('"dimension": 3, "coordinates": [["1", "1", "1"], ["1", "-1", "-1"], '
                '["-1", "1", "-1"], ["-1", "-1", "1"]]')


@pytest.mark.parametrize("command, text", [
    (command, "{" + TETRA_POINTS + extra + "}") for command in ("check", "scribe")
    for extra in (', "sphere": {"center": ["0", "0", "0"]}',
                  ', "sphere": 3',
                  ', "faces": [["x", 1, 2]]',
                  ', "faces": 7',
                  ', "faces": [5]')
] + [
    ("check", '{"dimension": 3, "coordinates": 5}'),
    ("check", '{"dimension": 3, "coordinates": [5]}'),
    ("check", '{"dimension": "3", "coordinates": []}'),
    ("analyze", '{"vertices": 4, "faces": 5}'),
    ("analyze", '{"vertices": 4, "faces": [5, [0, 1, 3], [0, 2, 3], [1, 2, 3]]}'),
    ("analyze", '{"vertices": 4, "faces": [[[0], 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}'),
    ("analyze", '{"vertices": 4, "faces": [[0, true, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}'),
    ("analyze", '{"vertices": 4, "faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], '
                '"edges": 5}'),
    ("analyze", '{"vertices": 4, "faces": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], '
                '"edges": [["x", 1]]}'),
])
def test_malformed_point_and_map_files_fail_cleanly(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    argv = [command, str(path)] + (["--k", "0"] if command == "scribe" else [])
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["caps"],
    ["generate", "--family", "cube", "-o", "{missing}"],
    ["caps", "--from-points", "{points}", "-o", "{missing}"],
    ["generate", "--family", "cyclic-trig", "--n", "6", "--d", "4", "--params", "0", "1", "2"],
])
def test_bad_arguments_and_unwritable_outputs_fail_cleanly(tmp_path, capsys, argv):
    points = tmp_path / "points.json"
    points.write_text("{" + TETRA_POINTS + "}")
    missing = tmp_path / "no-such-dir" / "out.json"
    rc = main([a.format(points=points, missing=missing) for a in argv])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_sampling_rejects_fewer_than_one_sample(tmp_path, capsys, samples):
    capsfile = tmp_path / "caps.json"
    capsfile.write_text(serialize_caps_json(random_visibility_system(4, seed=1)))
    rc = main(["caps", str(capsfile), "--ply", "sampling", "--samples", samples])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err.startswith("error:")


def test_scribe_facets_of_cyclic_polytope(tmp_path, capsys):
    # the default C_4(6) has facets whose supporting hyperplanes all have
    # the center on the far side: every facet cuts and none avoids
    pts = tmp_path / "c6.json"
    assert run(capsys, "generate", "--family", "cyclic-trig", "--n", "6",
               "--d", "4", "-o", str(pts))[0] == 0
    rc, out = run(capsys, "scribe", str(pts), "--k", "3", "--json")
    rep = json.loads(out)
    assert rc == 0 and rep["holds"] is False and len(rep["faces"]) == 9
    for face in rep["faces"]:
        assert (face["cuts"], face["avoids"], face["tangent"]) == (True, False, False)


def test_budget_exhaustion_exits_two(tmp_path, capsys):
    # C_4(13) is past the facet-enumeration limit of 12 points: scribe, and
    # check with claimed facets, answer UNKNOWN with exit 2, not an error
    from itertools import combinations

    from polyscribe.points import (PointConfiguration, parse_points_json,
                                   serialize_points_json)
    pts = tmp_path / "c13.json"
    assert run(capsys, "generate", "--family", "cyclic-trig", "--n", "13",
               "--d", "4", "-o", str(pts))[0] == 0
    rc = main(["scribe", str(pts), "--k", "0", "--json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("unknown: facet enumeration: needs n=13, d=4, "
                            "budget n<=12, d<=7\n")

    def gale_even(s):
        out = [i for i in range(13) if i not in s]
        return all(sum(1 for x in s if a < x < b) % 2 == 0
                   for a, b in combinations(out, 2))
    pc = parse_points_json(pts.read_text())
    facets = tuple(frozenset(s) for s in combinations(range(13), 4) if gale_even(s))
    pts.write_text(serialize_points_json(
        PointConfiguration(4, pc.points, pc.sphere, facets)))
    rc = main(["check", str(pts), "--json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.err.startswith("unknown: facet enumeration")
