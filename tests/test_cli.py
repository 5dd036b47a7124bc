import argparse
import dataclasses
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import polyscribe
from polyscribe import cli, graphs, hrs, hull, maps
from polyscribe.cli import main
from polyscribe.caps import (ply_depth_sampling, random_visibility_system,
                             serialize_caps_json)
from polyscribe.corpus import CORPUS_NAMES, named_polytope, prism
from polyscribe.maps import serialize_map_json
from polyscribe.verdicts import CertKind


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


def test_analyze_rechecks_simple_polytope_certificates(mapfile, capsys, monkeypatch):
    # the cube is simple and bipartite with a 4-connected dual; classes that
    # do not cover its vertices are a certificate the re-check must refuse
    characterize = graphs.simple_polytope_characterization

    def corrupted(m, supertough):
        v = characterize(m, supertough)
        certs = tuple(
            dataclasses.replace(c, data={"class_a": [0], "class_b": [1]})
            if c.kind is CertKind.BIPARTITE_CLASSES else c for c in v.certificates)
        return dataclasses.replace(v, certificates=certs)
    f = mapfile("cube")
    rc, out = run(capsys, "analyze", f, "--json", "--verify-certificates")
    assert rc == 0 and json.loads(out)["certificates_verified"] is True
    monkeypatch.setattr(graphs, "simple_polytope_characterization", corrupted)
    rc, out = run(capsys, "analyze", f, "--json", "--verify-certificates")
    tests = {t["name"]: t for t in json.loads(out)["tests"]}
    certs = tests["simple-polytope characterization"]["certificates"]
    assert certs[0]["data"] == {"class_a": [0], "class_b": [1]}
    assert rc == 0 and json.loads(out)["certificates_verified"] is False


# Together their reports hold a certificate of every kind.
EVERY_KIND_MAPS = ("cube", "triakis-octahedron", "truncated-tetrahedron")


def test_analyze_rechecks_each_certificate_once(mapfile, capsys, monkeypatch):
    # the quadric test repeats the inscribability certificates and the
    # characterization repeats a supertoughness violation; each distinct
    # certificate is re-checked once, by the checker of its kind
    rechecked = []
    graph_check, angle_check = cli.recheck_certificate, hrs.verify_certificate

    def graph_counted(cert, g):
        rechecked.append(cert)
        return graph_check(cert, g)

    def angle_counted(m, cert):
        rechecked.append(cert)
        return angle_check(m, cert)
    monkeypatch.setattr(cli, "recheck_certificate", graph_counted)
    monkeypatch.setattr(hrs, "verify_certificate", angle_counted)
    kinds = set()
    for name in EVERY_KIND_MAPS:
        rechecked.clear()
        rc, out = run(capsys, "analyze", mapfile(name), "--json", "--verify-certificates")
        rep = json.loads(out)
        assert rc == 0 and rep["certificates_verified"] is True
        reported = [json.dumps(c, sort_keys=True)
                    for t in rep["tests"] for c in t["certificates"]]
        checked = [json.dumps(cli._cert_json(c), sort_keys=True) for c in rechecked]
        assert len(set(reported)) < len(reported), name
        assert sorted(checked) == sorted(set(reported)), name
        kinds |= {c.kind for c in rechecked}
    assert kinds == set(CertKind)


@pytest.mark.parametrize("decide", ["decide_inscribable", "decide_circumscribable"])
def test_analyze_refuses_a_corrupted_angle_assignment(mapfile, capsys, monkeypatch,
                                                      decide):
    # the cube is inscribable (angles on the dual, keyed by primal edges)
    # and circumscribable; one changed weight breaks a face sum
    original = getattr(hrs, decide)

    def corrupted(m):
        v = original(m)
        cert = v.certificates[0]
        weights = dict(cert.data["weights"])
        edge = min(weights)
        weights[edge] = "1/7" if weights[edge] != "1/7" else "1/5"
        bad = dataclasses.replace(cert, data={**cert.data, "weights": weights})
        return dataclasses.replace(v, certificates=(bad,))
    f = mapfile("cube")
    rc, out = run(capsys, "analyze", f, "--json", "--verify-certificates")
    assert rc == 0 and json.loads(out)["certificates_verified"] is True
    monkeypatch.setattr(hrs, decide, corrupted)
    rc, out = run(capsys, "analyze", f, "--json", "--verify-certificates")
    rep = json.loads(out)
    name = {"decide_inscribable": "inscribable (angle system on dual)",
            "decide_circumscribable": "circumscribable (angle system)"}[decide]
    cert = {t["name"]: t for t in rep["tests"]}[name]["certificates"][0]
    assert cert["kind"] == "AngleAssignment"
    assert cert["data"].get("on_dual", False) is (decide == "decide_inscribable")
    assert rc == 0 and rep["certificates_verified"] is False


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
    # simple-polytope characterization needs the supertoughness answer; one
    # cutset scan answers it and 1-toughness, and neither test runs again
    calls = []
    scan = graphs.toughness_scan

    def counted(m):
        calls.append(m)
        return scan(m)
    monkeypatch.setattr(graphs, "toughness_scan", counted)
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



def test_analyze_builds_one_graph_per_map(mapfile, capsys, monkeypatch):
    # every test and certificate re-check reads the one graph of the map or
    # of its dual
    built = []
    build = maps.Graph.from_edges

    def counted(n, edges):
        built.append(n)
        return build(n, edges)
    monkeypatch.setattr(maps.Graph, "from_edges", counted)
    for name in ("cube", "truncated-tetrahedron"):
        built.clear()
        rc, out = run(capsys, "analyze", mapfile(name), "--json", "--verify-certificates")
        assert rc == 0 and json.loads(out)["certificates_verified"] is True
        m = named_polytope(name)
        assert built == [m.n_vertices, m.n_faces]    # the map's, then its dual's

@pytest.mark.parametrize("name, test, cutset", [
    ("icosahedron", "connectivity", [0, 3, 5, 9, 10]),
    ("truncated-tetrahedron", "connectivity", [0, 1, 6]),
    ("prism-3", "connectivity", [0, 1, 5]),
    ("prism-8", "connectivity", [0, 6, 15]),
    ("prism-4", "simple-polytope characterization", [0, 1, 3, 5]),
])
def test_analyze_cutsets_follow_the_edge_order(mapfile, capsys, name, test, cutset):
    # the reported minimum cut depends on the neighbour order of graph(),
    # which follows the edges, so these cutsets pin the order of
    # CombinatorialMap.edges
    rc, out = run(capsys, "analyze", mapfile(name), "--json")
    found = [c["data"]["cutset"] for t in json.loads(out)["tests"] if t["name"] == test
             for c in t["certificates"] if c["kind"] == "ConnectivityWitness"]
    assert rc == 0 and found == [cutset]


# The reports record the map file's path as given, so these run in tmp_path
# on relative file names.
# sha256 of the stdout of `analyze NAME.json --json --verify-certificates`
# on each corpus map; every run exits 0.
ANALYZE_DIGESTS = {
    "tetrahedron": "8fb1b33f7c5082c3f34d83b2f503099bc6b71f6d02b2613bab3d4c42bd81bd5e",
    "cube": "32779d5ca2574b37cf07fce394e14a25c54e2b13c0873a28f61641ac4d4a7bdc",
    "octahedron": "2703a6d69beb5c15f1775294908bda7f35ebf54135bc2c4267902f32c03c1a1d",
    "icosahedron": "02e4c73af84d7302b088d63f61a57a0fc74cdd744a6777b0e8ce039320e2e139",
    "dodecahedron": "7f962822fb1b5763a0cbe128e8a94302c683b6dcb7e4a9661a0183850eaa4514",
    "triakis-tetrahedron": "e5fd479353f05b76ca119790bd50359d77c23a02726dd8314358455ddaf0f475",
    "triakis-octahedron": "09407785aaf73d5b7e83a25932947fd64247bb8ae9167243c6243a19ae45ae2c",
    "truncated-tetrahedron": "3eb758c512f086fc94171791037fc977c561a903c7004b7ba3f552ad3869a868",
    "rhombic-dodecahedron": "794dfdbfc83eeceb7162372fa59921f9f07a10e63bfcb83ced229de62fec5252",
    "cuboctahedron": "e2bbd9982da0caaadd7c04776d2e22a4ba4af0ec9a0d186aeab8a5680cc24a5c",
    "stacked-tetrahedron-1": "a54323fc944697c01e5791e3e2c9e6297ef89fc4808ae0d12c2be36084671de1",
    "stacked-tetrahedron-2": "3605215376336dca21e60b10260ec575a326224a9e5ab5c3a51e33fe50f4e3be",
    "stacked-tetrahedron-3": "b92afa1e33b89172a6b36dda9356f8982faee10232d737afe94b1c2437dbc91e",
    "stacked-cube-1": "5e26764c2223379c3717da203706e704feb375c89efd96ee746ffcf726a7a8a2",
    "prism-3": "dc9133726f5e23596625823db5407893d773e8b869b210675bf5a9340d06c37e",
    "prism-4": "47266e1a463306c6bc3c468c7a30eef8c5091095ad17da4899fe33f68bdfb381",
    "prism-5": "756f7c696db5d9078c21b2182c9036d9243c4a925f5f33ef0d5789146d27c8a3",
    "prism-6": "e216cbfe23974a9072541044128d8c2cdbb52475ac999b9e072f091c8f482b6a",
    "prism-7": "6a269b3c8510d316e66906d3d1ac78365d4ff8ac0578f05679e388fd8192952c",
    "prism-8": "7253117460c9fc927fe1f1398e40d20aa99b1cde95f42bcb70c5bf3be313b6be",
}

# sha256 of the stdout of `decide NAME.json --json --question Q`.
DECIDE_DIGESTS = {
    ("cube", "inscribable"): "7e5b0df3fd002c64369f6da6259682416beedb6e38aaa4c7340c3e991b96673a",
    ("cube", "circumscribable"): "acc8facea894f408596b112947e7baef40c2987d4334342071f14c06bc6fb696",
    ("cube", "hyperboloid"): "197ba1082949f62c5b6e149c8ff260ddeda93ecc4606e19b710bab4caf3f4f7f",
    ("cube", "cylinder"): "34e9ec1cce6c2613993d3ef174a4eb4c6bb3cddea518d5b11c8b5226fd7b91bc",
    ("triakis-tetrahedron", "inscribable"): "5f70defe49dfaea3689737b87c3a9ae1a8d00834a3f26185004642eff08a4391",
    ("triakis-tetrahedron", "circumscribable"): "a9ff5c74856f75f161ef14425c2b306288434b82692f32b782a2ded98cd27fc5",
    ("triakis-tetrahedron", "hyperboloid"): "870d8f0506f95ba5494df4a3ba3a4c78a733091acfbfd1c85be828457e1b4236",
    ("triakis-tetrahedron", "cylinder"): "97b94d838d21a02d830d0f51b9eb2cb4dc55186c8243c739907e4ea5955a8592",
    ("truncated-tetrahedron", "inscribable"): "07f4a04404e649b0496b960c3504e7ddf69abd952f8c21be6ecc65d8fbfcb3ae",
    ("truncated-tetrahedron", "circumscribable"): "45a7c54308bf4cc688154a468fbee08bddddd25a7ad91504005e6f60394f3292",
    ("truncated-tetrahedron", "hyperboloid"): "f5a6e1441b73e979fa5c9c31c7ac948635cf8df788eccc800e5587b83b8b5d09",
    ("truncated-tetrahedron", "cylinder"): "7615d18302954b569f016940c5d7953ec1b7898aa5abf511c15ba2c7602c9651",
    ("cuboctahedron", "inscribable"): "378052f4b17325d9b52e8930d9269fd4e60cb4237bfc16b5d4a6d17d9653fc85",
    ("cuboctahedron", "circumscribable"): "3afe1baeed3b854d188dd34d80f3be9962499bb3d90c14066b83b08144c982da",
    ("cuboctahedron", "hyperboloid"): "ccb4dd17e072eaa4d84c5a833776d10e0122cea9f11b5efa806a12633714bd0f",
    ("cuboctahedron", "cylinder"): "377edf43c6dac94799faf854b7855dd5d93f36fdbd8dc43c47d77228a54a1482",
}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_analyze_report_is_byte_identical(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    Path(f"{name}.json").write_text(serialize_map_json(named_polytope(name)))
    rc, out = run(capsys, "analyze", f"{name}.json", "--json", "--verify-certificates")
    assert rc == 0 and hashlib.sha256(out.encode()).hexdigest() == ANALYZE_DIGESTS[name]


@pytest.mark.parametrize("name, question", DECIDE_DIGESTS)
def test_decide_report_is_byte_identical(tmp_path, monkeypatch, capsys, name, question):
    monkeypatch.chdir(tmp_path)
    Path(f"{name}.json").write_text(serialize_map_json(named_polytope(name)))
    rc, out = run(capsys, "decide", f"{name}.json", "--json", "--question", question)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert rc == 0 and digest == DECIDE_DIGESTS[name, question]


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


def test_decide_rejects_pinched_faces(tmp_path, capsys, pinched_raw):
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps(pinched_raw))
    rc = main(["decide", str(path), "--question", "inscribable"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "not a single cycle" in captured.err


def test_generate_check_scribe_pipeline(tmp_path, capsys):
    pts = tmp_path / "c6.json"
    rc, _ = run(capsys, "generate", "--family", "cyclic-trig", "--n", "6",
                "--d", "4", "-o", str(pts))
    assert rc == 0
    rc, out = run(capsys, "check", str(pts), "--json")
    assert rc == 0 and json.loads(out)["status"] == "PASS"
    rc, out = run(capsys, "scribe", str(pts), "--k", "0", "--json")
    assert rc == 0 and json.loads(out)["holds"] is True


ASK_ALL = """
import contextlib, io, json, sys
from polyscribe.cli import main
answers = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    answers.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps({"answers": answers, "networkx": "networkx" in sys.modules}))
"""


def test_no_cli_command_imports_networkx(tmp_path, capsys):
    # every command, in one fresh process, answers as it does here, where
    # the tests have loaded networkx, and leaves networkx unloaded
    d = str(tmp_path)
    (tmp_path / "caps.json").write_text(serialize_caps_json(random_visibility_system(6, seed=1)))
    commands = [["generate", "--family", "cyclic-trig", "--n", "6", "--d", "4",
                 "-o", d + "/c6.json"],
                ["generate", "--family", "cube", "-o", d + "/cube.json"],
                ["check", d + "/c6.json", "--json"],
                ["scribe", d + "/c6.json", "--k", "0", "--json"],
                ["analyze", d + "/cube.json", "--json", "--verify-certificates"]]
    commands += [["decide", d + "/cube.json", "--question", q, "--json"]
                 for q in ("inscribable", "circumscribable", "hyperboloid", "cylinder")]
    commands += [["caps", d + "/caps.json", "--ply", "exact", "--json"],
                 ["separator", d + "/caps.json", "--trials", "20", "--json"]]
    want = []
    for argv in commands:
        rc = main(argv)
        captured = capsys.readouterr()
        want.append([rc, captured.out, captured.err])
    assert [rc for rc, _, _ in want] == [0] * len(commands)
    src = Path(polyscribe.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", ASK_ALL, json.dumps(commands)],
                         capture_output=True, text=True, timeout=120, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert json.loads(out.stdout) == {"answers": want, "networkx": False}
    assert out.stderr == ""


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


@pytest.mark.parametrize("argv, message", [
    (["generate", "--family", "cube", "--n", "5"], "--family cube does not read --n"),
    (["generate", "--family", "cube", "--n", "5", "--d", "9", "--params", "1", "2"],
     "--family cube does not read --n"),
    # the check comes before the parameters are parsed
    (["generate", "--family", "cube", "--params", "x"], "--family cube does not read --params"),
    (["generate", "--family", "cyclic-trig", "--n", "6", "--d", "4", "--coordinates"],
     "--family cyclic-trig does not read --coordinates"),
    (["generate", "--family", "stacked"], "unknown family 'stacked'"),
    (["generate", "--family", "stacked-tetrahedron-2", "--depth", "2"],
     "unrecognized arguments: --depth 2"),
    (["scribe", "{c6}", "--k", "0", "--i", "0", "--j", "1"], "scribe --k takes no --i or --j"),
    (["scribe", "{c6}", "--k", "3", "--j", "3"], "scribe --k takes no --i or --j"),
    (["scribe", "{c6}", "--i", "0"], "scribe needs --k or both --i and --j"),
])
def test_flags_a_family_or_query_does_not_read_are_errors(tmp_path, capsys, argv, message):
    c6 = tmp_path / "c6.json"
    assert run(capsys, "generate", "--family", "cyclic-trig", "--n", "6", "--d", "4",
               "-o", str(c6))[0] == 0
    rc = main([a.format(c6=c6) for a in argv])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == "" and captured.err.startswith("error:")
    assert message in captured.err


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
    rc2, out2 = run(capsys, "separator", str(capsfile), "--seed", "3",
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
    '{"dimension": 3, "caps": [{"axis": ["1", "0", "0"]}]}',
    '{"dimension": 3, "caps": [{"axis": ["1", "0", "0"], "cos_radius": "1/2", '
    '"offset": "7"}]}',
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
    # flags that would do nothing
    ["caps", "{caps}", "--from-points", "{points}"],
    ["caps", "--from-points", "{points}", "--ply", "exact"],
    ["caps", "--from-points", "{points}", "--ply", "sampling"],
    ["caps", "--from-points", "{points}", "--samples", "100"],
    ["caps", "{caps}", "--samples", "100"],
    ["caps", "{caps}", "--ply", "exact", "--samples", "100"],
    ["caps", "{caps}", "--ply", "exact", "-o", "{out}"],
    ["caps", "{caps}", "--ply", "exact", "--seed", "1"],
    ["caps", "--from-points", "{points}", "--seed", "1"],
    ["generate", "--family", "cyclic-trig", "--n", "6", "--d", "4", "--params", "0", "1", "2"],
])
def test_bad_arguments_and_unwritable_outputs_fail_cleanly(tmp_path, capsys, argv):
    points = tmp_path / "points.json"
    points.write_text("{" + TETRA_POINTS + "}")
    capsfile = tmp_path / "caps.json"
    capsfile.write_text(serialize_caps_json(random_visibility_system(4, seed=1)))
    missing = tmp_path / "no-such-dir" / "out.json"
    out = tmp_path / "out.json"
    rc = main([a.format(points=points, caps=capsfile, missing=missing, out=out)
               for a in argv])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err.startswith("error:") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["decide", "{map}", "--question", "bogus"],
    ["analyze"],
    # each flag is declared only on the subcommands that read it
    ["analyze", "{map}", "--seed", "1"],
    ["--seed", "1", "analyze", "{map}"],
    ["decide", "{map}", "--question", "inscribable", "--budget-subsets", "5"],
])
def test_usage_errors_exit_one(mapfile, capsys, argv):
    # argparse's own exit code 2 is the code that means UNKNOWN
    f = mapfile("tetrahedron")
    rc = main([a.format(map=f) for a in argv])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err.startswith("error:") and captured.out == ""


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--help"])
    assert exc.value.code == 0 and "--question" in capsys.readouterr().out


def test_main_builds_one_parser(mapfile, capsys, monkeypatch):
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    f = mapfile("tetrahedron")
    assert run(capsys, "decide", f, "--question", "inscribable")[0] == 0
    assert run(capsys, "decide", f, "--question", "circumscribable")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_sampling_rejects_fewer_than_one_sample(tmp_path, capsys, samples):
    capsfile = tmp_path / "caps.json"
    capsfile.write_text(serialize_caps_json(random_visibility_system(4, seed=1)))
    rc = main(["caps", str(capsfile), "--ply", "sampling", "--samples", samples])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err.startswith("error:")


def test_sampling_defaults_to_20000_samples(tmp_path, capsys):
    cs = random_visibility_system(4, seed=1)
    capsfile = tmp_path / "caps.json"
    capsfile.write_text(serialize_caps_json(cs))
    rc, out = run(capsys, "caps", str(capsfile), "--ply", "sampling", "--seed", "2",
                  "--json")
    ply = json.loads(out)["ply"]
    assert rc == 0 and (ply["depth"], ply["witness"]) == ply_depth_sampling(cs, 20000, 2)


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


def test_scribe_with_equal_ranks_walks_them_once(tmp_path, capsys):
    # --i 1 --j 1 asks each edge of C_4(6) to avoid and cut: its 15 edges
    # are listed once each, and the answer needs both keys of every edge
    pts = tmp_path / "c6.json"
    assert run(capsys, "generate", "--family", "cyclic-trig", "--n", "6",
               "--d", "4", "-o", str(pts))[0] == 0
    rc, out = run(capsys, "scribe", str(pts), "--i", "1", "--j", "1", "--json")
    rep = json.loads(out)
    faces = [tuple(st["face"]) for st in rep["faces"]]
    assert rc == 0 and len(faces) == len(set(faces)) == 15
    assert rep["holds"] is all(st["avoids"] and st["cuts"] for st in rep["faces"])
    rc, out = run(capsys, "scribe", str(pts), "--i", "1", "--j", "1")
    assert rc == 0 and len(out.splitlines()) == 1 + 15


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


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("polyscribe ")]


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # every polyscribe line of the README's command-line block, in order
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 14
    for argv in commands:
        rc = main(argv)
        assert rc == 0, (argv, capsys.readouterr().err)
