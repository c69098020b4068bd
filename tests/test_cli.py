from __future__ import annotations

import hashlib
import json

import pytest

from clustertree.cli import dispatch

# sha256 of CLI outputs for fixed seeds. A refactor must leave them
# identical byte for byte; a change that alters one on purpose updates
# the digest and says why in CHANGES.md.
GOLDEN = {
    "pipeline-1-4": "078281dd7f5731444475b24039248946b507cd96c6e29ad6528f7628c3ca6cbe",
    "pipeline-1-4-map": "47104c868a0a0988008d4e1ebc35b3460f51bbae78f8b3a0affce5bb02cab6ef",
    "verify-iso-pipeline-1-4": "dd1c66efb0a6831b144bfd51a2d3419a2cb14f8624bc8a4b6871949fd88289f7",
    "build-1-4": "0f091a7d403ed391c5a5fcaf546a0268b67a47732964d254e9be028971116415",
    "build-1-4-double": "29afbd787381d6168d4fb1a57c45b331e5957ee68cfc1a63b81bcca79ba434c8",
    "simulate-skip-local-max-vc": "6ba9b3433757236a0345cd0e224bc7490765905a1c825d7da24b6757db2fbb08",
    "simulate-tape-greedy-mm-mm": "29055b80958972ade82f9f34b5cd1714568bda8268f10b6656eb4492e1a40421",
}


def run(args):
    return dispatch(args)


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_predict_prints_sizes(capsys):
    assert run(["predict", "--k", "1", "--beta", "4"]) == 0
    out = capsys.readouterr().out
    assert "n_0=64" in out and "n=100" in out and "max_degree=16" in out


def test_predict_rejects_small_beta(capsys):
    assert run(["predict", "--k", "1", "--beta", "3"]) == 2


def test_skeleton_command(tmp_path):
    out = tmp_path / "ct2.json"
    dot = tmp_path / "ct2.dot"
    assert run(
        ["skeleton", "--k", "2", "--beta", "6", "--out", str(out), "--dot", str(dot)]
    ) == 0
    doc = json.loads(out.read_text())
    assert len(doc["clusters"]) == 10
    assert dot.read_text().startswith("graph skeleton")


def test_build_and_verify_iso(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    assert run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)]) == 0
    report = tmp_path / "iso.json"
    code = run(
        [
            "verify-iso",
            "--graph", str(gpath),
            "--k", "1",
            "--all-pairs-sample", "4",
            "--seed", "1",
            "--report", str(report),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["success"] is True
    assert doc["pairs"] == 4


def test_build_double(tmp_path):
    gpath = tmp_path / "d.json"
    assert run(
        ["build", "--k", "1", "--beta", "4", "--double", "--out", str(gpath)]
    ) == 0
    doc = json.loads(gpath.read_text())
    assert doc["n"] == 200
    assert doc["meta"]["stage"] == "double"


def test_simulate_writes_report(tmp_path):
    gpath = tmp_path / "g.json"
    run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)])
    rpath = tmp_path / "sim.json"
    code = run(
        [
            "simulate",
            "--graph", str(gpath),
            "--k", "1",
            "--alg", "skip-local-max",
            "--kind", "vc",
            "--trials", "3",
            "--seed", "7",
            "--report", str(rpath),
        ]
    )
    assert code == 0
    doc = json.loads(rpath.read_text())
    assert doc["trials"] == 3
    assert doc["all_valid"] is True
    assert "environment" in doc


def test_simulate_unknown_algorithm(tmp_path):
    gpath = tmp_path / "g.json"
    run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)])
    assert run(
        [
            "simulate",
            "--graph", str(gpath),
            "--k", "1",
            "--alg", "nope",
            "--kind", "vc",
            "--trials", "1",
        ]
    ) == 2


def test_lift_ops(tmp_path):
    hg = tmp_path / "hg.json"
    assert run(
        [
            "lift", "--op", "high-girth-regular",
            "--delta", "3", "--girth", "5", "--m", "30",
            "--out", str(hg),
        ]
    ) == 0
    assert json.loads(hg.read_text())["n"] == 60

    dc = tmp_path / "dc.json"
    assert run(
        ["lift", "--op", "double-cover", "--graph", str(hg), "--out", str(dc),
         "--map-out", str(tmp_path / "chi.json")]
    ) == 0
    assert json.loads(dc.read_text())["n"] == 120

    # the double cover is regular bipartite, so it decomposes
    md = tmp_path / "m.json"
    assert run(
        ["lift", "--op", "matching-decomposition", "--graph", str(dc), "--out", str(md)]
    ) == 0
    matchings = json.loads(md.read_text())
    assert len(matchings) == 3
    assert all(len(m) == 60 for m in matchings)

    sg = tmp_path / "sg.json"
    assert run(
        ["lift", "--op", "supergraph", "--graph", str(hg), "--out", str(sg)]
    ) == 0

    lifted = tmp_path / "lifted.json"
    assert run(
        [
            "lift", "--op", "common-lift",
            "--graph", str(hg), "--graph2", str(dc),
            "--out", str(lifted), "--map-out", str(tmp_path / "p1.json"),
        ]
    ) == 0


def test_pipeline_then_verify_iso_end_to_end(tmp_path):
    lifted = tmp_path / "g1.json"
    assert run(
        ["lift", "--op", "pipeline", "--k", "1", "--beta", "4",
         "--out", str(lifted), "--map-out", str(tmp_path / "phi.json")]
    ) == 0
    report = tmp_path / "iso.json"
    code = run(
        [
            "verify-iso",
            "--graph", str(lifted),
            "--k", "1",
            "--all-pairs-sample", "10",
            "--seed", "3",
            "--report", str(report),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["success"] is True and doc["pairs"] == 10
    phi = json.loads((tmp_path / "phi.json").read_text())["map"]
    assert len(phi) == json.loads(lifted.read_text())["n"]
    assert sha256_of(lifted) == GOLDEN["pipeline-1-4"]
    assert sha256_of(tmp_path / "phi.json") == GOLDEN["pipeline-1-4-map"]
    assert sha256_of(report) == GOLDEN["verify-iso-pipeline-1-4"]


def test_build_and_simulate_match_golden_digests(tmp_path):
    gpath = tmp_path / "g.json"
    dpath = tmp_path / "d.json"
    assert run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)]) == 0
    assert run(
        ["build", "--k", "1", "--beta", "4", "--double", "--out", str(dpath)]
    ) == 0
    assert sha256_of(gpath) == GOLDEN["build-1-4"]
    assert sha256_of(dpath) == GOLDEN["build-1-4-double"]
    # one round is too few for tape-greedy-mm to reach a maximal matching
    # in every trial, so that run exits 1
    for alg, kind, code in (
        ("skip-local-max", "vc", 0),
        ("tape-greedy-mm", "mm", 1),
    ):
        rpath = tmp_path / f"{alg}.json"
        assert run(
            [
                "simulate",
                "--graph", str(gpath),
                "--k", "1",
                "--alg", alg,
                "--kind", kind,
                "--trials", "50",
                "--seed", "0",
                "--report", str(rpath),
            ]
        ) == code
        doc = json.loads(rpath.read_text())
        doc.pop("environment")  # interpreter, platform and input path
        digest = hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()
        assert digest == GOLDEN[f"simulate-{alg}-{kind}"]


def test_lift_pipeline_cap_failure(tmp_path, capsys):
    code = run(
        ["lift", "--op", "pipeline", "--k", "2", "--beta", "6",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 1
    assert "exceeds cap" in capsys.readouterr().err


def test_export_dot(tmp_path):
    gpath = tmp_path / "g.json"
    run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)])
    dpath = tmp_path / "g.dot"
    assert run(["export-dot", "--graph", str(gpath), "--out", str(dpath)]) == 0
    assert "subgraph cluster_0" in dpath.read_text()


def test_export_dot_doubled_graph(tmp_path):
    gpath = tmp_path / "d.json"
    run(["build", "--k", "1", "--beta", "4", "--double", "--out", str(gpath)])
    dpath = tmp_path / "d.dot"
    assert run(["export-dot", "--graph", str(gpath), "--out", str(dpath)]) == 0
    text = dpath.read_text()
    # mirror clusters of the copy are rendered as their own groups
    assert "subgraph cluster_4" in text and "subgraph cluster_7" in text


def test_simulate_parallel_jobs(tmp_path):
    gpath = tmp_path / "g.json"
    run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)])
    reports = []
    for jobs in ("1", "2"):
        rpath = tmp_path / f"sim{jobs}.json"
        code = run(
            [
                "simulate",
                "--graph", str(gpath),
                "--k", "1",
                "--alg", "always-select",
                "--kind", "vc",
                "--trials", "4",
                "--seed", "2",
                "--jobs", jobs,
                "--report", str(rpath),
            ]
        )
        assert code == 0
        doc = json.loads(rpath.read_text())
        doc.pop("environment")
        reports.append(doc)
    assert reports[0] == reports[1]


def test_verify_iso_rejects_doubled_graphs(tmp_path, capsys):
    gpath = tmp_path / "d.json"
    run(["build", "--k", "1", "--beta", "4", "--double", "--out", str(gpath)])
    code = run(
        ["verify-iso", "--graph", str(gpath), "--k", "1", "--v0", "0", "--v1", "64"]
    )
    assert code == 1
    assert "skeleton" in capsys.readouterr().err


def test_unknown_command_exits_2():
    assert run(["frobnicate"]) == 2


def test_missing_required_flag_exits_2():
    assert run(["skeleton", "--k", "1"]) == 2


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _with_edge(doc, entry):
    return {**doc, "edges": doc["edges"] + [entry]}


@pytest.mark.parametrize(
    "command, edit, extra, code",
    [
        ("verify-iso", lambda d: _without(d, "n"), [], 2),
        ("simulate", lambda d: _without(d, "n"), [], 2),
        ("verify-iso", lambda d: [d], [], 2),
        ("simulate", lambda d: [d], [], 2),
        ("verify-iso", lambda d: {**d, "meta": _without(d["meta"], "beta")}, [], 1),
        ("verify-iso", lambda d: {**d, "clusters": d["clusters"][:50]}, [], 2),
        ("verify-iso", lambda d: d, ["--v0", "100000", "--v1", "64"], 2),
        ("export-dot", lambda d: {**d, "meta": {**d["meta"], "k": [1]}}, [], 1),
        ("export-dot --skeleton", lambda d: {"k": 1}, [], 2),
        ("verify-iso", lambda d: _with_edge(d, d["edges"][0]), [], 2),
        ("verify-iso", lambda d: _with_edge(d, [0, 1.5]), [], 2),
        ("verify-iso", lambda d: _with_edge(d, [0, True]), [], 2),
        ("verify-iso", lambda d: _with_edge(d, [0, 1, 2]), [], 2),
        ("verify-iso", lambda d: _with_edge(d, 5), [], 2),
    ],
    ids=[
        "verify-iso-missing-n",
        "simulate-missing-n",
        "verify-iso-array",
        "simulate-array",
        "verify-iso-missing-beta",
        "verify-iso-short-clusters",
        "verify-iso-v0-out-of-range",
        "export-dot-k-not-an-int",
        "export-dot-skeleton-missing-beta",
        "verify-iso-duplicate-edge",
        "verify-iso-float-endpoint",
        "verify-iso-boolean-endpoint",
        "verify-iso-edge-of-three",
        "verify-iso-bare-int-edge",
    ],
)
def test_malformed_input_ends_in_one_line_error(
    tmp_path, capsys, command, edit, extra, code
):
    gpath = tmp_path / "g.json"
    assert run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(gpath.read_text()))))
    capsys.readouterr()
    args = {
        "verify-iso": ["--k", "1", "--all-pairs-sample", "2"],
        "simulate": ["--k", "1", "--alg", "skip-local-max", "--kind", "vc",
                     "--trials", "2"],
        "export-dot": ["--out", str(tmp_path / "out.dot")],
    }
    # a command may name its input flag after a space; --graph otherwise
    command, _, flag = command.partition(" ")
    assert run([command, flag or "--graph", str(bad), *args[command], *extra]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: " if code == 1 else "usage error: ")
