from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc

import pytest

from clustertree import cli, iso, lifts, localsim
from clustertree.cli import dispatch
from clustertree.errors import PairingFailureError
from clustertree.graph import Graph, write_graph_json

from conftest import child_env, limit_memory

# sha256 of CLI outputs for fixed seeds. A refactor must leave them
# identical byte for byte; a change that alters one on purpose updates
# the digest and says why in CHANGES.md.
GOLDEN = {
    "pipeline-1-4": "0b4327e572bfabbb122d6b175c1e1b6b59a281245443de9b07ee5119c3bbddc6",
    "pipeline-1-4-map": "47104c868a0a0988008d4e1ebc35b3460f51bbae78f8b3a0affce5bb02cab6ef",
    "verify-iso-pipeline-1-4": "dd1c66efb0a6831b144bfd51a2d3419a2cb14f8624bc8a4b6871949fd88289f7",
    "build-1-4": "0f091a7d403ed391c5a5fcaf546a0268b67a47732964d254e9be028971116415",
    "build-1-4-double": "29afbd787381d6168d4fb1a57c45b331e5957ee68cfc1a63b81bcca79ba434c8",
    "simulate-skip-local-max-vc": "6ba9b3433757236a0345cd0e224bc7490765905a1c825d7da24b6757db2fbb08",
    "simulate-tape-greedy-mm-mm": "29055b80958972ade82f9f34b5cd1714568bda8268f10b6656eb4492e1a40421",
    "simulate-greedy-view-vc-vc": "6c33042c41ae0ec2a3c67fd2d712d1b39c42dbadd1b7057c404038419060acca",
    "common-lift": "b3df67eb1d39f7c8438cf7b388273f6bc1ac107819dff42f0489559b1a3de7b6",
    "common-lift-map1": "1720f5791ce5dadb6a783a1f12a12c874c10b16b6595b7d513d7196be1f5b293",
    "common-lift-map2": "8ad9121ac8a90db5e903392124c34c67eebba7b3a1aceb7cf743a761dbe0a066",
}


def run(args):
    return dispatch(args)


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_predict_prints_sizes(capsys):
    assert run(["predict", "--k", "1", "--beta", "4"]) == 0
    out = capsys.readouterr().out
    assert "n_0=64" in out and "n=100" in out and "max_degree=16" in out


def test_predict_json_pins_every_key(capsys):
    assert run(["predict", "--k", "1", "--beta", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "k": 1,
        "beta": 4,
        "n0": 64,
        "n": 100,
        "max_degree": 16,
        "level_sizes": [64, 16, 4],
        "cluster_counts": [1, 2, 1],
        "total_bound_ok": True,
        "excess_bound_ok": True,
    }


def test_predict_rejects_small_beta(capsys):
    assert run(["predict", "--k", "1", "--beta", "3"]) == 2


def test_predict_prints_values_past_the_digit_limit(capsys):
    # n_0 = 1402^1401 has about 4,400 digits, past the interpreter's
    # default int-to-str limit of 4,300; the limit is restored afterwards
    limit = sys.get_int_max_str_digits()
    assert run(["predict", "--k", "700", "--beta", "1402"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    n0 = first.split()[0].removeprefix("n_0=")
    assert n0.isdigit() and len(n0) > 4300
    assert sys.get_int_max_str_digits() == limit


def test_predict_refuses_n0_past_ten_thousand_digits():
    # n_0 = 6002^6001 has about 22,700 digits; building and printing the
    # exact sizes would take about 19 s, so the command runs in its own
    # process under a timeout
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "clustertree", "predict", "--k", "3000",
         "--beta", "6002"],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "22,674 digits" in proc.stderr


def test_predict_refuses_by_digit_estimate(capsys):
    # about 14,400 digits at k = 2000; an invalid beta is still a usage error
    assert run(["predict", "--k", "2000", "--beta", "4002"]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert run(["predict", "--k", "100000", "--beta", "5"]) == 2


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


def test_verify_iso_draws_each_pair_as_it_walks(tmp_path, capsys, monkeypatch):
    # a million sampled pairs end at the first failing walk; a pair list
    # built before the first walk would take about 60 MB
    gpath = tmp_path / "g.json"
    assert run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)]) == 0
    walked = []

    def spy(ct, k, v0, v1):
        walked.append((v0, v1))
        raise PairingFailureError("spy walk fails")

    monkeypatch.setattr(iso, "find_isomorphism", spy)
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run(
            ["verify-iso", "--graph", str(gpath), "--k", "1",
             "--all-pairs-sample", "1000000"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == "error: spy walk fails\n"
    assert peak < 8 * 2**20
    # seed 0's first draw, the same rng.choice calls in the same order
    assert walked == [(49, 77)]


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


def test_simulate_starts_no_child_process(tmp_path, monkeypatch):
    # platform.platform() reads uname().processor, which runs `uname -p`
    # through subprocess.check_output once per interpreter
    gpath = tmp_path / "g.json"
    run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)])

    def no_child(*args, **kwargs):
        raise AssertionError(f"child process started: {args}")

    monkeypatch.setattr(platform, "_uname_cache", None)
    monkeypatch.setattr(platform, "_platform_cache", {})
    monkeypatch.setattr(subprocess, "check_output", no_child)
    rpath = tmp_path / "sim.json"
    code = run(
        ["simulate", "--graph", str(gpath), "--k", "1", "--alg", "skip-local-max",
         "--kind", "vc", "--trials", "2", "--report", str(rpath)]
    )
    assert code == 0
    env = json.loads(rpath.read_text())["environment"]
    assert env["platform"].startswith(platform.system())


def test_simulate_unknown_algorithm(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)])
    # the name is rejected whether or not the graph file exists, and
    # before it is read
    for graph in (gpath, tmp_path / "missing.json"):
        capsys.readouterr()
        assert run(
            [
                "simulate",
                "--graph", str(graph),
                "--k", "1",
                "--alg", "nope",
                "--kind", "vc",
                "--trials", "1",
            ]
        ) == 2
        assert "'nope'" in capsys.readouterr().err


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
            "--map2-out", str(tmp_path / "p2.json"),
        ]
    ) == 0
    # hg is not bipartite and dc is, so both bipartite stages are pinned
    assert sha256_of(lifted) == GOLDEN["common-lift"]
    assert sha256_of(tmp_path / "p1.json") == GOLDEN["common-lift-map1"]
    assert sha256_of(tmp_path / "p2.json") == GOLDEN["common-lift-map2"]


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
        ("greedy-view-vc", "vc", 0),
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


@pytest.mark.parametrize(
    "op, given, needs",
    [
        ("pipeline", [], "--k and --beta"),
        ("pipeline", ["--k", "1"], "--beta"),
        ("high-girth-regular", ["--delta", "3"], "--girth and --m"),
        ("double-cover", [], "--graph"),
        ("common-lift", ["--graph", "g.json"], "--graph2"),
        ("supergraph", [], "--graph"),
        ("matching-decomposition", [], "--graph"),
    ],
)
def test_lift_missing_input_flag_ends_in_one_line(tmp_path, capsys, op, given, needs):
    code = run(["lift", "--op", op, *given, "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert capsys.readouterr().err == f"usage error: lift --op {op} needs {needs}\n"


def test_lift_pipeline_cap_failure(tmp_path, capsys):
    code = run(
        ["lift", "--op", "pipeline", "--k", "2", "--beta", "6",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 1
    assert "exceeds cap" in capsys.readouterr().err


def test_lift_high_girth_regular_cap_failure(tmp_path, capsys, monkeypatch):
    # 2m nodes over the cap end before the generator runs; a huge m
    # would otherwise exhaust memory
    def spy(*args):
        raise AssertionError("high_girth_regular ran past the size cap")

    monkeypatch.setattr(lifts, "high_girth_regular", spy)
    out = tmp_path / "x.json"
    code = run(
        ["lift", "--op", "high-girth-regular", "--delta", "2", "--girth", "3",
         "--m", "100000000", "--out", str(out)]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: estimated output size 200000000 exceeds cap 5000000\n"
    )
    # the cap is a constant: no flag raises or lowers it
    code = run(
        ["lift", "--op", "high-girth-regular", "--delta", "3", "--girth", "5",
         "--m", "30", "--size-cap", "59", "--out", str(out)]
    )
    assert code == 2
    assert "unrecognized arguments: --size-cap 59" in capsys.readouterr().err
    assert not out.exists()


def test_export_dot(tmp_path):
    gpath = tmp_path / "g.json"
    run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)])
    dpath = tmp_path / "g.dot"
    assert run(["export-dot", "--graph", str(gpath), "--out", str(dpath)]) == 0
    assert "subgraph cluster_0" in dpath.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["--op", "pipeline", "--k", "50", "--beta", "102"],
        ["--op", "pipeline", "--k", "400", "--beta", "802"],
        ["--op", "high-girth-regular", "--delta", "3", "--girth", "20000", "--m", "30"],
        ["--op", "high-girth-regular", "--delta", "3", "--girth", "300000", "--m", "30"],
        # beta = 2^70: the CT graph fits the bit-length test, the
        # generator's minimum order does not
        ["--op", "pipeline", "--k", "10", "--beta", "1180591620717411303424"],
        # (2k+1)(bit length - 1) = 20,010: refused from bit lengths alone
        ["--op", "pipeline", "--k", "1000", "--beta", "2002"],
    ],
    ids=["pipeline-50-102", "pipeline-400-802", "girth-20000", "girth-300000",
         "pipeline-10-2^70", "pipeline-1000-2002"],
)
def test_size_guards_end_at_once_on_astronomical_sizes(argv, tmp_path):
    # the generator's minimum order has about 2k log2(beta^(k+1)) bits for
    # the pipeline and girth log2(delta - 1) bits for the generator; a
    # guard that builds it whole hangs, or fails to print it and exits 2,
    # so each case runs in its own process under a timeout
    out = tmp_path / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "clustertree", "lift", *argv, "--out", str(out)],
        capture_output=True, text=True, env=child_env(), timeout=30,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "10^4300 or more" in proc.stderr
    assert not out.exists()


HUGE_N = {"n": 1_000_000_000, "edges": []}
SPARSE_BYTES = 200 * 2**20  # a sparse file: no block is written


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["build", "--k", "3", "--beta", "8"], 1,
         "error: the (3, 8) graph has more than 5000000 edges"),
        (["build", "--k", "4", "--beta", "10", "--double"], 1,
         "error: the (4, 10) graph has more than 5000000 edges"),
        (["skeleton", "--k", "12", "--beta", "26"], 1,
         "error: the skeleton for k=12 has more than 5000000 clusters"),
        (["simulate", "--graph", "huge.json", "--k", "1", "--alg",
          "skip-local-max", "--kind", "vc", "--trials", "1"], 2,
         "usage error: 'n' exceeds twice the edge count by more than 5000000"),
        (["export-dot", "--graph", "huge.json"], 2,
         "usage error: 'n' exceeds twice the edge count by more than 5000000"),
        (["simulate", "--graph", "huge.json", "--k", "1", "--alg",
          "skip-local-max", "--kind", "vc", "--trials", "100000000"], 1,
         "error: 100000000 trials are more than the 1677721 whose results "
         "fit in 1024 MiB"),
        (["lift", "--op", "high-girth-regular", "--delta", "3", "--girth", "12",
          "--m", "2000000"], 1,
         "error: a high-girth graph on 4000000 nodes needs more than 1024 MiB "
         "for its ball table"),
        # n_0 = beta^3 alone passes the 10^4300 size limit
        (["build", "--k", "1", "--beta", str(10**1500)], 1,
         f"error: the (1, {10**1500}) graph has more than 5000000 edges"),
        # the smallest pipeline past the cap; (1,11) fits the 1 GiB budget
        (["lift", "--op", "pipeline", "--k", "1", "--beta", "12"], 1,
         "error: estimated output size 5999616 exceeds cap 5000000"),
        # a 200 MiB file is refused from its size, before it is opened
        (["simulate", "--graph", "sparse.json", "--k", "1", "--alg",
          "skip-local-max", "--kind", "vc", "--trials", "1"], 1,
         "error: reading sparse.json (209,715,200 bytes) needs about 2100 MiB, "
         "more than 1024 MiB"),
    ],
    ids=["build-3-8", "build-4-10-double", "skeleton-12", "simulate-huge-n",
         "export-dot-huge-n", "simulate-trials", "high-girth-regular-4000000",
         "build-1-10^1500", "pipeline-1-12", "simulate-sparse-200mib"],
)
def test_size_refusals_end_at_once_under_a_memory_limit(tmp_path, argv, code, message):
    # unguarded, each of these builds until memory runs out, so each runs
    # in its own process under a timeout and a 1 GB address-space limit
    (tmp_path / "huge.json").write_text(json.dumps(HUGE_N))
    with open(tmp_path / "sparse.json", "wb") as fh:
        fh.truncate(SPARSE_BYTES)
    out = "--report" if argv[0] == "simulate" else "--out"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "clustertree", *argv, out, "x.out"],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=30,
        preexec_fn=limit_memory,
    )
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message + "\n")
    assert not (tmp_path / "x.out").exists()


def test_common_lift_refuses_past_the_cap_under_a_memory_limit(tmp_path):
    # two 20,000-node Moebius ladders: 3-regular and not bipartite, so
    # each is doubled and the lift would have 40,000 x 40,000 nodes;
    # unguarded, it runs out of memory while it builds the rows
    n = 20_000
    edges = [[v, v + 1] for v in range(n - 1)] + [[0, n - 1]]
    edges += [[v, v + n // 2] for v in range(n // 2)]
    (tmp_path / "m.json").write_text(json.dumps({"n": n, "edges": edges}))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "clustertree", "lift", "--op", "common-lift",
         "--graph", "m.json", "--graph2", "m.json", "--out", "x.out"],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=30,
        preexec_fn=limit_memory,
    )
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: estimated output size 1600000000 exceeds cap 5000000\n"
    )
    assert not (tmp_path / "x.out").exists()


def test_common_lift_refuses_past_the_memory_budget_under_a_memory_limit(tmp_path):
    # two 50-regular bipartite circulants on 2,000 nodes: the lift's
    # 4,000,000 nodes pass the node cap, but its 200 million row entries
    # run out of memory while the rows are built
    edges = [[i, 1000 + (i + j) % 1000] for i in range(1000) for j in range(50)]
    (tmp_path / "c.json").write_text(json.dumps({"n": 2000, "edges": edges}))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "clustertree", "lift", "--op", "common-lift",
         "--graph", "c.json", "--graph2", "c.json", "--out", "x.out"],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path, timeout=30,
        preexec_fn=limit_memory,
    )
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: the common lift needs about 2288 MiB to build, "
        "more than 1024 MiB\n"
    )
    assert not (tmp_path / "x.out").exists()


def test_export_dot_doubled_graph(tmp_path):
    gpath = tmp_path / "d.json"
    run(["build", "--k", "1", "--beta", "4", "--double", "--out", str(gpath)])
    dpath = tmp_path / "d.dot"
    assert run(["export-dot", "--graph", str(gpath), "--out", str(dpath)]) == 0
    text = dpath.read_text()
    # mirror clusters of the copy are rendered as their own groups
    assert "subgraph cluster_4" in text and "subgraph cluster_7" in text


def test_export_dot_skeleton_text(tmp_path):
    spath = tmp_path / "s.json"
    assert run(["skeleton", "--k", "1", "--beta", "4", "--out", str(spath)]) == 0
    dpath = tmp_path / "s.dot"
    assert run(["export-dot", "--skeleton", str(spath), "--out", str(dpath)]) == 0
    assert dpath.read_text() == (
        "graph skeleton {\n"
        '  0 [label="C0 (L0)", shape=box];\n'
        '  1 [label="C1 (L1)", shape=box];\n'
        '  2 [label="C2 (L1)", shape=ellipse];\n'
        '  3 [label="C3 (L2)", shape=ellipse];\n'
        '  0 -- 1 [taillabel="0", headlabel="1"];\n'
        '  0 -- 2 [taillabel="1", headlabel="2"];\n'
        '  1 -- 3 [taillabel="0", headlabel="1"];\n'
        "}\n"
    )


def test_export_dot_graph_without_clusters_is_flat(tmp_path):
    gpath = tmp_path / "p3.json"
    write_graph_json(str(gpath), Graph.from_edges(3, [(0, 1), (1, 2)]))
    dpath = tmp_path / "p3.dot"
    assert run(["export-dot", "--graph", str(gpath), "--out", str(dpath)]) == 0
    assert dpath.read_text() == (
        "graph G {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"
    )


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


def test_simulate_radius_past_the_diameter_ends_at_once(tmp_path):
    # the (1,4) components have diameter 3, so from radius 3 on every view
    # is its node's whole component and a radius of 10^9 gives the report
    # of radius 1000; a view that kept adding empty layers would take
    # hours, so each run is a child process under a timeout
    gpath = tmp_path / "g.json"
    assert run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)]) == 0
    env = child_env()
    reports = []
    for k in ("1000000000", "1000"):
        proc = subprocess.run(
            [sys.executable, "-m", "clustertree", "simulate", "--graph", "g.json",
             "--k", k, "--alg", "skip-local-max", "--kind", "vc", "--trials", "1",
             "--report", f"sim{k}.json"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=30,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        doc = json.loads((tmp_path / f"sim{k}.json").read_text())
        doc.pop("environment")
        reports.append(doc)
    assert reports[0] == reports[1]


def test_verify_iso_checks_one_named_pair(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    assert run(["build", "--k", "1", "--beta", "4", "--out", str(gpath)]) == 0
    capsys.readouterr()
    argv = ["verify-iso", "--graph", str(gpath), "--k", "1"]
    assert run([*argv, "--v0", "0", "--v1", "64"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "success": True,
        "pairs": 1,
        "audit_case_histogram": {"None": 6},
        "special_case_count": 0,
    }
    # a named node the graph does not have ends in one line
    assert run([*argv, "--v0", "999999", "--v1", "64"]) == 2
    assert capsys.readouterr().err == (
        "usage error: node 999999 out of range for n=100\n"
    )


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


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_dispatch_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, capsys, enabled
):
    # the collector is off from argument parsing through the command, and
    # on every way out it is as it was on entry
    seen: list[bool] = []

    def spy(fn):
        def wrapper(*args):
            seen.append(gc.isenabled())
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "build_parser", spy(cli.build_parser))
    monkeypatch.setattr(cli, "read_graph_json", spy(cli.read_graph_json))
    plain = tmp_path / "plain.json"
    write_graph_json(str(plain), Graph.from_edges(2, [(0, 1)]))
    malformed = tmp_path / "malformed.json"
    malformed.write_text("[0, 1]")
    verify = ["verify-iso", "--k", "1", "--v0", "0", "--v1", "1", "--graph"]
    cases = [
        (["predict", "--k", "1", "--beta", "4"], 0, 1),
        ([*verify, str(plain)], 1, 2),  # ClusterTreeError: no clusters
        ([*verify, str(malformed)], 2, 2),  # ValueError
        ([*verify, str(tmp_path / "missing.json")], 2, 2),  # OSError
        (["verify-iso", "--k", "1"], 2, 1),  # argparse: no --graph
    ]
    was_enabled = gc.isenabled()
    try:
        for argv, code, spied in cases:
            (gc.enable if enabled else gc.disable)()
            seen.clear()
            assert run(argv) == code, argv
            assert seen == [False] * spied, argv
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.fixture(scope="module")
def lifted14_file(tmp_path_factory, lifted14):
    """The (1,4) pipeline output as the CLI writes it."""
    ct, _ = lifted14
    path = tmp_path_factory.mktemp("p14") / "p14.json"
    write_graph_json(str(path), ct.graph, ct.cluster_of, {"k": 1, "beta": 4})
    return str(path)


def test_verify_iso_starts_no_collection(capsys, lifted14_file):
    # the (1,4) pipeline output decodes into 86,016 edge lists; with the
    # collector on, a read alone starts 144, 14 and 1 passes of
    # generations 0-2
    argv = ["verify-iso", "--graph", lifted14_file, "--k", "1", "--all-pairs-sample", "3"]
    started: list[int] = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        code = run(argv)
        # taken before anything that allocates, which may start a pass
        during = len(started)
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was_enabled else gc.disable)()
    assert during == 0, [started.count(gen) for gen in range(3)]
    assert code == 0
    assert json.loads(capsys.readouterr().out)["success"] is True


def _cycles_left_by(argv) -> int:
    """How many unreachable objects one in-process dispatch of ``argv``
    leaves for the collector."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert run(argv) == 0, argv
        return gc.collect()
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize(
    "command, jobs",
    [("simulate", "1"), ("simulate", "2"), ("verify-iso", None)],
    ids=["simulate", "simulate-jobs2", "verify-iso"],
)
def test_dispatch_leaves_no_cycles_that_grow_with_work(
    tmp_path, capsys, lifted14_file, command, jobs
):
    # dispatch pauses the collector for the whole command, so a cycle made
    # per trial or per pair would pile up until the command returns; the
    # cycles left behind (argparse's parser) must not depend on the count
    if command == "simulate":
        path = tmp_path / "g.json"
        assert run(["build", "--k", "1", "--beta", "4", "--out", str(path)]) == 0
        base = ["simulate", "--graph", str(path), "--k", "1",
                "--alg", "skip-local-max", "--kind", "vc", "--jobs", jobs,
                "--trials"]
    else:
        base = ["verify-iso", "--graph", lifted14_file, "--k", "1",
                "--all-pairs-sample"]
    _cycles_left_by([*base, "2"])  # warm-up: caches and first imports
    small = _cycles_left_by([*base, "2"])
    large = _cycles_left_by([*base, "40"])
    assert small == large > 0


def test_pool_workers_leave_no_cycles_per_trial(tmp_path, capsys, monkeypatch):
    # forked workers inherit the paused collector, and what they leave never
    # reaches the parent's count; so each worker collects after every trial
    # (forked workers look _one_trial up as they call it) and logs the count
    path = tmp_path / "g.json"
    assert run(["build", "--k", "1", "--beta", "4", "--out", str(path)]) == 0
    log = tmp_path / "collected.txt"
    one_trial = localsim._one_trial

    def counted(*args):
        result = one_trial(*args)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {gc.collect()}\n")
        return result

    monkeypatch.setattr(localsim, "_one_trial", counted)
    assert run(["simulate", "--graph", str(path), "--k", "1", "--alg",
                "skip-local-max", "--kind", "vc", "--jobs", "2",
                "--trials", "40"]) == 0
    by_worker: dict[str, list[int]] = {}
    for line in log.read_text().splitlines():
        pid, found = line.split()
        by_worker.setdefault(pid, []).append(int(found))
    assert sum(map(len, by_worker.values())) == 40
    # a worker's first pass also finds what the parent left before the fork
    assert [found[1:] for found in by_worker.values()] == [
        [0] * (len(found) - 1) for found in by_worker.values()
    ]


def _buffered_env() -> dict[str, str]:
    """child_env() with block-buffered standard streams, as in a shell."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_child_process_prints_what_dispatch_prints(tmp_path, capsys, monkeypatch):
    # main() ends through os._exit, past the interpreter's own flush, so a
    # child flushes what it printed itself; block-buffered pipes show it
    monkeypatch.chdir(tmp_path)
    assert run(["build", "--k", "1", "--beta", "4", "--out", "g.json"]) == 0
    cases = [
        (["verify-iso", "--graph", "g.json", "--k", "1",
          "--all-pairs-sample", "20", "--seed", "1"], 0),
        # one round leaves some matchings not maximal
        (["simulate", "--graph", "g.json", "--k", "1", "--alg", "tape-greedy-mm",
          "--kind", "mm", "--trials", "50"], 1),
        (["verify-iso", "--graph", "g.json", "--k", "1"], 2),
        (["frobnicate"], 2),
    ]
    env = _buffered_env()
    for argv, code in cases:
        capsys.readouterr()
        assert run(argv) == code, argv
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "clustertree", *argv],
            capture_output=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.encode(), err.encode()
        ), argv


# python -c MAIN_CHILD ARGS...: the console script, with an atexit handler
MAIN_CHILD = """
import atexit, sys
from clustertree import cli
atexit.register(print, "atexit ran", file=sys.stderr)
cli.main()
"""


def test_main_skips_atexit_and_leaves_the_report_whole(tmp_path):
    assert run(["build", "--k", "1", "--beta", "4", "--out",
                str(tmp_path / "g.json")]) == 0
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_CHILD, "verify-iso", "--graph", "g.json",
         "--k", "1", "--all-pairs-sample", "200", "--report", "r.json"],
        capture_output=True, text=True, env=_buffered_env(), cwd=tmp_path,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    text = (tmp_path / "r.json").read_text()
    assert text.endswith("}\n")
    assert json.loads(text) == json.loads(proc.stdout)
    assert json.loads(text)["pairs"] == 200


def test_unwritable_stdout_ends_as_the_interpreter_ends():
    # a pipe whose reader has gone: the output fits the buffer, so the
    # write fails only in main's flush, and the status is the interpreter's
    # 120, without its message; a descriptor closed before the start leaves
    # sys.stdout None, and the interpreter's status is 0
    argv = [sys.executable, "-m", "clustertree", "predict", "--k", "1", "--beta", "4"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            argv, stdout=write_end, stderr=subprocess.PIPE, env=_buffered_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (120, b"")
    proc = subprocess.run(
        argv, stderr=subprocess.PIPE, env=_buffered_env(), timeout=60,
        preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_dispatch_frees_what_the_command_built(capsys, lifted14_file):
    # the command stays suspended with its working set until dispatch drops
    # it; kept, the (1,4) output's rows alone would stay at about 8 MB
    argv = ["verify-iso", "--graph", lifted14_file, "--k", "1",
            "--all-pairs-sample", "3"]
    assert run(argv) == 0  # warm-up: first imports
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run(argv) == 0
        gc.collect()  # argparse's parser holds cycles
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-iso", "--graph", "sparse.json", "--k", "1", "--all-pairs-sample", "1"],
        ["simulate", "--graph", "sparse.json", "--k", "1", "--alg",
         "skip-local-max", "--kind", "vc", "--trials", "1"],
        ["export-dot", "--graph", "sparse.json", "--out", "x.out"],
        ["lift", "--op", "matching-decomposition", "--graph", "sparse.json",
         "--out", "x.out"],
        ["lift", "--op", "double-cover", "--graph", "sparse.json", "--out", "x.out"],
        ["lift", "--op", "supergraph", "--graph", "sparse.json", "--out", "x.out"],
        ["lift", "--op", "common-lift", "--graph", "g.json", "--graph2",
         "sparse.json", "--out", "x.out"],
    ],
    ids=["verify-iso", "simulate", "export-dot", "matching-decomposition",
         "double-cover", "supergraph", "common-lift"],
)
def test_reading_commands_refuse_a_file_too_large_to_read(
    tmp_path, capsys, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)
    assert run(["build", "--k", "1", "--beta", "4", "--out", "g.json"]) == 0
    with open("sparse.json", "wb") as fh:
        fh.truncate(SPARSE_BYTES)
    reader = cli.read_graph_json

    def opens_no_large_file(path):
        assert path != "sparse.json", "the large file was opened"
        return reader(path)

    monkeypatch.setattr(cli, "read_graph_json", opens_no_large_file)
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr() == ("", (
        "error: reading sparse.json (209,715,200 bytes) needs about 2100 MiB, "
        "more than 1024 MiB\n"
    ))
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "--k", "0", "--beta", "4"], "k must be a positive integer"),
        (["verify-iso", "--graph", "g.json", "--k", "1"],
         "need --v0/--v1 or --all-pairs-sample"),
        (["lift", "--op", "high-girth-regular", "--delta", "1", "--girth", "5",
          "--m", "30"], "degree must be at least 2"),
        (["lift", "--op", "high-girth-regular", "--delta", "3", "--girth", "2",
          "--m", "30"], "girth target must be at least 3"),
        (["verify-iso", "--graph", "g.json", "--k", "1", "--v0", "0", "--v1",
          "1", "--all-pairs-sample", "5"],
         "--v0/--v1 and --all-pairs-sample exclude each other"),
    ],
    ids=["build-k-zero", "verify-iso-no-pairs", "high-girth-delta-1",
         "high-girth-girth-2", "verify-iso-pair-and-sample"],
)
def test_bad_arguments_end_in_one_line_usage_error(tmp_path, capsys, argv, message):
    out = ["--out", str(tmp_path / "x.json")] if argv[0] != "verify-iso" else []
    assert run([*argv, *out]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "x.json").exists()


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
        ("verify-iso", lambda d: d, ["--v0", "0"], 2),
        ("verify-iso", lambda d: d, ["--all-pairs-sample", "0"], 2),
        ("verify-iso", lambda d: d, ["--all-pairs-sample", "-3"], 2),
        ("simulate", lambda d: d, ["--jobs", "0"], 2),
        ("export-dot", lambda d: {**d, "meta": {**d["meta"], "k": [1]}}, [], 1),
        ("export-dot --skeleton", lambda d: {"k": 1}, [], 2),
        ("verify-iso", lambda d: _with_edge(d, d["edges"][0]), [], 2),
        ("verify-iso", lambda d: _with_edge(d, [0, 1.5]), [], 2),
        ("verify-iso", lambda d: _with_edge(d, [0, True]), [], 2),
        ("verify-iso", lambda d: _with_edge(d, [0, 1, 2]), [], 2),
        ("verify-iso", lambda d: _with_edge(d, 5), [], 2),
        ("verify-iso", lambda d: {**d, "meta": {"k": 11, "beta": 24}}, [], 2),
        ("export-dot", lambda d: {**d, "meta": {"k": 11, "beta": 24}}, [], 2),
        ("verify-iso", lambda d: _without(d, "clusters"), [], 1),
        # cluster-1 nodes relabelled 0: the file lacks a skeleton cluster
        ("verify-iso",
         lambda d: {**d, "clusters": [c if c != 1 else 0 for c in d["clusters"]]},
         [], 2),
        ("simulate", lambda d: d, ["--k", "-1"], 2),
        ("simulate", lambda d: d, ["--trials", "0"], 2),
        ("export-dot --skeleton", lambda d: {"k": 1, "beta": 4, "clusters": {}},
         [], 2),
        ("verify-iso", lambda d: {**d, "clusters": [True] + d["clusters"][1:]}, [], 2),
        ("verify-iso", lambda d: {**d, "clusters": d["clusters"][:-1] + [-1]}, [], 2),
        ("verify-iso", lambda d: {**d, "clusters": [1.5] + d["clusters"][1:]}, [], 2),
    ],
    ids=[
        "verify-iso-missing-n",
        "simulate-missing-n",
        "verify-iso-array",
        "simulate-array",
        "verify-iso-missing-beta",
        "verify-iso-short-clusters",
        "verify-iso-v0-with-sample",
        "verify-iso-v0-without-v1",
        "verify-iso-sample-zero",
        "verify-iso-sample-negative",
        "simulate-jobs-zero",
        "export-dot-k-not-an-int",
        "export-dot-skeleton-missing-beta",
        "verify-iso-duplicate-edge",
        "verify-iso-float-endpoint",
        "verify-iso-boolean-endpoint",
        "verify-iso-edge-of-three",
        "verify-iso-bare-int-edge",
        "verify-iso-k-beyond-clusters",
        "export-dot-k-beyond-clusters",
        "verify-iso-no-clusters",
        "verify-iso-no-cluster-1",
        "simulate-negative-k",
        "simulate-no-trials",
        "export-dot-skeleton-clusters-not-a-list",
        "verify-iso-true-cluster",
        "verify-iso-negative-cluster",
        "verify-iso-float-cluster",
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


@pytest.mark.parametrize(
    "command",
    ["verify-iso --graph", "simulate --graph", "export-dot --graph",
     "export-dot --skeleton"],
)
def test_deeply_nested_input_ends_in_one_line_error(tmp_path, capsys, command):
    # raw text: json.dumps cannot write nesting this deep
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200_000 + "]" * 200_000)
    args = {
        "verify-iso": ["--k", "1", "--all-pairs-sample", "2"],
        "simulate": ["--k", "1", "--alg", "skip-local-max", "--kind", "vc",
                     "--trials", "2"],
        "export-dot": ["--out", str(tmp_path / "out.dot")],
    }
    command, flag = command.split(" ")
    assert run([command, flag, str(bad), *args[command]]) == 2
    assert capsys.readouterr().err == f"usage error: {bad}: JSON nested too deeply\n"
