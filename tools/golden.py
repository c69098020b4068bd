"""Print a digest of every output of a fixed list of CLI commands.

    python tools/golden.py SRC_DIR > digests.txt

Stdlib only; it is a development aid, not part of the test suite. The
commands run in order as ``python -m clustertree`` with
``PYTHONPATH=SRC_DIR``, in one temporary directory, so a later command
reads what an earlier one wrote. For each command the script prints one
``sha256  label`` line each for its stdout, its stderr and its exit
code, then one for every file the command wrote or changed. A
``simulate`` report is digested without its ``environment`` (the
interpreter, the platform, the input path and the command's own
arguments), as the tests' ``GOLDEN`` digests are, so listings from two
hosts compare. A command with ``--all-pairs-sample`` runs through a
wrapper that calls the same ``dispatch`` with the same arguments and
also writes the ``(v0, v1)`` pair of every ``find_isomorphism`` call to
``LABEL.pairs.json``, so the listing shows which pairs were sampled,
which the report does not say.
Two source trees give byte-identical outputs on these commands, report
environments aside, iff two runs print the same lines. The listing of
the current tree is committed as ``tools/golden.txt``, so the check of
a refactor, which exits 1 on any difference, is

    python tools/golden.py src | diff tools/golden.txt -

A change that alters an output on purpose regenerates that file.

The committed listing is printed unchanged under CPython 3.10.13,
3.11.7, 3.12.1 and 3.13.0: run the script with each interpreter (the
commands run under the same one, through ``sys.executable``).

The whole list takes about 30 s on 2 vCPUs; the (2,8) build peaks near
350 MB.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (label, argv); paths are relative to the working directory
COMMANDS: list[tuple[str, list[str]]] = [
    ("pipeline-1-4", ["lift", "--op", "pipeline", "--k", "1", "--beta", "4",
                      "--out", "p14.json", "--map-out", "p14.map.json"]),
    ("pipeline-1-5", ["lift", "--op", "pipeline", "--k", "1", "--beta", "5",
                      "--out", "p15.json", "--map-out", "p15.map.json"]),
    ("verify-iso-seed-1", ["verify-iso", "--graph", "p15.json", "--k", "1",
                           "--all-pairs-sample", "100", "--seed", "1",
                           "--report", "iso1.json"]),
    ("verify-iso-seed-3", ["verify-iso", "--graph", "p15.json", "--k", "1",
                           "--all-pairs-sample", "100", "--seed", "3",
                           "--report", "iso3.json"]),
    ("verify-iso-v0-without-v1", ["verify-iso", "--graph", "p15.json",
                                  "--k", "1", "--v0", "0"]),
    ("high-girth-regular", ["lift", "--op", "high-girth-regular", "--delta",
                            "3", "--girth", "6", "--m", "62",
                            "--out", "hg.json"]),
    ("double-cover", ["lift", "--op", "double-cover", "--graph", "hg.json",
                      "--out", "dc.json", "--map-out", "dc.map.json"]),
    ("matching-decomposition", ["lift", "--op", "matching-decomposition",
                                "--graph", "dc.json", "--out", "md.json"]),
    ("build-1-4", ["build", "--k", "1", "--beta", "4", "--out", "b14.json"]),
    ("matching-decomposition-not-regular", [
        "lift", "--op", "matching-decomposition", "--graph", "b14.json",
        "--out", "md14.json"]),
    ("build-1-16", ["build", "--k", "1", "--beta", "16", "--out", "b116.json"]),
    ("build-2-6", ["build", "--k", "2", "--beta", "6", "--out", "b26.json"]),
    ("build-2-6-double", ["build", "--k", "2", "--beta", "6", "--double",
                          "--out", "b26d.json"]),
    ("build-2-8", ["build", "--k", "2", "--beta", "8", "--out", "b28.json"]),
    ("skeleton-3", ["skeleton", "--k", "3", "--beta", "8",
                    "--out", "s3.json", "--dot", "s3.dot"]),
    ("skeleton-8", ["skeleton", "--k", "8", "--beta", "18",
                    "--out", "s8.json"]),
    ("predict-json", ["predict", "--k", "2", "--beta", "6", "--json"]),
    ("simulate", ["simulate", "--graph", "b116.json", "--k", "1",
                  "--alg", "skip-local-max", "--kind", "vc", "--trials", "20",
                  "--seed", "7", "--report", "sim.json"]),
    ("simulate-jobs-2", ["simulate", "--graph", "b116.json", "--k", "1",
                         "--alg", "skip-local-max", "--kind", "vc",
                         "--trials", "20", "--seed", "7",
                         "--report", "sim-jobs2.json", "--jobs", "2"]),
    ("export-dot", ["export-dot", "--graph", "b14.json", "--out", "b14.dot"]),
    ("export-dot-skeleton", ["export-dot", "--skeleton", "s3.json",
                             "--out", "s3-flat.dot"]),
    # size refusals, and the largest sizes predict prints
    ("build-3-8-refused", ["build", "--k", "3", "--beta", "8",
                           "--out", "b38.json"]),
    ("skeleton-12-refused", ["skeleton", "--k", "12", "--beta", "26",
                             "--out", "s12.json"]),
    ("predict-3000-refused", ["predict", "--k", "3000", "--beta", "6002"]),
    ("predict-700", ["predict", "--k", "700", "--beta", "1402"]),
    ("pipeline-2-6-refused", ["lift", "--op", "pipeline", "--k", "2",
                              "--beta", "6", "--out", "p26.json"]),
    ("pipeline-1000-refused", ["lift", "--op", "pipeline", "--k", "1000",
                               "--beta", "2002", "--out", "p1000.json"]),
    ("pipeline-10-2^70-refused", ["lift", "--op", "pipeline", "--k", "10",
                                  "--beta", str(2**70), "--out", "p10.json"]),
    ("high-girth-20000-refused", ["lift", "--op", "high-girth-regular",
                                  "--delta", "3", "--girth", "20000",
                                  "--m", "30", "--out", "hg20000.json"]),
    ("high-girth-below-minimum", ["lift", "--op", "high-girth-regular",
                                  "--delta", "3", "--girth", "5", "--m", "4",
                                  "--out", "hg5.json"]),
    # files the graph reader refuses: a list, and an object without 'n'
    ("verify-iso-not-a-graph", ["verify-iso", "--graph", "md.json", "--k", "1",
                                "--v0", "0", "--v1", "1"]),
    ("simulate-map-not-a-graph", ["simulate", "--graph", "dc.map.json",
                                  "--k", "1", "--alg", "skip-local-max",
                                  "--kind", "vc", "--trials", "1"]),
    # mirror-cluster levels read off the skeleton, and a deeper skeleton
    ("export-dot-double-2-6", ["export-dot", "--graph", "b26d.json",
                               "--out", "b26d.dot"]),
    ("skeleton-5-dot", ["skeleton", "--k", "5", "--beta", "12",
                        "--out", "s5.json", "--dot", "s5.dot"]),
    # the lift ops the list above misses: the common lift's girth sweep
    # runs at bound 6 on its 61,504 nodes
    ("supergraph", ["lift", "--op", "supergraph", "--graph", "b14.json",
                    "--out", "sg14.json"]),
    ("common-lift", ["lift", "--op", "common-lift", "--graph", "hg.json",
                     "--graph2", "dc.json", "--out", "cl.json",
                     "--map-out", "cl.map1.json",
                     "--map2-out", "cl.map2.json"]),
    # a 28-node non-bipartite graph, small enough for the exact oracles:
    # each simulate below runs one of the three branch-and-bound searches
    ("high-girth-regular-28", ["lift", "--op", "high-girth-regular",
                               "--delta", "3", "--girth", "4", "--m", "14",
                               "--out", "hg28.json"]),
    ("simulate-28-vc", ["simulate", "--graph", "hg28.json", "--k", "1",
                        "--alg", "skip-local-max", "--kind", "vc",
                        "--trials", "20", "--seed", "7",
                        "--report", "sim28-vc.json"]),
    ("simulate-28-ds", ["simulate", "--graph", "hg28.json", "--k", "1",
                        "--alg", "skip-local-max", "--kind", "ds",
                        "--trials", "20", "--seed", "7",
                        "--report", "sim28-ds.json"]),
    ("simulate-28-maxm", ["simulate", "--graph", "hg28.json", "--k", "1",
                          "--alg", "mutual-max-mm", "--kind", "maxm",
                          "--trials", "20", "--seed", "7",
                          "--report", "sim28-maxm.json"]),
]

# the other 22 algorithm x kind pairs on the 28-node graph, at radius 2 so
# the whole-view algorithms see edges below the root
ALGORITHMS = ("always-select", "skip-local-max", "greedy-view-vc",
              "mutual-max-mm", "tape-greedy-mm")
KINDS = ("vc", "ds", "maxm", "mm", "mis")
LISTED = {("skip-local-max", "vc"), ("skip-local-max", "ds"),
          ("mutual-max-mm", "maxm")}
COMMANDS += [
    (f"simulate-28-{alg}-{kind}", [
        "simulate", "--graph", "hg28.json", "--k", "2", "--alg", alg,
        "--kind", kind, "--trials", "20", "--seed", "7",
        "--report", f"sim28-{alg}-{kind}.json"])
    for alg in ALGORITHMS for kind in KINDS if (alg, kind) not in LISTED
]
COMMANDS += [
    ("simulate-28-k0", ["simulate", "--graph", "hg28.json", "--k", "0",
                        "--alg", "always-select", "--kind", "vc",
                        "--trials", "20", "--seed", "7",
                        "--report", "sim28-k0.json"]),
    # a radius past the diameter: every view is the node's whole component
    ("simulate-k1000", ["simulate", "--graph", "b14.json", "--k", "1000",
                        "--alg", "skip-local-max", "--kind", "vc",
                        "--trials", "20", "--seed", "7",
                        "--report", "sim-k1000.json"]),
    # one named pair, and a pair whose v0 is out of range
    ("verify-iso-one-pair", ["verify-iso", "--graph", "p14.json", "--k", "1",
                             "--v0", "0", "--v1", "8192"]),
    ("verify-iso-v0-out-of-range", ["verify-iso", "--graph", "p14.json",
                                    "--k", "1", "--v0", "999999",
                                    "--v1", "0"]),
]
# radius-1 views read through their edges, not the root alone: the star of
# every node of the (1,16) build and of the 28-node graph (one round of
# tape-greedy-mm leaves some matchings not maximal, so those runs exit 1)
COMMANDS += [
    (f"simulate-{name}-k1-{alg}-{kind}", [
        "simulate", "--graph", f"{name}.json", "--k", "1", "--alg", alg,
        "--kind", kind, "--trials", "20", "--seed", "7",
        "--report", f"sim-{name}-k1-{alg}-{kind}.json"])
    for name in ("b116", "hg28")
    for alg, kind in (("greedy-view-vc", "vc"), ("tape-greedy-mm", "mm"))
]


# python -c PAIRS_WRAPPER PAIRS_FILE ARGS...: `python -m clustertree ARGS...`
# that also records each pair find_isomorphism is called on
PAIRS_WRAPPER = """
import json, sys
import clustertree.cli, clustertree.iso
pairs = []
find = clustertree.iso.find_isomorphism
def record(ct, k, v0, v1):
    pairs.append((v0, v1))
    return find(ct, k, v0, v1)
clustertree.iso.find_isomorphism = record
code = clustertree.cli.dispatch(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(pairs, fh)
sys.exit(code)
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(root: Path) -> dict[str, str]:
    return {p.name: sha256(p.read_bytes()) for p in root.iterdir() if p.is_file()}


def report_digest(path: Path) -> str:
    """Digest of a ``simulate`` report without its ``environment``."""
    doc = json.loads(path.read_bytes())
    doc.pop("environment")
    return sha256(json.dumps(doc, indent=2).encode())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/golden.py SRC_DIR", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "clustertree" / "__init__.py").is_file():
        print(f"no clustertree package under {src}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        root = Path(tmp)
        for label, args in COMMANDS:
            before = file_digests(root)
            cmd = [sys.executable, "-m", "clustertree"]
            if "--all-pairs-sample" in args:
                cmd = [sys.executable, "-c", PAIRS_WRAPPER, f"{label}.pairs.json"]
            proc = subprocess.run(
                [*cmd, *args],
                cwd=root, env=env, capture_output=True,
            )
            print(f"{sha256(proc.stdout)}  {label} stdout")
            print(f"{sha256(proc.stderr)}  {label} stderr")
            print(f"{sha256(str(proc.returncode).encode())}  {label} exit")
            for name, digest in sorted(file_digests(root).items()):
                if before.get(name) != digest:
                    if args[0] == "simulate":  # its one file is its report
                        digest = report_digest(root / name)
                    print(f"{digest}  {label} {name}")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
