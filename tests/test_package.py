"""Guards on the package as a whole."""

from __future__ import annotations

import ast
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from clustertree.builder import DoubledGraph, build_low_girth
from clustertree.graph import Graph, GraphFile, k_hop_subgraph
from clustertree.iso import AuditRecord, PartialIsomorphism
from clustertree.lifts import CoveringMap
from clustertree.localsim import (
    EdgePairCheck,
    Labeling,
    measure_expectation,
)
from clustertree.skeleton import (
    INTERNAL,
    ValidationReport,
    Violation,
    build_skeleton,
    predicted_sizes,
)

from conftest import child_env

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clustertree"


def _imports() -> list[tuple[str, str]]:
    """(module file name, imported absolute module) for every import in
    the package's source."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names]
    return found


def test_runtime_imports_only_stdlib():
    # networkx and hypothesis are test extras; the library needs neither
    outside = [
        f"{file}: {name}"
        for file, name in _imports()
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_no_module_imports_dataclasses():
    # the records are NamedTuples; dataclasses pulls in inspect and ast
    assert [file for file, name in _imports() if name == "dataclasses"] == []


def test_only_the_cli_imports_gc():
    # the collector policy is one pause, for the whole command, in
    # cli.dispatch
    assert [file for file, name in _imports() if name == "gc"] == ["cli.py"]


def test_cli_import_loads_no_one_command_module():
    # no module reads statistics, and platform is read only by
    # simulate's environment, so it does not load until then
    code = (
        "import sys\n"
        "import clustertree.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'statistics', 'platform'}"
        " & set(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(), capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"


def _records() -> dict:
    """A small instance of each of the 16 record types, by type name."""
    g = Graph.from_edges(2, [(0, 1)])
    skel = build_skeleton(1, 4)
    walk = AuditRecord(
        v=0, w=1, depth=0, position_v=INTERNAL, position_w=INTERNAL,
        history_v=None, history_w=None, bucket_lens_v=(1, 0),
        bucket_lens_w=(1, 0), case=None, special_case=False,
    )
    violation = Violation("assignment", "unknown cluster ids [7]")
    records = [
        DoubledGraph(graph=g, cluster_of=(0, 1)),
        k_hop_subgraph(g, 0, 1),
        GraphFile(graph=g, clusters=(0, 1), meta={"k": 1}),
        walk,
        PartialIsomorphism(forward={0: 1}, audit=(walk,)),
        CoveringMap(source=g, target=g, map=(0, 1)),
        Labeling.generate(3, 1),
        measure_expectation(g, 1, "skip-local-max", "vc", trials=2, seed=0),
        EdgePairCheck(v0=0, v1=1, v0_bar=2, passed=True),
        skel.clusters[1],
        skel.edges[0],
        skel,
        predicted_sizes(1, 4),
        build_low_girth(1, 4),
        violation,
        ValidationReport([violation]),
    ]
    return {type(r).__name__: r for r in records}


RECORD_FIELDS = {
    "DoubledGraph": ("graph", "cluster_of"),
    "RootedSubgraph": ("graph", "nodes"),
    "GraphFile": ("graph", "clusters", "meta"),
    "AuditRecord": (
        "v", "w", "depth", "position_v", "position_w", "history_v",
        "history_w", "bucket_lens_v", "bucket_lens_w", "case", "special_case",
    ),
    "PartialIsomorphism": ("forward", "audit"),
    "CoveringMap": ("source", "target", "map"),
    "Labeling": ("ids", "rng_seed"),
    "SimulationReport": (
        "kind", "trials", "sizes", "valid", "mean", "std", "all_valid",
        "oracle", "ratio",
    ),
    "EdgePairCheck": ("v0", "v1", "v0_bar", "passed"),
    "Cluster": ("id", "level", "position", "round", "parent", "parent_exponent"),
    "SkeletonEdge": ("a", "b", "exp_a", "exp_b"),
    "ClusterTreeSkeleton": ("k", "beta", "clusters", "edges"),
    "SizePrediction": (
        "k", "beta", "n0", "level_sizes", "n", "max_degree", "total_bound_ok",
        "excess_bound_ok",
    ),
    "CTGraph": ("graph", "skeleton", "cluster_of"),
    "Violation": ("constraint", "detail"),
    "ValidationReport": ("violations",),
}


@pytest.mark.parametrize("name, fields", RECORD_FIELDS.items(), ids=list(RECORD_FIELDS))
def test_record_semantics_are_pinned(name, fields):
    record = _records()[name]
    values = {f: getattr(record, f) for f in fields}
    # equality is field by field
    assert type(record)(**values) == record
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, values[f])
    text = repr(record)
    assert text.startswith(f"{name}({fields[0]}=")
    at = [text.find(f"{f}=") for f in fields]
    assert -1 not in at and at == sorted(at)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    # a Graph compares by identity, so compare what pickle writes
    assert pickle.dumps(back) == pickle.dumps(record)


def test_simulation_report_json_is_pinned():
    g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    report = measure_expectation(g, 1, "skip-local-max", "vc", trials=2, seed=0)
    assert json.dumps(report._asdict()) == (
        '{"kind": "vc", "trials": 2, "sizes": [4, 3], "valid": [true, true], '
        '"mean": 3.5, "std": 0.7071067811865476, "all_valid": true, '
        '"oracle": 3, "ratio": 1.1666666666666667}'
    )
