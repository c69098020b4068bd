"""The traced bench names library functions in ``perfbench/run.py``
``LAYERS``; each name must still resolve, so a rename fails here rather
than only in a traced bench run."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

from clustertree import graph, lifts
from clustertree.cli import dispatch

from conftest import child_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str) -> types.ModuleType:
    """A perfbench script as a module; its ``main`` runs only as __main__."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_layer_names_resolve_to_public_functions():
    layers = load("run").LAYERS
    classmethods = load("tracer").CLASSMETHODS
    names = {fn for fn, _moves in layers.values() if fn}
    assert "lifts.common_lift" in names
    for name in sorted(names):
        if name in classmethods:
            short, cls_name, meth = classmethods[name]
            cls = getattr(importlib.import_module(f"clustertree.{short}"), cls_name)
            assert isinstance(vars(cls).get(meth), classmethod), name
            continue
        short, fn_name = name.split(".")
        module = importlib.import_module(f"clustertree.{short}")
        fn = getattr(module, fn_name, None)
        # the tracer wraps the module's own functions, named as defined
        assert isinstance(fn, types.FunctionType), name
        assert fn.__module__ == module.__name__ and fn.__name__ == fn_name, name
        assert not fn_name.startswith("_"), name


def test_pipeline_calls_its_lift_layers_once(monkeypatch):
    # the pipeline-k1b5 rows of LAYERS need calls to both; common_lift
    # proves each of its two projections once, on the bases
    results: dict[str, list] = {}
    for name in ("common_lift", "verify_covering_map"):
        real = getattr(lifts, name)
        out = results.setdefault(name, [])

        def spy(*args, real=real, out=out, **kwargs):
            out.append(real(*args, **kwargs))
            return out[-1]

        monkeypatch.setattr(lifts, name, spy)
    ct, _ = lifts.build_high_girth_ct(1, 4)
    assert {name: len(out) for name, out in results.items()} == {
        "common_lift": 1,
        "verify_covering_map": 2,
    }
    # lifts.common_lift.nodes counts the output, not a whole lift
    assert results["common_lift"][0][0] is ct.graph


def test_byte_counters_read_the_path_argument(tmp_path):
    # the tracer's .bytes counters take the file size of args[0], so the
    # path must stay the first parameter of both JSON functions
    counters = load("tracer").COUNTERS
    path = tmp_path / "g.json"
    g = graph.Graph.from_edges(3, [(0, 1), (1, 2)])
    graph.write_graph_json(str(path), g)
    for name in ("write_graph_json", "read_graph_json"):
        fn = getattr(graph, name)
        assert next(iter(inspect.signature(fn).parameters)) == "path", name
        counts = counters[f"graph.{name}"]((str(path), g), None)
        assert counts == {f"graph.{name}.bytes": path.stat().st_size}, name


def test_every_layer_records_calls_on_small_workloads(tmp_path):
    # the tracer fails a bench run whose LAYERS span records no call on a
    # workload of its row; small versions of the four workloads show it
    # here: (1,4) in place of (1,5) and (1,16), and few trials and pairs
    run = load("run")
    g14, l14 = str(tmp_path / "g14.json"), str(tmp_path / "l14.json")
    assert dispatch(["build", "--k", "1", "--beta", "4", "--out", g14]) == 0
    simulate = ["simulate", "--graph", g14, "--k", "1", "--alg", "skip-local-max",
                "--kind", "vc", "--trials", "2", "--seed", "0"]
    workloads = {  # run in this order: verify-iso reads the pipeline's output
        run.PIPE: ["lift", "--op", "pipeline", "--k", "1", "--beta", "4", "--out", l14],
        run.SIM: [*simulate, "--report", str(tmp_path / "sim.json")],
        run.ISO: ["verify-iso", "--graph", l14, "--k", "1", "--all-pairs-sample", "3",
                  "--seed", "0", "--report", str(tmp_path / "iso.json")],
        run.JOBS2: [*simulate, "--jobs", "2", "--report", str(tmp_path / "jobs2.json")],
    }
    env = child_env()
    calls = {}
    for name, argv in workloads.items():
        spans = tmp_path / f"{name}.spans.json"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "tracer.py"), str(spans), *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, (name, proc.stderr)
        stats = json.loads(spans.read_text())["stats"]
        calls[name] = {fn: s["calls"] for fn, s in stats.items()}
    silent = sorted(
        (fn, w)
        for fn, moves in run.LAYERS.values()
        if fn
        for w in moves
        if not calls[w].get(fn)
    )
    assert not silent
