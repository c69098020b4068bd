"""The traced bench names library functions in ``perfbench/run.py``
``LAYERS``; each name must still resolve, so a rename fails here rather
than only in a traced bench run."""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types
from pathlib import Path

from clustertree import lifts

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
