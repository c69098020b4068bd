"""Traced in-process run of one clustertree CLI command.

Usage, from the repository root with ``src`` on ``PYTHONPATH``:

    python3 perfbench/tracer.py SPANS_OUT ARGV...

Wraps every public function of the clustertree modules with a timing
span, in every module namespace that binds it (``from .graph import
k_hop_subgraph`` binds a separate name in ``localsim`` and in ``iso``),
then runs ``clustertree.cli.dispatch(ARGV)``. Spans stay in memory and
are written to SPANS_OUT as JSON when the command ends, together with
per-function calls, total and self time and a few size counters. Exits
with the command's exit code.

Spans recorded in process-pool workers stay in the workers; their cost
shows only as ``localsim.worker_cpu_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
import types

MODULES = ("graph", "skeleton", "builder", "lifts", "matching", "iso", "localsim", "cli")

# span name -> (module, class, classmethod)
CLASSMETHODS = {
    "graph.from_edges": ("graph", "Graph", "from_edges"),
    "localsim.Labeling.generate": ("localsim", "Labeling", "generate"),
}

# span name -> counters derived from (positional args, result)
COUNTERS = {
    "lifts.common_lift": lambda args, res: {"lifts.common_lift.nodes": res[0].n},
    "graph.from_edges": lambda args, res: {"graph.from_edges.edges": res.edge_count()},
    "graph.read_graph_json": lambda args, res: {
        "graph.read_graph_json.bytes": os.path.getsize(args[0])
    },
    "graph.write_graph_json": lambda args, res: {
        "graph.write_graph_json.bytes": os.path.getsize(args[0])
    },
    "iso.find_isomorphism": lambda args, res: {"iso.audit_records": len(res.audit)},
}

# spans that also record CPU time of this process and of its reaped children
CPU_SPLIT = {"localsim.measure_expectation": ("localsim.parent_cpu_s", "localsim.worker_cpu_s")}


def _cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class Tracer:
    """In-memory span recorder: one (name, parent, start, end) per call."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        count = COUNTERS.get(name)
        cpu_keys = CPU_SPLIT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if cpu_keys:
                cpu0 = (_cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN))
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, parent, t0, t1)
            if cpu_keys:
                self.add(cpu_keys[0], _cpu(resource.RUSAGE_SELF) - cpu0[0])
                self.add(cpu_keys[1], _cpu(resource.RUSAGE_CHILDREN) - cpu0[1])
            if count:
                for key, value in count(args, res).items():
                    self.add(key, value)
            return res

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s (total minus child spans).

        Call only when no span is open.
        """
        child = [0.0] * len(self.spans)
        for _name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats: dict[str, dict[str, float]] = {}
        for sid, (name, _parent, t0, t1) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[sid]
        return stats


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions; returns the span names installed."""
    mods = {m: importlib.import_module(f"clustertree.{m}") for m in MODULES}
    wrappers = {}
    names = []
    for short, mod in mods.items():
        for obj in list(vars(mod).values()):
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and not obj.__name__.startswith("_")
            ):
                names.append(f"{short}.{obj.__name__}")
                wrappers[obj] = tracer.wrap(names[-1], obj)
    for ns in (*mods.values(), importlib.import_module("clustertree")):
        for attr, obj in list(vars(ns).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(ns, attr, wrappers[obj])
    for name, (short, cls_name, meth) in CLASSMETHODS.items():
        cls = getattr(mods[short], cls_name)
        fn = vars(cls)[meth].__func__
        setattr(cls, meth, classmethod(tracer.wrap(name, fn)))
        names.append(name)
    return sorted(names)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    names = install(tracer)
    from clustertree import cli

    rc = cli.dispatch(cli_argv)
    doc = {
        "argv": cli_argv,
        "rc": rc,
        "wrapped": names,
        "stats": tracer.summary(),
        "counters": tracer.counters,
        "spans": tracer.spans,  # [name, parent index or -1, start, end]
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
