"""Command-line entry point.

Thin adapters only: argument parsing, file I/O, and calls into the
library. Each command is a generator that yields its exit code once,
after its output is written, and stays suspended, so what it built
outlives it until the caller lets it go (:func:`dispatch`) or the
process ends (:func:`main`). Exit codes: 0 success, 1 validation
failure, 2 usage error.
All randomness flows from a single --seed flag (default 0, never
entropy), so runs are reproducible.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
from collections.abc import Iterator

from . import builder, iso, lifts, localsim, skeleton as sk
from .errors import ClusterTreeError, SizeCapExceededError
from .graph import (
    GraphFile,
    girth,
    graph_to_dot,
    read_graph_json,
    write_graph_json,
)


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _read_graph(path: str) -> GraphFile:
    """:func:`read_graph_json`, after the file's size is priced: a file
    whose read would need more than ``MEMORY_BUDGET`` is refused before
    it is opened."""
    try:
        size = os.stat(path).st_size
    except OSError:
        size = 0  # the reader's open raises the same error
    need = sk.graph_read_bytes(size)
    if need > sk.MEMORY_BUDGET:
        raise ClusterTreeError(
            f"reading {path} ({size:,} bytes) needs about {need >> 20} MiB, "
            f"more than {sk.MEMORY_BUDGET >> 20} MiB"
        )
    return read_graph_json(path)


def _meta_skeleton(gf, path: str) -> sk.ClusterTreeSkeleton:
    """The skeleton named by a graph file's integer k/beta metadata.

    The file must carry clusters; the skeleton may not have more clusters
    than the file has distinct cluster ids.
    """
    if not gf.meta or not all(
        type(gf.meta.get(key)) is int for key in ("k", "beta")
    ):
        raise ClusterTreeError(f"{path} lacks integer k/beta metadata")
    sk.require_cluster_room(gf.meta["k"], len(set(gf.clusters)))
    return sk.build_skeleton(gf.meta["k"], gf.meta["beta"])


def _load_ct(path: str) -> sk.CTGraph:
    gf = _read_graph(path)
    if gf.clusters is None:
        raise ClusterTreeError(f"{path} lacks cluster assignments")
    skel = _meta_skeleton(gf, path)
    if max(gf.clusters, default=0) >= len(skel.clusters):
        raise ClusterTreeError(
            f"{path} carries cluster ids outside its skeleton "
            "(doubled graphs are not valid CT graphs)"
        )
    return sk.CTGraph(graph=gf.graph, skeleton=skel, cluster_of=gf.clusters)


def _cmd_skeleton(args) -> Iterator[int]:
    sk._require_beta(args.k, args.beta)
    try:
        sk.require_cluster_room(args.k, lifts.DEFAULT_SIZE_CAP)
    except ValueError as exc:  # valid arguments, too large an output
        raise ClusterTreeError(str(exc)) from None
    skel = sk.build_skeleton(args.k, args.beta)
    sk.write_skeleton_json(args.out, skel)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(sk.skeleton_to_dot(skel))
    print(f"wrote skeleton with {len(skel.clusters)} clusters to {args.out}")
    yield 0


def _cmd_build(args) -> Iterator[int]:
    k, beta, cap = args.k, args.beta, lifts.DEFAULT_SIZE_CAP
    if sk.root_edge_count(k, beta) > cap:
        raise ClusterTreeError(f"the ({k}, {beta}) graph has more than {cap} edges")
    ct = builder.build_low_girth(k, beta)
    if args.double:
        ct = builder.build_matching_double(ct)
    stage = "double" if args.double else "low-girth"
    meta = {"k": args.k, "beta": args.beta, "stage": stage}
    g = ct.graph
    write_graph_json(args.out, g, ct.cluster_of, meta)
    print(f"wrote graph with {g.n} nodes / {g.edge_count()} edges to {args.out}")
    yield 0


def _cmd_predict(args) -> Iterator[int]:
    # n_0 = beta^(2k+1) and the sizes below it are printed in full; one of
    # over 10,000 digits (k = 2000: 14,400) takes seconds, so refuse it
    digits = sk.n0_digits(args.k, args.beta)
    if digits > 10_000:
        raise ClusterTreeError(
            f"n_0 = beta^(2k+1) would have about {digits:,.0f} digits, "
            "more than predict prints (10,000)"
        )
    pred = sk.predicted_sizes(args.k, args.beta)
    doc = {
        "k": pred.k,
        "beta": pred.beta,
        "n0": pred.n0,
        "n": pred.n,
        "max_degree": pred.max_degree,
        "level_sizes": list(pred.level_sizes),
        "cluster_counts": [
            sk.cluster_count(args.k, l) for l in range(args.k + 2)
        ],
        "total_bound_ok": pred.total_bound_ok,
        "excess_bound_ok": pred.excess_bound_ok,
    }
    # exact values may run past the interpreter's int-to-str digit limit;
    # lift it for this output only, since dispatch may run in-process
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print(f"n_0={pred.n0} n={pred.n} max_degree={pred.max_degree}")
            print(f"per-cluster sizes by level: {list(pred.level_sizes)}")
            print(f"clusters by level: {doc['cluster_counts']}")
    finally:
        sys.set_int_max_str_digits(limit)
    yield 0


# the lift ops and the input flags each one reads
_LIFT_INPUTS = {
    "matching-decomposition": ("graph",),
    "double-cover": ("graph",),
    "common-lift": ("graph", "graph2"),
    "supergraph": ("graph",),
    "high-girth-regular": ("delta", "girth", "m"),
    "pipeline": ("k", "beta"),
}


def _cmd_lift(args) -> Iterator[int]:
    missing = [
        f"--{name}" for name in _LIFT_INPUTS[args.op] if getattr(args, name) is None
    ]
    if missing:
        raise ValueError(f"lift --op {args.op} needs {' and '.join(missing)}")
    # each op writes one file and prints one line; the graph ops write
    # their graph and maps after the chain
    clusters, meta, maps = None, {"stage": args.op}, ()
    if args.op == "matching-decomposition":
        g = _read_graph(args.graph).graph
        matchings = lifts.matching_decomposition(g)
        _write_json(args.out, matchings)  # json writes each pair as an array
        what = f"{len(matchings)} perfect matchings"
    elif args.op == "double-cover":
        g, cm = lifts.canonical_double_cover(_read_graph(args.graph).graph)
        maps = ((args.map_out, cm),)
        what = f"double cover with {g.n} nodes"
    elif args.op == "common-lift":
        h, h_prime = (_read_graph(p).graph for p in (args.graph, args.graph2))
        size = sk.common_lift_order(h, h_prime)
        if size > lifts.DEFAULT_SIZE_CAP:
            raise SizeCapExceededError(size, lifts.DEFAULT_SIZE_CAP)
        need = sk.common_lift_bytes(size, h.max_degree())
        if need > sk.MEMORY_BUDGET:
            raise ClusterTreeError(
                f"the common lift needs about {need >> 20} MiB to build, "
                f"more than {sk.MEMORY_BUDGET >> 20} MiB"
            )
        g, cm1, cm2 = lifts.common_lift(h, h_prime)
        maps = ((args.map_out, cm1), (args.map2_out, cm2))
        what = f"common lift with {g.n} nodes"
    elif args.op == "supergraph":
        g = lifts.regular_supergraph(_read_graph(args.graph).graph)
        what = f"{g.max_degree()}-regular supergraph with {g.n} nodes"
    elif args.op == "high-girth-regular":
        # the output has exactly 2m nodes; the cap also keeps 2m printable
        if 2 * args.m > lifts.DEFAULT_SIZE_CAP:
            raise SizeCapExceededError(2 * args.m, lifts.DEFAULT_SIZE_CAP)
        if sk.high_girth_bytes(2 * args.m) > sk.MEMORY_BUDGET:
            raise ClusterTreeError(
                f"a high-girth graph on {2 * args.m} nodes needs more than "
                f"{sk.MEMORY_BUDGET >> 20} MiB for its ball table"
            )
        g = lifts.high_girth_regular(args.delta, args.girth, args.m)
        what = f"{args.delta}-regular graph, girth {girth(g)},"
    else:  # pipeline
        ct, cm = lifts.build_high_girth_ct(args.k, args.beta)
        g, clusters = ct.graph, ct.cluster_of
        meta = {"k": args.k, "beta": args.beta, "stage": "high-girth"}
        maps = ((args.map_out, cm),)
        what = f"lifted CT graph with {g.n} nodes"
    if args.op != "matching-decomposition":
        write_graph_json(args.out, g, clusters, meta)
    for path, cm in maps:
        if path:
            _write_json(path, {"map": list(cm.map)})
    print(f"wrote {what} to {args.out}")
    yield 0


def _cmd_verify_iso(args) -> Iterator[int]:
    if (args.v0 is None) != (args.v1 is None):
        raise ValueError("--v0 and --v1 go together")
    if args.v0 is None and args.all_pairs_sample is None:
        raise ValueError("need --v0/--v1 or --all-pairs-sample")
    if args.v0 is not None and args.all_pairs_sample is not None:
        raise ValueError("--v0/--v1 and --all-pairs-sample exclude each other")
    if args.all_pairs_sample is not None and args.all_pairs_sample < 1:
        raise ValueError("--all-pairs-sample must be at least 1")
    ct = _load_ct(args.graph)
    if args.v0 is not None:
        pairs = [(args.v0, args.v1)]
    else:
        # _load_ct admits only files that carry every skeleton cluster;
        # each pair is drawn just before its walk
        groups = ct.cluster_nodes()
        rng = random.Random(args.seed)
        pairs = (
            (rng.choice(groups[0]), rng.choice(groups[1]))
            for _ in range(args.all_pairs_sample)
        )
    histogram: dict[str, int] = {}
    special = 0
    success = True
    for count, (v0, v1) in enumerate(pairs, 1):
        phi = iso.find_isomorphism(ct, args.k, v0, v1)
        ok = iso.verify_isomorphism(ct, args.k, v0, v1, phi)
        success = success and ok
        special += phi.special_case_count()
        for case, hits in phi.case_histogram().items():
            key = str(case)
            histogram[key] = histogram.get(key, 0) + hits
    doc = {
        "success": success,
        "pairs": count,
        "audit_case_histogram": histogram,
        "special_case_count": special,
    }
    if args.report:
        _write_json(args.report, doc)
    print(json.dumps(doc))
    yield 0 if success else 1


def _cmd_simulate(args) -> Iterator[int]:
    if args.trials > sk.MAX_TRIALS:
        raise ClusterTreeError(
            f"{args.trials} trials are more than the {sk.MAX_TRIALS} whose "
            f"results fit in {sk.MEMORY_BUDGET >> 20} MiB"
        )
    gf = _read_graph(args.graph)
    report = localsim.measure_expectation(
        gf.graph,
        args.k,
        args.alg,
        args.kind,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
    )
    import platform  # only simulate reports the host

    doc = report._asdict()  # JSON writes the tuples as arrays
    doc["environment"] = {
        "python": platform.python_version(),
        # platform.platform() reads uname().processor, which runs `uname -p`
        # in a child process
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "graph": args.graph,
        "k": args.k,
        "alg": args.alg,
        "seed": args.seed,
        "jobs": args.jobs,
    }
    if args.report:
        _write_json(args.report, doc)
    summary = {k: doc[k] for k in ("kind", "trials", "mean", "std", "all_valid", "ratio")}
    print(json.dumps(summary))
    yield 0 if report.all_valid else 1


def _cmd_export_dot(args) -> Iterator[int]:
    if args.skeleton:
        skel = sk.read_skeleton_json(args.skeleton)
        text = sk.skeleton_to_dot(skel)
    else:
        gf = _read_graph(args.graph)
        levels = None
        if gf.clusters and gf.meta and "k" in gf.meta:
            skel = _meta_skeleton(gf, args.graph)
            # a doubled graph's mirror clusters reuse the base levels
            m = len(skel.clusters)
            levels = {c.id + s: c.level for s in (0, m) for c in skel.clusters}
        text = graph_to_dot(gf.graph, gf.clusters, levels)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote DOT to {args.out}")
    yield 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustertree",
        description=(
            "Build cluster-tree lower-bound graphs, lift them to high "
            "girth, verify view isomorphisms, and simulate LOCAL algorithms."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("skeleton", help="build a skeleton and write it as JSON")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dot", help="also write a DOT rendering")
    p.set_defaults(fn=_cmd_skeleton)

    p = subs.add_parser("build", help="instantiate a low-girth CT graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--double", action="store_true",
                   help="emit the doubled graph with its perfect matching")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_build)

    p = subs.add_parser("predict", help="closed-form sizes and degree")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_predict)

    p = subs.add_parser("lift", help="girth-raising operations")
    p.add_argument("--op", required=True, choices=list(_LIFT_INPUTS))
    p.add_argument("--graph")
    p.add_argument("--graph2")
    p.add_argument("--k", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--girth", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--map-out")
    p.add_argument("--map2-out")
    p.set_defaults(fn=_cmd_lift)

    p = subs.add_parser("verify-iso", help="run and check the view isomorphism")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--v0", type=int)
    p.add_argument("--v1", type=int)
    p.add_argument("--all-pairs-sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_verify_iso)

    p = subs.add_parser("simulate", help="measure a LOCAL algorithm over trials")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alg", required=True, choices=list(localsim.ALGORITHMS))
    p.add_argument("--kind", required=True, choices=list(localsim.KINDS))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_simulate)

    p = subs.add_parser("export-dot", help="write a DOT rendering")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--skeleton")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_dot)

    return parser


def _run(argv) -> tuple[int, Iterator[int] | None]:
    """Parse ``argv`` and run its command up to the exit code it yields.

    Returns the code and the command, suspended at its ``yield`` with
    every file it wrote closed and its line printed; its frame still
    holds what it read and built. After an argparse exit or a one-line
    error the command is None.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), None
    command = args.fn(args)
    try:
        return next(command), command
    except ClusterTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2, None


def dispatch(argv) -> int:
    """Run one command and return its exit code, with the cyclic garbage
    collector paused from before argument parsing until the return.

    Decoded JSON, graph rows, views and trials hold no cycle, so
    reference counting frees them and no collector pass need walk them
    (one would walk the 72,000 rows of the (1,5) output after its read).
    The command's working set is freed here, before the collector runs
    again. Forked pool workers inherit the pause. On every way out the
    collector is enabled again only if it was enabled on entry.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        code, command = _run(argv)
        del command  # its working set goes while the collector is paused
        return code
    finally:
        if was_enabled:
            gc.enable()


def main() -> None:
    """Run the command named by ``sys.argv`` and end the process.

    The process ends through ``os._exit`` with the command still
    suspended, so neither its working set nor the interpreter is torn
    down object by object: the OS reclaims the memory at once. Nothing
    registered with ``atexit`` runs. Standard output and error are
    flushed first; one that cannot be written ends in status 120 with no
    traceback, the status the interpreter's own exit gives.
    """
    gc.disable()
    code, command = _run(sys.argv[1:])  # command stays alive until os._exit
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when its descriptor was closed at start
            try:
                stream.flush()
            except OSError:
                code = 120
    os._exit(code)


if __name__ == "__main__":
    main()
