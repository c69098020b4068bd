"""Benchmark for the clustertree CLI.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

One run starts the workload's command as fresh ``python -m clustertree``
processes for about ``--seconds`` seconds, at least twice, and checks
every output. Before each invocation it makes the input files again with
the CLI set-up command (verify-iso, whose input takes one pipeline run,
only before the first), so set-up samples span the run as the invocations
do. BENCHMARK.json names the workloads and the metrics with their units.

The host runs each CPU of this machine either fast or up to 1.7 times
slower, switching every few seconds, and the mix drifts over minutes. So
every wall time is scaled to a reference CPU speed: a probe thread on the
CPU that runs the command wakes every 20 ms, runs a fixed unit of Python
work and records its thread CPU time, and a wall time is multiplied by
``PROBE_REF_S`` over the probe's mean unit time during that command. The
single-process workloads are pinned to one CPU, with their probe; the
pool workload runs on every CPU, with a probe on each. Raw wall times are
printed and kept next to the scaled ones.

With ``--trace 0`` a run reports the end-to-end metrics:

    wall_s       median scaled wall time of one invocation, spawn to exit
    ops_per_s    completed operations per scaled wall second: output nodes
                 (pipeline), trials (simulate) or sampled pairs (verify-iso)
    peak_rss_mb  median ru_maxrss of an invocation, pool workers included
    setup_s      median scaled wall time of one set-up command

With ``--trace 1`` it then runs the same command once more under
``perfbench/tracer.py``, which wraps the public functions of every module
with timing spans, and reports the per-layer metrics instead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit, ``failed_ratio``, output digests and
context. Samples, digests, context and spans are kept under
``.perfbench_work/``.

``--workload all`` runs every workload in both modes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
CHECK_LIFT = TRACER.parent / "check_lift.py"

# A run must end within 180 s; the slowest invocation takes about 15 s.
RUN_BUDGET_S = 170
# Trials per simulate invocation. The real traffic is 1,000 trials; at 100
# the trials take about three times the one-time view setup (about 1 s).
# --jobs 2 costs about 0.4 s per trial on 2 cores, so its workload runs 20.
SIM_TRIALS = 100
POOL_TRIALS = 20
PAIRS = 100
PIPELINE_NODES = 72_000

# CPUs this process may use, counted before a run pins itself to one
NPROC = len(os.sched_getaffinity(0))

# The probe's unit: its CPU time on this benchmark's reference machine
# (2-vCPU Xeon, Python 3.11.7) at a typical host speed. Scaled wall times
# are wall times as if every probe unit had taken this long.
PROBE_REF_S = 0.0005
PROBE_PERIOD_S = 0.02

PIPE, SIM, ISO, JOBS2 = "pipeline-k1b5", "simulate-k1b16", "verify-iso-k1b5", "simulate-jobs2-k1b16"

# BENCHMARK.json names the workloads and the metrics with their units;
# LAYERS maps each per-layer metric to the span whose calls it needs and
# to what it should move. A span named here must record calls on every
# workload its row names, so a renamed function cannot silently drop a layer.
LAYERS = {
    "lifts.high_girth_regular.self_s": ("lifts.high_girth_regular", {PIPE: "wall_s"}),
    "lifts.common_lift.self_s": ("lifts.common_lift", {PIPE: "wall_s peak_rss_mb"}),
    "lifts.common_lift.nodes": ("lifts.common_lift", {PIPE: "wall_s peak_rss_mb"}),
    "lifts.matching_decomposition.calls": ("lifts.matching_decomposition", {PIPE: "wall_s peak_rss_mb"}),
    "lifts.matching_decomposition.self_s": ("lifts.matching_decomposition", {PIPE: "wall_s peak_rss_mb"}),
    "matching.hopcroft_karp.calls": ("matching.hopcroft_karp", {PIPE: "wall_s peak_rss_mb"}),
    "matching.hopcroft_karp.total_s": ("matching.hopcroft_karp", {PIPE: "wall_s peak_rss_mb"}),
    "lifts.verify_covering_map.calls": ("lifts.verify_covering_map", {PIPE: "wall_s"}),
    "lifts.regular_supergraph.total_s": ("lifts.regular_supergraph", {PIPE: "wall_s"}),
    "graph.girth.calls": ("graph.girth", {PIPE: "wall_s"}),
    "graph.girth_at_least.calls": ("graph.girth_at_least", {PIPE: "wall_s"}),
    "graph.girth_at_least.total_s": ("graph.girth_at_least", {PIPE: "wall_s"}),
    "graph.from_edges.calls": ("graph.from_edges", {PIPE: "wall_s", ISO: "wall_s"}),
    "graph.from_edges.total_s": ("graph.from_edges", {PIPE: "wall_s", ISO: "wall_s"}),
    "graph.from_edges.edges": ("graph.from_edges", {PIPE: "wall_s", ISO: "wall_s"}),
    "graph.read_graph_json.total_s": ("graph.read_graph_json", {ISO: "wall_s peak_rss_mb", SIM: "wall_s"}),
    "graph.read_graph_json.bytes": ("graph.read_graph_json", {ISO: "wall_s peak_rss_mb", SIM: "wall_s"}),
    "graph.write_graph_json.total_s": ("graph.write_graph_json", {PIPE: "wall_s"}),
    "graph.write_graph_json.bytes": ("graph.write_graph_json", {PIPE: "wall_s"}),
    "graph.k_hop_subgraph.calls": ("graph.k_hop_subgraph", {SIM: "wall_s", ISO: "wall_s"}),
    "graph.k_hop_subgraph.total_s": ("graph.k_hop_subgraph", {SIM: "wall_s", ISO: "wall_s"}),
    "localsim.run_local.calls": ("localsim.run_local", {SIM: "wall_s ops_per_s"}),
    "localsim.run_local.self_s": ("localsim.run_local", {SIM: "wall_s ops_per_s"}),
    "localsim.validate_solution.calls": ("localsim.validate_solution", {SIM: "wall_s ops_per_s"}),
    "localsim.validate_solution.total_s": ("localsim.validate_solution", {SIM: "wall_s ops_per_s"}),
    "localsim.Labeling.generate.total_s": ("localsim.Labeling.generate", {SIM: "wall_s ops_per_s"}),
    "localsim.exact_mvc_bipartite.total_s": ("localsim.exact_mvc_bipartite", {SIM: "wall_s"}),
    "localsim.parent_cpu_s": ("localsim.measure_expectation", {JOBS2: "wall_s peak_rss_mb"}),
    "localsim.worker_cpu_s": ("localsim.measure_expectation", {JOBS2: "wall_s peak_rss_mb"}),
    "iso.find_isomorphism.calls": ("iso.find_isomorphism", {ISO: "wall_s"}),
    "iso.find_isomorphism.self_s": ("iso.find_isomorphism", {ISO: "wall_s"}),
    "iso.verify_isomorphism.calls": ("iso.verify_isomorphism", {ISO: "wall_s"}),
    "iso.verify_isomorphism.self_s": ("iso.verify_isomorphism", {ISO: "wall_s"}),
    "iso.audit_records": ("iso.find_isomorphism", {ISO: "wall_s"}),
    "cli.dispatch.self_s": ("cli.dispatch", {w: "wall_s" for w in (PIPE, SIM, ISO, JOBS2)}),
    # traced scaled wall time / untraced wall_s of the same command
    "trace.overhead_ratio": (None, {}),
    # share of the traced process's wall time outside every span:
    # interpreter start, imports, wrapping and writing the spans
    "trace.uncovered_share": (None, {}),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _probe_unit() -> None:
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 211] = counts.get(i % 211, 0) + i


class SpeedProbe:
    """Samples how fast the host runs each of the given CPUs.

    One thread per CPU wakes every PROBE_PERIOD_S, runs ``_probe_unit``
    and records the unit's thread CPU time, which the host stretches as it
    does the measured command's on that CPU. Use as a context manager; the
    threads end when it exits.
    """

    def __init__(self, cpus: list[int]) -> None:
        self.ticks: list[tuple[float, float]] = []  # (start, unit CPU seconds)
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._sample, args=(c,), daemon=True)
                         for c in cpus]

    def __enter__(self) -> "SpeedProbe":
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(PROBE_PERIOD_S):
            t, c = time.perf_counter(), time.thread_time()
            _probe_unit()
            self.ticks.append((t, time.thread_time() - c))

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the mean unit time in [t0, t1]; below 1 while
        the host runs slow. Short windows use the nearest ticks."""
        units = [u for t, u in self.ticks if t0 <= t <= t1]
        if len(units) < 4:
            mid = (t0 + t1) / 2
            units = [u for _t, u in sorted(self.ticks, key=lambda x: abs(x[0] - mid))[:4]]
        if not units:
            raise BenchError("the speed probe recorded no samples")
        return PROBE_REF_S / statistics.fmean(units)


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    rc: int
    stderr: str
    start: float = 0.0
    scaled_s: float = 0.0  # wall_s at the reference CPU speed


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], log: Path, env: dict, timeout: float) -> Invocation:
    """Run argv as a new process group; wall time from spawn to exit.

    ``ru_maxrss`` from ``wait4`` covers the child and the children it
    reaped, so process-pool workers count too.
    """
    out, err = log.with_suffix(".out"), log.with_suffix(".err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions, setpgroup=0)
    watchdog = threading.Timer(timeout, _kill_group, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        _kill_group(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
        # stragglers of the group (pool workers) never outlive the run
        _kill_group(pid)
    return Invocation(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,
        rc=os.waitstatus_to_exitcode(status),
        stderr=err.read_text(encoding="utf-8", errors="replace"),
        start=t0,
    )


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


@dataclass
class Run:
    """State of one benchmark run of one workload."""

    workload: str
    seed: int
    dir: Path
    env: dict
    probe: SpeedProbe
    deadline: float = field(default_factory=lambda: time.perf_counter() + RUN_BUDGET_S)
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    invocations: int = 0

    def rel(self, name: str) -> str:
        """Path of a work file, relative to the root, so reports that
        echo it stay byte-identical between checkouts."""
        return str((self.dir / name).relative_to(ROOT))

    def spawn(self, argv: list[str], log: str) -> Invocation:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S} s budget")
        inv = spawn([sys.executable, *argv], self.dir / log, self.env, left)
        if time.perf_counter() >= self.deadline:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S} s budget")
        inv.scaled_s = inv.wall_s * self.probe.scale(inv.start, inv.start + inv.wall_s)
        return inv

    def cli(self, args: list[str]) -> Invocation:
        self.invocations += 1
        return self.spawn(["-m", "clustertree", *args], f"cli-{self.invocations:03d}")

    def traced(self, args: list[str], spans: Path) -> Invocation:
        return self.spawn([str(TRACER), str(spans), *args], "traced")

    def setup_cli(self, args: list[str], out: str) -> Invocation:
        """Run a set-up command that writes the input file ``out``.

        Set-ups repeat during a run; each must write the same bytes.
        """
        inv = self.cli(args)
        if inv.rc != 0:
            raise BenchError(f"set-up command {args} exited {inv.rc}: {inv.stderr.strip()}")
        self.record(out, sha256_file(self.dir / out))
        return inv

    def record(self, key: str, digest: str) -> None:
        """Keep an output digest; repeated invocations must agree."""
        if self.digests.setdefault(key, digest) != digest:
            self.problems.append(f"{key} differs between invocations of one seed")


# ---------------------------------------------------------------------------
# Workloads: set-up, command, operations per invocation and output check
# ---------------------------------------------------------------------------


def _pipeline_args(out: str) -> list[str]:
    return ["lift", "--op", "pipeline", "--k", "1", "--beta", "5", "--out", out]


def _simulate_args(run: Run, jobs: int, trials: int) -> list[str]:
    args = ["simulate", "--graph", run.rel("g16.json"), "--k", "1", "--alg", "skip-local-max",
            "--kind", "vc", "--trials", str(trials), "--seed", str(run.seed),
            "--report", run.rel(f"sim-jobs{jobs}.json")]
    return args + ["--jobs", str(jobs)] if jobs > 1 else args


def setup_pipeline(run: Run) -> Invocation:
    # the low-girth (1,5) base graph, which the output check compares against
    return run.setup_cli(["build", "--k", "1", "--beta", "5", "--out", run.rel("base.json")],
                         "base.json")


def setup_simulate(run: Run) -> Invocation:
    return run.setup_cli(["build", "--k", "1", "--beta", "16", "--out", run.rel("g16.json")],
                         "g16.json")


def setup_verify_iso(run: Run) -> Invocation:
    # one pipeline run (11-15 s) makes the 5 MB input
    return run.setup_cli(_pipeline_args(run.rel("l15.json")), "l15.json")


def check_pipeline(run: Run) -> int:
    out = run.dir / "l15.json"
    try:
        checked = subprocess.run(
            [sys.executable, str(CHECK_LIFT), str(out), str(run.dir / "base.json")],
            capture_output=True, text=True, timeout=max(1, run.deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded its {RUN_BUDGET_S} s budget") from None
    if checked.returncode != 0:
        raise ValueError(f"lift check exited {checked.returncode}: {checked.stderr.strip()[-300:]}")
    found = json.loads(checked.stdout)
    run.problems.extend(found)
    run.record("l15.json", sha256_file(out))
    return PIPELINE_NODES if found else 0


def check_simulate(run: Run, jobs: int, trials: int) -> int:
    name = f"sim-jobs{jobs}.json"
    path = run.dir / name
    report = json.loads(path.read_text())
    sizes, valid = report.get("sizes", []), report.get("valid", [])
    found = []
    if report.get("trials") != trials or len(sizes) != trials or len(valid) != trials:
        found.append(f"{name} has {report.get('trials')} trials, {len(sizes)} sizes")
    if report.get("all_valid") is not True:
        found.append(f"{name} all_valid is {report.get('all_valid')}")
    run.problems.extend(found)
    run.record(name, sha256_file(path))
    run.record(f"{name}:sizes", sha256_json(sizes))
    if len(valid) != trials:
        return trials
    return sum(1 for ok in valid if ok is not True)


def check_verify_iso(run: Run) -> int:
    path = run.dir / "iso.json"
    report = json.loads(path.read_text())
    found = []
    if report.get("success") is not True:
        found.append(f"iso.json success is {report.get('success')}")
    if report.get("pairs") != PAIRS:
        found.append(f"iso.json has {report.get('pairs')} pairs")
    run.problems.extend(found)
    run.record("iso.json", sha256_file(path))
    # the report does not say which pair failed, so a failure fails them all
    return PAIRS if found else 0


def check_jobs2(run: Run) -> None:
    """Sizes from the pool must equal a --jobs 1 run of the same trials."""
    ref = run.cli(_simulate_args(run, 1, POOL_TRIALS))
    if ref.rc != 0:
        run.problems.append(f"--jobs 1 reference exited {ref.rc}")
        return
    check_simulate(run, 1, POOL_TRIALS)
    if run.digests.get("sim-jobs1.json:sizes") != run.digests.get("sim-jobs2.json:sizes"):
        run.problems.append("--jobs 2 sizes differ from --jobs 1 sizes")


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Run], Invocation]  # makes the input
    args: Callable[[Run], list[str]]
    ops: int  # operations one invocation attempts
    check: Callable[[Run], int]  # returns failed operations
    finish: Callable[[Run], None] | None = None
    min_invocations: int = 2
    # Set-ups before each invocation. The host's speed drifts over tens of
    # seconds, so set-ups spread over the run give a steadier median than a
    # burst at its start. 0: set up once, before the first invocation.
    setups_per_invocation: int = 1
    # False: the command uses every CPU (a process pool), so it is not
    # pinned to one and each CPU gets a probe.
    pinned: bool = True


WORKLOADS = {
    PIPE: Workload(setup_pipeline, lambda r: _pipeline_args(r.rel("l15.json")),
                   PIPELINE_NODES, check_pipeline, setups_per_invocation=4),
    # invocations take 4-7 s; four of them span more of the host's drift
    SIM: Workload(setup_simulate, lambda r: _simulate_args(r, 1, SIM_TRIALS), SIM_TRIALS,
                  lambda r: check_simulate(r, 1, SIM_TRIALS), min_invocations=4,
                  setups_per_invocation=2),
    # the input is one pipeline run, too long to repeat
    ISO: Workload(setup_verify_iso,
                  lambda r: ["verify-iso", "--graph", r.rel("l15.json"), "--k", "1",
                             "--all-pairs-sample", str(PAIRS), "--seed", str(r.seed),
                             "--report", r.rel("iso.json")],
                  PAIRS, check_verify_iso, setups_per_invocation=0),
    JOBS2: Workload(setup_simulate, lambda r: _simulate_args(r, 2, POOL_TRIALS), POOL_TRIALS,
                    lambda r: check_simulate(r, 2, POOL_TRIALS), check_jobs2,
                    setups_per_invocation=3, pinned=False),
}

# inputs and outputs too large to keep once a run has ended
SCRATCH_FILES = ("base.json", "g16.json", "l15.json")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def invoke_checked(run: Run, wl: Workload, inv: Invocation) -> int:
    """Failed operations of one invocation; a bad exit or output fails all."""
    if inv.rc != 0:
        run.problems.append(f"exit code {inv.rc}: {inv.stderr.strip()[-300:]}")
        return wl.ops
    try:
        return wl.check(run)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        run.problems.append(f"output check failed: {exc!r}")
        return wl.ops


def measure(run: Run, wl: Workload, seconds: float) -> dict:
    """Start the command again while the next one should end in time."""
    invs: list[Invocation] = []
    setups = [wl.setup(run) for _ in range(max(wl.setups_per_invocation, 1))]
    attempted = failed = 0
    start = time.perf_counter()
    while len(invs) < wl.min_invocations or (
        time.perf_counter() - start + statistics.median(i.wall_s for i in invs) <= seconds
    ):
        if invs:
            setups += [wl.setup(run) for _ in range(wl.setups_per_invocation)]
        inv = run.cli(wl.args(run))
        invs.append(inv)
        attempted += wl.ops
        failed += invoke_checked(run, wl, inv)
    return {
        "scaled": [i.scaled_s for i in invs],
        "walls": [i.wall_s for i in invs],
        "rss": [i.rss_mb for i in invs],
        "setups_scaled": [i.scaled_s for i in setups],
        "setups": [i.wall_s for i in setups],
        "attempted": attempted,
        "failed": failed,
    }


def traced_metrics(run: Run, wl: Workload, untraced_wall: float) -> tuple[dict, int]:
    spans = run.dir / "spans.json"
    inv = run.traced(wl.args(run), spans)
    failed = invoke_checked(run, wl, inv)
    if inv.rc != 0 or not spans.is_file():
        raise BenchError(f"traced run failed: exit {inv.rc}: {inv.stderr.strip()[-300:]}")
    doc = json.loads(spans.read_text())
    stats, counters = doc["stats"], doc["counters"]
    missing = sorted({fn for fn, _m in LAYERS.values() if fn} - set(doc["wrapped"]))
    if missing:
        raise BenchError(f"tracer wrapped no function named {missing}")
    silent = sorted({
        fn for fn, moves in LAYERS.values()
        if run.workload in moves and stats.get(fn, {}).get("calls", 0) == 0
    })
    if silent:
        raise BenchError(f"layers recorded zero calls on {run.workload}: {silent}")
    top = sum(t1 - t0 for _n, parent, t0, t1 in doc["spans"] if parent < 0)
    values = {
        "trace.overhead_ratio": inv.scaled_s / untraced_wall,
        "trace.uncovered_share": (inv.wall_s - top) / inv.wall_s,
    }
    for name, (fn, _moves) in LAYERS.items():
        if name in values:
            continue
        stat = name.rsplit(".", 1)[1]
        if name in counters or stat not in ("calls", "total_s", "self_s"):
            values[name] = counters.get(name, 0)
        else:
            values[name] = stats.get(fn, {}).get(stat, 0)
    return values, failed


def context() -> dict:
    files = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        lines += data.count(b"\n")
        tree.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
    commit = None  # outside a git checkout, src_sha256 names the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": NPROC,
        "commit": commit,
        "src_sha256": tree.hexdigest(),
        "src_lines": lines,
    }


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("KMW_SIZE_CAP", None)
    cpus = sorted(os.sched_getaffinity(0))
    if wl.pinned:
        # this thread only: the commands it spawns, and their probe, share one CPU
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    started = time.perf_counter()
    with SpeedProbe(cpus) as probe:
        run = Run(name, seed, WORK / f"{name}-s{seed}-t{int(trace)}", env, probe)
        shutil.rmtree(run.dir, ignore_errors=True)
        run.dir.mkdir(parents=True)
        try:
            m = measure(run, wl, seconds)
            if wl.finish:
                wl.finish(run)
            wall = statistics.median(m["scaled"])
            values = {
                "wall_s": wall,
                "ops_per_s": (m["attempted"] - m["failed"]) / sum(m["scaled"]),
                "peak_rss_mb": statistics.median(m["rss"]),
                "setup_s": statistics.median(m["setups_scaled"]),
            }
            listed = spec["end_to_end"]
            if trace:
                values, failed = traced_metrics(run, wl, wall)
                m["attempted"] += wl.ops
                m["failed"] += failed
                listed = spec["per_layer"]
            unmeasured = [x["name"] for x in listed if x["name"] not in values]
            if unmeasured:
                raise BenchError(
                    f"BENCHMARK.json names metrics this run does not measure: {unmeasured}")
            metrics = {x["name"]: (values[x["name"]], x["unit"]) for x in listed}
        finally:
            for f in SCRATCH_FILES:
                (run.dir / f).unlink(missing_ok=True)
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if own_rss >= min(m["rss"]):
        run.problems.append(f"benchmark process reached {own_rss:.1f} MB, which a child's "
                            "peak_rss_mb may include")
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not run.problems and m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": {"wall_s": m["scaled"], "raw_wall_s": m["walls"], "peak_rss_mb": m["rss"],
                    "setup_s": m["setups_scaled"], "raw_setup_s": m["setups"]},
        "run_s": time.perf_counter() - started,
        "digests": run.digests,
        "context": context(),
    }
    (run.dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def report(result: dict) -> None:
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']} "
          f"invocations={len(result['samples']['wall_s'])}")
    for name, m in result["metrics"].items():
        moves = LAYERS[name][1] if name in LAYERS else {}
        should = "; ".join(f"{e2e} on {w}" for w, e2e in moves.items())
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}" + (f"  (moves {should})" if should else ""))
    for key in ("wall_s", "raw_wall_s", "raw_setup_s"):
        v = sorted(result["samples"][key])
        print(f"  {key + ' per command':40s} median {statistics.median(v):.6g} s, "
              f"min {v[0]:.6g} s, max {v[-1]:.6g} s, n={len(v)}")
    print(f"  {'failed_ratio':40s} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"  digests: {json.dumps(result['digests'])}")
    print(f"  context: {json.dumps(result['context'])}")


def load_spec() -> dict:
    """Workloads and metrics, with units and directions, from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    unknown = [w["name"] for w in spec["workloads"] if w["name"] not in WORKLOADS]
    if unknown:
        raise BenchError(f"BENCHMARK.json names workloads perfbench/run.py lacks: {unknown}")
    return spec


def main(argv: list[str]) -> int:
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clustertree" / "cli.py").is_file():
        print(f"error: no clustertree sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(names, args.seed, args.seconds)
        result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(names: list[str], seed: int, seconds: float) -> int:
    """Every workload in both modes, each in a fresh benchmark process."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in ("0", "1"):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", trace]
            out = subprocess.run(argv, capture_output=True, text=True)
            lines = out.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if out.returncode != 0:
                print(out.stderr, end="", file=sys.stderr)
                return out.returncode
            last = json.loads(lines[-1])
            totals["correct"] = totals["correct"] and last["correct"]
            totals["attempted"] += last["attempted"]
            totals["failed"] += last["failed"]
            totals["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
