"""Simulate k-round LOCAL algorithms and measure their outputs.

The engine extracts every node's k-hop view once per graph, then hands
each algorithm a labeled view object per trial. An algorithm is a pure
function of that view: the view exposes identifiers, view-internal
adjacency, depths and optional per-node random tapes, and nothing else,
so output locality is enforced by construction. Identifiers are distinct
integers drawn uniformly from [1, n^3]. Nodes start out not knowing
their incident edges: a 0-round view is the bare node.

Also here: definitional validators for the five classic outputs, exact
small-instance solvers used as oracles, the maximal-matching to
vertex-cover amplification, and the edge-indistinguishability check on
doubled graphs.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from functools import lru_cache

from .builder import DoubledGraph
from .errors import GirthTooLowError, NotATreeError, TooLargeError
from .graph import Graph, RootedSubgraph, girth_at_least, k_hop_subgraph
from .iso import canonical_form_rooted
from .matching import bipartition, hopcroft_karp, koenig_cover

VC = "vc"
DS = "ds"
MAXM = "maxm"
MM = "mm"
MIS = "mis"
KINDS = (VC, DS, MAXM, MM, MIS)

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Labeling:
    """Distinct node identifiers drawn uniformly from [1, n^3]."""

    ids: tuple[int, ...]
    rng_seed: int

    @classmethod
    def generate(cls, n: int, seed: int) -> "Labeling":
        rng = random.Random(seed)
        ids = tuple(rng.sample(range(1, n**3 + 1), n)) if n else ()
        return cls(ids=ids, rng_seed=seed)


@lru_cache(maxsize=8)
def _view_templates(g: Graph, k: int) -> list[RootedSubgraph]:
    return [k_hop_subgraph(g, v, k) for v in range(g.n)]


class View:
    """Labeled k-hop view as seen by a LOCAL algorithm.

    All accessors speak identifiers, never global node indices.
    """

    __slots__ = ("_t", "_ids", "_tape_seed", "k", "_index")

    def __init__(self, template: RootedSubgraph, ids, tape_seed: int, k: int):
        self._t = template
        self._ids = ids
        self._tape_seed = tape_seed
        self.k = k
        self._index: dict[int, int] | None = None

    @property
    def root_id(self) -> int:
        return self._ids[self._t.nodes[0]]

    def node_count(self) -> int:
        return len(self._t.nodes)

    def node_ids(self) -> tuple[int, ...]:
        return tuple(self._ids[u] for u in self._t.nodes)

    def root_neighbor_ids(self) -> tuple[int, ...]:
        ids = self._ids
        nodes = self._t.nodes
        return tuple(ids[nodes[j]] for j in self._t.graph.adj[0])

    def _local(self, node_id: int) -> int:
        if self._index is None:
            self._index = {
                self._ids[u]: j for j, u in enumerate(self._t.nodes)
            }
        return self._index[node_id]

    def neighbor_ids(self, node_id: int) -> tuple[int, ...]:
        j = self._local(node_id)
        ids = self._ids
        nodes = self._t.nodes
        return tuple(ids[nodes[i]] for i in self._t.graph.adj[j])

    def depth_of(self, node_id: int) -> int:
        return self._t.depth[self._local(node_id)]

    def edge_ids(self) -> list[tuple[int, int]]:
        """View edges as identifier pairs (smaller id first)."""
        ids = self._ids
        nodes = self._t.nodes
        out = []
        for j, nbrs in enumerate(self._t.graph.adj):
            a = ids[nodes[j]]
            for i in nbrs:
                b = ids[nodes[i]]
                if a < b:
                    out.append((a, b))
        return out

    def tape(self, node_id: int) -> int:
        """Deterministic 64-bit random tape for a node, keyed by id."""
        x = (self._tape_seed * _MIX + node_id * 0xBF58476D1CE4E5B9) & _MASK
        x ^= x >> 31
        x = (x * _MIX) & _MASK
        x ^= x >> 29
        return x


def run_local(
    g: Graph,
    k: int,
    algorithm,
    labeling: Labeling,
    tape_salt: int = 0,
) -> list:
    """Run a k-round algorithm at every node; returns per-node outputs.

    ``algorithm`` is called once per node with only that node's labeled
    view, so its output provably depends on nothing else. ``tape_salt``
    selects an independent set of random tapes for the same labeling.
    """
    if len(labeling.ids) != g.n:
        raise ValueError("labeling does not match graph size")
    templates = _view_templates(g, k)
    tape_seed = (labeling.rng_seed * _MIX + tape_salt * 0x94D049BB133111EB) & _MASK
    ids = labeling.ids
    return [
        algorithm(View(templates[v], ids, tape_seed, k)) for v in range(g.n)
    ]


def selected_nodes(outputs: list) -> tuple[int, ...]:
    """Node indices whose output is truthy (for vc/ds/mis algorithms)."""
    return tuple(v for v, out in enumerate(outputs) if out)


def mutual_edges(g: Graph, labeling: Labeling, outputs: list) -> list[tuple[int, int]]:
    """Edges both endpoints proposed (for matching algorithms).

    Each output is an iterable of proposed partner identifiers; an edge
    joins u and v iff each named the other.
    """
    node_of = {node_id: v for v, node_id in enumerate(labeling.ids)}
    proposals: list[set[int]] = []
    for v, out in enumerate(outputs):
        chosen: set[int] = set()
        try:
            pids = list(out) if out else []
        except TypeError:
            pids = []  # non-iterable output counts as no proposal
        for pid in pids:
            w = node_of.get(pid)
            if w is not None and g.has_edge(v, w):
                chosen.add(w)
        proposals.append(chosen)
    edges = []
    for v in range(g.n):
        for w in proposals[v]:
            if v < w and v in proposals[w]:
                edges.append((v, w))
    return edges


# ---------------------------------------------------------------------------
# Bundled algorithms (representatives, not proofs)
# ---------------------------------------------------------------------------


def alg_always_select(view: View) -> bool:
    """0-round: select unconditionally. Valid cover of size n."""
    return True


def alg_skip_local_max(view: View) -> bool:
    """1-round cover: select unless the own id beats all neighbor ids.

    On every edge the endpoint with the smaller id selects itself, so the
    output is always a vertex cover.
    """
    nbrs = view.root_neighbor_ids()
    return bool(nbrs) and view.root_id < max(nbrs)


def alg_greedy_view_vc(view: View) -> bool:
    """Greedy cover computed on the own view; root selects itself iff chosen.

    A heuristic representative: views of different nodes may disagree, so
    global validity is not guaranteed.
    """
    edges = set(view.edge_ids())
    root = view.root_id
    degree: dict[int, int] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    while edges:
        pick = max(degree, key=lambda x: (degree[x], -x))
        if pick == root:
            return True
        edges = {e for e in edges if pick not in e}
        degree = {}
        for a, b in edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
    return False


def alg_mutual_max_mm(view: View) -> tuple[int, ...]:
    """1-round matching attempt: propose to the largest neighbor id."""
    nbrs = view.root_neighbor_ids()
    if not nbrs:
        return ()
    return (max(nbrs),)


def alg_tape_greedy_mm(view: View) -> tuple[int, ...]:
    """Greedy matching over the whole view in tape-randomized edge order.

    With enough rounds to see the whole component this is a proper
    maximal-matching algorithm; each tape salt gives an independent run.
    """
    edges = view.edge_ids()
    keyed = sorted(
        edges, key=lambda e: ((view.tape(e[0]) + view.tape(e[1])) & _MASK, e)
    )
    used: set[int] = set()
    root = view.root_id
    for a, b in keyed:
        if a not in used and b not in used:
            used.add(a)
            used.add(b)
            if a == root:
                return (b,)
            if b == root:
                return (a,)
    return ()


ALGORITHMS = {
    "always-select": alg_always_select,
    "skip-local-max": alg_skip_local_max,
    "greedy-view-vc": alg_greedy_view_vc,
    "mutual-max-mm": alg_mutual_max_mm,
    "tape-greedy-mm": alg_tape_greedy_mm,
}

NODE_KINDS = (VC, DS, MIS)
EDGE_KINDS = (MAXM, MM)


# ---------------------------------------------------------------------------
# Validators and exact oracles
# ---------------------------------------------------------------------------


def validate_solution(g: Graph, kind: str, solution) -> bool:
    """Exact definitional check of a solution; never raises on bad data."""
    if kind in NODE_KINDS:
        nodes = set(solution)
        if any(not (0 <= v < g.n) for v in nodes):
            return False
        if kind == VC:
            return all(u in nodes or v in nodes for u, v in g.edges())
        if kind == DS:
            return all(
                v in nodes or any(w in nodes for w in g.adj[v])
                for v in range(g.n)
            )
        # MIS: independent and maximal
        for v in nodes:
            if any(w in nodes for w in g.adj[v]):
                return False
        return all(
            v in nodes or any(w in nodes for w in g.adj[v])
            for v in range(g.n)
        )
    if kind in EDGE_KINDS:
        seen: set[int] = set()
        count = 0
        for e in solution:
            u, v = e
            if not g.has_edge(u, v):
                return False
            if u in seen or v in seen:
                return False
            seen.add(u)
            seen.add(v)
            count += 1
        if kind == MM:
            # maximality: no edge with both endpoints unmatched
            return all(u in seen or v in seen for u, v in g.edges())
        return True
    raise ValueError(f"unknown solution kind {kind!r}")


def exact_mvc_bipartite(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact minimum vertex cover of a bipartite graph via matching."""
    left, _right = bipartition(g)
    mate = hopcroft_karp(g, left)
    cover = koenig_cover(g, left, mate)
    assert len(cover) == len(mate) // 2
    assert validate_solution(g, VC, cover)
    return len(cover), tuple(cover)


_EXACT_LIMIT = 40


def _remove(adj: list[set[int]], x: int) -> list[tuple[int, int]]:
    """Delete every edge at ``x``; returns them for :func:`_restore`."""
    removed = [(x, w) for w in adj[x]]
    for _, w in removed:
        adj[x].discard(w)
        adj[w].discard(x)
    return removed


def _restore(adj: list[set[int]], removed: list[tuple[int, int]]) -> None:
    for x, w in removed:
        adj[x].add(w)
        adj[w].add(x)


def _mvc_branch_bound(g: Graph) -> int:
    adj = [set(nbrs) for nbrs in g.adj]
    best = [g.n]

    def matching_lb(active_adj) -> int:
        used = set()
        size = 0
        for u in range(g.n):
            if u in used:
                continue
            for w in active_adj[u]:
                if w not in used:
                    used.add(u)
                    used.add(w)
                    size += 1
                    break
        return size

    def solve(chosen: int) -> None:
        live = [u for u in range(g.n) if adj[u]]
        if not live:
            best[0] = min(best[0], chosen)
            return
        if chosen + matching_lb(adj) >= best[0]:
            return
        u = max(live, key=lambda x: (len(adj[x]), -x))
        removed = _remove(adj, u)
        solve(chosen + 1)
        _restore(adj, removed)

        nbrs = list(adj[u])
        stash = []
        for w in nbrs:
            stash.append(_remove(adj, w))
        solve(chosen + len(nbrs))
        for r in reversed(stash):
            _restore(adj, r)

    solve(0)
    return best[0]


def _mds_branch_bound(g: Graph) -> int:
    closed = [frozenset(g.adj[v]) | {v} for v in range(g.n)]
    best = [g.n]
    max_cover = max(len(c) for c in closed) if g.n else 1

    def solve(dominated: frozenset[int], size: int) -> None:
        if size >= best[0]:
            return
        undominated = [v for v in range(g.n) if v not in dominated]
        if not undominated:
            best[0] = size
            return
        if size + math.ceil(len(undominated) / max_cover) >= best[0]:
            return
        u = min(undominated, key=lambda v: len(closed[v]))
        cands = sorted(closed[u], key=lambda c: -len(closed[c] - dominated))
        for c in cands:
            solve(dominated | closed[c], size + 1)

    solve(frozenset(), 0)
    return best[0]


def _maxm_branch_bound(g: Graph) -> int:
    adj = [set(nbrs) for nbrs in g.adj]
    best = [0]

    def solve(size: int) -> None:
        live = [u for u in range(g.n) if adj[u]]
        if size + len(live) // 2 <= best[0]:
            return
        if not live:
            best[0] = max(best[0], size)
            return
        u = min(live, key=lambda x: (len(adj[x]), x))
        for w in sorted(adj[u]):
            ru = _remove(adj, u)
            rw = _remove(adj, w)
            solve(size + 1)
            _restore(adj, rw)
            _restore(adj, ru)
        ru = _remove(adj, u)
        solve(size)
        _restore(adj, ru)
        best[0] = max(best[0], size)

    solve(0)
    return best[0]


def exact_small(g: Graph, kind: str) -> int:
    """Exact optimum for small instances (branch and bound).

    Vertex cover and dominating set are limited to 40 nodes; maximum
    matching uses augmenting paths on bipartite graphs of any size and
    branch and bound (also limited) otherwise.
    """
    if kind == MAXM:
        if g.two_coloring() is not None:
            left, _ = bipartition(g)
            return len(hopcroft_karp(g, left)) // 2
        if g.n > _EXACT_LIMIT:
            raise TooLargeError(f"{g.n} nodes exceeds the exact limit")
        return _maxm_branch_bound(g)
    if g.n > _EXACT_LIMIT:
        raise TooLargeError(f"{g.n} nodes exceeds the exact limit")
    if kind == VC:
        return _mvc_branch_bound(g)
    if kind == DS:
        return _mds_branch_bound(g)
    raise ValueError(f"no exact solver for kind {kind!r}")


# ---------------------------------------------------------------------------
# Statistics over seeded trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationReport:
    kind: str
    trials: int
    sizes: tuple[int, ...]
    valid: tuple[bool, ...]
    mean: float
    std: float
    all_valid: bool
    oracle: int | None
    ratio: float | None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "trials": self.trials,
            "sizes": list(self.sizes),
            "valid": list(self.valid),
            "mean": self.mean,
            "std": self.std,
            "all_valid": self.all_valid,
            "oracle": self.oracle,
            "ratio": self.ratio,
        }


def _oracle_optimum(g: Graph, kind: str) -> int | None:
    try:
        if kind == VC:
            if g.two_coloring() is not None:
                return exact_mvc_bipartite(g)[0]
            return exact_small(g, VC)
        if kind in (MAXM, MM):
            return exact_small(g, MAXM)
        if kind == DS:
            return exact_small(g, DS)
    except TooLargeError:
        return None
    return None


def measure_expectation(
    g: Graph,
    k: int,
    algorithm,
    kind: str,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> SimulationReport:
    """Run seeded independent labelings and aggregate output sizes.

    Outputs are validated per trial; the ratio against the exact oracle
    is reported only when every trial was valid and an oracle applies.
    With ``jobs`` > 1, trials run in a process pool and are merged in
    seed order, so reports are identical regardless of parallelism
    (``algorithm`` must then be a registry name).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if kind not in KINDS:
        raise ValueError(f"unknown solution kind {kind!r}")
    fn = ALGORITHMS[algorithm] if isinstance(algorithm, str) else algorithm
    rng = random.Random(seed)
    trial_seeds = [rng.randrange(2**63) for _ in range(trials)]

    if jobs > 1:
        if not isinstance(algorithm, str):
            raise ValueError("parallel trials need a registered algorithm name")
        import concurrent.futures as cf

        args = [(g, k, algorithm, kind, ts) for ts in trial_seeds]
        with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_one_trial, args))
    else:
        results = [_one_trial((g, k, fn, kind, ts)) for ts in trial_seeds]

    sizes = tuple(r[0] for r in results)
    valid = tuple(r[1] for r in results)
    mean = statistics.fmean(sizes)
    std = statistics.stdev(sizes) if trials > 1 else 0.0
    all_valid = all(valid)
    oracle = _oracle_optimum(g, kind)
    ratio = None
    if all_valid and oracle not in (None, 0):
        ratio = mean / oracle
    return SimulationReport(
        kind=kind,
        trials=trials,
        sizes=sizes,
        valid=valid,
        mean=mean,
        std=std,
        all_valid=all_valid,
        oracle=oracle,
        ratio=ratio,
    )


def _one_trial(args) -> tuple[int, bool]:
    g, k, algorithm, kind, trial_seed = args
    fn = ALGORITHMS[algorithm] if isinstance(algorithm, str) else algorithm
    labeling = Labeling.generate(g.n, trial_seed)
    outputs = run_local(g, k, fn, labeling)
    if kind in NODE_KINDS:
        solution = selected_nodes(outputs)
    else:
        solution = mutual_edges(g, labeling, outputs)
    return len(solution), validate_solution(g, kind, solution)


# ---------------------------------------------------------------------------
# Maximal matching -> vertex cover amplification
# ---------------------------------------------------------------------------


def mm_to_mvc(
    g: Graph,
    mm_algorithm,
    rounds: int,
    c: float = 36.0,
    seed: int = 0,
) -> tuple[int, ...]:
    """Turn a (possibly randomized) matching algorithm into a vertex cover.

    Three steps: run ceil(c * ln(max degree)) independent truncated
    executions and collect, per run, the endpoints of cleanly selected
    edges (a node incident to more than one selected edge drops them
    all); select every node hit in at least a sixth of the runs; finally,
    both endpoints of any still-uncovered edge join. The result is always
    a valid cover.
    """
    if c < 36:
        raise ValueError("the amplification constant must be at least 36")
    fn = ALGORITHMS[mm_algorithm] if isinstance(mm_algorithm, str) else mm_algorithm
    delta = g.max_degree()
    runs = math.ceil(c * math.log(delta)) if delta >= 2 else 0
    labeling = Labeling.generate(g.n, seed)
    hits = [0] * g.n
    for i in range(runs):
        outputs = run_local(g, rounds, fn, labeling, tape_salt=i + 1)
        edges = mutual_edges(g, labeling, outputs)
        incident = [0] * g.n
        for u, v in edges:
            incident[u] += 1
            incident[v] += 1
        for u, v in edges:
            if incident[u] == 1 and incident[v] == 1:
                hits[u] += 1
                hits[v] += 1
    cover = {v for v in range(g.n) if runs and 6 * hits[v] >= runs}
    for u, v in g.edges():
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    assert validate_solution(g, VC, cover)
    return tuple(sorted(cover))


# ---------------------------------------------------------------------------
# Edge indistinguishability on doubled graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgePairCheck:
    v0: int
    v1: int
    v0_bar: int
    passed: bool


@dataclass(frozen=True)
class EdgeIndistReport:
    k: int
    checks: tuple[EdgePairCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _edge_view_canon(g: Graph, v: int, w: int, k: int) -> tuple[str, str]:
    """Canonical forms of the two halves of the union view of edge {v, w}.

    The union of the two k-hop views, with the edge {v, w} removed,
    splits into the component of v and the component of w (both trees
    when the girth premise holds); each half is canonized rooted at its
    endpoint.
    """
    # host node -> its neighbours in either view, less the edge {v, w}
    adj: dict[int, set[int]] = {}
    for sub in (k_hop_subgraph(g, v, k), k_hop_subgraph(g, w, k)):
        nodes = sub.nodes
        for i, nbrs in enumerate(sub.graph.adj):
            adj.setdefault(nodes[i], set()).update(nodes[j] for j in nbrs)
    adj[v].discard(w)
    adj[w].discard(v)

    def half(root: int, forbidden: int) -> str:
        index = {root: 0}
        order = [root]
        for u in order:
            for x in adj[u]:
                if x not in index:
                    index[x] = len(order)
                    order.append(x)
        if forbidden in index:
            raise NotATreeError(
                "union view does not split at the shared edge; girth too low"
            )
        # a component keeps every neighbour of its nodes, and the sets
        # make the lists simple and symmetric
        local = Graph(
            len(order), [tuple(sorted(index[x] for x in adj[u])) for u in order]
        )
        return canonical_form_rooted(local, 0)

    return half(v, w), half(w, v)


def edge_indistinguishability_check(
    doubled: DoubledGraph,
    k: int,
    samples: int = 10,
    seed: int = 0,
) -> EdgeIndistReport:
    """Compare union views of cluster-0/1 edges with the matched-copy edges.

    For sampled v0 in cluster 0, the edge to its unique cluster-1
    neighbor v1 should look exactly like the matching edge to its copy:
    the ordered pair of half-view canonical forms must agree. Requires
    girth at least 2k+1.
    """
    g = doubled.graph
    if not girth_at_least(g, 2 * k + 1):
        raise GirthTooLowError(f"doubled graph girth below {2 * k + 1}")
    c0_nodes = [v for v in range(g.n) if doubled.cluster_of[v] == 0]
    rng = random.Random(seed)
    picks = (
        sorted(rng.sample(c0_nodes, samples))
        if samples < len(c0_nodes)
        else c0_nodes
    )
    checks = []
    for v0 in picks:
        c1_nbrs = [w for w in g.adj[v0] if doubled.cluster_of[w] == 1]
        assert len(c1_nbrs) == 1
        v1 = c1_nbrs[0]
        v0_bar = doubled.pairing[v0]
        if k == 0:
            passed = True
        else:
            a = _edge_view_canon(g, v0, v1, k)
            b = _edge_view_canon(g, v0, v0_bar, k)
            passed = a == b
        checks.append(EdgePairCheck(v0=v0, v1=v1, v0_bar=v0_bar, passed=passed))
    return EdgeIndistReport(k=k, checks=tuple(checks))
