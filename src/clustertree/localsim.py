"""Simulate k-round LOCAL algorithms and measure their outputs.

The engine extracts every node's k-hop view once per graph, then hands
each algorithm a labeled view object per trial. An algorithm is a pure
function of that view: the view exposes identifiers, view-internal
adjacency as identifier pairs (``edge_ids``) and per-node random tapes,
and nothing else, so output locality is enforced by construction; a
node's depth follows from that adjacency. Identifiers are distinct
integers drawn uniformly from [1, n^3]. Nodes start out not knowing
their incident edges: a 0-round view is the bare node.

Also here: definitional validators for the five classic outputs, exact
small-instance solvers used as oracles, the maximal-matching to
vertex-cover amplification, and the edge-indistinguishability check on
doubled graphs.
"""

from __future__ import annotations

import math
import os
import random
from functools import lru_cache, partial
from itertools import compress
from operator import itemgetter
from typing import NamedTuple

from .builder import DoubledGraph
from .errors import GirthTooLowError, NotATreeError, NotBipartiteError, TooLargeError
from .graph import Graph, RootedSubgraph, girth_at_least, k_hop_subgraph, members
from .iso import canonical_form
from .matching import bipartition, hopcroft_karp, koenig_cover

VC = "vc"
DS = "ds"
MAXM = "maxm"
MM = "mm"
MIS = "mis"
KINDS = (VC, DS, MAXM, MM, MIS)

_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


class Labeling(NamedTuple):
    """Distinct node identifiers drawn uniformly from [1, n^3]."""

    ids: tuple[int, ...]
    rng_seed: int

    @classmethod
    def generate(cls, n: int, seed: int) -> "Labeling":
        """The ids ``random.Random(seed).sample(range(1, n**3 + 1), n)``.

        For n >= 3 ``sample`` takes its set branch, inlined here without a
        method call per id: each id is ``r + 1`` for the first draw ``r =
        getrandbits(top.bit_length())`` below ``top = n**3`` and not drawn
        before, with the same ``getrandbits`` calls. For n <= 2 ``sample``
        draws from a pool instead.
        """
        rng = random.Random(seed)
        if n <= 2:
            return cls(ids=tuple(rng.sample(range(1, n**3 + 1), n)), rng_seed=seed)
        top = n**3
        bits = top.bit_length()
        getrandbits = rng.getrandbits
        drawn: dict[int, None] = {}  # keeps the draw order
        for _ in range(n):
            r = getrandbits(bits)
            while r >= top or r in drawn:
                r = getrandbits(bits)
            drawn[r] = None
        return cls(ids=tuple(map((1).__add__, drawn)), rng_seed=seed)


def _getter(idx):
    """One C-level callable ``seq -> tuple(seq[i] for i in idx)``."""
    if len(idx) > 1:
        return itemgetter(*idx)
    # a getter over one index returns a bare item, and over none raises;
    # a slice of a tuple is a tuple
    i = idx[0] if idx else 0
    return itemgetter(slice(i, i + len(idx)))


@lru_cache(maxsize=8)
def _view_templates(g: Graph, k: int) -> list[tuple[RootedSubgraph, itemgetter]]:
    """One frame per node: its view and a getter of its root's neighbours.

    The getter is built over ``g.adj[v]``, the root's neighbours in
    ascending host index as in the view, and keeps no tuple of its own
    alive; at k = 0 the root sees no neighbour.
    """
    return [
        (k_hop_subgraph(g, v, k), _getter(g.adj[v] if k else ()))
        for v in range(g.n)
    ]


class View:
    """Labeled k-hop view as seen by a LOCAL algorithm.

    All accessors speak identifiers, never global node indices. Depth is
    not exposed: it follows from the adjacency that ``edge_ids`` gives.
    """

    __slots__ = ("_t", "_root_nbrs", "_ids", "_tape_seed")

    def __init__(self, frame: tuple[RootedSubgraph, itemgetter], ids, tape_seed: int):
        self._t, self._root_nbrs = frame
        self._ids = ids
        self._tape_seed = tape_seed

    @property
    def root_id(self) -> int:
        return self._ids[self._t.nodes[0]]

    def node_ids(self) -> tuple[int, ...]:
        return _getter(self._t.nodes)(self._ids)

    def root_neighbor_ids(self) -> tuple[int, ...]:
        return self._root_nbrs(self._ids)

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
    tape_seed = (labeling.rng_seed * _MIX + tape_salt * 0x94D049BB133111EB) & _MASK
    ids = labeling.ids
    return [
        algorithm(View(frame, ids, tape_seed)) for frame in _view_templates(g, k)
    ]


def selected_nodes(outputs: list) -> tuple[int, ...]:
    """Node indices whose output is truthy (for vc/ds/mis algorithms)."""
    return tuple(compress(range(len(outputs)), outputs))


def mutual_edges(g: Graph, labeling: Labeling, outputs: list) -> list[tuple[int, int]]:
    """Edges both endpoints proposed (for matching algorithms).

    Each output is an iterable of proposed partner identifiers; an edge
    joins u and v iff each named the other. An identifier is an ``int``:
    as in ``Graph.from_edges``, ``True`` and ``2.0`` name no node.
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
            w = node_of.get(pid) if type(pid) is int else None
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
    # id -> ids of the neighbours it still shares an uncovered edge with
    nbrs: dict[int, set[int]] = {}
    for a, b in view.edge_ids():
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    root = view.root_id
    while nbrs:
        pick = max(nbrs, key=lambda x: (len(nbrs[x]), -x))
        if pick == root:
            return True
        for u in nbrs.pop(pick):
            nbrs[u].remove(pick)
            if not nbrs[u]:
                del nbrs[u]
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
    tape = {x: view.tape(x) for x in view.node_ids()}
    keyed = sorted(
        view.edge_ids(), key=lambda e: ((tape[e[0]] + tape[e[1]]) & _MASK, e)
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


def _is_node(v, n: int) -> bool:
    # type() keeps booleans and floats out, as in Graph.from_edges
    return type(v) is int and 0 <= v < n


def _covers(adj, mark: bytearray) -> bool:
    """True iff every edge has a marked endpoint."""
    get = mark.__getitem__
    return all(all(map(get, nbrs)) for u, nbrs in enumerate(adj) if not mark[u])


def _dominates(adj, mark: bytearray) -> bool:
    """True iff every node is marked or has a marked neighbour."""
    get = mark.__getitem__
    return all(mark[u] or any(map(get, nbrs)) for u, nbrs in enumerate(adj))


def validate_solution(g: Graph, kind: str, solution) -> bool:
    """Exact definitional check of a solution; never raises on bad data.

    The solution is marked in one mask over the nodes: selected nodes for
    vc/ds/mis, matched endpoints for maxm/mm. An entry that is not an
    ``int`` node index in range, or for matchings a pair of them joined
    by an edge, makes the solution invalid.
    """
    n, adj = g.n, g.adj
    mark = bytearray(n)
    if kind in NODE_KINDS:
        try:
            nodes = list(solution)
        except TypeError:
            return False
        # the type check comes first, so min and max compare only ints
        if nodes and not (
            set(map(type, nodes)) == {int} and min(nodes) >= 0 and max(nodes) < n
        ):
            return False
        for v in nodes:
            mark[v] = 1
        if kind == VC:
            return _covers(adj, mark)
        if kind == MIS and any(mark[w] for v in range(n) if mark[v] for w in adj[v]):
            return False
        return _dominates(adj, mark)
    if kind in EDGE_KINDS:
        try:
            edges = iter(solution)
        except TypeError:
            return False
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                return False
            if not (_is_node(u, n) and _is_node(v, n) and g.has_edge(u, v)):
                return False
            if mark[u] or mark[v]:
                return False
            mark[u] = mark[v] = 1
        # a matching is maximal iff its endpoints cover every edge
        return kind == MAXM or _covers(adj, mark)
    raise ValueError(f"unknown solution kind {kind!r}")


def exact_mvc_bipartite(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact minimum vertex cover of a bipartite graph via matching."""
    left = bipartition(g)
    mate = hopcroft_karp(g.adj, left)
    cover = koenig_cover(g, left, mate)
    assert len(cover) == len(mate) // 2
    assert validate_solution(g, VC, cover)
    return len(cover), tuple(cover)


_EXACT_LIMIT = 40


def _nbr_masks(g: Graph) -> list[int]:
    """Bit w of entry v is set iff w is adjacent to v."""
    return [sum(1 << w for w in nbrs) for nbrs in g.adj]


def _mvc_branch_bound(g: Graph) -> int:
    nbr = _nbr_masks(g)

    def matching_lb(free: int) -> int:
        """Size of a greedy matching among ``free``: a lower bound."""
        size = 0
        while free:
            low = free & -free
            free ^= low
            mates = nbr[low.bit_length() - 1] & free
            if mates:
                free ^= mates & -mates
                size += 1
        return size

    def solve(alive: int, chosen: int, best: int) -> int:
        """Best cover size: ``chosen`` plus a cover of the edges among
        ``alive``, or ``best`` if none is smaller."""
        live = [u for u in members(alive) if nbr[u] & alive]
        if not live:
            return min(best, chosen)
        if chosen + matching_lb(alive) >= best:
            return best
        # branch on the max-degree node: take it, or take its neighbours
        u = max(live, key=lambda x: ((nbr[x] & alive).bit_count(), -x))
        best = solve(alive & ~(1 << u), chosen + 1, best)
        around = nbr[u] & alive
        return solve(alive & ~around, chosen + around.bit_count(), best)

    return solve((1 << g.n) - 1, 0, g.n)


def _mds_branch_bound(g: Graph) -> int:
    closed = [m | 1 << v for v, m in enumerate(_nbr_masks(g))]
    width = [c.bit_count() for c in closed]
    widest = max(width, default=1)

    def solve(undominated: int, size: int, best: int) -> int:
        """Best dominating set size: ``size`` plus a set dominating
        ``undominated``, or ``best`` if none is smaller."""
        if size >= best:
            return best
        if not undominated:
            return size
        if size + math.ceil(undominated.bit_count() / widest) >= best:
            return best
        # one of the closed neighbours of u must be chosen: branch on the
        # undominated node with the fewest, widest candidate first
        u = min(members(undominated), key=width.__getitem__)
        cands = sorted(
            members(closed[u]), key=lambda c: -(closed[c] & undominated).bit_count()
        )
        for c in cands:
            best = solve(undominated & ~closed[c], size + 1, best)
        return best

    return solve((1 << g.n) - 1, 0, g.n)


def _maxm_branch_bound(g: Graph) -> int:
    nbr = _nbr_masks(g)

    def solve(alive: int, size: int, best: int) -> int:
        """Best matching size: ``size`` plus a matching among ``alive``,
        or ``best`` if none is larger."""
        live = [u for u in members(alive) if nbr[u] & alive]
        if size + len(live) // 2 <= best:
            return best
        if not live:
            return size
        # branch on the min-degree node: match it to each neighbour, or not
        u = min(live, key=lambda x: ((nbr[x] & alive).bit_count(), x))
        rest = alive & ~(1 << u)
        for w in members(nbr[u] & alive):
            best = solve(rest & ~(1 << w), size + 1, best)
        return solve(rest, size, best)

    return solve((1 << g.n) - 1, 0, 0)


def exact_small(g: Graph, kind: str) -> int:
    """Exact optimum for small instances (branch and bound).

    Each search state is one bitmask over the nodes, and each node's
    neighbours are one bitmask too; a branch passes on a new mask and
    returns its best value, so nothing is undone. Vertex cover and
    dominating set are limited to 40 nodes; maximum matching uses
    augmenting paths on bipartite graphs and is limited otherwise.
    """
    if kind == MAXM:
        try:
            return len(hopcroft_karp(g.adj, bipartition(g))) // 2
        except NotBipartiteError:
            pass
    if g.n > _EXACT_LIMIT:
        raise TooLargeError(f"{g.n} nodes exceeds the exact limit")
    solver = {VC: _mvc_branch_bound, DS: _mds_branch_bound, MAXM: _maxm_branch_bound}
    if kind not in solver:
        raise ValueError(f"no exact solver for kind {kind!r}")
    return solver[kind](g)


# ---------------------------------------------------------------------------
# Statistics over seeded trials
# ---------------------------------------------------------------------------


class SimulationReport(NamedTuple):
    kind: str
    trials: int
    sizes: tuple[int, ...]
    valid: tuple[bool, ...]
    mean: float
    std: float
    all_valid: bool
    oracle: int | None
    ratio: float | None


def _oracle_optimum(g: Graph, kind: str) -> int | None:
    """Optimum for ``kind``, or None for MIS and past the exact limit."""
    if kind == MIS:
        return None
    try:
        if kind == VC:
            try:
                return exact_mvc_bipartite(g)[0]
            except NotBipartiteError:
                pass
        return exact_small(g, MAXM if kind == MM else kind)
    except TooLargeError:
        return None


def _mean_and_std(sizes: tuple[int, ...]) -> tuple[float, float]:
    """Mean and sample standard deviation (0.0 for one size) of ints,
    each correctly rounded, so every Python gives the same floats.

    The variance is the exact fraction (n·Σx² − (Σx)²) / (n(n − 1)). Its
    integer square root, scaled to about 109 bits, is rounded to odd
    (the last bit set when the root is inexact), so the one rounding to
    float at the end is correct.
    """
    n, total = len(sizes), sum(sizes)
    if n == 1:
        return total / n, 0.0
    num = n * sum(x * x for x in sizes) - total * total
    den = n * (n - 1)
    s = max(0, 109 - (num.bit_length() - den.bit_length()) // 2)
    scaled = num << 2 * s
    root = math.isqrt(scaled // den)
    return total / n, (root | (root * root * den != scaled)) / (1 << s)


def measure_expectation(
    g: Graph,
    k: int,
    algorithm: str,
    kind: str,
    trials: int,
    seed: int,
    jobs: int = 1,
) -> SimulationReport:
    """Run seeded independent labelings and aggregate output sizes.

    Outputs are validated per trial; the ratio against the exact oracle
    is reported only when every trial was valid and an oracle applies.
    ``algorithm`` is a name in :data:`ALGORITHMS`. With ``jobs`` > 1,
    trials run in a process pool and are merged in seed order, so
    reports are identical regardless of parallelism. The pool's
    initializer hands each worker the graph and the other fixed
    arguments once, so a task carries only its trial seeds, and the
    parent finds the oracle while the workers run.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if jobs < 1:
        raise ValueError("need at least one job")
    if kind not in KINDS:
        raise ValueError(f"unknown solution kind {kind!r}")
    if algorithm not in ALGORITHMS:
        raise KeyError(algorithm)
    rng = random.Random(seed)
    # drawn as the trials take them, in the same order
    trial_seeds = (rng.randrange(2**63) for _ in range(trials))

    # no more workers than CPUs, and no pool for one worker
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        import concurrent.futures as cf

        # one chunk per worker, and no worker without a chunk. The
        # initializer's arguments reach a forked worker without pickling
        # (other start methods pickle them once per worker), so each
        # worker keeps one graph and its view frames for its whole chunk
        chunk = math.ceil(trials / jobs)
        with cf.ProcessPoolExecutor(
            max_workers=math.ceil(trials / chunk),
            initializer=_start_worker,
            initargs=(g, k, algorithm, kind),
        ) as pool:
            pending = pool.map(_worker_trial, trial_seeds, chunksize=chunk)
            oracle = _oracle_optimum(g, kind)
            results = list(pending)
    else:
        results = list(map(partial(_one_trial, g, k, algorithm, kind), trial_seeds))
        oracle = _oracle_optimum(g, kind)

    sizes = tuple(r[0] for r in results)
    valid = tuple(r[1] for r in results)
    mean, std = _mean_and_std(sizes)
    all_valid = all(valid)
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


# a pool worker's (g, k, algorithm, kind), set once by its initializer
_worker_args: tuple = ()


def _start_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _worker_trial(trial_seed: int) -> tuple[int, bool]:
    return _one_trial(*_worker_args, trial_seed)


def _one_trial(
    g: Graph, k: int, algorithm: str, kind: str, trial_seed: int
) -> tuple[int, bool]:
    # pool workers receive the registry name: a name always pickles
    labeling = Labeling.generate(g.n, trial_seed)
    outputs = run_local(g, k, ALGORITHMS[algorithm], labeling)
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
    seed: int = 0,
) -> tuple[int, ...]:
    """Turn a (possibly randomized) matching algorithm into a vertex cover.

    Three steps: run ceil(36 * ln(max degree)) independent truncated
    executions, one tape salt each over one labeling, and collect, per
    run, the endpoints of cleanly selected edges (a node incident to
    more than one selected edge drops them all); select every node hit
    in at least a sixth of the runs; finally, both endpoints of any
    still-uncovered edge join. The result is always a valid cover.
    """
    delta = g.max_degree()
    runs = math.ceil(36 * math.log(delta)) if delta >= 2 else 0
    labeling = Labeling.generate(g.n, seed)
    hits = [0] * g.n
    for i in range(runs):
        outputs = run_local(g, rounds, mm_algorithm, labeling, tape_salt=i + 1)
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


class EdgePairCheck(NamedTuple):
    v0: int
    v1: int
    v0_bar: int
    passed: bool


def _edge_view_canon(g: Graph, v: int, w: int, k: int) -> tuple[str, str]:
    """Canonical forms of the two halves of the union view of edge {v, w}.

    The halves are the k-hop views of v and w in the graph without the
    edge {v, w} (both trees when the girth premise holds), each canonized
    rooted at its endpoint. A cycle through {v, w} of length at most
    2k+1 makes the two views meet, so a host graph that is not bipartite
    needs girth at least 2k+2; a bipartite one has no odd cycles, and
    girth 2k+1 suffices.
    """
    # dropping v and w from each other's rows keeps every row sorted
    rows = list(g.adj)
    rows[v] = tuple(x for x in rows[v] if x != w)
    rows[w] = tuple(x for x in rows[w] if x != v)
    cut = Graph(g.n, rows)
    half_v, half_w = k_hop_subgraph(cut, v, k), k_hop_subgraph(cut, w, k)
    if not set(half_v.nodes).isdisjoint(half_w.nodes):
        raise NotATreeError(
            "union view does not split at the shared edge; girth too low"
        )
    return canonical_form(half_v), canonical_form(half_w)


def edge_indistinguishability_check(
    doubled: DoubledGraph,
    k: int,
    samples: int = 10,
    seed: int = 0,
) -> tuple[EdgePairCheck, ...]:
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
    checks = []
    for v0 in sorted(rng.sample(c0_nodes, min(samples, len(c0_nodes)))):
        c1_nbrs = [w for w in g.adj[v0] if doubled.cluster_of[w] == 1]
        assert len(c1_nbrs) == 1
        v1 = c1_nbrs[0]
        v0_bar = v0 + g.n // 2  # its partner in the copy
        a = _edge_view_canon(g, v0, v1, k)
        b = _edge_view_canon(g, v0, v0_bar, k)
        checks.append(EdgePairCheck(v0=v0, v1=v1, v0_bar=v0_bar, passed=a == b))
    return tuple(checks)
