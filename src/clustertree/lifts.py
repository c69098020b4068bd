"""Girth-raising machinery: covering maps, double covers, common lifts,
regular supergraph embedding, high-girth regular graph generation, and
cyclic voltage lifts.

The end product is ``build_high_girth_ct``: embed the low-girth CT graph
in a regular supergraph, generate a regular graph of the required girth,
take a common lift of the two, and restrict the covering map back to the
CT part. Covering maps never decrease girth, so the restriction is again
a CT graph but with girth at least 2k+1.

``VoltageLift`` reaches girth 6 without that pipeline's size: it lifts
the low-girth CT graph itself with voltages in Z_p and is never
materialized; ``k_hop_subgraph`` and the coupled walk read it through
``neighbors`` and ``cluster`` like any CT graph.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass

from .builder import build_low_girth
from .errors import (
    BoundViolatedError,
    ClusterTreeError,
    DegreeMismatchError,
    EmptyGraphError,
    IterationLimitError,
    NotBipartiteError,
    NotRegularError,
    SizeCapExceededError,
)
from .graph import Graph, girth, girth_at_least
from .matching import hopcroft_karp
from .skeleton import ClusterTreeSkeleton, CTGraph, predicted_sizes

DEFAULT_SIZE_CAP = 5_000_000
SIZE_CAP_ENV = "KMW_SIZE_CAP"


@dataclass(frozen=True)
class CoveringMap:
    """Node map witnessing that ``source`` is a lift of ``target``."""

    source: Graph
    target: Graph
    map: tuple[int, ...]


def verify_covering_map(cm: CoveringMap) -> bool:
    """Check surjectivity, adjacency preservation and local bijectivity.

    Also checks that fiber sizes agree whenever the target is connected
    (they must, by the standard covering-space argument).
    """
    src, tgt, phi = cm.source, cm.target, cm.map
    if len(phi) != src.n:
        return False
    if any(not (0 <= t < tgt.n) for t in phi):
        return False
    fibers = [0] * tgt.n
    for t in phi:
        fibers[t] += 1
    if tgt.n > 0 and min(fibers) == 0:
        return False
    # target lists hold no duplicates, so equal sorted images mean the
    # neighbours map one-to-one onto the target neighbourhood
    want = [sorted(nbrs) for nbrs in tgt.adj]
    image = phi.__getitem__
    for v in range(src.n):
        if sorted(map(image, src.adj[v])) != want[phi[v]]:
            return False
    if tgt.n > 0 and len(tgt.connected_components()) == 1:
        if len(set(fibers)) > 1:
            return False
    return True


def _require_regular(g: Graph) -> int:
    degs = {len(nbrs) for nbrs in g.adj}
    if len(degs) > 1:
        raise NotRegularError(f"degrees {sorted(degs)} are not uniform")
    return degs.pop() if degs else 0


def matching_decomposition(g: Graph) -> list[list[tuple[int, int]]]:
    """Partition a regular bipartite graph's edges into perfect matchings.

    Repeatedly extracts a perfect matching by augmenting paths and removes
    it; the residual graph stays regular bipartite, so Hall's condition
    keeps holding. Returns degree-many matchings of sorted edge pairs.
    """
    colors = g.two_coloring()
    if colors is None:
        raise NotBipartiteError("matching decomposition needs a bipartite graph")
    delta = _require_regular(g)
    left = [v for v in range(g.n) if colors[v] == 0]
    remaining = [list(nbrs) for nbrs in g.adj]
    matchings: list[list[tuple[int, int]]] = []
    for _ in range(delta):
        stage = Graph(g.n, [tuple(nbrs) for nbrs in remaining])
        mate = hopcroft_karp(stage, left)
        if len(mate) != g.n:
            raise ClusterTreeError(
                "regular bipartite graph lost its perfect matching; bug"
            )
        matching = sorted(
            (u, mate[u]) if u < mate[u] else (mate[u], u) for u in left
        )
        matchings.append(matching)
        for u, v in matching:
            remaining[u].remove(v)
            remaining[v].remove(u)
    return matchings


def canonical_double_cover(g: Graph) -> tuple[Graph, CoveringMap]:
    """Tensor product with K_2: node (v, b) becomes index b*n + v.

    The output is bipartite, preserves regularity, and covers ``g`` by
    forgetting the bit.
    """
    n = g.n
    # (v, 0) is adjacent to (w, 1) for every neighbour w of v, and back
    adj = [tuple(n + w for w in nbrs) for nbrs in g.adj]
    adj.extend(g.adj)
    cover = Graph(2 * n, adj)
    cm = CoveringMap(
        source=cover, target=g, map=tuple(i % n for i in range(2 * n))
    )
    return cover, cm


def common_lift(
    h: Graph, h_prime: Graph
) -> tuple[Graph, CoveringMap, CoveringMap]:
    """Common lift of two regular graphs of the same degree.

    Non-bipartite inputs are replaced by their canonical double covers.
    Both bipartite graphs are decomposed into perfect matchings M_i and
    M'_i, and the lift lives on the node pairs: (v, w) and (v', w') are
    adjacent iff for some i, {v, v'} is in M_i and {w, w'} is in M'_i.
    """
    d1 = _require_regular(h)
    d2 = _require_regular(h_prime)
    if d1 != d2:
        raise DegreeMismatchError(f"degrees differ: {d1} vs {d2}")

    def bipartite_stage(g: Graph) -> tuple[Graph, tuple[int, ...] | None]:
        if g.two_coloring() is not None:
            return g, None
        cover, cm = canonical_double_cover(g)
        return cover, cm.map

    b1, down1 = bipartite_stage(h)
    b2, down2 = bipartite_stage(h_prime)
    m1 = matching_decomposition(b1)
    m2 = matching_decomposition(b2)
    n1, n2 = b1.n, b2.n

    def partners(matchings, size: int) -> list[list[int]]:
        # one mate array per perfect matching
        out = []
        for matching in matchings:
            mate = [0] * size
            for a, b in matching:
                mate[a] = b
                mate[b] = a
            out.append(mate)
        return out

    # node (v, w) has exactly one neighbour per matching index i, and the
    # matchings of b1 are edge-disjoint, so the lift is simple as built
    mates1 = partners(m1, n1)
    mates2 = partners(m2, n2)
    adj: list[tuple[int, ...]] = []
    for v in range(n1):
        rows = [
            [mate1[v] * n2 + w2 for w2 in mate2]
            for mate1, mate2 in zip(mates1, mates2)
        ]
        adj.extend(tuple(sorted(nbrs)) for nbrs in zip(*rows))
    lifted = Graph(n1 * n2, adj)

    def project(first: bool) -> CoveringMap:
        if first:
            raw = [idx // n2 for idx in range(n1 * n2)]
            down, target = down1, h
        else:
            raw = [idx % n2 for idx in range(n1 * n2)]
            down, target = down2, h_prime
        if down is not None:
            raw = [down[x] for x in raw]
        return CoveringMap(source=lifted, target=target, map=tuple(raw))

    cm1 = project(True)
    cm2 = project(False)
    for cm in (cm1, cm2):
        if not verify_covering_map(cm):
            raise ClusterTreeError("constructed projection is not a covering map")
    # one sweep with the larger finite base girth checks both bases
    base_girths = [x for x in (girth(h), girth(h_prime)) if isinstance(x, int)]
    if base_girths and not girth_at_least(lifted, max(base_girths)):
        raise ClusterTreeError("lift decreased girth; bug")
    return lifted, cm1, cm2


def regular_supergraph(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Embed ``g`` in a regular graph of degree max_degree(g).

    Construction: (1) greedily join non-adjacent deficient node pairs;
    the leftovers form a clique of size at most the degree. (2) Attach a
    complete bipartite gadget carrying one perfect matching per leftover
    node and splice matching edges to absorb even deficiencies. (3) Pair
    up nodes still missing one edge through their matchings' last-column
    edges. (4) A single leftover node (degree must be odd then) is fixed
    with a second, slightly smaller gadget plus a perfect matching.

    Adds fewer than 4 * degree nodes. The embedding is the identity on
    the original indices.
    """
    delta = g.max_degree()
    if delta == 0:
        raise EmptyGraphError("cannot regularize a graph with no edges")
    adj: list[set[int]] = [set(nbrs) for nbrs in g.adj]
    deg = [len(a) for a in adj]

    def add_edge(u: int, w: int) -> None:
        assert u != w and w not in adj[u]
        adj[u].add(w)
        adj[w].add(u)
        deg[u] += 1
        deg[w] += 1

    def new_node() -> int:
        adj.append(set())
        deg.append(0)
        return len(adj) - 1

    deficient = [v for v in range(g.n) if deg[v] < delta]
    # one lexicographic pass is maximal: degrees only grow, so a skipped
    # pair can never become addable later
    for i, v in enumerate(deficient):
        if deg[v] == delta:
            continue
        for w in deficient[i + 1 :]:
            if deg[v] == delta:
                break
            if deg[w] < delta and w not in adj[v]:
                add_edge(v, w)

    leftovers = [v for v in deficient if deg[v] < delta]
    if leftovers:
        assert len(leftovers) <= delta
        # K_{delta,delta} gadget; matching i pairs l_x with r_y, (x-y) % delta == i
        lnodes = [new_node() for _ in range(delta)]
        rnodes = [new_node() for _ in range(delta)]
        for lx in lnodes:
            for ry in rnodes:
                add_edge(lx, ry)

        def gadget_edge(mi: int, x: int) -> tuple[int, int]:
            # edge of matching mi containing l_x (1-based column x)
            y = (x - mi) % delta
            y = delta if y == 0 else y
            return lnodes[x - 1], rnodes[y - 1]

        match_of = {v: i for i, v in enumerate(leftovers)}
        for v in leftovers:
            for x in range(1, (delta - deg[v]) // 2 + 1):
                lx, ry = gadget_edge(match_of[v], x)
                adj[lx].remove(ry)
                adj[ry].remove(lx)
                deg[lx] -= 1
                deg[ry] -= 1
                add_edge(v, lx)
                add_edge(v, ry)

        odd = [v for v in leftovers if deg[v] < delta]
        assert all(deg[v] == delta - 1 for v in odd)
        for v, w in zip(odd[0::2], odd[1::2]):
            lx, ry = gadget_edge(match_of[v], delta)
            adj[lx].remove(ry)
            adj[ry].remove(lx)
            deg[lx] -= 1
            deg[ry] -= 1
            add_edge(w, lx)
            add_edge(v, ry)

        if len(odd) % 2 == 1:
            v = odd[-1]
            # only possible for odd degree: the number of odd-degree nodes
            # in any graph is even
            assert delta % 2 == 1
            lnodes2 = [new_node() for _ in range(delta)]
            rnodes2 = [new_node() for _ in range(delta - 1)]
            for lx in lnodes2:
                for ry in rnodes2:
                    add_edge(lx, ry)
            add_edge(v, lnodes2[0])
            rest = lnodes2[1:]
            for a, b in zip(rest[0::2], rest[1::2]):
                add_edge(a, b)

    out = Graph(len(adj), [tuple(sorted(nbrs)) for nbrs in adj])
    if out.max_degree() != delta or any(len(a) != delta for a in out.adj):
        raise ClusterTreeError("supergraph construction failed to regularize; bug")
    if out.n >= g.n + 4 * delta:
        raise ClusterTreeError("supergraph exceeded its size bound; bug")
    return out, tuple(range(g.n))


def high_girth_regular(delta: int, girth_target: int, m: int) -> Graph:
    """A delta-regular graph on 2m nodes with girth at least girth_target.

    Requires m >= 2 * sum((delta-1)^i, i=0..girth_target-2). Starting from
    the cycle on 2m nodes, degrees are raised one level at a time: add an
    edge between two deficient nodes at distance >= girth_target - 1
    whenever possible; otherwise locate an edge with both endpoints far
    from the two smallest deficient nodes, delete it, and reconnect its
    endpoints to them. Every step reduces total deficiency by two, so the
    process terminates; the exchange argument guarantees a usable edge
    always exists, and a defensive cap turns any violation into an error
    instead of a hang.
    """
    if delta < 2:
        raise ValueError("degree must be at least 2")
    if girth_target < 3:
        raise ValueError("girth target must be at least 3")
    min_m = 2 * sum((delta - 1) ** i for i in range(girth_target - 1))
    if m < min_m:
        raise BoundViolatedError(
            f"m={m} is below the required minimum {min_m} for "
            f"delta={delta}, girth>={girth_target}"
        )
    n = 2 * m
    adj: list[set[int]] = [set() for _ in range(n)]
    # mask[v] has bit w set iff w is adjacent to v; kept in step with adj
    mask = [0] * n

    def link(u: int, w: int) -> None:
        adj[u].add(w)
        adj[w].add(u)
        mask[u] |= 1 << w
        mask[w] |= 1 << u

    def unlink(u: int, w: int) -> None:
        adj[u].remove(w)
        adj[w].remove(u)
        mask[u] &= ~(1 << w)
        mask[w] &= ~(1 << u)

    for v in range(n):
        link(v, (v + 1) % n)

    def bfs_ball(starts: list[int], radius: int) -> set[int]:
        dist = {s: 0 for s in starts}
        queue = deque(starts)
        while queue:
            u = queue.popleft()
            if dist[u] >= radius:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return set(dist)

    far = n + 1  # stands in for infinite distance between components

    def farthest(u: int, cands: int) -> tuple[int, int]:
        """Distance from u to its farthest candidate (bitmask ``cands``,
        nonempty) and the smallest candidate at that distance.

        Grows BFS layers as bitmasks and stops once every candidate has
        been reached; candidates never reached are at distance ``far``.
        """
        seen = frontier = 1 << u
        dist = best = hit = 0
        while cands and frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= mask[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
            dist += 1
            met = frontier & cands
            if met:
                best, hit = dist, met & -met
                cands ^= met
        if cands:
            best, hit = far, cands & -cands
        return best, hit.bit_length() - 1

    for target in range(3, delta + 1):
        ops = 0
        cap = 4 * m + 16
        while True:
            deficient = [v for v in range(n) if len(adj[v]) < target]
            if not deficient:
                break
            ops += 1
            if ops > cap:
                raise IterationLimitError(
                    "degree-raising loop exceeded its defensive cap; bug"
                )
            # best addable pair: maximum pairwise distance, then smallest
            # pair; scanning u ascending and keeping only strictly farther
            # pairs gives that tie-break
            best_pair: tuple[int, int] | None = None
            best_dist = -1
            above = 0  # deficient nodes greater than u
            for v in deficient:
                above |= 1 << v
            for u in deficient:
                above ^= 1 << u
                cands = above & ~mask[u]
                if not cands:
                    continue
                d, v = farthest(u, cands)
                if d > best_dist:
                    best_dist = d
                    best_pair = (u, v)
            if best_pair is not None and best_dist >= girth_target - 1:
                link(*best_pair)
                continue
            # stuck: swap an edge remote from the two smallest deficient nodes
            vp, wp = deficient[0], deficient[1]
            ball = bfs_ball([vp], girth_target - 2) | bfs_ball(
                [wp], girth_target - 2
            )
            swap = None
            for x in range(n):
                if x in ball:
                    continue
                for y in adj[x]:
                    if y > x and y not in ball:
                        swap = (x, y)
                        break
                if swap:
                    break
            if swap is None:
                raise IterationLimitError(
                    "no swappable edge outside the deficient balls; bug"
                )
            x, y = swap
            unlink(x, y)
            link(x, vp)
            link(y, wp)

    out = Graph(n, [tuple(sorted(nbrs)) for nbrs in adj])
    if any(len(nbrs) != delta for nbrs in out.adj):
        raise IterationLimitError("output is not regular; bug")
    if not girth_at_least(out, girth_target):
        raise IterationLimitError("output girth fell below the target; bug")
    return out


def _resolve_cap(size_cap: int | None) -> int:
    if size_cap is not None:
        return size_cap
    env = os.environ.get(SIZE_CAP_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_SIZE_CAP


def estimate_pipeline_size(k: int, beta: int) -> int:
    """Upper bound on the common-lift node count for (k, beta).

    Both factors may need a double cover, hence the factor 4 on the
    product of the supergraph bound and the minimal high-girth order.
    """
    pred = predicted_sizes(k, beta)
    delta = pred.max_degree
    m_min = 2 * sum((delta - 1) ** i for i in range(2 * k))
    return 4 * (pred.n + 4 * delta) * (2 * m_min)


def build_high_girth_ct(
    k: int, beta: int, size_cap: int | None = None
) -> tuple[CTGraph, CoveringMap]:
    """Full pipeline: a CT graph of girth >= 2k+1 plus its covering map
    onto the low-girth instance.

    Stages: low-girth CT graph, regular supergraph, high-girth regular
    graph of the same degree, common lift, restriction of the first
    projection to the CT preimage. Cluster identities pull back along
    the covering map. Raises SizeCapExceededError (with the estimate)
    when the lift would be too large; the cap falls back to the
    KMW_SIZE_CAP environment variable, then to the built-in default.
    """
    cap = _resolve_cap(size_cap)
    estimate = estimate_pipeline_size(k, beta)
    if estimate > cap:
        raise SizeCapExceededError(estimate, cap)

    low = build_low_girth(k, beta)
    base = low.graph
    delta = beta ** (k + 1)
    super_graph, _ = regular_supergraph(base)
    m_min = 2 * sum((delta - 1) ** i for i in range(2 * k))
    high = high_girth_regular(delta, 2 * k + 1, m_min)
    lifted, psi1, _psi2 = common_lift(super_graph, high)

    proj = psi1.map
    keep = [v for v in range(lifted.n) if proj[v] < base.n]
    index = [-1] * lifted.n
    for new, old in enumerate(keep):
        index[old] = new
    # keep the lifted edges over base edges; index is increasing on keep,
    # so the restricted lists stay sorted
    base_nbrs = [set(nbrs) for nbrs in base.adj]
    adj = []
    for v in keep:
        over = base_nbrs[proj[v]]
        adj.append(tuple(index[w] for w in lifted.adj[v] if proj[w] in over))
    restricted = Graph(len(keep), adj)
    phi = CoveringMap(
        source=restricted,
        target=base,
        map=tuple(psi1.map[old] for old in keep),
    )
    if not verify_covering_map(phi):
        raise ClusterTreeError("restricted projection is not a covering map; bug")
    # girth at least 2k+1, and no lower than the base's: one sweep checks both
    bound = 2 * k + 1
    base_girth = girth(base)
    if isinstance(base_girth, int):
        bound = max(bound, base_girth)
    if not girth_at_least(restricted, bound):
        raise ClusterTreeError(f"pipeline output girth below {bound}; bug")
    cluster_of = tuple(low.cluster_of[phi.map[v]] for v in range(restricted.n))
    ct = CTGraph(graph=restricted, skeleton=low.skeleton, cluster_of=cluster_of)
    return ct, phi


# ---------------------------------------------------------------------------
# Cyclic voltage lift
# ---------------------------------------------------------------------------


def _smallest_prime_at_least(n: int) -> int:
    p = max(n, 2)
    while any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


class VoltageLift:
    """Cyclic voltage lift of a CT graph with voltages in Z_p.

    Lift node (v, x), for base node v and x in Z_p, is the integer
    v*p + x, where p is the smallest prime >= the base node count. Each
    base edge is oriented from its even-level endpoint s to its
    odd-level endpoint t and carries voltage s*t mod p: the lift joins
    (s, x) to (t, x + s*t). Neighbours are computed on demand, so the
    lift (n*p nodes) is never built; clusters pull back through v.

    Forgetting x is a covering map, so every CT-graph constraint holds
    in the lift. Girth at least 6: the lift is bipartite by level parity
    like the base. A 4-cycle in the lift projects to a 4-cycle u-a-w-b
    of the base (local bijectivity forbids backtracking), whose net
    voltage is, up to sign, ua - wa + wb - ub = (u - w)(a - b). Both
    factors are nonzero and smaller than p in absolute value, and p is
    prime, so the net voltage is not 0 mod p and the cycle does not
    close in the lift. Girth 6 >= 2k+1 makes every k-hop view a tree
    for k <= 2.

    Gross & Tucker, "Generating all graph coverings by permutation
    voltage assignments" (1977).
    """

    __slots__ = ("base", "p", "_sign")

    def __init__(self, base: CTGraph):
        self.base = base
        self.p = _smallest_prime_at_least(base.graph.n)
        levels = [c.level for c in base.skeleton.clusters]
        self._sign = tuple(
            1 if levels[c] % 2 == 0 else -1 for c in base.cluster_of
        )

    @property
    def n(self) -> int:
        return self.base.graph.n * self.p

    @property
    def skeleton(self) -> ClusterTreeSkeleton:
        return self.base.skeleton

    def node(self, v: int, x: int) -> int:
        """Index of lift node (v, x)."""
        return v * self.p + x % self.p

    def project(self, node: int) -> int:
        """Base node under ``node``."""
        return node // self.p

    def cluster(self, node: int) -> int:
        return self.base.cluster_of[node // self.p]

    def neighbors(self, node: int) -> list[int]:
        """Lift neighbours, one over each base neighbour, in base order."""
        p = self.p
        v, x = divmod(node, p)
        step = self._sign[v] * v
        return [u * p + (x + step * u) % p for u in self.base.graph.adj[v]]

