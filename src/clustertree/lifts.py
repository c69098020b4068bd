"""Girth-raising machinery: covering maps, double covers, common lifts,
regular supergraph embedding, high-girth regular graph generation, and
cyclic voltage lifts.

The end product is ``build_high_girth_ct``: embed the low-girth CT graph
in a regular supergraph, generate a regular graph of the required girth,
and build the part of their common lift that lies over the CT graph
(``common_lift`` with ``over``), never the whole lift. That part covers
the CT graph and sits inside a cover of the high-girth graph, so it is
again a CT graph but with girth at least 2k+1.

``VoltageLift`` reaches girth 6 without that pipeline's size: it lifts
the low-girth CT graph itself with voltages in Z_p and is never
materialized; ``k_hop_subgraph`` and the coupled walk read it through
``neighbors`` and ``cluster`` like any CT graph.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import reduce
from itertools import chain, islice, repeat
from operator import itemgetter, or_
from typing import NamedTuple

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
from .graph import DEFAULT_SIZE_CAP, Graph, girth, girth_at_least, members
from .matching import bipartition, hopcroft_karp
from .skeleton import ClusterTreeSkeleton, CTGraph, _high_girth_min_m
from .skeleton import estimate_pipeline_size


class CoveringMap(NamedTuple):
    """Node map witnessing that ``source`` is a lift of ``target``."""

    source: Graph
    target: Graph
    map: tuple[int, ...]


def verify_covering_map(cm: CoveringMap) -> bool:
    """Check surjectivity, adjacency preservation and local bijectivity.

    Equal fibre sizes over a connected target need no check of their
    own: a node over t has exactly one neighbour over each neighbour t'
    of t, so adjacent fibres are equal in size, and over a connected
    target all of them are.
    """
    src, tgt, phi = cm.source, cm.target, cm.map
    if len(phi) != src.n:
        return False
    if any(not (0 <= t < tgt.n) for t in phi):
        return False
    if len(set(phi)) != tgt.n:
        return False
    # target rows are sorted tuples without duplicates, so equal sorted
    # images mean the neighbours map one-to-one onto the target neighbourhood
    image = phi.__getitem__
    for v in range(src.n):
        if tuple(sorted(map(image, src.adj[v]))) != tgt.adj[phi[v]]:
            return False
    return True


def matching_decomposition(g: Graph) -> list[list[tuple[int, int]]]:
    """Partition a regular bipartite graph's edges into perfect matchings.

    Repeatedly extracts a perfect matching by augmenting paths and removes
    it; the residual graph stays regular bipartite, so Hall's condition
    keeps holding. Returns degree-many matchings of sorted edge pairs.
    """
    left = bipartition(g)
    degs = {len(nbrs) for nbrs in g.adj}
    if len(degs) > 1:
        raise NotRegularError(f"degrees {sorted(degs)} are not uniform")
    remaining = [list(nbrs) for nbrs in g.adj]
    matchings: list[list[tuple[int, int]]] = []
    for _ in range(max(degs, default=0)):
        # hopcroft_karp only reads the residual rows, and they are edited
        # after it returns, so no round copies them
        mate = hopcroft_karp(remaining, left)
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
    h: Graph, h_prime: Graph, *, over: Graph | None = None
) -> tuple[Graph, CoveringMap, CoveringMap | None]:
    """Common lift of two regular graphs of the same degree.

    A non-bipartite input, on which the decomposition raises
    ``NotBipartiteError``, is replaced by its canonical double cover.
    Both bipartite graphs are decomposed into perfect matchings M_i and
    M'_i, and the lift lives on the node pairs: (v, w) and (v', w') are
    adjacent iff for some i, {v, v'} is in M_i and {w, w'} is in M'_i.

    The first map goes onto ``target``, which is h, or ``over`` when
    given: a subgraph of h on h's first ``over.n`` nodes, whose preimage
    alone is built, with no second map. Row (v, w) is kept iff down(v)
    is a node of ``target``, and its column i iff down(mate_i(v)) is a
    ``target`` neighbour of down(v); both depend on v alone.

    Both maps are proved on the bases by :func:`verify_covering_map`
    before any row is built. Lift node (v, w) has one neighbour per kept
    column i, (mate_i(v), mate'_i(w)), which the first map sends to
    down(mate_i(v)) whatever w is. So the rows cover ``target`` iff the
    witness does, which joins each kept v to its mates at its kept
    columns; the rows are built from exactly those columns. The second
    witness joins each node of the second base to its d mates: it proves
    the second map, and puts the rows inside a cover of h_prime. The
    proof fails when the matchings do not partition a base's edges, say
    when two share an edge, and when ``over`` is no subgraph of h. The
    rows' girth is then at least both base girths; one sweep with the
    larger finite one checks it.

    Kept node (v, w) is the integer rank(v) * n2 + w, ranking the kept v
    in ascending order, n2 being the second bipartite base's node count:
    its position among the kept nodes of the whole lift. Rows point at
    one shared int per lift node, taken from a tuple of ids per kept v,
    so a row entry costs a pointer, not an int of its own.
    """
    def decompose(g: Graph) -> tuple[Graph, Sequence[int], list]:
        # the bipartite graph decomposed, its node map down to g and its
        # matchings; an odd cycle in g sends the decomposition to the cover
        try:
            return g, range(g.n), matching_decomposition(g)
        except NotBipartiteError:
            cover, cm = canonical_double_cover(g)
            return cover, cm.map, matching_decomposition(cover)

    # each decomposition checks regularity, and its matching count is the degree
    b1, down1, m1 = decompose(h)
    b2, down2, m2 = decompose(h_prime)
    if len(m1) != len(m2):
        raise DegreeMismatchError(f"degrees differ: {len(m1)} vs {len(m2)}")
    if (h.n == 0) != (h_prime.n == 0):
        raise ClusterTreeError("an empty graph has no common lift with a nonempty one")
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

    mates1 = partners(m1, n1)
    mates2 = partners(m2, n2)
    target = h if over is None else over
    kept = [v for v in range(n1) if down1[v] < target.n]
    rank = {v: r for r, v in enumerate(kept)}
    # (rank of mate_i(v), i) for each kept column i of each kept v
    columns = [
        [
            (rank[mate[v]], i)
            for i, mate in enumerate(mates1)
            if down1[mate[v]] in target.adj[down1[v]]
        ]
        for v in kept
    ]
    down = tuple(down1[v] for v in kept)
    witness1 = Graph(len(kept), [tuple(sorted(r for r, _ in col)) for col in columns])
    witness2 = Graph(
        n2, [tuple(sorted(mate[w] for mate in mates2)) for w in range(n2)]
    )
    proofs = (
        CoveringMap(witness1, target, down),
        CoveringMap(witness2, h_prime, tuple(down2)),
    )
    if not all(map(verify_covering_map, proofs)):
        raise ClusterTreeError("constructed projection is not a covering map")
    # perfect matchings make the rows symmetric, and the proof makes v's
    # kept mates distinct, so the lift is simple; taken in ascending
    # rank, the columns come from strictly rising blocks, so each zipped
    # row comes out sorted. A node with no column keeps empty rows.
    blocks = [tuple(range(r * n2, r * n2 + n2)) for r in range(len(kept))]
    takes = [itemgetter(*mate2) for mate2 in mates2]
    adj: list[tuple[int, ...]] = [()] * (len(kept) * n2)
    for r, col in enumerate(columns):
        if col:
            rows = [takes[i](blocks[s]) for s, i in sorted(col)]
            adj[r * n2 : r * n2 + n2] = zip(*rows)
    lifted = Graph(len(adj), adj)

    base_girths = [x for x in (girth(target), girth(h_prime)) if isinstance(x, int)]
    if base_girths and not girth_at_least(lifted, max(base_girths)):
        raise ClusterTreeError("lift decreased girth; bug")
    cm1 = CoveringMap(
        lifted, target, tuple(chain.from_iterable(repeat(t, n2) for t in down))
    )
    if over is not None:
        return lifted, cm1, None
    return lifted, cm1, CoveringMap(lifted, h_prime, tuple(down2) * n1)


def regular_supergraph(g: Graph) -> Graph:
    """Embed ``g`` in a regular graph of degree max_degree(g).

    Construction: (1) greedily join non-adjacent deficient node pairs;
    the leftovers form a clique of size at most the degree. (2) Attach a
    complete bipartite gadget carrying one perfect matching per leftover
    node and splice matching edges to absorb even deficiencies. (3) Pair
    up nodes still missing one edge through their matchings' last-column
    edges. (4) A single leftover node (degree must be odd then) is fixed
    with a second, slightly smaller gadget plus a perfect matching.

    Adds fewer than 4 * degree nodes. Node v of ``g`` is node v of the
    result, so the embedding is the identity.
    """
    delta = g.max_degree()
    if delta == 0:
        raise EmptyGraphError("cannot regularize a graph with no edges")
    adj: list[set[int]] = [set(nbrs) for nbrs in g.adj]

    def add_edge(u: int, w: int) -> None:
        assert u != w and w not in adj[u]
        adj[u].add(w)
        adj[w].add(u)

    def cut(u: int, w: int) -> None:
        adj[u].remove(w)
        adj[w].remove(u)

    def gadget(left: int, right: int) -> tuple[range, range]:
        """Complete bipartite K_{left,right} on new nodes, left side first."""
        lnodes = range(len(adj), len(adj) + left)
        rnodes = range(lnodes.stop, lnodes.stop + right)
        adj.extend([set(rnodes) for _ in lnodes] + [set(lnodes) for _ in rnodes])
        return lnodes, rnodes

    deficient = [v for v in range(g.n) if len(adj[v]) < delta]
    # one lexicographic pass is maximal: degrees only grow, so a skipped
    # pair can never become addable later
    for i, v in enumerate(deficient):
        if len(adj[v]) == delta:
            continue
        for w in deficient[i + 1 :]:
            if len(adj[v]) == delta:
                break
            if len(adj[w]) < delta and w not in adj[v]:
                add_edge(v, w)

    leftovers = [v for v in deficient if len(adj[v]) < delta]
    if leftovers:
        assert len(leftovers) <= delta
        # K_{delta,delta} gadget; matching i pairs l_x with r_y, (x-y) % delta == i
        lnodes, rnodes = gadget(delta, delta)

        def gadget_edge(mi: int, x: int) -> tuple[int, int]:
            # edge of matching mi containing l_x (1-based column x)
            y = (x - mi) % delta
            y = delta if y == 0 else y
            return lnodes[x - 1], rnodes[y - 1]

        match_of = {v: i for i, v in enumerate(leftovers)}
        for v in leftovers:
            for x in range(1, (delta - len(adj[v])) // 2 + 1):
                lx, ry = gadget_edge(match_of[v], x)
                cut(lx, ry)
                add_edge(v, lx)
                add_edge(v, ry)

        odd = [v for v in leftovers if len(adj[v]) < delta]
        assert all(len(adj[v]) == delta - 1 for v in odd)
        for v, w in zip(odd[0::2], odd[1::2]):
            lx, ry = gadget_edge(match_of[v], delta)
            cut(lx, ry)
            add_edge(w, lx)
            add_edge(v, ry)

        if len(odd) % 2 == 1:
            v = odd[-1]
            # only possible for odd degree: the number of odd-degree nodes
            # in any graph is even
            assert delta % 2 == 1
            lnodes2, _ = gadget(delta, delta - 1)
            add_edge(v, lnodes2[0])
            rest = lnodes2[1:]
            for a, b in zip(rest[0::2], rest[1::2]):
                add_edge(a, b)

    out = Graph(len(adj), [tuple(sorted(nbrs)) for nbrs in adj])
    if any(len(a) != delta for a in out.adj):
        raise ClusterTreeError("supergraph construction failed to regularize; bug")
    if out.n >= g.n + 4 * delta:
        raise ClusterTreeError("supergraph exceeded its size bound; bug")
    return out


def high_girth_regular(delta: int, girth_target: int, m: int) -> Graph:
    """A delta-regular graph on 2m nodes with girth at least girth_target.

    Requires m >= 2 * sum((delta-1)^i, i=0..girth_target-2). Starting from
    the cycle on 2m nodes, degrees are raised one level at a time: add an
    edge between two deficient nodes at distance >= girth_target - 1
    whenever possible; otherwise swap an edge xy with both endpoints at
    distance >= girth_target - 1 from the two smallest deficient nodes
    v' < w' for the edges xv' and yw'. The swapped edge is the one with
    the smallest x and, for that x, the smallest partner y > x, so the
    output follows from these rules alone. Every step reduces total
    deficiency by two, so the process terminates; the exchange argument
    guarantees a usable edge always exists, and a defensive cap turns
    any violation into an error instead of a hang.

    The graph stays connected: the cycle is, a link keeps it so, and so
    does a swap. When stuck, v' and w' are adjacent or a candidate pair
    at most girth_target - 2 apart, so a shortest v'-w' path lies in
    their balls of that radius, which x and y avoid. Removing xy leaves
    v' and w' on one side, and the links xv' and yw' rejoin the other.

    Distances are kept, not recomputed: ``balls[u][r]`` is the bitmask
    of the nodes within r hops of u, for r up to u's eccentricity, built
    once by bitmask BFS. The farthest candidate of u is read off the
    first ball, from the top, that misses a candidate; the scan for the
    best pair walks u's balls only down to the best distance found so
    far, and skips u if its top ball is no farther. Adding an edge
    only shortens distances, so a link patches just the balls of the
    nodes that are at least two hops nearer to one end than to the
    other. Removing an edge can lengthen distances, so after a swap
    the whole table is rebuilt. The table is built in rounds, not by a
    BFS per node: round r gives every node whose ball still grows its
    ball r, the union of its own and its neighbours' balls r - 1.
    """
    if delta < 2:
        raise ValueError("degree must be at least 2")
    if girth_target < 3:
        raise ValueError("girth target must be at least 3")
    min_m = _high_girth_min_m(delta, girth_target)
    if m < min_m:
        raise BoundViolatedError(
            f"m={m} is below the required minimum "
            f"{min_m if min_m < math.inf else 'of 10^4300 or more'} for "
            f"delta={delta}, girth>={girth_target}"
        )
    n = 2 * m
    # mask[v] has bit w set iff w is adjacent to v
    mask = [0] * n

    def link(u: int, w: int) -> None:
        mask[u] |= 1 << w
        mask[w] |= 1 << u

    for v in range(n):
        link(v, (v + 1) % n)

    def ball_table() -> list[list[int]]:
        """balls from the masks: entry r of u's list is the bitmask of the
        nodes within r hops of u, up to u's eccentricity, so the last
        entry is u's component."""
        nbrs = list(map(members, mask))
        ball = [1 << u for u in range(n)]
        table = [[b] for b in ball]
        growing = range(n)  # nodes whose ball grew in the last round
        while growing:
            # round r reads only balls r - 1; a ball that stopped growing
            # is its component and stays right
            grown = [
                reduce(or_, map(ball.__getitem__, nbrs[u]), ball[u])
                for u in growing
            ]
            still = []
            for u, b in zip(growing, grown):
                if b != ball[u]:
                    ball[u] = b
                    table[u].append(b)
                    still.append(u)
            growing = still
        return table

    balls = ball_table()

    def link_far(a: int, b: int) -> None:
        """Join a and b and patch the balls of every node whose distances
        shrink. A shortest path uses the new edge at most once, so node u
        with d(u, a) = r and d(u, b) >= r + 2 gains exactly the nodes
        within t - 1 - r of b in its ball of radius t, for each t > r;
        every other node keeps its balls. Both passes read a's and b's
        old lists, which the patch replaces but never mutates."""
        old_a, old_b = balls[a], balls[b]
        link(a, b)
        for near_list, far_list in ((old_a, old_b), (old_b, old_a)):
            top = len(far_list) - 1
            inner = 0
            for r, within in enumerate(near_list):
                # at distance r from one end, at least r + 2 from the other
                movers = within & ~inner & ~far_list[min(r + 1, top)]
                inner = within
                while movers:
                    low = movers & -movers
                    movers ^= low
                    u = low.bit_length() - 1
                    old = balls[u]
                    # entry t > r: old[t] | far_list[t - 1 - r], each list
                    # held at its last entry (the component) once it ends
                    grown = map(
                        or_,
                        chain(old[r + 1 :], repeat(old[-1])),
                        chain(far_list, repeat(far_list[-1])),
                    )
                    new = old[: r + 1]
                    new += islice(grown, max(len(old) - 1 - r, top + 1))
                    while new[-1] == new[-2]:
                        new.pop()
                    balls[u] = new

    def ball(u: int, radius: int) -> int:
        """Bitmask of the nodes within ``radius`` hops of u."""
        bu = balls[u]
        return bu[min(radius, len(bu) - 1)]

    for target in range(3, delta + 1):
        ops = 0
        cap = 4 * m + 16
        # degrees never fall (a swap keeps x's and y's): filter the last list
        deficient = range(n)
        while True:
            deficient = [v for v in deficient if mask[v].bit_count() < target]
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
                bu = balls[u]
                # u's candidates lie in its top ball: no pair of u can
                # beat best_dist if that ball's radius does not
                if len(bu) - 1 <= best_dist:
                    continue
                cands = above & ~mask[u]
                if not cands:
                    continue
                # the distance to u's farthest candidate is the first r,
                # from the top, whose inner ball misses a candidate; no r
                # at or below best_dist can win, so the walk stops there
                for r in range(len(bu) - 1, best_dist, -1):
                    out = cands & ~bu[r - 1]
                    if out:
                        best_dist = r
                        best_pair = (u, (out & -out).bit_length() - 1)
                        break
            if best_pair is not None and best_dist >= girth_target - 1:
                link_far(*best_pair)
                continue
            # stuck: swap an edge remote from the two smallest deficient nodes
            vp, wp = deficient[0], deficient[1]
            near = ball(vp, girth_target - 2) | ball(wp, girth_target - 2)
            for x in range(n):
                # bit j: x + 1 + j is a neighbour of x outside near
                partners = (mask[x] & ~near) >> x >> 1
                if partners and not near >> x & 1:
                    break
            else:
                raise IterationLimitError(
                    "no swappable edge outside the deficient balls; bug"
                )
            y = x + (partners & -partners).bit_length()
            # unlink x and y, then join them to vp and wp; removing an
            # edge can lengthen distances, so rebuild every ball
            mask[x] ^= 1 << y
            mask[y] ^= 1 << x
            link(x, vp)
            link(y, wp)
            balls = ball_table()

    out = Graph(n, list(map(members, mask)))
    if any(len(nbrs) != delta for nbrs in out.adj):
        raise IterationLimitError("output is not regular; bug")
    if not girth_at_least(out, girth_target):
        raise IterationLimitError("output girth fell below the target; bug")
    return out


def build_high_girth_ct(k: int, beta: int) -> tuple[CTGraph, CoveringMap]:
    """Full pipeline: a CT graph of girth >= 2k+1 plus its covering map
    onto the low-girth instance.

    Stages: low-girth CT graph, regular supergraph, high-girth regular
    graph of the same degree, and the common lift's rows over the CT
    graph only. Each stage checks its own output: the generator its
    girth of at least 2k+1, and ``common_lift`` its map onto the CT
    graph and a girth no lower than the CT graph's or the generator's.
    Cluster identities pull back along the covering map. Raises
    SizeCapExceededError (with the estimate) when the lift would have
    more than ``DEFAULT_SIZE_CAP`` nodes.
    """
    estimate = estimate_pipeline_size(k, beta)
    if estimate > DEFAULT_SIZE_CAP:
        raise SizeCapExceededError(estimate, DEFAULT_SIZE_CAP)

    low = build_low_girth(k, beta)
    base = low.graph
    delta = beta ** (k + 1)
    super_graph = regular_supergraph(base)
    target = 2 * k + 1
    high = high_girth_regular(delta, target, _high_girth_min_m(delta, target))
    restricted, phi, _ = common_lift(super_graph, high, over=base)
    cluster_of = tuple(map(low.cluster_of.__getitem__, phi.map))
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

