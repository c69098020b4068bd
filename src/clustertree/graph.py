"""Simple undirected graphs over dense integer node indices.

Everything downstream (skeleton instantiation, lifts, view extraction)
runs on this representation. Graphs are immutable after construction and
safe to share between threads. Adjacency lists are kept sorted ascending
and every iteration order in this module is ascending-index, so all
constructions are reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from collections import deque
from itertools import chain
from typing import Iterable, NamedTuple, Sequence


# girth of an acyclic graph
INFINITE = math.inf

# the most nodes a command builds from its arguments, and the most a graph
# file may declare beyond those its edges and clusters account for
DEFAULT_SIZE_CAP = 5_000_000


def members(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending: the nodes of a node bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: list[tuple[int, ...]]):
        """Build from a pre-validated adjacency structure.

        Use :meth:`from_edges` unless the adjacency is known to be simple,
        symmetric and sorted.
        """
        self.n = n
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on nodes ``0..n-1`` from an edge list.

        Rejects endpoints that are not ints (``type(u) is int`` keeps JSON
        booleans out), self-loops, duplicate edges and out-of-range
        endpoints.

        Edges in writer order, the order ``write_graph_json`` and
        :meth:`edges` give, take a short path: int ends with
        ``0 <= u < v < n``, each edge strictly after the one before in
        (u, v) order. While every edge keeps that order, no end is out of
        range and no edge is a self-loop; strictly rising pairs never
        repeat, and with u < v no edge comes again reversed. Each row
        also fills in ascending order: row w first gets its ends u < w,
        from the edges (u, w) in rising u, and then its ends v > w, from
        the edges (w, v) in rising v. So each row is already sorted and
        duplicate-free, and becomes its tuple as it is. From the first
        edge out of that order on, every edge takes the three checks in
        turn, and at the end the rows are sorted and scanned for
        duplicates, so an error and its message do not depend on where
        the order broke.
        """
        if n < 0:
            raise ValueError("node count must be nonnegative")
        # list rows while edges arrive, each a tuple once checked
        adj: list = [[] for _ in range(n)]
        edges = iter(edges)
        # the edge before; any edge with 0 <= u < v < n comes after (-1, n)
        pu, pv = -1, n
        for u, v in edges:
            if not (type(u) is int and type(v) is int
                    and (pu < u < v < n or u == pu and pv < v < n)):
                break
            adj[u].append(v)
            adj[v].append(u)
            pu, pv = u, v
        else:
            for u in range(n):
                adj[u] = tuple(adj[u])
            return cls(n, adj)
        for u, v in chain(((u, v),), edges):
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer endpoint")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u].append(v)
            adj[v].append(u)
        # a repeated edge shows up as equal neighbours in a sorted list
        for u, nbrs in enumerate(adj):
            nbrs.sort()
            if any(map(operator.eq, nbrs, nbrs[1:])):
                w = next(a for a, b in zip(nbrs, nbrs[1:]) if a == b)
                raise ValueError(f"duplicate edge {(min(u, w), max(u, w))}")
            adj[u] = tuple(nbrs)
        return cls(n, adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def bfs_distances(self, source: int) -> dict[int, int]:
        """Hop distances from ``source`` to every reachable node."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            d = dist[u]
            for w in self.adj[u]:
                if w not in dist:
                    dist[w] = d + 1
                    queue.append(w)
        return dist

    def connected_components(self) -> list[list[int]]:
        """Components as ascending node lists, ordered by smallest member."""
        seen = [False] * self.n
        out: list[list[int]] = []
        for s in range(self.n):
            if not seen[s]:
                comp = sorted(self.bfs_distances(s))
                for v in comp:
                    seen[v] = True
                out.append(comp)
        return out

    def two_coloring(self) -> list[int] | None:
        """A proper 2-coloring (0/1 per node), or None if not bipartite.

        Each component is colored with its smallest node as color 0.
        Colors by BFS layers: a layer's next layer is the union of its
        rows minus the layer before, and every node of layer r gets r's
        parity. Each edge joins consecutive layers or one layer to
        itself, and an edge inside a layer closes an odd cycle.
        """
        row = self.adj.__getitem__
        color: list[int] = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            before: set[int] = set()
            layer = {s}
            c = 0
            while layer:
                for u in layer:
                    color[u] = c
                reach = set().union(*map(row, layer))
                if not reach.isdisjoint(layer):
                    return None
                before, layer = layer, reach - before
                c ^= 1
        return color


class RootedSubgraph(NamedTuple):
    """A k-hop view: everything within k hops of a root node.

    Edges joining two nodes that are both at the maximum depth are not
    part of the view, so when the host graph has girth at least 2k+1
    the view is a tree.

    ``graph`` is reindexed to dense local indices: ``nodes[i]`` is the
    host index of local node ``i``. Nodes are sorted by (distance from
    the root, host index), so ``nodes[0]`` is the root.
    """

    graph: Graph
    nodes: tuple[int, ...]

    def is_tree(self) -> bool:
        # a ball around one root is connected
        return self.graph.edge_count() == len(self.nodes) - 1


def k_hop_subgraph(g, v: int, k: int) -> RootedSubgraph:
    """Extract the k-hop view of ``v``.

    Node set: all nodes at distance <= k from ``v``. Edge set: the induced
    edges minus those whose endpoints are both at distance exactly k.
    ``g`` is anything with ``n`` and ``neighbors(v)``: a ``Graph``, a
    ``CTGraph`` or a ``VoltageLift``.

    At k = 1 the view is the root's star, built directly: the root is the
    one node below depth 1, so every view edge is one of its edges, and an
    edge between two neighbours joins two depth-1 nodes and is left out.
    The neighbours are sorted, as a BFS layer is: the protocol sets no order.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"node {v} out of range")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 1:
        leaves = sorted(g.neighbors(v))
        d = len(leaves)
        star = Graph(d + 1, [tuple(range(1, d + 1))] + [(0,)] * d)
        return RootedSubgraph(star, (v, *leaves))
    index = {v: 0}
    nodes = [v]
    inner = 0  # nodes[:inner] lie below depth k
    for _ in range(k):
        layer = sorted(
            {w for u in nodes[inner:] for w in g.neighbors(u) if w not in index}
        )
        inner = len(nodes)
        if not layer:  # the ball is whole: deeper layers are empty too
            break
        for w in layer:
            index[w] = len(nodes)
            nodes.append(w)
    # every view edge has an end below depth k, whose neighbours all lie
    # in the view; scanning those ends in order keeps each list sorted
    outer: list[list[int]] = [[] for _ in range(len(nodes) - inner)]
    adj: list[tuple[int, ...]] = []
    for i in range(inner):
        local = sorted(index[w] for w in g.neighbors(nodes[i]))
        adj.append(tuple(local))
        for j in local:
            if j >= inner:
                outer[j - inner].append(i)
    # depth-k nodes with equal neighbour lists share one tuple
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    adj.extend(shared.setdefault(t, t) for t in map(tuple, outer))
    return RootedSubgraph(graph=Graph(len(nodes), adj), nodes=tuple(nodes))


def _shortest_cycle_sweep(g: Graph, ceiling: int | float) -> int | float:
    """Length of the shortest cycle strictly below ``ceiling``, else ``ceiling``.

    BFS from every node with the standard shortest-cycle-through-a-node
    bound; ``ceiling`` INFINITE gives the girth. The sweep stops once it
    meets the least girth possible: 3, or 4 for a bipartite graph.
    """
    floor = 4 if g.two_coloring() is not None else 3
    best = ceiling
    dist = [-1] * g.n
    parent = [-1] * g.n
    in_tree = bytearray(g.n)  # nodes of components known to be acyclic
    for s in range(g.n):
        if len(g.adj[s]) < 2 or in_tree[s]:
            continue
        touched = [s]
        dist[s] = 0
        parent[s] = s
        queue = deque([s])
        # an int, or INFINITE: (INFINITE + 1) // 2 would be nan
        limit = INFINITE if best == INFINITE else (best + 1) // 2
        while queue:
            u = queue.popleft()
            du = dist[u]
            if du >= limit:
                break
            for w in g.adj[u]:
                if dist[w] == -1:
                    dist[w] = du + 1
                    parent[w] = u
                    touched.append(w)
                    queue.append(w)
                elif w != parent[u] and dist[w] >= du:
                    # non-tree edge closes a cycle through s
                    cand = du + dist[w] + 1
                    if cand < best:
                        best = cand
                        limit = (best + 1) // 2
        for u in touched:
            dist[u] = -1
            parent[u] = -1
        if best == INFINITE:
            # an unbounded BFS met no non-tree edge: its component is a tree
            for u in touched:
                in_tree[u] = 1
        if best <= floor:
            break
    return best


def girth(g: Graph) -> int | float:
    """Exact girth: length of the shortest cycle, INFINITE for forests.

    Computed by BFS from every node; stops as soon as the theoretical
    minimum (3, or 4 for bipartite graphs) has been met. A forest needs
    no pass of its own: the sweep finds no cycle in it, and runs one BFS
    per tree component.
    """
    return _shortest_cycle_sweep(g, INFINITE)


def girth_at_least(g: Graph, bound: int) -> bool:
    """True iff girth(g) >= bound.

    Simple graphs always have girth >= 3. Beyond that, a bounded sweep
    looks for any cycle shorter than the bound. Forests need no pass of
    their own: the sweep never searches past (bound + 1) // 2 hops and
    finds no cycle in them.
    """
    return bound <= 3 or _shortest_cycle_sweep(g, bound) >= bound


def line_graph(g: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Line graph of ``g`` plus the edge-index -> endpoint-pair map.

    Node i of the line graph is edge i of ``g`` (edges in lexicographic
    order); two line nodes are adjacent iff the edges share an endpoint.
    """
    edge_list = g.edges()
    incident: list[set[int]] = [set() for _ in range(g.n)]
    for i, (u, v) in enumerate(edge_list):
        incident[u].add(i)
        incident[v].add(i)
    # edge i = (u, v) meets every other edge at u or at v, and a simple
    # graph has no second edge at both; ^ drops i itself
    adj = [tuple(sorted(incident[u] ^ incident[v])) for u, v in edge_list]
    return Graph(len(edge_list), adj), edge_list


# ---------------------------------------------------------------------------
# Persistence: JSON is the single on-disk format, DOT export is write-only.
# ---------------------------------------------------------------------------


class GraphFile(NamedTuple):
    """Contents of a graph JSON file."""

    graph: Graph
    clusters: tuple[int, ...] | None
    meta: dict | None


def graph_from_json_dict(doc) -> GraphFile:
    """Parse a graph document; any malformed shape raises ValueError.

    ``type(x) is int`` keeps JSON booleans out of integer fields.
    Consumes the document: "edges" is read in order, and each block of
    4,096 entries is set to None as it is handed to ``Graph.from_edges``,
    so the decoded pairs die while the rows grow.
    """
    if not isinstance(doc, dict):
        raise ValueError("graph document must be a JSON object")
    n = doc.get("n")
    if type(n) is not int or n < 0:
        raise ValueError("graph document needs a nonnegative integer 'n'")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise ValueError("'edges' must be a list of [u, v] integer pairs")
    clusters = doc.get("clusters")
    # the type check comes first, so min compares only ints
    if clusters is not None and not (
        isinstance(clusters, list)
        and len(clusters) == n
        and (not clusters
             or set(map(type, clusters)) == {int} and min(clusters) >= 0)
    ):
        raise ValueError(f"'clusters' must hold {n} nonnegative integers")
    # a node needs a cluster entry or, past the cap, an edge end: a short
    # file may not declare a huge graph
    if clusters is None and n > 2 * len(edges) + DEFAULT_SIZE_CAP:
        raise ValueError(
            f"'n' exceeds twice the edge count by more than {DEFAULT_SIZE_CAP}"
        )
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError("'meta' must be a JSON object")

    def drained():
        for lo in range(0, len(edges), 4096):
            block = edges[lo:lo + 4096]
            # same length in and out, so nothing shifts
            edges[lo:lo + 4096] = [None] * len(block)
            yield block

    try:
        g = Graph.from_edges(n, chain.from_iterable(drained()))
    except (TypeError, ValueError) as exc:  # unpacking an entry raises either
        raise ValueError(f"bad 'edges' entry: {exc}") from None
    return GraphFile(
        graph=g,
        clusters=None if clusters is None else tuple(clusters),
        meta=meta,
    )


def write_graph_json(
    path: str,
    g: Graph,
    clusters: Sequence[int] | None = None,
    meta: dict | None = None,
) -> None:
    """Write the graph document ``json.dumps`` gives for ``{"n": g.n,
    "edges": g.edges()}``, then ``"clusters"`` and ``"meta"`` when given,
    and a newline. It goes out 512 nodes at a time: the edges of 512
    nodes per write, then 512 cluster entries per write, so the writer
    never holds the edge list, a copy of ``clusters`` or the whole text.

    Relies on ``Graph``'s sorted rows: the edges (u, v) with u < v are
    the ends of u's row after ``bisect_right(row, u)``, already in
    order. Node u's piece is one ``%`` of a template that repeats
    ``[u, %d]`` once per end, so the ints become text in C; rows hold
    only ints (``from_edges`` rejects bools, and the trusted builders
    make tuples of ints), and ``%d`` of an int is its ``str``, the text
    json writes for it. Clusters come from the caller and may hold
    other values, so a block of clusters is written as ``json.dumps``
    of the block without its brackets, the text the whole array has
    for that stretch. The length of ``clusters`` is checked, and
    ``meta`` encoded, before the file is opened.
    """
    n = g.n
    if clusters is not None and len(clusters) != n:
        raise ValueError("clusters array must have one entry per node")
    tail = "}\n" if meta is None else f', "meta": {json.dumps(meta)}}}\n'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"n": {n}, "edges": [')
        sep = ""
        for lo in range(0, n, 512):
            # one string per node: "[u, a], [u, b]" for the ends a, b past u
            pieces = []
            for u in range(lo, min(lo + 512, n)):
                row = g.adj[u]
                ends = row[bisect_right(row, u):]
                if ends:
                    pieces.append((f"[{u}, %d], " * len(ends))[:-2] % ends)
            if pieces:
                fh.write(sep)
                fh.write(", ".join(pieces))
                sep = ", "
        fh.write("]")
        if clusters is not None:
            fh.write(', "clusters": [')
            for lo in range(0, n, 512):
                if lo:
                    fh.write(", ")
                fh.write(json.dumps(clusters[lo:lo + 512])[1:-1])
            fh.write("]")
        fh.write(tail)


def load_json(path: str):
    """``json.load`` of the file at ``path``. Nesting too deep for the
    decoder raises ValueError, like any other malformed JSON, rather
    than RecursionError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def read_graph_json(path: str) -> GraphFile:
    """Read the graph file at ``path``: :func:`load_json`, then
    :func:`graph_from_json_dict`.

    A (1,5) pipeline output decodes into 310,000 edge lists that become
    72,000 rows. Decoded JSON and the rows built from it hold no cycle,
    so reference counting alone frees them; with the cyclic collector
    on, it would run about 550 passes over them during the read and one
    more over the rows after it. The reader sets no collector policy of
    its own: ``cli.dispatch`` pauses the collector for the whole command.
    """
    return graph_from_json_dict(load_json(path))


_LEVEL_COLORS = (
    "#bdd7ff",
    "#c8e6c9",
    "#ffe0b2",
    "#e1bee7",
    "#ffcdd2",
    "#b2dfdb",
    "#f0f4c3",
    "#d7ccc8",
)


def graph_to_dot(
    g: Graph,
    clusters: Iterable[int] | None = None,
    cluster_levels: dict[int, int] | None = None,
) -> str:
    """Render as Graphviz DOT. With cluster info, nodes are grouped into
    same-rank clusters and colored by cluster level."""
    lines = ["graph G {"]
    if clusters is None:
        for v in range(g.n):
            lines.append(f"  {v};")
    else:
        clusters = list(clusters)
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(clusters):
            groups.setdefault(c, []).append(v)
        for c in sorted(groups):
            level = cluster_levels.get(c, 0) if cluster_levels else 0
            color = _LEVEL_COLORS[level % len(_LEVEL_COLORS)]
            lines.append(f"  subgraph cluster_{c} {{")
            lines.append(f'    label="C{c}";')
            lines.append("    rank=same;")
            lines.append('    style=filled;')
            lines.append(f'    color="{color}";')
            for v in groups[c]:
                lines.append(f"    {v};")
            lines.append("  }")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
