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
from collections import deque
from dataclasses import dataclass
from typing import Iterable


# girth of an acyclic graph
INFINITE = math.inf


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges."""

    __slots__ = ("n", "adj", "_edge_cache")

    def __init__(self, n: int, adj: list[tuple[int, ...]]):
        """Build from a pre-validated adjacency structure.

        Use :meth:`from_edges` unless the adjacency is known to be simple,
        symmetric and sorted.
        """
        self.n = n
        self.adj = adj
        self._edge_cache: list[tuple[int, int]] | None = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph on nodes ``0..n-1`` from an edge list.

        Rejects endpoints that are not ints (``type(u) is int`` keeps JSON
        booleans out), self-loops, duplicate edges and out-of-range
        endpoints.
        """
        if n < 0:
            raise ValueError("node count must be nonnegative")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
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
        return cls(n, list(map(tuple, adj)))

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
        if self._edge_cache is None:
            self._edge_cache = [
                (u, v) for u in range(self.n) for v in self.adj[u] if u < v
            ]
        return self._edge_cache

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def bfs_distances(self, source: int, cutoff: int | None = None) -> dict[int, int]:
        """Hop distances from ``source`` to every reachable node.

        With ``cutoff`` set, only nodes within that many hops are returned.
        """
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            d = dist[u]
            if cutoff is not None and d >= cutoff:
                continue
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
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comp.sort()
            out.append(comp)
        return out

    def two_coloring(self) -> list[int] | None:
        """A proper 2-coloring (0/1 per node), or None if not bipartite.

        Each component is colored with its smallest node as color 0.
        """
        color: list[int] = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                cu = color[u]
                for w in self.adj[u]:
                    if color[w] == -1:
                        color[w] = 1 - cu
                        queue.append(w)
                    elif color[w] == cu:
                        return None
        return color

    def is_forest(self) -> bool:
        for comp in self.connected_components():
            comp_edges = sum(len(self.adj[u]) for u in comp) // 2
            if comp_edges != len(comp) - 1:
                return False
        return True


@dataclass(frozen=True, slots=True)
class RootedSubgraph:
    """A k-hop view: everything within k hops of a root node.

    Edges joining two nodes that are both at the maximum depth are not
    part of the view, so when the host graph has girth at least 2k+1
    the view is a tree.

    ``graph`` is reindexed to dense local indices: ``nodes[i]`` is the
    host index of local node ``i`` and ``depth[i]`` its distance from
    the root. Nodes are sorted by (depth, host index), so ``nodes[0]``
    is the root.
    """

    graph: Graph
    root: int
    k: int
    nodes: tuple[int, ...]
    depth: tuple[int, ...]

    def is_tree(self) -> bool:
        # a ball around one root is connected
        return self.graph.edge_count() == len(self.nodes) - 1


def k_hop_subgraph(g, v: int, k: int) -> RootedSubgraph:
    """Extract the k-hop view of ``v``.

    Node set: all nodes at distance <= k from ``v``. Edge set: the induced
    edges minus those whose endpoints are both at distance exactly k.
    ``g`` is anything with ``n`` and ``neighbors(v)``: a ``Graph``, a
    ``CTGraph`` or a ``VoltageLift``.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"node {v} out of range")
    if k < 0:
        raise ValueError("k must be nonnegative")
    index = {v: 0}
    nodes = [v]
    depth = [0]
    inner = 0  # nodes[:inner] lie below depth k
    for d in range(1, k + 1):
        layer = sorted(
            {w for u in nodes[inner:] for w in g.neighbors(u) if w not in index}
        )
        inner = len(nodes)
        for w in layer:
            index[w] = len(nodes)
            nodes.append(w)
        depth.extend([d] * len(layer))
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
    adj.extend(tuple(nbrs) for nbrs in outer)
    return RootedSubgraph(
        graph=Graph(len(nodes), adj),
        root=v,
        k=k,
        nodes=tuple(nodes),
        depth=tuple(depth),
    )


def _shortest_cycle_sweep(
    g: Graph, ceiling: int | None, floor: int = 3
) -> int | None:
    """Length of the shortest cycle strictly below ``ceiling``.

    BFS from every node with the standard shortest-cycle-through-a-node
    bound. With ``ceiling`` None the true girth is returned (None only if
    acyclic); otherwise returns None when no cycle shorter than the
    ceiling exists. ``floor`` is a known lower bound on the girth; the
    sweep stops once it is reached.
    """
    best = ceiling
    found = False
    dist = [-1] * g.n
    parent = [-1] * g.n
    for s in range(g.n):
        if len(g.adj[s]) < 2:
            continue
        touched = [s]
        dist[s] = 0
        parent[s] = s
        queue = deque([s])
        limit = None if best is None else (best + 1) // 2
        while queue:
            u = queue.popleft()
            du = dist[u]
            if limit is not None and du >= limit:
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
                    if best is None or cand < best:
                        best = cand
                        found = True
                        limit = (best + 1) // 2
        for u in touched:
            dist[u] = -1
            parent[u] = -1
        if found and best <= floor:
            break
    return best if found else None


def girth(g: Graph) -> int | float:
    """Exact girth: length of the shortest cycle, INFINITE for forests.

    Computed by BFS from every node; stops as soon as the theoretical
    minimum (3, or 4 for bipartite graphs) has been met.
    """
    if g.is_forest():
        return INFINITE
    floor = 4 if g.two_coloring() is not None else 3
    hit = _shortest_cycle_sweep(g, None, floor=floor)
    assert hit is not None
    return hit


def girth_at_least(g: Graph, bound: int) -> bool:
    """True iff girth(g) >= bound, with cheap short-circuits.

    Simple graphs always have girth >= 3; bipartite ones >= 4; forests
    have infinite girth. Beyond that, a bounded sweep looks for any
    cycle shorter than the bound.
    """
    if bound <= 3:
        return True
    if g.is_forest():
        return True
    floor = 3
    if g.two_coloring() is not None:
        if bound <= 4:
            return True
        floor = 4
    return _shortest_cycle_sweep(g, bound, floor=floor) is None


def line_graph(g: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Line graph of ``g`` plus the edge-index -> endpoint-pair map.

    Node i of the line graph is edge i of ``g`` (edges in lexicographic
    order); two line nodes are adjacent iff the edges share an endpoint.
    """
    edge_list = g.edges()
    index = {e: i for i, e in enumerate(edge_list)}
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edge_list):
        incident[u].append(i)
        incident[v].append(i)
    line_edges = set()
    for ids in incident:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                e = (ids[a], ids[b]) if ids[a] < ids[b] else (ids[b], ids[a])
                line_edges.add(e)
    lg = Graph.from_edges(len(edge_list), sorted(line_edges))
    return lg, edge_list


# ---------------------------------------------------------------------------
# Persistence: JSON is the single on-disk format, DOT export is write-only.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphFile:
    """Contents of a graph JSON file."""

    graph: Graph
    clusters: tuple[int, ...] | None
    meta: dict | None


def graph_to_json_dict(
    g: Graph,
    clusters: Iterable[int] | None = None,
    meta: dict | None = None,
) -> dict:
    doc: dict = {
        "n": g.n,
        "edges": [[u, v] for u, nbrs in enumerate(g.adj) for v in nbrs if u < v],
    }
    if clusters is not None:
        clusters = list(clusters)
        if len(clusters) != g.n:
            raise ValueError("clusters array must have one entry per node")
        doc["clusters"] = clusters
    if meta is not None:
        doc["meta"] = meta
    return doc


def graph_from_json_dict(doc) -> GraphFile:
    """Parse a graph document; any malformed shape raises ValueError.

    ``type(x) is int`` keeps JSON booleans out of integer fields.
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
    if clusters is not None and not (
        isinstance(clusters, list)
        and len(clusters) == n
        and all(type(c) is int and c >= 0 for c in clusters)
    ):
        raise ValueError(f"'clusters' must hold {n} nonnegative integers")
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError("'meta' must be a JSON object")
    try:
        g = Graph.from_edges(n, edges)
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
    clusters: Iterable[int] | None = None,
    meta: dict | None = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # dumps runs the C encoder; dump would run the pure-Python one
        fh.write(json.dumps(graph_to_json_dict(g, clusters, meta)))
        fh.write("\n")


def read_graph_json(path: str) -> GraphFile:
    with open(path, encoding="utf-8") as fh:
        return graph_from_json_dict(json.load(fh))


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
    name: str = "G",
) -> str:
    """Render as Graphviz DOT. With cluster info, nodes are grouped into
    same-rank clusters and colored by cluster level."""
    lines = [f"graph {name} {{"]
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
