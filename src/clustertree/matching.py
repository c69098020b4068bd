"""Bipartite matching support: Hopcroft-Karp and the König cover.

Deterministic throughout: left nodes are scanned ascending and adjacency
is sorted, so the matchings extracted here are reproducible.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .errors import NotBipartiteError
from .graph import Graph


def hopcroft_karp(adj: Sequence[Sequence[int]], left: list[int]) -> dict[int, int]:
    """Maximum matching of a bipartite graph given by its adjacency rows
    (a :class:`Graph`'s ``adj``, or rows a caller edits between calls).

    ``left`` is one side of a bipartition (every edge must have exactly
    one endpoint in it). Returns the matching as a node -> mate map
    containing both directions.

    ``mate`` and ``dist`` are flat per-node lists; -1 stands for no mate,
    and for a left node outside the current BFS layers or found to be a
    dead end. Each phase is one BFS from the unmatched left nodes, then
    one augmenting search from each of them in ``left``'s order.
    """
    mate = [-1] * len(adj)
    dist = [-1] * len(adj)

    def bfs() -> bool:
        queue = []
        for u in left:
            if mate[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = -1
        found = False
        # iterating a list that grows reads it as a FIFO queue
        for u in queue:
            du = dist[u] + 1
            for w in adj[u]:
                nxt = mate[w]
                if nxt < 0:
                    found = True
                elif dist[nxt] < 0:
                    dist[nxt] = du
                    queue.append(nxt)
        return found

    def augment(root: int) -> None:
        # depth-first search for an augmenting path along the BFS layers,
        # with an explicit stack; path[i] is the mate tried at stack[i]
        stack = [(root, iter(adj[root]))]
        path: list[int] = []
        while stack:
            u, nbrs = stack[-1]
            du = dist[u] + 1
            for w in nbrs:
                nxt = mate[w]
                if nxt < 0:
                    path.append(w)
                    # flip the path, deepest pair first
                    for (x, _), y in zip(reversed(stack), reversed(path)):
                        mate[x] = y
                        mate[y] = x
                    return
                if dist[nxt] == du:
                    path.append(w)
                    stack.append((nxt, iter(adj[nxt])))
                    break
            else:
                dist[u] = -1
                stack.pop()
                if path:
                    path.pop()

    while bfs():
        for u in left:
            if mate[u] < 0:
                augment(u)
    return {v: w for v, w in enumerate(mate) if w >= 0}


def bipartition(g: Graph) -> list[int]:
    """The nodes of color class 0; raises if not bipartite."""
    colors = g.two_coloring()
    if colors is None:
        raise NotBipartiteError("graph contains an odd cycle")
    return [v for v in range(g.n) if colors[v] == 0]


def koenig_cover(g: Graph, left: list[int], mate: dict[int, int]) -> list[int]:
    """Minimum vertex cover from a maximum matching (König).

    Alternating reachability from unmatched left nodes: the cover is the
    unreached left nodes plus the reached right nodes.
    """
    in_left = set(left)
    reached: set[int] = set()
    queue = deque(u for u in left if u not in mate)
    reached.update(queue)
    while queue:
        u = queue.popleft()
        if u in in_left:
            for w in g.adj[u]:
                if mate.get(u) != w and w not in reached:
                    reached.add(w)
                    queue.append(w)
        else:
            m = mate.get(u)
            if m is not None and m not in reached:
                reached.add(m)
                queue.append(m)
    cover = [u for u in left if u not in reached]
    cover.extend(w for w in range(g.n) if w not in in_left and w in reached)
    return sorted(cover)


def greedy_maximal_matching(g: Graph) -> list[tuple[int, int]]:
    """Maximal matching by scanning edges in lexicographic order."""
    used = [False] * g.n
    out = []
    for u, v in g.edges():
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            out.append((u, v))
    return out
