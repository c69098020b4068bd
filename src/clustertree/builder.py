"""Instantiate concrete low-girth CT graphs from a skeleton.

Clusters become contiguous index ranges (in cluster-id order) and each
skeleton edge is realized by disjoint complete bipartite blocks, which
yields girth four; raising the girth is the lift pipeline's job.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph
from .skeleton import CTGraph, build_skeleton, predicted_sizes


def build_low_girth(k: int, beta: int) -> CTGraph:
    """Build the smallest concrete CT graph for (k, beta).

    A cluster on level l gets beta^(2k-l+1) nodes. For a skeleton edge
    with exponents (x, x+1) between clusters A (lower level) and B, the
    |A| / beta^(x+1) blocks each join beta^(x+1) consecutive A-nodes
    completely to beta^x consecutive B-nodes, giving every A-node beta^x
    neighbors in B and every B-node beta^(x+1) neighbors in A.
    """
    skel = build_skeleton(k, beta)
    pred = predicted_sizes(k, beta)
    sizes = {c.id: pred.level_sizes[c.level] for c in skel.clusters}
    offsets: dict[int, int] = {}
    total = 0
    for c in skel.clusters:
        offsets[c.id] = total
        total += sizes[c.id]

    edges: list[tuple[int, int]] = []
    for e in skel.edges:
        a_size, b_size = sizes[e.a], sizes[e.b]
        a_off, b_off = offsets[e.a], offsets[e.b]
        a_per_block = beta ** e.exp_b
        b_per_block = beta ** e.exp_a
        blocks = a_size // a_per_block
        assert blocks * b_per_block == b_size
        for j in range(blocks):
            a_lo = a_off + j * a_per_block
            b_lo = b_off + j * b_per_block
            for u in range(a_lo, a_lo + a_per_block):
                for w in range(b_lo, b_lo + b_per_block):
                    edges.append((u, w))

    graph = Graph.from_edges(total, edges)
    cluster_of = [0] * total
    for c in skel.clusters:
        for v in range(offsets[c.id], offsets[c.id] + sizes[c.id]):
            cluster_of[v] = c.id
    ct = CTGraph(graph=graph, skeleton=skel, cluster_of=tuple(cluster_of))
    assert graph.n == pred.n
    return ct


class DoubledGraph(NamedTuple):
    """Two copies of a CT graph joined by a perfect matching.

    Node i of the original corresponds to node n+i of the copy, so the
    partner of node v is (v + n) mod 2n.
    Cluster ids of the copy are offset by the original's cluster count
    m, so cluster c of the original has mirror cluster c + m.
    """

    graph: Graph
    cluster_of: tuple[int, ...]


def build_matching_double(ct: CTGraph) -> DoubledGraph:
    """Disjoint double of ``ct.graph`` plus the perfect matching i <-> n+i."""
    g = ct.graph
    n = g.n
    # each list stays sorted: every original index is below n, every
    # copy index at least n
    adj = [nbrs + (n + v,) for v, nbrs in enumerate(g.adj)]
    adj.extend((v,) + tuple(n + w for w in nbrs) for v, nbrs in enumerate(g.adj))
    doubled = Graph(2 * n, adj)
    m = len(ct.skeleton.clusters)
    cluster_of = tuple(ct.cluster_of) + tuple(c + m for c in ct.cluster_of)
    return DoubledGraph(graph=doubled, cluster_of=cluster_of)
