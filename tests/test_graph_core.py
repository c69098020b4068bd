from __future__ import annotations

import json
import random

import pytest

from clustertree.graph import (
    INFINITE,
    Graph,
    girth,
    girth_at_least,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    k_hop_subgraph,
    line_graph,
)

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
K4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])

PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, True)])


def test_adjacency_sorted_and_edges_lexicographic():
    g = Graph.from_edges(4, [(3, 1), (0, 2), (0, 1)])
    assert g.adj[1] == (0, 3)
    assert g.edges() == [(0, 1), (0, 2), (1, 3)]


def test_girth_triangle():
    assert girth(K3) == 3


def test_girth_path_infinite():
    assert girth(P3) == INFINITE
    assert INFINITE > 10**9
    assert not (INFINITE < 5)


def test_girth_low_girth_ct_graph(g14):
    # complete-bipartite blocks with both sides >= 2 give 4-cycles
    assert girth(g14.graph) == 4


def test_girth_cycles_and_petersen():
    for n in (5, 6, 9, 16):
        cn = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        assert girth(cn) == n
    assert girth(PETERSEN) == 5
    assert girth(K4) == 3


def test_girth_at_least_shortcuts():
    assert girth_at_least(K3, 3)
    assert not girth_at_least(K3, 4)
    assert girth_at_least(P3, 100)
    assert girth_at_least(PETERSEN, 5)
    assert not girth_at_least(PETERSEN, 6)


def test_k_hop_zero_radius():
    sub = k_hop_subgraph(K3, 1, 0)
    assert sub.nodes == (1,)
    assert sub.graph.edge_count() == 0
    assert sub.depth == (0,)


def test_k_hop_triangle_excludes_far_edge():
    sub = k_hop_subgraph(K3, 0, 1)
    assert len(sub.nodes) == 3
    # the edge joining the two distance-1 nodes is not part of the view
    assert sub.graph.edge_count() == 2
    host_edges = {
        frozenset((sub.nodes[u], sub.nodes[v])) for u, v in sub.graph.edges()
    }
    assert host_edges == {frozenset((0, 1)), frozenset((0, 2))}


def test_k_hop_low_girth_ct_root(g14):
    # a cluster-0 node has 1 + 4 neighbors, so the 1-hop view is a 6-node star
    sub = k_hop_subgraph(g14.graph, 0, 1)
    assert len(sub.nodes) == 6
    assert sub.graph.edge_count() == 5


def test_k_hop_is_tree_under_high_girth():
    # girth 16 >= 2*3+1, so a 3-hop view must be a tree
    c16 = Graph.from_edges(16, [(i, (i + 1) % 16) for i in range(16)])
    sub = k_hop_subgraph(c16, 4, 3)
    assert sub.graph.edge_count() == len(sub.nodes) - 1


def test_line_graph_examples():
    lg, edge_map = line_graph(P3)
    assert lg.n == 2 and lg.edge_count() == 1
    assert edge_map == [(0, 1), (1, 2)]

    lg, _ = line_graph(C5)
    assert lg.n == 5 and lg.edge_count() == 5 and girth(lg) == 5

    # K4 has 6 edges, each sharing an endpoint with 4 of the other 5
    lg, _ = line_graph(K4)
    assert lg.n == 6
    assert {lg.degree(v) for v in range(6)} == {4}


def test_line_graph_degree_law():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 14)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        lg, edge_map = line_graph(g)
        assert lg.n == g.edge_count()
        for i, (u, v) in enumerate(edge_map):
            assert lg.degree(i) == g.degree(u) + g.degree(v) - 2


def test_json_round_trip(g14):
    doc = graph_to_json_dict(g14.graph, g14.cluster_of, {"k": 1, "beta": 4})
    assert doc["edges"] == sorted(doc["edges"])
    text = json.dumps(doc)
    gf = graph_from_json_dict(json.loads(text))
    assert gf.graph.edges() == g14.graph.edges()
    assert gf.clusters == g14.cluster_of
    assert gf.meta == {"k": 1, "beta": 4}


def test_json_clusters_length_checked():
    with pytest.raises(ValueError):
        graph_to_json_dict(K3, [0, 0])


def test_dot_export_groups_clusters(g14):
    text = graph_to_dot(g14.graph, g14.cluster_of, {0: 0, 1: 1, 2: 1, 3: 2})
    assert "subgraph cluster_0" in text
    assert "rank=same" in text
    assert text.count(" -- ") == g14.graph.edge_count()


def test_bipartite_and_components():
    assert K3.two_coloring() is None
    colors = C5.two_coloring()
    assert colors is None  # odd cycle
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert len(two.connected_components()) == 2
    assert two.two_coloring() is not None
