from __future__ import annotations

from collections import Counter

from clustertree.builder import build_low_girth, build_matching_double
from clustertree.cli import dispatch
from clustertree.graph import girth, read_graph_json
from clustertree.localsim import MAXM, exact_small
from clustertree.skeleton import (
    CTGraph,
    build_skeleton,
    predicted_sizes,
    validate_ct_graph,
)


def test_low_girth_1_4_exact_shape(g14):
    g = g14.graph
    assert g.n == 100
    assert g.edge_count() == 336
    assert g.max_degree() == 16
    assert girth(g) == 4
    assert validate_ct_graph(g14).ok


def test_low_girth_cluster_zero_degrees(g14):
    # internal-cluster nodes see 1 + 4 neighbors
    assert all(g14.graph.degree(v) == 5 for v in range(64))


def test_low_girth_per_pair_edge_counts(g14):
    # each skeleton edge contributes |lower cluster| * beta^x edges:
    # 64*1 + 64*4 + 16*1
    pair_counts = Counter()
    for u, v in g14.graph.edges():
        pair = tuple(sorted((g14.cluster_of[u], g14.cluster_of[v])))
        pair_counts[pair] += 1
    assert pair_counts == {(0, 1): 64, (0, 2): 256, (1, 3): 16}


def test_low_girth_block_ranges_are_contiguous(g14):
    # nodes 0..3 share one complete block with one cluster-1 node
    g = g14.graph
    first_c1 = [w for w in g.adj[0] if g14.cluster_of[w] == 1]
    assert len(first_c1) == 1
    block_mate = first_c1[0]
    for v in range(4):
        assert g.has_edge(v, block_mate)
    assert not g.has_edge(4, block_mate)


def test_low_girth_matches_prediction(g26):
    assert g26.graph.n == predicted_sizes(2, 6).n
    assert g26.graph.max_degree() == predicted_sizes(2, 6).max_degree
    assert validate_ct_graph(g26).ok


def test_built_graphs_are_ct_graphs(g16, g26, tmp_path):
    # `build` writes what build_low_girth returns without validating it
    # again; the validator checks every (k, beta) the commands and the
    # bench build here instead
    built = [build_low_girth(1, beta) for beta in range(4, 13)] + [g16, g26]
    for ct in built:
        assert validate_ct_graph(ct).ok, (ct.skeleton.k, ct.skeleton.beta)
    for k, beta in ((1, 5), (1, 16)):
        out = tmp_path / f"ct-{k}-{beta}.json"
        args = ["build", "--k", str(k), "--beta", str(beta), "--out", str(out)]
        assert dispatch(args) == 0
        gf = read_graph_json(str(out))
        ct = CTGraph(gf.graph, build_skeleton(k, beta), gf.clusters)
        assert validate_ct_graph(ct).ok, (k, beta)


def test_low_girth_bipartite_by_level_parity(g14, g26):
    for ct in (g14, g26):
        colors = ct.graph.two_coloring()
        assert colors is not None
        levels = {c.id: c.level for c in ct.skeleton.clusters}
        for u, v in ct.graph.edges():
            lu = levels[ct.cluster_of[u]]
            lv = levels[ct.cluster_of[v]]
            assert (lu + lv) % 2 == 1


def test_matching_double_shape(g14):
    doubled = build_matching_double(g14)
    g = doubled.graph
    assert g.n == 200
    assert g.edge_count() == 2 * 336 + 100
    assert g.max_degree() == 17
    # defining property: every node is adjacent to its copy
    for i in range(200):
        assert g.has_edge(i, (i + 100) % 200)
    # mirrored cluster identities
    m = len(g14.skeleton.clusters)
    assert doubled.cluster_of[0] == 0
    assert doubled.cluster_of[100] == m
    assert g.two_coloring() is not None


def test_matching_double_has_perfect_matching(g14):
    doubled = build_matching_double(g14)
    # the construction contains the pairing itself, so the maximum
    # matching covers all 200 nodes
    assert exact_small(doubled.graph, MAXM) == 100
