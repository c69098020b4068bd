from __future__ import annotations

import json
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from clustertree import graph as graph_module
from clustertree.builder import build_matching_double
from clustertree.graph import (
    INFINITE,
    Graph,
    girth,
    girth_at_least,
    graph_from_json_dict,
    graph_to_dot,
    k_hop_subgraph,
    line_graph,
    read_graph_json,
    write_graph_json,
)
from clustertree.lifts import VoltageLift

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
    # the order breaks at the second edge, after one edge in writer order
    assert Graph.from_edges(3, [(0, 2), (0, 1)]).adj == [(1, 2), (0,), (0,)]


def reference_from_edges(n, edges):
    """The rows ``Graph.from_edges`` gave before its writer-order path:
    every edge checked in turn, then every row sorted and scanned."""
    if n < 0:
        raise ValueError("node count must be nonnegative")
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer endpoint")
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u].append(v)
        adj[v].append(u)
    for u, nbrs in enumerate(adj):
        nbrs.sort()
        if any(map(operator.eq, nbrs, nbrs[1:])):
            w = next(a for a, b in zip(nbrs, nbrs[1:]) if a == b)
            raise ValueError(f"duplicate edge {(min(u, w), max(u, w))}")
        adj[u] = tuple(nbrs)
    return adj


@st.composite
def edge_lists(draw):
    """Simple edge lists on at most 12 nodes, in writer order or
    shuffled, with now and then a duplicate (same or reversed), a
    self-loop, an end out of range or an end that is not an int."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else []
    if draw(st.booleans()):
        edges = draw(st.permutations(edges))
    node = st.integers(0, max(n - 1, 0))
    bad = [
        st.builds(lambda w: (w, w), node),
        st.builds(lambda w: (w, n), node),
        st.builds(lambda w: (-1, w), node),
        st.builds(lambda w: (True, w), node),
        st.builds(lambda w: (w, 2.0), node),
    ]
    if edges:
        bad += [st.sampled_from(edges), st.sampled_from(edges).map(lambda e: e[::-1])]
    for entry in draw(st.lists(st.one_of(bad), max_size=3)):
        edges.insert(draw(st.integers(0, len(edges))), entry)
    return n, edges


def rows_or_message(build, n, edges):
    try:
        return build(n, edges)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(case=edge_lists())
def test_from_edges_matches_the_reference_build(case):
    n, edges = case
    expected = rows_or_message(reference_from_edges, n, edges)
    # from an iterator, as the reader hands edges over
    got = rows_or_message(lambda n, e: Graph.from_edges(n, iter(e)).adj, n, edges)
    assert got == expected


def test_writer_order_broken_in_a_later_block_reads_as_the_sorted_build(tmp_path):
    edges = [[i, i + 1] for i in range(10_000)]
    # edge 4,097, the first of the reader's second block, is the one
    # that comes before its predecessor
    edges[4095], edges[4096] = edges[4096], edges[4095]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 10_001, "edges": edges}))
    got = read_graph_json(str(path)).graph.adj
    assert got == Graph.from_edges(10_001, sorted(map(tuple, edges))).adj


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


def _host_view_adjacency(g, sub, k):
    """The view's local adjacency, built from the host's edges at the
    nodes below depth k by the validating constructor.

    Host distances come from a BFS of its own, and pin the node order:
    the view lists every node within k hops of its root, and no other,
    sorted by (distance, host index)."""
    root = sub.nodes[0]
    dist = {root: 0}
    frontier = [root]
    for d in range(1, k + 1):
        reached = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = d
                    reached.append(w)
        frontier = reached
    assert list(sub.nodes) == sorted(dist, key=lambda u: (dist[u], u))
    index = {u: i for i, u in enumerate(sub.nodes)}
    edges = {
        tuple(sorted((i, index[w])))
        for i, u in enumerate(sub.nodes)
        if dist[u] < k
        for w in g.neighbors(u)
    }
    return Graph.from_edges(len(sub.nodes), sorted(edges)).adj


def test_shared_leaf_tuples_change_no_view(g14, g26):
    g = g14.graph
    picks = sorted(random.Random(3).sample(range(g.n), 8))
    for k, tree in ((1, True), (2, False)):
        for v in picks:
            sub = k_hop_subgraph(g, v, k)
            assert sub.nodes[0] == v
            assert sub.graph.adj == _host_view_adjacency(g, sub, k)
            assert sub.is_tree() is tree
    # at k = 1 every leaf of a view holds the one tuple (0,)
    star = k_hop_subgraph(g, picks[0], 1).graph.adj[1:]
    assert len({id(t) for t in star}) == 1 < len(star)
    lift = VoltageLift(g26)
    groups = g26.cluster_nodes()
    for v in (lift.node(groups[0][0], 0), lift.node(groups[1][0], 1)):
        sub = k_hop_subgraph(lift, v, 2)
        assert len(sub.nodes) == 8078
        assert sub.nodes[0] == v
        assert sub.graph.adj == _host_view_adjacency(lift, sub, 2)
        assert sub.is_tree()


class _Descending:
    """A host whose neighbour lists run high to low: the neighbour
    protocol promises no order."""

    def __init__(self, g):
        self.n = g.n
        self._adj = g.adj

    def neighbors(self, v):
        return self._adj[v][::-1]


def _check_star(g, v):
    """The k = 1 view of ``v`` is its star: the root and its sorted
    neighbours, the root's edges only, every leaf row the one ``(0,)``."""
    sub = k_hop_subgraph(g, v, 1)
    d = len(g.neighbors(v))
    assert sub.nodes == (v,) + tuple(sorted(g.neighbors(v)))
    assert sub.graph.adj == _host_view_adjacency(g, sub, 1)
    assert sub.is_tree()
    leaves = sub.graph.adj[1:]
    assert all(t == (0,) for t in leaves)
    assert len({id(t) for t in leaves}) == min(d, 1)
    return sub


def test_one_hop_view_is_the_root_star(g14, g16, g26):
    doubled = build_matching_double(g14).graph
    lift = VoltageLift(g26)
    families = [g14.graph, doubled, g16.graph, _Descending(g14.graph)]
    for g in families:
        for v in range(g.n):
            _check_star(g, v)
    rng = random.Random(35)
    for v in rng.sample(range(lift.n), 200):
        _check_star(lift, v)
    # the edge between the root's two neighbours is left out
    assert _check_star(K3, 0).graph.adj == [(1, 2), (0,), (0,)]
    lone = Graph(3, [(1,), (0,), ()])
    sub = _check_star(lone, 2)
    assert sub.nodes == (2,) and sub.graph.adj == [()]
    # the star holds the first 1 + d nodes of the general radius-2 view
    for g in families + [lift]:
        for v in rng.sample(range(g.n), 3):
            d = len(g.neighbors(v))
            star, ball = k_hop_subgraph(g, v, 1), k_hop_subgraph(g, v, 2)
            assert star.nodes == ball.nodes[: 1 + d]


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


# the exact message for each kind of bad entry
BAD_EDGE_ENTRIES = {
    "non-int endpoint": ([[0, 1], [0, "2"]], "edge (0, '2') has a non-integer endpoint"),
    "float endpoint": ([[0, 1.0]], "edge (0, 1.0) has a non-integer endpoint"),
    "true endpoint": ([[True, 1]], "edge (True, 1) has a non-integer endpoint"),
    "self-loop": ([[0, 1], [2, 2]], "self-loop at node 2"),
    "out of range": ([[0, 5]], "edge (0, 5) out of range for n=5"),
    "negative": ([[-1, 0]], "edge (-1, 0) out of range for n=5"),
    "duplicate": ([[0, 1], [0, 1]], "duplicate edge (0, 1)"),
    "reversed at once": ([[0, 1], [1, 0]], "duplicate edge (0, 1)"),
    "reversed duplicate": ([[2, 3], [1, 2], [3, 2]], "duplicate edge (2, 3)"),
    "three elements": ([[0, 1, 2]], "too many values to unpack (expected 2)"),
    "one element": ([[0]], "not enough values to unpack (expected 2, got 1)"),
    "bare int": ([[0, 1], 7], "cannot unpack non-iterable int object"),
    "null": ([None], "cannot unpack non-iterable NoneType object"),
}


@pytest.mark.parametrize(
    "edges, message", BAD_EDGE_ENTRIES.values(), ids=BAD_EDGE_ENTRIES.keys()
)
def test_bad_edge_entries_keep_their_messages(tmp_path, edges, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 5, "edges": edges}))
    with pytest.raises(ValueError) as info:
        read_graph_json(str(path))
    assert str(info.value) == f"bad 'edges' entry: {message}"


@pytest.mark.parametrize(
    "index, entry, message",
    [
        # the last entry of the reader's first block of 4,096
        (4095, [7, 7], "self-loop at node 7"),
        # the first entry of the second block
        (4096, [0, "1"], "edge (0, '1') has a non-integer endpoint"),
    ],
    ids=["last-of-first-block", "first-of-second-block"],
)
def test_first_bad_edge_entry_is_reported_across_blocks(
    tmp_path, index, entry, message
):
    edges = [[i, i + 1] for i in range(10_000)]
    edges[index] = entry
    # a second bad entry, more than a block later
    edges[index + 4097] = [0, 20_000]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 20_000, "edges": edges}))
    with pytest.raises(ValueError) as info:
        read_graph_json(str(path))
    assert str(info.value) == f"bad 'edges' entry: {message}"


def test_json_meta_must_be_an_object():
    with pytest.raises(ValueError) as info:
        graph_from_json_dict({"n": 2, "edges": [[0, 1]], "meta": [1]})
    assert str(info.value) == "'meta' must be a JSON object"


def test_json_n_past_what_edges_and_clusters_back_is_refused(monkeypatch):
    # a node needs a cluster entry or an edge end once n passes the cap
    monkeypatch.setattr(graph_module, "DEFAULT_SIZE_CAP", 10)
    assert graph_from_json_dict({"n": 12, "edges": [[0, 1]]}).graph.n == 12
    with pytest.raises(ValueError) as info:
        graph_from_json_dict({"n": 13, "edges": [[0, 1]]})
    assert str(info.value) == "'n' exceeds twice the edge count by more than 10"
    doc = {"n": 20, "edges": [], "clusters": [0] * 20}
    assert graph_from_json_dict(doc).graph.n == 20


def test_json_clusters_length_checked(tmp_path):
    path = tmp_path / "k3.json"
    with pytest.raises(ValueError, match="one entry per node"):
        write_graph_json(str(path), K3, [0, 0])
    assert not path.exists()


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
