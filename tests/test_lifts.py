from __future__ import annotations

import hashlib
import random
import sys

import pytest

from clustertree import lifts
from clustertree.cli import dispatch
from clustertree.errors import (
    BoundViolatedError,
    ClusterTreeError,
    DegreeMismatchError,
    EmptyGraphError,
    NotBipartiteError,
    NotRegularError,
    SizeCapExceededError,
)
from clustertree.graph import (
    DEFAULT_SIZE_CAP,
    INFINITE,
    Graph,
    girth,
    girth_at_least,
    k_hop_subgraph,
    write_graph_json,
)
from clustertree.iso import find_isomorphism, verify_isomorphism
from clustertree.lifts import (
    CoveringMap,
    VoltageLift,
    build_high_girth_ct,
    canonical_double_cover,
    common_lift,
    estimate_pipeline_size,
    high_girth_regular,
    matching_decomposition,
    regular_supergraph,
    verify_covering_map,
)
from clustertree.matching import hopcroft_karp
from clustertree.skeleton import CTGraph, validate_ct_graph

from conftest import make_random_graph

C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
K4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
K33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
C6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


def assert_simple(g: Graph) -> None:
    """The adjacency a trusted build passed to Graph(n, adj) is simple,
    symmetric and sorted: exactly what from_edges builds from its edges."""
    assert g.adj == Graph.from_edges(g.n, g.edges()).adj


# ---------------------------------------------------------------------------
# matching decomposition
# ---------------------------------------------------------------------------


def test_decomposition_c4():
    ms = matching_decomposition(C4)
    assert len(ms) == 2
    assert sorted(len(m) for m in ms) == [2, 2]
    assert sorted(e for m in ms for e in m) == C4.edges()


def test_decomposition_k33():
    ms = matching_decomposition(K33)
    assert len(ms) == 3
    for m in ms:
        assert len(m) == 3
        covered = {x for e in m for x in e}
        assert len(covered) == 6
    assert sorted(e for m in ms for e in m) == K33.edges()


def test_hopcroft_karp_long_augmenting_path(monkeypatch):
    # left nodes 2, 4, ... each grab their lower neighbour in the first
    # phase; node 0 is then matched by one augmenting path through the
    # whole 20,000-node path, 10,000 levels deep
    n = 20_000
    path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    def forbid(limit):
        raise AssertionError("hopcroft_karp changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", forbid)
    mate = hopcroft_karp(path.adj, [*range(2, n, 2), 0])
    assert len(mate) == n
    assert all(mate[u] == u + 1 and mate[u + 1] == u for u in range(0, n, 2))


def test_decomposition_rejects_bad_inputs():
    with pytest.raises(NotBipartiteError):
        matching_decomposition(K3)
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(NotRegularError):
        matching_decomposition(path)


# ---------------------------------------------------------------------------
# canonical double cover
# ---------------------------------------------------------------------------


def test_double_cover_of_bipartite_splits():
    cover, cm = canonical_double_cover(K33)
    assert cover.n == 12
    comps = cover.connected_components()
    assert len(comps) == 2
    assert all(len(c) == 6 for c in comps)
    assert verify_covering_map(cm)


def test_double_cover_of_triangle_is_hexagon():
    cover, cm = canonical_double_cover(K3)
    assert cover.n == 6
    assert {cover.degree(v) for v in range(6)} == {2}
    assert len(cover.connected_components()) == 1
    assert girth(cover) == 6
    assert verify_covering_map(cm)


def test_double_cover_of_petersen():
    cover, cm = canonical_double_cover(PETERSEN)
    assert cover.n == 20
    assert_simple(cover)
    assert {cover.degree(v) for v in range(20)} == {3}
    assert cover.two_coloring() is not None
    assert girth_at_least(cover, 5)
    assert verify_covering_map(cm)


# ---------------------------------------------------------------------------
# covering-map verification
# ---------------------------------------------------------------------------


def test_verify_identity_map():
    assert verify_covering_map(CoveringMap(source=K4, target=K4, map=(0, 1, 2, 3)))


def test_verify_cycle_mod_map():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    cm = CoveringMap(source=c6, target=K3, map=tuple(i % 3 for i in range(6)))
    assert verify_covering_map(cm)


def test_verify_rejects_bad_maps():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert not verify_covering_map(CoveringMap(source=k2, target=k2, map=(0, 0)))
    assert not verify_covering_map(CoveringMap(source=k2, target=k2, map=(0,)))
    # adjacency-breaking map
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert not verify_covering_map(
        CoveringMap(source=p3, target=p3, map=(0, 1, 0))
    )
    # right fiber sizes but locally non-bijective (duplicate images
    # inside a neighborhood)
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    bad = CoveringMap(source=c6, target=K3, map=(0, 1, 2, 0, 2, 1))
    assert not verify_covering_map(bad)


def test_verify_rejects_neighbourhoods_that_do_not_biject():
    # the map is onto the target, P3 plus an isolated node, but the
    # star's centre maps its three leaves onto the two target neighbours
    # of node 1, repeating node 0
    p3_plus = Graph.from_edges(4, [(0, 1), (1, 2)])
    star_plus = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    assert not verify_covering_map(
        CoveringMap(source=star_plus, target=p3_plus, map=(1, 0, 2, 0, 3))
    )
    # the 6-node path wraps twice around the triangle but its end nodes
    # miss one target neighbour each
    p6 = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    assert not verify_covering_map(
        CoveringMap(source=p6, target=K3, map=tuple(i % 3 for i in range(6)))
    )
    # a bijection of the hexagon that swaps nodes 3 and 4: node 2 keeps
    # two distinct images, 1 and 4, where the target has 1 and 3
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert not verify_covering_map(
        CoveringMap(source=c6, target=c6, map=(0, 1, 2, 4, 3, 5))
    )


def test_verify_rejects_maps_off_the_target():
    # K2 onto one of two disjoint edges: every neighbourhood maps onto
    # its image's, so only the surjectivity check rejects the map
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    k2 = Graph.from_edges(2, [(0, 1)])
    assert not verify_covering_map(CoveringMap(source=k2, target=two_edges, map=(0, 1)))
    # an image outside the target is rejected before any row is read
    assert not verify_covering_map(CoveringMap(source=k2, target=k2, map=(2, 0)))


# ---------------------------------------------------------------------------
# common lift
# ---------------------------------------------------------------------------


def test_common_lift_c4_c4():
    lifted, cm1, cm2 = common_lift(C4, C4)
    assert lifted.n == 16
    assert {lifted.degree(v) for v in range(16)} == {2}
    assert verify_covering_map(cm1)
    assert verify_covering_map(cm2)


def test_common_lift_k4_k33():
    lifted, cm1, cm2 = common_lift(K4, K33)
    assert lifted.n <= 4 * 4 * 6
    assert_simple(lifted)
    assert {lifted.degree(v) for v in range(lifted.n)} == {3}
    assert verify_covering_map(cm1)
    assert verify_covering_map(cm2)
    assert girth_at_least(lifted, 4)


def test_common_lift_colours_each_input_once_before_decomposing(monkeypatch):
    # the decomposition's bipartition alone chooses between an input and
    # its double cover; the girth sweep colours each input once more, for
    # its floor
    coloured = []
    two_coloring = Graph.two_coloring

    def counted(self):
        coloured.append(self)
        return two_coloring(self)

    monkeypatch.setattr(Graph, "two_coloring", counted)
    common_lift(C6, C4)
    assert [sum(g is x for g in coloured) for x in (C6, C4)] == [2, 2]
    # K4 has odd cycles, so it still goes through its double cover
    coloured.clear()
    lifted, cm1, _ = common_lift(K4, K33)
    assert lifted.n == 8 * 6 and cm1.target is K4
    assert [sum(g is x for g in coloured) for x in (K4, K33)] == [2, 2]


def test_common_lift_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        common_lift(K4, C5)


def test_common_lift_of_edgeless_graphs(tmp_path):
    lifted, cm1, cm2 = common_lift(Graph(2, [(), ()]), Graph(3, [(), (), ()]))
    assert (lifted.n, lifted.adj) == (6, [()] * 6)
    assert verify_covering_map(cm1)
    assert verify_covering_map(cm2)
    g1, g2, out = tmp_path / "g1.json", tmp_path / "g2.json", tmp_path / "l.json"
    write_graph_json(str(g1), Graph(2, [(), ()]))
    write_graph_json(str(g2), Graph(3, [(), (), ()]))
    argv = ["lift", "--op", "common-lift", "--graph", str(g1), "--graph2", str(g2)]
    assert dispatch(argv + ["--out", str(out)]) == 0
    assert out.read_text() == '{"n": 6, "edges": [], "meta": {"stage": "common-lift"}}\n'


def test_common_lift_rejects_one_empty_graph():
    # the lift of an empty graph is empty, and maps onto no node of the other
    empty, pair = Graph(0, []), Graph(2, [(), ()])
    for h, h_prime in ((pair, empty), (empty, pair)):
        with pytest.raises(ClusterTreeError, match="no common lift"):
            common_lift(h, h_prime)
    lifted, cm1, cm2 = common_lift(empty, empty)
    assert lifted.n == 0 and verify_covering_map(cm1) and verify_covering_map(cm2)


def test_common_lift_rows_share_one_int_per_node(g14, high_girth_graphs):
    # the (1,4) pipeline's lift; its ids pass 256, beyond CPython's
    # small-int cache, so equal entries share an object only by design
    lifted, _, _ = common_lift(
        regular_supergraph(g14.graph), high_girth_graphs[(16, 3, 32)]
    )
    assert lifted.n > 256
    entries = [x for row in lifted.adj for x in row]
    assert len(set(map(id, entries))) == len(set(entries)) == lifted.n


def restricted_full_lift(h: Graph, h_prime: Graph, over: Graph):
    """Oracle: the full lift, then the restriction the pipeline ran before
    common_lift took ``over``. Rows over nodes of ``over`` are kept, with
    the neighbours over their ``over`` neighbours, renumbered in ascending
    order. Returns the rows and the map down to ``over``."""
    lifted, psi1, _ = common_lift(h, h_prime)
    proj = psi1.map
    keep = [v for v in range(lifted.n) if proj[v] < over.n]
    index = [-1] * lifted.n
    for new, old in enumerate(keep):
        index[old] = new
    base_nbrs = [set(nbrs) for nbrs in over.adj]
    adj = []
    for v in keep:
        allowed = base_nbrs[proj[v]]
        adj.append(tuple(index[w] for w in lifted.adj[v] if proj[w] in allowed))
    return adj, tuple(proj[old] for old in keep)


def random_restriction_cases():
    """Seeded regular pairs with a proper subgraph ``over`` of the first:
    the supergraph of a random graph over that graph or over a random
    part of it, and a bipartite circulant over an edge subset of its
    first nodes."""
    rng = random.Random(7)
    for _ in range(6):
        n = rng.randrange(6, 16)
        g = make_random_graph(rng, n, rng.uniform(1.5, 3.5) / n)
        if g.edge_count() == 0:
            continue
        h = regular_supergraph(g)
        d = g.max_degree()
        m = rng.randrange(d, d + 4)
        h_prime = Graph.from_edges(
            2 * m, [(i, m + (i + j) % m) for i in range(m) for j in range(d)]
        )
        yield h, h_prime, g
        part = rng.randrange(1, n + 1)
        yield h, h_prime, Graph.from_edges(
            part, [(u, v) for u, v in g.edges() if v < part and rng.random() < 0.7]
        )
        yield h_prime, h, Graph.from_edges(
            m + 1, [(u, v) for u, v in h_prime.edges() if v <= m and rng.random() < 0.8]
        )


def test_common_lift_over_matches_restricted_full_lift(g14, high_girth_graphs):
    cases = [
        (regular_supergraph(g14.graph), high_girth_graphs[(16, 3, 32)], g14.graph),
        *random_restriction_cases(),
    ]
    for h, h_prime, over in cases:
        assert over.n < h.n or over.edge_count() < h.edge_count()
        rows, phi, none = common_lift(h, h_prime, over=over)
        adj, image = restricted_full_lift(h, h_prime, over)
        assert (rows.n, rows.adj) == (len(adj), adj)
        assert (phi.source, phi.target, phi.map) == (rows, over, image)
        assert none is None
        assert verify_covering_map(phi)
    # two 0-regular graphs: rows over one node of the first are empty
    rows, phi, _ = common_lift(
        Graph(2, [(), ()]), Graph(3, [(), (), ()]), over=Graph(1, [()])
    )
    assert (rows.n, rows.adj, phi.map) == (3, [()] * 3, (0, 0, 0))


def swap_in_non_edges(g: Graph, ms):
    # the first matching trades its first two edges (a, b) and (c, e) for
    # two pairs of same-side nodes, which are non-edges of a bipartite g
    (a, b), (c, e), *rest = ms[0]
    colors = g.two_coloring()
    pairs = [(a, c), (b, e)] if colors[a] == colors[c] else [(a, e), (b, c)]
    return [pairs + rest, *ms[1:]]


def share_an_edge(g: Graph, ms):
    # the second matching takes the first one's edge (a, b) in place of
    # its own edges (a, x) and (b, y), and pairs x with y
    a, b = ms[0][0]
    mate = {u: w for e in ms[1] for u, w in (e, e[::-1])}
    kept = [e for e in ms[1] if a not in e and b not in e]
    return [ms[0], kept + [(a, b), (mate[a], mate[b])], *ms[2:]]


@pytest.mark.parametrize("corrupt", [swap_in_non_edges, share_an_edge])
@pytest.mark.parametrize("h, h_prime", [(C4, C4), (K4, K33)])
def test_common_lift_rejects_corrupted_matchings(monkeypatch, corrupt, h, h_prime):
    # h_prime is bipartite, so common_lift decomposes h_prime itself; the
    # corrupted matchings are still perfect but no longer partition its
    # edges, and the lift must not pass as a cover of h_prime
    real = lifts.matching_decomposition

    def corrupted(g):
        ms = real(g)
        if g is not h_prime:
            return ms
        ms = corrupt(g, ms)
        assert all(len({x for e in m for x in e}) == g.n for m in ms)
        assert sorted(e for m in ms for e in m) != g.edges()
        return ms

    monkeypatch.setattr(lifts, "matching_decomposition", corrupted)
    with pytest.raises(ClusterTreeError, match="not a covering map"):
        common_lift(h, h_prime)


@pytest.mark.parametrize(
    "over",
    [
        Graph.from_edges(4, [(0, 1), (0, 3)]),
        Graph.from_edges(8, [(i, i + 1) for i in range(5)]),
    ],
    ids=["non-edge", "extra-nodes"],
)
def test_common_lift_rejects_an_over_that_is_no_subgraph(over):
    # (0, 3) is no edge of C6, and C6 has no nodes 6 and 7 to cover
    with pytest.raises(ClusterTreeError, match="not a covering map"):
        common_lift(C6, C4, over=over)


@pytest.mark.parametrize("corrupt", [swap_in_non_edges, share_an_edge])
@pytest.mark.parametrize("h, h_prime", [(C6, C4), (K33, K4)])
def test_common_lift_over_rejects_corrupted_first_base(monkeypatch, corrupt, h, h_prime):
    # h is bipartite, so common_lift decomposes h itself; the rows over
    # all of h must not pass as a cover of it
    real = lifts.matching_decomposition

    def corrupted(g):
        ms = real(g)
        return corrupt(g, ms) if g is h else ms

    monkeypatch.setattr(lifts, "matching_decomposition", corrupted)
    over = Graph.from_edges(h.n, h.edges())
    with pytest.raises(ClusterTreeError, match="not a covering map"):
        common_lift(h, h_prime, over=over)


def test_common_lift_girth_inheritance():
    # girth of the lift is at least the larger input girth
    for a, b in ((PETERSEN, K33), (PETERSEN, K4), (C4, K3)):
        ga, gb = girth(a), girth(b)
        lifted, cm1, cm2 = common_lift(a, b)
        want = max(x for x in (ga, gb) if x is not INFINITE)
        assert girth_at_least(lifted, want)
        assert verify_covering_map(cm1) and verify_covering_map(cm2)


def test_trusted_graphs_of_the_pipeline_and_a_common_lift_are_simple(monkeypatch):
    # every Graph(n, adj) they make, the covering-map witnesses included,
    # has the sorted, symmetric rows from_edges would build
    built = []
    init = Graph.__init__

    def spy(self, n, adj):
        init(self, n, adj)
        built.append(self)

    with monkeypatch.context() as m:
        m.setattr(Graph, "__init__", spy)
        build_high_girth_ct(1, 4)
        common_lift(PETERSEN, K4)
    assert built
    for g in built:
        assert_simple(g)


# ---------------------------------------------------------------------------
# regular supergraph
# ---------------------------------------------------------------------------


def test_supergraph_of_regular_graph_unchanged():
    sg = regular_supergraph(K4)
    assert sg.n == K4.n
    assert sg.edges() == K4.edges()


def test_supergraph_small_examples():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    sg = regular_supergraph(p3)
    assert sg.n < 3 + 4 * 2
    assert {sg.degree(v) for v in range(sg.n)} == {2}
    assert sg.has_edge(0, 1) and sg.has_edge(1, 2)

    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    sg = regular_supergraph(star)
    assert sg.n < 4 + 4 * 3
    assert {sg.degree(v) for v in range(sg.n)} == {3}
    for v in (1, 2, 3):
        assert sg.has_edge(0, v)


def test_supergraph_contains_original_edges(g14):
    sg = regular_supergraph(g14.graph)
    assert sg.n < 100 + 4 * 16
    assert {sg.degree(v) for v in range(sg.n)} == {16}
    original = set(g14.graph.edges())
    assert original <= set(sg.edges())


def test_supergraph_odd_degree_leftover():
    # K_{1,3} plus a pendant chain forces an odd number of odd-deficiency
    # nodes at some point; degree 3 exercises the second gadget
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    sg = regular_supergraph(g)
    assert {sg.degree(v) for v in range(sg.n)} == {3}
    assert sg.n < 5 + 4 * 3
    assert set(g.edges()) <= set(sg.edges())


def test_supergraph_rejects_empty():
    with pytest.raises(EmptyGraphError):
        regular_supergraph(Graph.from_edges(4, []))


# ---------------------------------------------------------------------------
# high-girth regular generator
# ---------------------------------------------------------------------------


def test_high_girth_degree_two_is_cycle():
    g = high_girth_regular(2, 5, 8)
    assert g.n == 16
    assert {g.degree(v) for v in range(16)} == {2}
    assert len(g.connected_components()) == 1
    assert girth(g) == 16


def test_high_girth_3_5_30():
    g = high_girth_regular(3, 5, 30)
    assert g.n == 60
    assert {g.degree(v) for v in range(60)} == {3}
    assert girth_at_least(g, 5)


def test_high_girth_3_3_6():
    g = high_girth_regular(3, 3, 6)
    assert g.n == 12
    assert {g.degree(v) for v in range(12)} == {3}
    assert girth_at_least(g, 3)


def test_high_girth_deterministic():
    a = high_girth_regular(3, 5, 30)
    b = high_girth_regular(3, 5, 30)
    assert a.edges() == b.edges()


# sha256 of repr(high_girth_regular(d, g, m).edges()), recorded once the
# swap took partners in ascending order; (25, 3, 50) is the generator
# call of the (1,5) pipeline
HIGH_GIRTH_DIGESTS = {
    (16, 3, 32): "8096a34ce77dbecd9a844b7299a3fe94eabc19cc03002b4e5413218d54ea15b0",
    (25, 3, 50): "ad09e186ce309ab977e7b88f9227517f3a3b6c6185dd7d2d6929310adef2a328",
    (4, 5, 80): "277247089a625f27cde51e67867d3d55eeaf5a43a2ddf774c3048d39e6ccd4c1",
    (3, 6, 64): "37c63680cc3cf0aeb0a3e339200d44f154b518c0de4c59fb89d503e4899c2908",
}


@pytest.mark.parametrize(
    "params", sorted(HIGH_GIRTH_DIGESTS), ids=lambda p: "-".join(map(str, p))
)
def test_high_girth_edges_match_recorded_digests(params, high_girth_graphs):
    edges = high_girth_graphs[params].edges()
    digest = hashlib.sha256(repr(edges).encode()).hexdigest()
    assert digest == HIGH_GIRTH_DIGESTS[params]


# sha256 over repr(adj) of the sweep below, in order; recorded on the
# generator that ran one BFS per candidate, before the ball table
HIGH_GIRTH_SWEEP_DIGEST = "ab0ada4f927dc5f1145604277a84fd96cf4dd0f3e3387033a083545fc2141fe5"


def test_high_girth_sweep_matches_recorded_digest():
    """Degrees 2-6, girth 3-5, at most 120 nodes, at the minimal m and
    at m three above it (22 calls)."""
    h = hashlib.sha256()
    for delta in range(2, 7):
        for target in range(3, 6):
            min_m = 2 * sum((delta - 1) ** i for i in range(target - 1))
            for m in (min_m, min_m + 3):
                if 2 * m <= 120:
                    h.update(repr(high_girth_regular(delta, target, m).adj).encode())
    assert h.hexdigest() == HIGH_GIRTH_SWEEP_DIGEST


def test_high_girth_bound_violation():
    with pytest.raises(BoundViolatedError):
        high_girth_regular(3, 5, 10)
    with pytest.raises(BoundViolatedError):
        high_girth_regular(4, 6, 100)


def test_high_girth_parameter_sweep():
    for delta in (2, 3, 4, 5):
        for target in (3, 4, 5):
            m = 2 * sum((delta - 1) ** i for i in range(target - 1))
            if 2 * m > 140:
                continue
            out = high_girth_regular(delta, target, m)
            assert all(out.degree(v) == delta for v in range(out.n))
            assert girth_at_least(out, target)


def test_supergraph_random_sweep():
    import random

    rng = random.Random(9)
    checked = 0
    while checked < 60:
        n = rng.randrange(2, 26)
        p = rng.uniform(0.05, 0.5)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        if not edges:
            continue
        g = Graph.from_edges(n, edges)
        delta = g.max_degree()
        sg = regular_supergraph(g)
        assert all(sg.degree(v) == delta for v in range(sg.n))
        assert sg.n < n + 4 * delta
        assert set(g.edges()) <= set(sg.edges())
        checked += 1


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_pipeline_output_is_ct_graph(lifted14, g14):
    ct, phi = lifted14
    assert validate_ct_graph(ct).ok
    assert verify_covering_map(phi)
    assert_simple(ct.graph)
    assert phi.target is not None
    assert phi.target.edges() == g14.graph.edges()


def test_pipeline_fiber_sizes(lifted14):
    ct, phi = lifted14
    assert ct.graph.n % 100 == 0
    t = ct.graph.n // 100
    fibers: dict[int, int] = {}
    for v in range(ct.graph.n):
        fibers[phi.map[v]] = fibers.get(phi.map[v], 0) + 1
    assert set(fibers.values()) == {t}
    c0 = [v for v in range(ct.graph.n) if ct.cluster_of[v] == 0]
    assert len(c0) == t * 64


def test_pipeline_girth(lifted14):
    ct, _ = lifted14
    assert girth_at_least(ct.graph, 3)
    # lifts cannot lose girth relative to the girth-4 base
    assert girth_at_least(ct.graph, 4)


def test_pipeline_views_are_trees(lifted14):
    ct, _ = lifted14
    from clustertree.graph import k_hop_subgraph

    for v in range(0, ct.graph.n, ct.graph.n // 7):
        sub = k_hop_subgraph(ct.graph, v, 1)
        assert sub.graph.edge_count() == len(sub.nodes) - 1


def test_pipeline_with_odd_degree(tmp_path):
    # beta 5 gives degree 25, driving the odd-deficiency gadget of the
    # supergraph step through the whole stack
    ct, phi = build_high_girth_ct(1, 5)
    # the bytes `lift --op pipeline --k 1 --beta 5` writes, as recorded
    # once the generator's swap took partners in ascending order
    out = tmp_path / "g15.json"
    meta = {"k": 1, "beta": 5, "stage": "high-girth"}
    write_graph_json(str(out), ct.graph, ct.cluster_of, meta)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c88b3518d2210ce5a6847dab84e9aa151c789088c254022a0896057bb98f4b71"
    )
    assert ct.graph.n % 180 == 0
    assert validate_ct_graph(ct).ok
    assert verify_covering_map(phi)
    v0 = ct.cluster_of.index(0)
    v1 = ct.cluster_of.index(1)
    phi_iso = find_isomorphism(ct, 1, v0, v1)
    assert verify_isomorphism(ct, 1, v0, v1, phi_iso)


def test_pipeline_size_cap():
    with pytest.raises(SizeCapExceededError) as exc:
        build_high_girth_ct(2, 6)
    assert exc.value.estimate >= exc.value.cap
    assert exc.value.estimate == estimate_pipeline_size(2, 6)
    # (1,11), the largest pipeline the cap admits, fits the memory budget
    assert estimate_pipeline_size(1, 11) <= DEFAULT_SIZE_CAP


# ---------------------------------------------------------------------------
# cyclic voltage lift
# ---------------------------------------------------------------------------


def _materialize(lift):
    """The whole lift as a CT graph plus its projection onto the base."""
    nodes = range(lift.n)
    edges = [(x, y) for x in nodes for y in lift.neighbors(x) if x < y]
    graph = Graph.from_edges(lift.n, edges)
    ct = CTGraph(
        graph=graph,
        skeleton=lift.skeleton,
        cluster_of=tuple(lift.cluster(x) for x in nodes),
    )
    cm = CoveringMap(
        source=graph,
        target=lift.base.graph,
        map=tuple(lift.project(x) for x in nodes),
    )
    return ct, cm


@pytest.fixture(scope="module")
def voltage14(g14):
    lift = VoltageLift(g14)
    return (lift, *_materialize(lift))


def test_voltage_lift_1_4_is_girth_6_cover(voltage14):
    lift, ct, cm = voltage14
    assert lift.p == 101
    assert ct.graph.n == 100 * 101
    assert verify_covering_map(cm)
    assert validate_ct_graph(ct).ok
    assert girth_at_least(ct.graph, 6)


def test_voltage_lift_neighbors_project_onto_base(g26):
    import random

    lift = VoltageLift(g26)
    assert lift.p == 12601
    rng = random.Random(3)
    for _ in range(100):
        v = rng.randrange(g26.graph.n)
        x = lift.node(v, rng.randrange(lift.p))
        assert lift.project(x) == v
        assert lift.cluster(x) == g26.cluster_of[v]
        nbrs = lift.neighbors(x)
        # one lift neighbour over each base neighbour, and no other
        assert [lift.project(y) for y in nbrs] == list(g26.graph.adj[v])
        assert all(x in lift.neighbors(y) for y in nbrs)


def test_lift_views_match_materialized_views(voltage14):
    # the implicit lift and its materialized graph give the same views,
    # node for node and list for list
    lift, ct, _ = voltage14
    groups = ct.cluster_nodes()
    for x in (groups[0][0], groups[0][-1], groups[1][77], groups[3][5]):
        for k in (1, 2, 3):
            got = k_hop_subgraph(lift, x, k)
            want = k_hop_subgraph(ct.graph, x, k)
            assert got.nodes == want.nodes
            assert got.graph.adj == want.graph.adj


def test_k_hop_is_tree_detects_cycles(g14, voltage14):
    # radius-1 views are stars even at girth 4
    star = k_hop_subgraph(g14, 0, 1)
    assert star.is_tree() and len(star.nodes) == 1 + g14.graph.degree(0)
    assert not k_hop_subgraph(g14, 0, 2).is_tree()
    # the lift has girth 6: radius-2 views are trees, and a 6-cycle
    # through this node closes inside its radius-3 view
    lift, ct, _ = voltage14
    groups = ct.cluster_nodes()
    x = groups[0][0]
    assert k_hop_subgraph(lift, x, 2).is_tree()
    assert not k_hop_subgraph(lift, x, 3).is_tree()
