from __future__ import annotations

import random

import pytest

from clustertree.errors import GirthTooLowError, NotATreeError, PairingFailureError
from clustertree.graph import Graph, k_hop_subgraph
from clustertree.iso import (
    canonical_form,
    canonical_form_rooted,
    find_isomorphism,
    unfold_view_tree,
    verify_isomorphism,
)
from clustertree.lifts import VoltageLift
from clustertree.skeleton import CTGraph, INTERNAL, build_skeleton


def _union_ct(skel, k):
    """CT-graph container holding the two unfolded view trees side by side."""
    t0, cl0 = unfold_view_tree(skel, 0, k)
    t1, cl1 = unfold_view_tree(skel, 1, k)
    n0 = t0.n
    edges = list(t0.edges()) + [(u + n0, v + n0) for u, v in t1.edges()]
    union = Graph.from_edges(n0 + t1.n, edges)
    ct = CTGraph(
        graph=union, skeleton=skel, cluster_of=tuple(cl0) + tuple(cl1)
    )
    return ct, 0, n0


@pytest.fixture(scope="module")
def trees26():
    return _union_ct(build_skeleton(2, 6), 2)


@pytest.fixture(scope="module")
def radius2_inputs(trees26, g26):
    """Radius-2 walk inputs (graph, v0, v1): the unfolded view trees side
    by side, and one pair of the girth-6 voltage lift of the (2,6) graph."""
    lift = VoltageLift(g26)
    groups = g26.cluster_nodes()
    pair = (lift, lift.node(groups[0][0], 0), lift.node(groups[1][0], 0))
    return [trees26, pair]


# ---------------------------------------------------------------------------
# the walk on the low-girth radius-1 instance
# ---------------------------------------------------------------------------


def test_all_pairs_on_low_girth_base(g14):
    rng = random.Random(5)
    pairs = [(rng.randrange(64), 64 + rng.randrange(16)) for _ in range(60)]
    for v0, v1 in pairs:
        phi = find_isomorphism(g14, 1, v0, v1)
        assert phi.forward[v0] == v1
        assert verify_isomorphism(g14, 1, v0, v1, phi)
        assert len(phi.forward) == 6


def test_iso_maps_root_to_root(g14):
    phi = find_isomorphism(g14, 1, 3, 70)
    assert phi.forward[3] == 70
    assert phi.backward[70] == 3


def test_canonical_forms_agree_on_base(g14):
    forms = set()
    for v in (0, 17, 63):
        forms.add(canonical_form(k_hop_subgraph(g14.graph, v, 1)))
    for v in (64, 79):
        forms.add(canonical_form(k_hop_subgraph(g14.graph, v, 1)))
    assert len(forms) == 1


def test_precondition_checks(g14, g26):
    with pytest.raises(ValueError):
        find_isomorphism(g14, 2, 0, 64)  # k does not match the skeleton
    with pytest.raises(ValueError):
        find_isomorphism(g14, 1, 64, 64)  # v0 not in cluster 0
    with pytest.raises(ValueError):
        find_isomorphism(g14, 1, 0, 0)  # v1 not in cluster 1
    # girth 4 cannot support radius-2 views
    v1 = next(v for v in range(g26.graph.n) if g26.cluster_of[v] == 1)
    with pytest.raises(GirthTooLowError):
        find_isomorphism(g26, 2, 0, v1)


# ---------------------------------------------------------------------------
# verify_isomorphism as an independent referee
# ---------------------------------------------------------------------------


def test_verify_rejects_swapped_images(radius2_inputs):
    # swapping the images of two nodes with different view degrees breaks
    # edge preservation (radius-1 views are stars, so this needs radius 2)
    for ct, v0, v1 in radius2_inputs:
        phi = find_isomorphism(ct, 2, v0, v1)
        sub = k_hop_subgraph(ct, v0, 2)
        degree = {u: len(nbrs) for u, nbrs in zip(sub.nodes, sub.graph.adj)}
        f = dict(phi.forward)
        a = next(v for v in f if v != v0 and degree[v] > 1)
        b = next(v for v in f if degree[v] == 1)
        f[a], f[b] = f[b], f[a]
        broken = type(phi)(forward=f, backward={w: v for v, w in f.items()})
        assert not verify_isomorphism(ct, 2, v0, v1, broken)


def test_verify_rejects_broken_maps_on_lift(radius2_inputs):
    lift, v0, v1 = radius2_inputs[1]
    phi = find_isomorphism(lift, 2, v0, v1)
    assert verify_isomorphism(lift, 2, v0, v1, phi)
    view0 = set(k_hop_subgraph(lift, v0, 2).nodes)
    view1 = set(k_hop_subgraph(lift, v1, 2).nodes)
    outside0 = next(x for x in range(lift.n) if x not in view0)
    outside1 = next(x for x in range(lift.n) if x not in view1)
    a, b = sorted(v for v in phi.forward if v != v0)[:2]

    non_injective = {**phi.forward, a: phi.forward[b]}
    extra_key = {**phi.forward, outside0: outside1}
    image_outside = {**phi.forward, a: outside1}
    for f in (non_injective, extra_key, image_outside):
        broken = type(phi)(forward=f, backward={w: v for v, w in f.items()})
        assert not verify_isomorphism(lift, 2, v0, v1, broken)


def test_verify_rejects_missing_node(g14):
    phi = find_isomorphism(g14, 1, 0, 64)
    f = dict(phi.forward)
    f.pop(max(v for v in f if v != 0))
    broken = type(phi)(forward=f, backward={w: v for v, w in f.items()})
    assert not verify_isomorphism(g14, 1, 0, 64, broken)


def test_verify_rejects_wrong_root_image(g14):
    phi = find_isomorphism(g14, 1, 0, 64)
    assert not verify_isomorphism(g14, 1, 0, 65, phi)


# ---------------------------------------------------------------------------
# canonical form oracle
# ---------------------------------------------------------------------------


def test_canonical_form_single_node():
    one = Graph.from_edges(1, [])
    assert canonical_form_rooted(one, 0) == "()"


def test_canonical_form_star_vs_path():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert canonical_form_rooted(star, 0) != canonical_form_rooted(path, 0)
    # same tree, different root: also distinguishable
    assert canonical_form_rooted(path, 0) != canonical_form_rooted(path, 1)


def test_canonical_form_order_invariant():
    a = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    b = Graph.from_edges(5, [(0, 3), (0, 1), (3, 2), (3, 4)])
    assert canonical_form_rooted(a, 0) == canonical_form_rooted(b, 0)


def test_canonical_form_rejects_non_trees():
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotATreeError):
        canonical_form_rooted(tri, 0)
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(NotATreeError):
        canonical_form_rooted(disconnected, 0)


# ---------------------------------------------------------------------------
# radius-2 behavior on skeleton-unfolded view trees and on the voltage lift
# ---------------------------------------------------------------------------


def test_unfolded_tree_shape():
    skel = build_skeleton(2, 6)
    tree, clusters = unfold_view_tree(skel, 0, 2)
    # root degree 1 + 6 + 36; the 36 leaf-cluster children each reveal
    # 6^3 - 1 further nodes, the rest reveal their own full degrees
    assert tree.degree(0) == 43
    assert clusters[0] == 0
    assert tree.n == 1 + 43 + (42 + 6 * 42 + 36 * (6**3 - 1))
    assert tree.edge_count() == tree.n - 1


def test_radius2_walk_verifies_and_matches_oracle(radius2_inputs):
    skel = build_skeleton(2, 6)
    want = [
        canonical_form_rooted(unfold_view_tree(skel, c, 2)[0], 0) for c in (0, 1)
    ]
    for ct, v0, v1 in radius2_inputs:
        phi = find_isomorphism(ct, 2, v0, v1)
        assert verify_isomorphism(ct, 2, v0, v1, phi)
        s0 = canonical_form(k_hop_subgraph(ct, v0, 2))
        s1 = canonical_form(k_hop_subgraph(ct, v1, 2))
        assert s0 == s1
        # concrete views have the shape the skeleton prescribes
        assert [s0, s1] == want


def test_radius2_repair_fires(radius2_inputs):
    # mismatched histories at depth 1 force the leftover pairing
    for ct, v0, v1 in radius2_inputs:
        phi = find_isomorphism(ct, 2, v0, v1)
        assert phi.special_case_count() > 0


def test_radius2_invariant_classification(radius2_inputs):
    for ct, v0, v1 in radius2_inputs:
        phi = find_isomorphism(ct, 2, v0, v1)
        mid = [r for r in phi.audit if 0 < r.depth < 2]
        assert mid
        assert all(r.case in (1, 2) for r in mid)
        # hand count for beta=6: the roots pair 1 + 6 children inside the
        # base clusters (first case) and 36 children in the two clusters
        # grown in round 2 (second case)
        hist = {}
        for r in mid:
            hist[r.case] = hist.get(r.case, 0) + 1
        assert hist == {1: 7, 2: 36}
        # one first-case pair agrees on history, six do not
        agree = [r for r in mid if r.case == 1 and r.history_v == r.history_w]
        differ = [r for r in mid if r.case == 1 and r.history_v != r.history_w]
        assert len(agree) == 1 and len(differ) == 6
        # the root and the deepest layer stay unclassified
        assert all(
            r.case is None for r in phi.audit if r.depth in (0, 2)
        )


def test_radius2_bucket_length_accounting(radius2_inputs):
    for ct, v0, v1 in radius2_inputs:
        phi = find_isomorphism(ct, 2, v0, v1)
        checked = 0
        for r in phi.audit:
            if r.bucket_lens_v is None or r.history_v is None:
                continue
            checked += 1
            lv, lw = r.bucket_lens_v, r.bucket_lens_w
            if r.position_v == r.position_w and r.history_v == r.history_w:
                assert lv == lw
            elif (
                r.position_v == INTERNAL
                and r.position_w == INTERNAL
                and r.history_v != r.history_w
            ):
                x, y = r.history_v, r.history_w
                assert lv[x] == lw[x] - 1
                assert lv[y] - 1 == lw[y]
                assert all(
                    lv[i] == lw[i] for i in range(len(lv)) if i not in (x, y)
                )
            else:
                raise AssertionError(
                    "pair disagrees on position or mixes leaf histories: "
                    f"{r}"
                )
        assert checked > 0


def test_radius2_other_parameter():
    # same exercise at beta = 8: bucket sizes change but the walk, the
    # repair, and both oracles must keep agreeing
    ct, v0, v1 = _union_ct(build_skeleton(2, 8), 2)
    phi = find_isomorphism(ct, 2, v0, v1)
    assert verify_isomorphism(ct, 2, v0, v1, phi)
    assert phi.special_case_count() > 0
    assert canonical_form(k_hop_subgraph(ct, v0, 2)) == canonical_form(
        k_hop_subgraph(ct, v1, 2)
    )
    assert all(r.case in (1, 2) for r in phi.audit if 0 < r.depth < 2)


def test_radius3_skeleton_classification_cases():
    # directly exercise the depth classifier over the radius-3 skeleton:
    # rounds and parent exponents are enough to decide the case
    skel = build_skeleton(3, 8)
    by_round = {}
    for c in skel.clusters:
        by_round.setdefault(c.round, []).append(c)
    assert set(by_round) == {1, 2, 3}
    # any two distinct round-3 leaf clusters connected with the same
    # parent-side exponent would satisfy the second case at depth 1
    r3 = [c for c in by_round[3] if c.parent_exponent == 1]
    assert len(r3) >= 2


def test_walk_raises_on_corrupted_input(trees26):
    ct, v0, v1 = trees26
    g = ct.graph
    # drop one leaf of the first tree: a bucket loses a node and no
    # single repair can reconcile the counts
    leaf = max(
        u for u in range(g.n) if g.degree(u) == 1 and u < ct.graph.n // 2
    )
    edges = [e for e in g.edges() if leaf not in e]
    keep = [v for v in range(g.n) if v != leaf]
    index = {v: i for i, v in enumerate(keep)}
    smaller = Graph.from_edges(
        len(keep), [(index[a], index[b]) for a, b in edges]
    )
    clusters = tuple(ct.cluster_of[v] for v in keep)
    broken = CTGraph(graph=smaller, skeleton=ct.skeleton, cluster_of=clusters)
    with pytest.raises(PairingFailureError):
        find_isomorphism(broken, 2, index[v0], index[v1])
