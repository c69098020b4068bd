from __future__ import annotations

import hashlib
import json
import statistics

import pytest

from clustertree.builder import build_matching_double
from clustertree.errors import GirthTooLowError, NotBipartiteError, TooLargeError
from clustertree.graph import Graph, k_hop_subgraph, line_graph
from clustertree.iso import canonical_form
from clustertree.localsim import (
    ALGORITHMS,
    DS,
    MAXM,
    MIS,
    MM,
    VC,
    Labeling,
    _edge_view_canon,
    alg_always_select,
    alg_mutual_max_mm,
    alg_skip_local_max,
    alg_tape_greedy_mm,
    edge_indistinguishability_check,
    exact_mvc_bipartite,
    exact_small,
    measure_expectation,
    mm_to_mvc,
    mutual_edges,
    run_local,
    selected_nodes,
    validate_solution,
)
from clustertree.matching import greedy_maximal_matching

C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
STAR5 = Graph.from_edges(6, [(0, i) for i in range(1, 6)])


# ---------------------------------------------------------------------------
# labelings and the view engine
# ---------------------------------------------------------------------------


def test_labeling_distinct_in_range_reproducible():
    a = Labeling.generate(50, 123)
    b = Labeling.generate(50, 123)
    assert a == b
    assert len(set(a.ids)) == 50
    assert all(1 <= x <= 50**3 for x in a.ids)
    assert Labeling.generate(50, 124) != a


def test_zero_round_view_is_bare_node(g14):
    lab = Labeling.generate(g14.graph.n, 0)
    outs = run_local(g14.graph, 0, lambda view: view.node_count(), lab)
    assert set(outs) == {1}


def test_always_select_is_valid_cover(g14):
    lab = Labeling.generate(g14.graph.n, 0)
    outs = run_local(g14.graph, 0, alg_always_select, lab)
    sel = selected_nodes(outs)
    assert len(sel) == g14.graph.n
    assert validate_solution(g14.graph, VC, sel)


def test_run_local_deterministic(g14):
    lab = Labeling.generate(g14.graph.n, 9)
    a = run_local(g14.graph, 1, alg_skip_local_max, lab)
    b = run_local(g14.graph, 1, alg_skip_local_max, lab)
    assert a == b


def test_view_speaks_identifiers_only(g14):
    lab = Labeling.generate(g14.graph.n, 4)
    ids = set(lab.ids)

    def probe(view):
        assert view.root_id in ids
        assert set(view.node_ids()) <= ids
        for nid in view.node_ids():
            assert view.depth_of(nid) in (0, 1)
            for other in view.neighbor_ids(nid):
                assert other in ids
        return view.node_count()

    outs = run_local(g14.graph, 1, probe, lab)
    # view of a cluster-0 node is its degree-5 star
    assert outs[0] == 6


def test_skip_local_max_always_covers(g14):
    for seed in range(5):
        lab = Labeling.generate(g14.graph.n, seed)
        sel = selected_nodes(run_local(g14.graph, 1, alg_skip_local_max, lab))
        assert validate_solution(g14.graph, VC, sel)


def test_tapes_differ_by_salt(g14):
    lab = Labeling.generate(g14.graph.n, 1)
    a = run_local(g14.graph, 1, lambda v: v.tape(v.root_id), lab, tape_salt=0)
    b = run_local(g14.graph, 1, lambda v: v.tape(v.root_id), lab, tape_salt=1)
    assert a != b
    assert a == run_local(g14.graph, 1, lambda v: v.tape(v.root_id), lab)


def test_identical_view_distributions_chi_square(g14):
    """Selection frequencies of a cluster-0 and a cluster-1 node match.

    Their unlabeled views are isomorphic, so under uniform labels the
    selection probability is identical; a 2x2 chi-square on observed
    frequencies stays far below the 0.001 critical value 10.83.
    """
    v0, v1 = 0, 64
    s0 = canonical_form(k_hop_subgraph(g14.graph, v0, 1))
    s1 = canonical_form(k_hop_subgraph(g14.graph, v1, 1))
    assert s0 == s1
    trials = 600
    hits = [0, 0]
    for t in range(trials):
        lab = Labeling.generate(g14.graph.n, 1000 + t)
        outs = run_local(g14.graph, 1, alg_skip_local_max, lab)
        hits[0] += bool(outs[v0])
        hits[1] += bool(outs[v1])
    chi2 = 0.0
    for h in hits:
        for observed, expected in (
            (h, (hits[0] + hits[1]) / 2),
            (trials - h, trials - (hits[0] + hits[1]) / 2),
        ):
            chi2 += (observed - expected) ** 2 / expected
    assert chi2 < 10.83, (hits, chi2)


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------


def test_validate_vc():
    assert validate_solution(K3, VC, [0, 1, 2])
    assert validate_solution(K3, VC, [0, 1])
    assert not validate_solution(K3, VC, [0])
    assert not validate_solution(K3, VC, [7])


def test_validate_ds():
    assert validate_solution(STAR5, DS, [0])
    assert not validate_solution(P4, DS, [0])
    assert validate_solution(P4, DS, [1, 2])


def test_validate_matchings():
    assert validate_solution(C4, MAXM, [(0, 1), (2, 3)])
    assert not validate_solution(C4, MAXM, [(0, 1), (1, 2)])
    assert not validate_solution(C4, MAXM, [(0, 2)])
    assert validate_solution(C4, MM, [(0, 1), (2, 3)])
    # an empty matching is not maximal when edges exist
    assert not validate_solution(C4, MM, [])
    # the middle edge of the path dominates both outer edges
    assert validate_solution(P4, MM, [(1, 2)])


def test_validate_mm_endpoints_cover():
    mm = greedy_maximal_matching(P4)
    endpoints = sorted({x for e in mm for x in e})
    assert validate_solution(P4, VC, endpoints)


def test_validate_mis():
    assert validate_solution(C4, MIS, [0, 2])
    assert not validate_solution(C4, MIS, [0, 1])
    assert not validate_solution(C4, MIS, [0])  # not maximal
    assert validate_solution(STAR5, MIS, [1, 2, 3, 4, 5])


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------


def test_exact_mvc_bipartite_examples(g16):
    size, witness = exact_mvc_bipartite(C4)
    assert size == 2
    assert validate_solution(C4, VC, witness)
    size, witness = exact_mvc_bipartite(STAR5)
    assert size == 1 and witness == (0,)
    size, witness = exact_mvc_bipartite(g16.graph)
    assert size <= 4624 - 4096
    assert validate_solution(g16.graph, VC, witness)
    # everything outside cluster 0 is a cover of exactly n - n0 nodes
    complement = [
        v for v in range(g16.graph.n) if g16.cluster_of[v] != 0
    ]
    assert validate_solution(g16.graph, VC, complement)
    assert len(complement) == 528


def test_exact_mvc_bipartite_rejects_odd_cycles():
    with pytest.raises(NotBipartiteError):
        exact_mvc_bipartite(K3)


def test_exact_small_examples():
    assert exact_small(K3, VC) == 2
    assert exact_small(P4, DS) == 2
    assert exact_small(C4, MAXM) == 2
    assert exact_small(K3, MAXM) == 1
    pet = Graph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    assert exact_small(pet, MAXM) == 5
    assert exact_small(pet, VC) == 6
    assert exact_small(pet, DS) == 3


def test_exact_small_size_limit():
    big = Graph.from_edges(41, [(i, i + 1) for i in range(40)])
    with pytest.raises(TooLargeError):
        exact_small(big, VC)


def test_exact_solvers_agree_on_bipartite(small_corpus):
    checked = 0
    for g in small_corpus:
        if g.two_coloring() is None:
            continue
        checked += 1
        assert exact_mvc_bipartite(g)[0] == exact_small(g, VC)
    assert checked >= 3


# ---------------------------------------------------------------------------
# trial statistics
# ---------------------------------------------------------------------------


def test_measure_expectation_reproducible(g14):
    a = measure_expectation(g14.graph, 1, "skip-local-max", VC, trials=1, seed=5)
    b = measure_expectation(g14.graph, 1, "skip-local-max", VC, trials=1, seed=5)
    assert a == b
    assert a.std == 0.0
    assert a.all_valid


def test_measure_expectation_always_select(g14):
    rep = measure_expectation(g14.graph, 0, "always-select", VC, trials=3, seed=0)
    assert rep.mean == 100.0 and rep.std == 0.0
    assert rep.oracle is not None
    assert rep.ratio == pytest.approx(100.0 / rep.oracle)


def test_measure_expectation_flags_invalid_trials():
    # the one-round mutual proposal is usually not maximal on a long path
    path = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
    rep = measure_expectation(path, 1, "mutual-max-mm", MM, trials=20, seed=0)
    assert not rep.all_valid
    assert rep.ratio is None


def test_measure_expectation_parallel_matches_serial(g14):
    serial = measure_expectation(
        g14.graph, 1, "skip-local-max", VC, trials=6, seed=3, jobs=1
    )
    parallel = measure_expectation(
        g14.graph, 1, "skip-local-max", VC, trials=6, seed=3, jobs=2
    )
    assert serial == parallel


def test_mutual_edges_consistency(g14):
    lab = Labeling.generate(g14.graph.n, 2)
    outs = run_local(g14.graph, 1, alg_mutual_max_mm, lab)
    edges = mutual_edges(g14.graph, lab, outs)
    assert edges
    assert validate_solution(g14.graph, MAXM, edges)


def test_mutual_edges_tolerates_junk_outputs():
    lab = Labeling.generate(C4.n, 0)
    # booleans and None are not proposals; nothing should match
    assert mutual_edges(C4, lab, [True, None, 3, ()]) == []


# ---------------------------------------------------------------------------
# matching-to-cover amplification
# ---------------------------------------------------------------------------


def test_mm_to_mvc_trivial_cases():
    empty = Graph.from_edges(3, [])
    assert mm_to_mvc(empty, alg_tape_greedy_mm, rounds=2) == ()
    k2 = Graph.from_edges(2, [(0, 1)])
    cover = mm_to_mvc(k2, alg_tape_greedy_mm, rounds=2)
    assert validate_solution(k2, VC, cover)
    assert len(cover) <= 2


def test_mm_to_mvc_requires_large_constant():
    with pytest.raises(ValueError):
        mm_to_mvc(C4, alg_tape_greedy_mm, rounds=4, c=10)


def test_mm_to_mvc_on_corpus(small_corpus):
    ratios = []
    for i, g in enumerate(small_corpus[:15]):
        if g.edge_count() == 0:
            continue
        cover = mm_to_mvc(g, alg_tape_greedy_mm, rounds=g.n, seed=i)
        assert validate_solution(g, VC, cover)
        mvc = exact_small(g, VC)
        assert len(cover) <= 14 * mvc
        ratios.append(len(cover) / mvc)
    assert ratios and statistics.fmean(ratios) <= 14


# ---------------------------------------------------------------------------
# reductions through the line graph
# ---------------------------------------------------------------------------


def test_mm_mis_correspondence(small_corpus):
    for g in small_corpus[:12]:
        if g.edge_count() == 0:
            continue
        lg, edge_map = line_graph(g)
        index = {e: i for i, e in enumerate(edge_map)}
        mm = greedy_maximal_matching(g)
        assert validate_solution(lg, MIS, [index[e] for e in mm])
        # reverse direction via a greedy independent set on the line graph
        taken, blocked = [], set()
        for v in range(lg.n):
            if v not in blocked:
                taken.append(v)
                blocked.add(v)
                blocked.update(lg.adj[v])
        assert validate_solution(g, MM, [edge_map[i] for i in taken])


def test_vc_ds_correspondence(small_corpus):
    checked = 0
    for g in small_corpus:
        if not (0 < g.edge_count() and g.n <= 16):
            continue
        lg, edge_map = line_graph(g)
        if lg.n > 40:
            continue
        checked += 1
        mvc = exact_small(g, VC)
        mds = exact_small(lg, DS)
        assert mds <= mvc <= 2 * mds
        # constructive direction: one incident edge per cover node
        _, witness = (
            exact_mvc_bipartite(g)
            if g.two_coloring() is not None
            else (None, None)
        )
        if witness is not None:
            ds = []
            for v in witness:
                if g.adj[v]:
                    u = g.adj[v][0]
                    ds.append(edge_map.index((min(u, v), max(u, v))))
            if validate_solution(lg, DS, ds):
                assert len(set(ds)) <= len(witness)
    assert checked >= 3


def test_vc_from_ds_of_line_graph(small_corpus):
    for g in small_corpus[:8]:
        if g.edge_count() == 0:
            continue
        lg, edge_map = line_graph(g)
        # greedy dominating set of the line graph
        ds, dominated = [], set()
        for v in range(lg.n):
            if v not in dominated:
                ds.append(v)
                dominated.add(v)
                dominated.update(lg.adj[v])
        cover = sorted({x for i in ds for x in edge_map[i]})
        assert validate_solution(g, VC, cover)
        assert len(cover) <= 2 * len(ds)


# ---------------------------------------------------------------------------
# edge indistinguishability on the doubled graph
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def doubled14(g14):
    return build_matching_double(g14)


def test_edge_indistinguishability_radius_one(doubled14):
    report = edge_indistinguishability_check(doubled14, 1, samples=12, seed=1)
    assert len(report.checks) == 12
    assert report.all_passed


def test_edge_view_canon_digest(doubled14):
    # both edges of every check; the digest was recorded when the union
    # view was still built from host edge sets
    report = edge_indistinguishability_check(doubled14, 1, samples=12, seed=1)
    g = doubled14.graph
    pairs = []
    for c in report.checks:
        pairs.append(list(_edge_view_canon(g, c.v0, c.v1, 1)))
        pairs.append(list(_edge_view_canon(g, c.v0, c.v0_bar, 1)))
    digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
    assert digest == (
        "a9d0136395a0d467546bf2bde149d7f0513f275fe11313f40a2737025af97c7c"
    )


def test_edge_indistinguishability_radius_zero(doubled14):
    report = edge_indistinguishability_check(doubled14, 0, samples=4)
    assert report.all_passed


def test_edge_indistinguishability_girth_guard(doubled14):
    with pytest.raises(GirthTooLowError):
        edge_indistinguishability_check(doubled14, 2)


def test_algorithm_registry_names():
    assert set(ALGORITHMS) == {
        "always-select",
        "skip-local-max",
        "greedy-view-vc",
        "mutual-max-mm",
        "tape-greedy-mm",
    }
