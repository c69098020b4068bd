from __future__ import annotations

import concurrent.futures
import hashlib
import io
import json
import os
import pickle
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from clustertree import localsim
from clustertree.builder import build_matching_double
from clustertree.errors import (
    GirthTooLowError,
    NotATreeError,
    NotBipartiteError,
    TooLargeError,
)
from clustertree.graph import Graph, k_hop_subgraph, line_graph
from clustertree.iso import canonical_form
from clustertree.lifts import high_girth_regular
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
    alg_greedy_view_vc,
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
from clustertree.skeleton import cluster_count

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


def test_labeling_matches_random_sample():
    # every report is built from these ids: they stay those of
    # random.sample, also for n <= 2, where sample draws from a pool
    cases = [(n, s) for n in range(301) for s in range(10)]
    cases += [(4624, s) for s in range(3)]
    for n, s in cases:
        expected = tuple(random.Random(s).sample(range(1, n**3 + 1), n))
        assert Labeling.generate(n, s).ids == expected
    assert Labeling.generate(0, 0).ids == ()


def test_zero_round_view_is_bare_node(g14):
    lab = Labeling.generate(g14.graph.n, 0)
    outs = run_local(g14.graph, 0, lambda view: len(view.node_ids()), lab)
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
        for a, b in view.edge_ids():
            # at k = 1 every view edge joins the root to a neighbour
            assert a < b and view.root_id in (a, b)
            assert {a, b} <= ids
        return len(view.node_ids())

    outs = run_local(g14.graph, 1, probe, lab)
    # view of a cluster-0 node is its degree-5 star
    assert outs[0] == 6


def test_view_accessors_match_host_adjacency():
    # hub 0, a triangle 0-1-2, a path 0-4-5 ending in the leaf 5, and the
    # isolated node 6: views with zero, one and many neighbours per node
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (4, 5)])
    lab = Labeling.generate(g.n, 5)
    ids = lab.ids
    for k in (0, 1, 2):

        def probe(view):
            v = ids.index(view.root_id)
            t = k_hop_subgraph(g, v, k)
            rooted = tuple(ids[w] for w in g.adj[v]) if k else ()
            assert view.root_neighbor_ids() == rooted
            assert view.root_neighbor_ids() == tuple(
                ids[t.nodes[j]] for j in t.graph.adj[0]
            )
            assert view.node_ids() == tuple(ids[u] for u in t.nodes)
            assert sorted(view.edge_ids()) == sorted(
                tuple(sorted((ids[t.nodes[i]], ids[t.nodes[j]])))
                for i, j in t.graph.edges()
            )
            return len(view.root_neighbor_ids())

        # every accessor returns a tuple, also for one neighbour or none
        assert run_local(g, k, probe, lab) == (
            [0] * 7 if k == 0 else [4, 2, 2, 1, 2, 1, 0]
        )


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
    # only in-range int entries are nodes: no wrap-around, no exception
    assert not validate_solution(K3, VC, [0, 1, -1])
    assert not validate_solution(K3, VC, ["x"])
    assert not validate_solution(K3, VC, [0, True])
    assert not validate_solution(K3, VC, [0, 1.0])


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
    # adj[-1] would be node 3's list, which holds 2
    assert not validate_solution(P4, MAXM, [(-1, 2)])
    assert not validate_solution(P4, MM, [(-1, 2), (0, 1)])
    assert not validate_solution(P4, MAXM, [(9, 0)])
    assert not validate_solution(P4, MAXM, [(0, True)])
    assert not validate_solution(P4, MAXM, [(0, 1, 2)])
    assert not validate_solution(P4, MAXM, [5])


def test_validate_node_kinds_never_raise_on_mixed_entries():
    valid = {
        (K3, VC): [0, 1],
        (K3, DS): [0],
        (K3, MIS): [0],
        (P4, VC): [1, 2],
        (P4, DS): [1, 2],
        (P4, MIS): [0, 2],
    }
    for (g, kind), nodes in valid.items():
        for bad in (["x", 0], [0, None], [None], [2**70], [-1, "x"], [1.0, 0]):
            assert validate_solution(g, kind, bad) is False
        # any iterable of node indices is a solution
        assert validate_solution(g, kind, (v for v in nodes)) is True
        assert validate_solution(g, kind, set(nodes)) is True


def test_validate_is_false_for_a_solution_that_is_not_iterable():
    for kind in localsim.KINDS:
        for bad in (None, 5):
            assert validate_solution(P4, kind, bad) is False
    # an unknown kind is a caller's error, whatever the solution
    with pytest.raises(ValueError, match="unknown solution kind"):
        validate_solution(P4, "vertex-cover", None)


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 10**12), min_size=1, max_size=60))
def test_mean_and_std_match_statistics(sizes):
    # statistics is the oracle: fmean is correctly rounded for these sums
    # (below 2**53), and stdev is correctly rounded from Python 3.11 on
    mean, std = localsim._mean_and_std(tuple(sizes))
    assert repr(mean) == repr(statistics.fmean(sizes))
    expected = statistics.stdev(sizes) if len(sizes) > 1 else 0.0
    assert repr(std) == repr(expected)


def test_measure_expectation_rejects_unknown_name(g14, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(localsim, "_one_trial", no_trial)
    with pytest.raises(KeyError):
        measure_expectation(g14.graph, 1, "no-such-alg", VC, trials=2, seed=0)


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
    # 5 and 1 trials do not split evenly over two workers
    for trials in (6, 5, 1):
        serial = measure_expectation(
            g14.graph, 1, "skip-local-max", VC, trials=trials, seed=3, jobs=1
        )
        parallel = measure_expectation(
            g14.graph, 1, "skip-local-max", VC, trials=trials, seed=3, jobs=2
        )
        assert serial == parallel


def test_measure_expectation_caps_workers_at_cpu_count(g14, monkeypatch):
    pools = []

    class SerialPool:
        # records what the pool is asked for and starts no process; runs
        # the initializer once, as a worker would
        def __init__(self, max_workers, initializer, initargs):
            pools.append([max_workers])
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            pools[-1].append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    serial = measure_expectation(g14.graph, 1, "skip-local-max", VC, trials=10, seed=3)
    # [max_workers, chunksize] of the one pool, or no pool for one worker
    for cpus, pool in ((2, [2, 5]), (3, [3, 4]), (None, None), (1, None)):
        pools.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rep = measure_expectation(
            g14.graph, 1, "skip-local-max", VC, trials=10, seed=3, jobs=1000
        )
        assert pools == ([pool] if pool else [])
        assert rep == serial


def test_measure_expectation_sends_the_graph_once_by_initializer(g14, monkeypatch):
    # the graph reaches a worker through the pool's initializer; the
    # function each task carries names the trial and holds no graph
    sent = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            sent.append(initargs)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            graphs = []

            class GraphFinder(pickle.Pickler):
                def persistent_id(self, obj):
                    if isinstance(obj, Graph):
                        graphs.append(obj)
                    return None  # pickle it as usual

            buf = io.BytesIO()
            GraphFinder(buf).dump(fn)
            sent.append((graphs, len(buf.getvalue())))
            return map(fn, items)

    serial = measure_expectation(g14.graph, 1, "skip-local-max", VC, trials=10, seed=3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(localsim, "_worker_args", ())  # restored afterwards
    rep = measure_expectation(
        g14.graph, 1, "skip-local-max", VC, trials=10, seed=3, jobs=2
    )
    initargs, (graphs, size) = sent
    assert any(arg is g14.graph for arg in initargs)
    assert graphs == [] and size < 1024
    assert rep == serial


def test_mutual_edges_consistency(g14):
    lab = Labeling.generate(g14.graph.n, 2)
    outs = run_local(g14.graph, 1, alg_mutual_max_mm, lab)
    edges = mutual_edges(g14.graph, lab, outs)
    assert edges
    assert validate_solution(g14.graph, MAXM, edges)


def test_mutual_max_mm_proposes_nothing_at_an_isolated_node():
    g = Graph.from_edges(3, [(0, 1)])
    lab = Labeling.generate(g.n, 0)
    outs = run_local(g, 1, alg_mutual_max_mm, lab)
    assert outs[2] == ()
    assert outs[0] == (lab.ids[1],) and outs[1] == (lab.ids[0],)
    assert mutual_edges(g, lab, outs) == [(0, 1)]


def test_mutual_edges_tolerates_junk_outputs():
    lab = Labeling.generate(C4.n, 0)
    # booleans and None are not proposals; nothing should match
    assert mutual_edges(C4, lab, [True, None, 3, ()]) == []
    # an unhashable id names no node, and the ids next to it still count
    a, b = lab.ids[0], lab.ids[1]
    assert mutual_edges(C4, lab, [[[b]], [[a]], (), ()]) == []
    assert mutual_edges(C4, lab, [[[b], b], [a, {a: 1}], (), ()]) == [(0, 1)]
    # an id is an int: True and 2.0 do not stand for the ids 1 and 2
    ids = Labeling(ids=(1, 2, 3, 4), rng_seed=0)
    assert mutual_edges(C4, ids, [(2,), (True,), (), ()]) == []
    assert mutual_edges(C4, ids, [(2.0,), (1.0,), (), ()]) == []
    assert mutual_edges(C4, ids, [(2,), (1,), (), ()]) == [(0, 1)]


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


def reference_tape_greedy_mm(view):
    """Oracle: alg_tape_greedy_mm before it drew each tape once per view;
    its sort key calls view.tape twice per view edge."""
    edges = view.edge_ids()
    keyed = sorted(
        edges,
        key=lambda e: ((view.tape(e[0]) + view.tape(e[1])) & localsim._MASK, e),
    )
    used: set[int] = set()
    root = view.root_id
    for a, b in keyed:
        if a not in used and b not in used:
            used.add(a)
            used.add(b)
            if a == root:
                return (b,)
            if b == root:
                return (a,)
    return ()


def test_tape_greedy_mm_matches_reference_on_corpus(small_corpus):
    def both(view):
        return alg_tape_greedy_mm(view), reference_tape_greedy_mm(view)

    for i, g in enumerate(small_corpus):
        lab = Labeling.generate(g.n, i)
        # radius g.n sees each node's whole component
        for k in (1, 2, g.n):
            for new, old in run_local(g, k, both, lab, tape_salt=k):
                assert new == old


def reference_greedy_view_vc(view):
    """Oracle: alg_greedy_view_vc before it kept one neighbour set per id;
    it rebuilt the degree dict and the edge set after every pick."""
    edges = set(view.edge_ids())
    root = view.root_id
    degree: dict[int, int] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    while edges:
        pick = max(degree, key=lambda x: (degree[x], -x))
        if pick == root:
            return True
        edges = {e for e in edges if pick not in e}
        degree = {}
        for a, b in edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
    return False


def test_greedy_view_vc_matches_reference_on_corpus(small_corpus):
    def both(view):
        return alg_greedy_view_vc(view), reference_greedy_view_vc(view)

    for i, g in enumerate(small_corpus):
        lab = Labeling.generate(g.n, i)
        # radius g.n sees each node's whole component
        for k in (1, 2, g.n):
            for new, old in run_local(g, k, both, lab):
                assert new == old


def reference_oracle_optimum(g, kind):
    """Oracle: measure_expectation's optimum as it was dispatched, one
    branch per kind."""
    try:
        if kind == VC:
            if g.two_coloring() is not None:
                return exact_mvc_bipartite(g)[0]
            return exact_small(g, VC)
        if kind in (MAXM, MM):
            return exact_small(g, MAXM)
        if kind == DS:
            return exact_small(g, DS)
    except TooLargeError:
        return None
    return None


def test_oracle_optimum_matches_reference_dispatch(small_corpus):
    odd41 = Graph.from_edges(41, [(i, (i + 1) % 41) for i in range(41)])
    for g in [*small_corpus, odd41]:
        for kind in (VC, DS, MAXM, MM, MIS):
            assert localsim._oracle_optimum(g, kind) == reference_oracle_optimum(g, kind)
    # past the exact limit every kind has no optimum
    assert {localsim._oracle_optimum(odd41, kind) for kind in localsim.KINDS} == {None}


def test_bipartite_oracles_two_colour_once(monkeypatch, g14):
    calls = []
    two_coloring = Graph.two_coloring

    def counted(self):
        calls.append(self)
        return two_coloring(self)

    monkeypatch.setattr(Graph, "two_coloring", counted)
    oracles = (lambda g: localsim._oracle_optimum(g, VC), lambda g: exact_small(g, MAXM))
    for solve in oracles:
        calls.clear()
        assert solve(g14.graph) > 0
        assert calls == [g14.graph]
    # an odd cycle: VC falls through to branch and bound, MAXM too
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert localsim._oracle_optimum(c5, VC) == 3
    assert exact_small(c5, MAXM) == 2


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
    checks = edge_indistinguishability_check(doubled14, 1, samples=12, seed=1)
    assert len(checks) == 12
    assert all(c.passed for c in checks)


def test_edge_view_canon_digest(doubled14):
    # both edges of every check; the digest was recorded when the union
    # view was still built from host edge sets
    checks = edge_indistinguishability_check(doubled14, 1, samples=12, seed=1)
    g = doubled14.graph
    pairs = []
    for c in checks:
        pairs.append(list(_edge_view_canon(g, c.v0, c.v1, 1)))
        pairs.append(list(_edge_view_canon(g, c.v0, c.v0_bar, 1)))
    digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
    assert digest == (
        "a9d0136395a0d467546bf2bde149d7f0513f275fe11313f40a2737025af97c7c"
    )


def test_edge_view_canon_radius_two():
    # every half is a depth-2 binary tree once the girth reaches 2k+2 = 6
    g = high_girth_regular(3, 6, 62)
    for u, v in g.edges():
        assert _edge_view_canon(g, u, v, 2) == ("((()())(()()))",) * 2
    # at girth 5 a 5-cycle through the edge joins the two halves
    g5 = high_girth_regular(3, 5, 30)
    with pytest.raises(NotATreeError):
        for u, v in g5.edges():
            _edge_view_canon(g5, u, v, 2)


def test_edge_indistinguishability_radius_zero(doubled14):
    checks = edge_indistinguishability_check(doubled14, 0, samples=4)
    assert len(checks) == 4
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("samples", [64, 1000])
def test_edge_indistinguishability_checks_each_cluster_zero_node_once(
    doubled14, samples
):
    # (1,4) cluster 0 has 64 nodes; asking for as many or more checks
    # each of them once, in ascending order
    c0 = [v for v, c in enumerate(doubled14.cluster_of) if c == 0]
    assert len(c0) == 64
    checks = edge_indistinguishability_check(doubled14, 1, samples=samples, seed=5)
    assert [c.v0 for c in checks] == c0
    assert all(c.passed for c in checks)


def test_edge_view_canon_at_radius_zero_is_two_bare_roots(doubled14):
    g = doubled14.graph
    assert {_edge_view_canon(g, u, v, 0) for u, v in g.edges()} == {("()", "()")}


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph.from_edges(-1, []), "node count must be nonnegative"),
        (lambda: k_hop_subgraph(K3, K3.n, 1), "node 3 out of range"),
        (lambda: run_local(K3, 1, alg_always_select, Labeling.generate(4, 0)),
         "labeling does not match graph size"),
        (lambda: exact_small(K3, MIS), "no exact solver for kind 'mis'"),
        (lambda: measure_expectation(K3, 1, "always-select", "cut", 1, 0),
         "unknown solution kind 'cut'"),
        (lambda: cluster_count(1, -1), "level must be nonnegative"),
    ],
    ids=["from-edges-negative-n", "k-hop-root-out-of-range",
         "run-local-labeling-size", "exact-small-mis", "measure-unknown-kind",
         "cluster-count-negative-level"],
)
def test_library_refusals_raise_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
