"""End-to-end verification suite: one test per numbered criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion together with its runtime against the stated budget.
"""

from __future__ import annotations

import time

import pytest

from clustertree.builder import build_matching_double
from clustertree.errors import GirthTooLowError, SizeCapExceededError
from clustertree.graph import Graph, girth, girth_at_least, k_hop_subgraph, line_graph
from clustertree.iso import canonical_form, find_isomorphism, verify_isomorphism
from clustertree.lifts import (
    VoltageLift,
    build_high_girth_ct,
    canonical_double_cover,
    common_lift,
    high_girth_regular,
    matching_decomposition,
    verify_covering_map,
)
from clustertree.localsim import (
    MAXM,
    MIS,
    MM,
    VC,
    alg_tape_greedy_mm,
    exact_mvc_bipartite,
    exact_small,
    measure_expectation,
    mm_to_mvc,
    validate_solution,
)
from clustertree.matching import greedy_maximal_matching
from clustertree.skeleton import (
    INTERNAL,
    build_skeleton,
    cluster_count,
    predicted_sizes,
    validate_ct_graph,
)

K4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
K33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(
        f"\nACCEPTANCE {num:02d} {name}: {status} "
        f"({elapsed:.2f}s of {limit:.0f}s budget)"
    )


@pytest.fixture(scope="module")
def base_pair_runs(g14):
    """All 64 x 16 coupled walks on the low-girth radius-1 instance."""
    runs = []
    for v0 in range(64):
        for v1 in range(64, 80):
            phi = find_isomorphism(g14, 1, v0, v1)
            runs.append((v0, v1, phi))
    return runs


@pytest.fixture(scope="module")
def lifted_pair_runs(lifted14):
    """100 sampled coupled walks on the lifted instance (seed 0)."""
    import random

    ct, _phi = lifted14
    rng = random.Random(0)
    c0 = [v for v in range(ct.graph.n) if ct.cluster_of[v] == 0]
    c1 = [v for v in range(ct.graph.n) if ct.cluster_of[v] == 1]
    runs = []
    for _ in range(100):
        v0, v1 = rng.choice(c0), rng.choice(c1)
        runs.append((v0, v1, find_isomorphism(ct, 1, v0, v1)))
    return runs


@pytest.fixture(scope="module")
def radius2_pair_runs(g26):
    """10 sampled coupled walks on radius-2 views of the cyclic voltage
    lift of the (2,6) graph (seed 0), run on the implicit lift:
    (lift, root 0, root 1, run)."""
    import random

    lift = VoltageLift(g26)
    groups = g26.cluster_nodes()
    rng = random.Random(0)
    runs = []
    for _ in range(10):
        x0 = lift.node(rng.choice(groups[0]), rng.randrange(lift.p))
        x1 = lift.node(rng.choice(groups[1]), rng.randrange(lift.p))
        runs.append((lift, x0, x1, find_isomorphism(lift, 2, x0, x1)))
    return runs


def test_criterion_01_cluster_count_formula():
    t0 = time.perf_counter()
    problems = []
    for k in range(1, 7):
        skel = build_skeleton(k, 2 * (k + 1))
        counts = skel.level_counts() + [0]
        for l in range(k + 3):
            if counts[l] != cluster_count(k, l):
                problems.append((k, l, counts[l], cluster_count(k, l)))
    if build_skeleton(1, 4).level_counts() != [1, 2, 1]:
        problems.append("base counts")
    if build_skeleton(2, 6).level_counts() != [1, 3, 4, 2]:
        problems.append("radius-2 counts")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    _report(1, "cluster-count formula", ok, elapsed, 1.0)
    assert not problems, problems
    assert elapsed < 1.0


def test_criterion_02_instantiation(g14):
    t0 = time.perf_counter()
    g = g14.graph
    report = validate_ct_graph(g14)
    pred = predicted_sizes(1, 4)
    checks = {
        "nodes": g.n == 100,
        "edges": g.edge_count() == 336,
        "degree": g.max_degree() == 16,
        "girth": girth(g) == 4,
        "valid": report.ok,
        "prediction": (pred.n0, pred.n, pred.max_degree) == (64, 100, 16),
    }
    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed < 1.0
    _report(2, "low-girth instantiation", ok, elapsed, 1.0)
    assert all(checks.values()), checks
    assert elapsed < 1.0


def test_criterion_03_order_bounds(g14, g16, g26):
    t0 = time.perf_counter()
    problems = []
    built = {(1, 4): g14.graph.n, (1, 16): g16.graph.n, (2, 6): g26.graph.n}
    for k, beta in ((1, 4), (1, 16), (2, 6), (3, 8)):
        pred = predicted_sizes(k, beta)
        n, n0 = pred.n, pred.n0
        if (k, beta) in built and built[(k, beta)] != n:
            problems.append((k, beta, "instantiated size mismatch"))
        # exact integer arithmetic, cross-multiplied
        if not n * (beta - (k + 1)) < n0 * beta:
            problems.append((k, beta, "total bound"))
        if not (n - n0) * beta < n0 * 2 * (k + 1):
            problems.append((k, beta, "excess bound"))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 10.0
    _report(3, "order bounds", ok, elapsed, 10.0)
    assert not problems, problems
    assert elapsed < 10.0


def test_criterion_04_isomorphism_low_girth(g14, base_pair_runs):
    t0 = time.perf_counter()
    g = g14.graph
    forms = {v: canonical_form(k_hop_subgraph(g, v, 1)) for v in range(80)}
    failures = []
    for v0, v1, phi in base_pair_runs:
        if phi.forward[v0] != v1:
            failures.append((v0, v1, "root image"))
        if not verify_isomorphism(g14, 1, v0, v1, phi):
            failures.append((v0, v1, "verify"))
        if forms[v0] != forms[v1]:
            failures.append((v0, v1, "canonical"))
    elapsed = time.perf_counter() - t0
    ok = len(base_pair_runs) == 1024 and not failures and elapsed < 30.0
    _report(4, "radius-1 isomorphism, all 1024 pairs", ok, elapsed, 30.0)
    assert len(base_pair_runs) == 1024
    assert not failures, failures[:5]
    assert elapsed < 30.0


def test_criterion_05_high_girth_pipeline(lifted14, lifted_pair_runs):
    t0 = time.perf_counter()
    ct, phi = lifted14
    checks = {
        "validates": validate_ct_graph(ct).ok,
        "girth>=3": girth_at_least(ct.graph, 3),
        "size multiple of 100": ct.graph.n % 100 == 0 and ct.graph.n > 0,
        "covering map": verify_covering_map(phi),
    }
    failures = []
    for v0, v1, run in lifted_pair_runs:
        if run.forward[v0] != v1 or not verify_isomorphism(ct, 1, v0, v1, run):
            failures.append((v0, v1))
    checks["100 sampled pairs verify"] = (
        len(lifted_pair_runs) == 100 and not failures
    )
    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed < 600.0
    _report(5, "high-girth pipeline (structure + pairs)", ok, elapsed, 600.0)
    assert all(checks.values()), checks
    assert elapsed < 600.0


def test_criterion_05_special_case_trigger(radius2_pair_runs):
    t0 = time.perf_counter()
    failures = []
    for lift, r0, r1, run in radius2_pair_runs:
        if not all(k_hop_subgraph(lift, x, 2).is_tree() for x in (r0, r1)):
            failures.append((r0, r1, "not two trees"))
        if run.forward[r0] != r1 or not verify_isomorphism(
            lift, 2, r0, r1, run
        ):
            failures.append((r0, r1, "verify"))
    fired = sum(run.special_case_count() for *_, run in radius2_pair_runs)
    elapsed = time.perf_counter() - t0
    ok = len(radius2_pair_runs) == 10 and not failures and fired >= 1
    _report(5, "pairing repair fires on the radius-2 sample", ok, elapsed, 600.0)
    assert len(radius2_pair_runs) == 10
    assert not failures, failures
    assert fired >= 1, (
        "the leftover-pairing repair never fired on the radius-2 views of "
        "the voltage lift: depth-1 pairs with different histories must "
        "leave one bucket longer on each side"
    )


def test_criterion_06_invariant_audit(
    base_pair_runs, lifted_pair_runs, radius2_pair_runs
):
    t0 = time.perf_counter()
    # (k, root 0, root 1, run); the depth classification only applies
    # to radius-2 runs, at depth 1
    runs = [
        (1, v0, v1, phi) for v0, v1, phi in base_pair_runs + lifted_pair_runs
    ]
    runs += [(2, r0, r1, phi) for _lift, r0, r1, phi in radius2_pair_runs]
    bad_classification = []
    bad_accounting = []
    classified = 0
    for k, v0, v1, phi in runs:
        for r in phi.audit:
            if 0 < r.depth < k:
                classified += 1
                if r.case not in (1, 2):
                    bad_classification.append((v0, v1, r))
            if r.bucket_lens_v is None or r.history_v is None:
                continue
            lv, lw = r.bucket_lens_v, r.bucket_lens_w
            if r.position_v == r.position_w and r.history_v == r.history_w:
                if lv != lw:
                    bad_accounting.append((v0, v1, r))
            elif (
                r.position_v == INTERNAL
                and r.position_w == INTERNAL
                and r.history_v != r.history_w
            ):
                x, y = r.history_v, r.history_w
                if not (
                    lv[x] == lw[x] - 1
                    and lv[y] - 1 == lw[y]
                    and all(
                        lv[i] == lw[i]
                        for i in range(len(lv))
                        if i not in (x, y)
                    )
                ):
                    bad_accounting.append((v0, v1, r))
            else:
                bad_accounting.append((v0, v1, r))
    elapsed = time.perf_counter() - t0
    ok = classified > 0 and not bad_classification and not bad_accounting
    _report(6, "invariant audit + bucket accounting", ok, elapsed, 600.0)
    assert classified > 0
    assert not bad_classification, bad_classification[:3]
    assert not bad_accounting, bad_accounting[:3]


def test_criterion_07_lift_machinery():
    t0 = time.perf_counter()
    ms = matching_decomposition(K33)
    decomposition_ok = (
        len(ms) == 3
        and all(len(m) == 3 and len({x for e in m for x in e}) == 6 for m in ms)
        and sorted(e for m in ms for e in m) == K33.edges()
    )
    cover, cm = canonical_double_cover(K3)
    hexagon_ok = (
        cover.n == 6
        and {cover.degree(v) for v in range(6)} == {2}
        and len(cover.connected_components()) == 1
        and girth(cover) == 6
        and verify_covering_map(cm)
    )
    lifted, cm1, cm2 = common_lift(K4, K33)
    lift_ok = (
        lifted.n <= 96
        and {lifted.degree(v) for v in range(lifted.n)} == {3}
        and verify_covering_map(cm1)
        and verify_covering_map(cm2)
        and girth_at_least(lifted, 4)
    )
    elapsed = time.perf_counter() - t0
    ok = decomposition_ok and hexagon_ok and lift_ok and elapsed < 1.0
    _report(7, "lift machinery", ok, elapsed, 1.0)
    assert decomposition_ok and hexagon_ok and lift_ok
    assert elapsed < 1.0


def test_criterion_08_high_girth_generator():
    t0 = time.perf_counter()
    g = high_girth_regular(3, 5, 30)
    gen_ok = (
        g.n == 60
        and {g.degree(v) for v in range(60)} == {3}
        and girth_at_least(g, 5)
    )
    cycle = high_girth_regular(2, 5, 8)
    cycle_ok = (
        cycle.n == 16
        and {cycle.degree(v) for v in range(16)} == {2}
        and len(cycle.connected_components()) == 1
        and girth(cycle) == 16
    )
    elapsed = time.perf_counter() - t0
    ok = gen_ok and cycle_ok and elapsed < 60.0
    _report(8, "high-girth regular generator", ok, elapsed, 60.0)
    assert gen_ok and cycle_ok
    assert elapsed < 60.0


def test_criterion_09_lower_bound_demonstration(g16):
    t0 = time.perf_counter()
    g = g16.graph
    mvc, witness = exact_mvc_bipartite(g)
    mvc_ok = mvc <= 528 and validate_solution(g, VC, witness)
    problems = []
    for alg in ("always-select", "skip-local-max"):
        rep = measure_expectation(g, 1, alg, VC, trials=1000, seed=11, jobs=2)
        threshold = 2048 - 3 * rep.std
        if not rep.all_valid:
            problems.append((alg, "invalid trials"))
        if rep.mean < threshold:
            problems.append((alg, "mean", rep.mean, threshold))
        if rep.mean / mvc < 3.8:
            problems.append((alg, "ratio", rep.mean / mvc))
        if alg == "always-select" and (rep.mean, rep.std) != (4624.0, 0.0):
            problems.append((alg, "not exactly n", rep.mean, rep.std))
    elapsed = time.perf_counter() - t0
    ok = mvc_ok and not problems and elapsed < 300.0
    _report(9, "cover lower-bound demonstration", ok, elapsed, 300.0)
    assert mvc_ok
    assert not problems, problems
    assert elapsed < 300.0


def test_criterion_10_reductions(small_corpus, g14):
    t0 = time.perf_counter()
    problems = []
    seeds_used = 0
    for i, g in enumerate(small_corpus):
        if g.edge_count() == 0:
            continue
        mvc = exact_small(g, VC)
        # (a) endpoints of a maximal matching cover at most twice optimum
        mm = greedy_maximal_matching(g)
        endpoints = sorted({x for e in mm for x in e})
        if not validate_solution(g, VC, endpoints):
            problems.append((i, "endpoints not a cover"))
        if len(endpoints) > 2 * mvc:
            problems.append((i, "endpoints exceed 2x optimum"))
        # (b) matching <-> independent set through the line graph
        lg, edge_map = line_graph(g)
        index = {e: j for j, e in enumerate(edge_map)}
        if not validate_solution(lg, MIS, [index[e] for e in mm]):
            problems.append((i, "matching does not map to an MIS"))
        taken, blocked = [], set()
        for v in range(lg.n):
            if v not in blocked:
                taken.append(v)
                blocked.add(v)
                blocked.update(lg.adj[v])
        if not validate_solution(g, MM, [edge_map[j] for j in taken]):
            problems.append((i, "line-graph MIS does not map to an MM"))
        # (c) amplified cover stays within 14x optimum
        cover = mm_to_mvc(g, alg_tape_greedy_mm, rounds=g.n, seed=i)
        seeds_used += 1
        if not validate_solution(g, VC, cover):
            problems.append((i, "amplified cover invalid"))
        if len(cover) > 14 * mvc:
            problems.append((i, "amplified cover exceeds 14x"))
    # (d) the doubled graph has a perfect matching
    doubled = build_matching_double(g14)
    if exact_small(doubled.graph, MAXM) != 100:
        problems.append(("doubled", "maximum matching is not 100"))
    elapsed = time.perf_counter() - t0
    ok = seeds_used >= 50 and not problems and elapsed < 300.0
    _report(10, "appendix reductions", ok, elapsed, 300.0)
    assert seeds_used >= 50
    assert not problems, problems
    assert elapsed < 300.0


def test_criterion_11_negative_controls(g26):
    t0 = time.perf_counter()
    v1 = next(v for v in range(g26.graph.n) if g26.cluster_of[v] == 1)
    girth_guard = False
    try:
        find_isomorphism(g26, 2, 0, v1)
    except GirthTooLowError:
        girth_guard = True
    cap_guard = False
    estimate_ok = False
    try:
        build_high_girth_ct(2, 6)
    except SizeCapExceededError as exc:
        cap_guard = True
        estimate_ok = exc.estimate >= exc.cap
    elapsed = time.perf_counter() - t0
    ok = girth_guard and cap_guard and estimate_ok and elapsed < 10.0
    _report(11, "negative controls", ok, elapsed, 10.0)
    assert girth_guard and cap_guard and estimate_ok
    assert elapsed < 10.0
