from __future__ import annotations

import hashlib
import json
import random
from operator import countOf

import pytest

from clustertree.cli import dispatch
from clustertree.graph import Graph
from clustertree.lifts import build_high_girth_ct
from clustertree.skeleton import (
    CTGraph,
    INTERNAL,
    LEAF,
    build_skeleton,
    cluster_count,
    estimate_pipeline_size,
    predicted_sizes,
    read_skeleton_json,
    root_edge_count,
    skeleton_from_json_dict,
    skeleton_to_dot,
    skeleton_to_json_dict,
    validate_ct_graph,
    write_skeleton_json,
)


def simulate_growth_levels(k: int) -> list[int]:
    """Independent re-simulation of the growth rules, counting only.

    Tracks clusters as (level, exponent-to-parent) and a leaf flag; no
    ids, no edges. Serves as the oracle for the closed-form counts.
    """
    # base: root, two level-1 clusters, one level-2 cluster
    internal_levels = [0, 1]  # root and the level-1 internal cluster
    leaves = [(1, 2), (2, 1)]  # (level, exponent toward parent)
    for r in range(2, k + 1):
        new_leaves = []
        for level in internal_levels:
            new_leaves.append((level + 1, r + 1))
        for level, q in leaves:
            for p in range(r + 1):
                if p != q:
                    new_leaves.append((level + 1, p + 1))
        internal_levels.extend(level for level, _ in leaves)
        leaves = new_leaves
    counts = [0] * (k + 3)
    for level in internal_levels:
        counts[level] += 1
    for level, _ in leaves:
        counts[level] += 1
    return counts


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_closed_form_matches_growth_simulation(k):
    oracle = simulate_growth_levels(k)
    for l in range(k + 3):
        assert cluster_count(k, l) == oracle[l]


@pytest.mark.parametrize("k,beta", [(1, 4), (2, 6), (3, 8), (4, 10), (5, 12), (6, 14)])
def test_builder_matches_closed_form(k, beta):
    skel = build_skeleton(k, beta)
    counts = skel.level_counts()
    for l, c in enumerate(counts):
        assert c == cluster_count(k, l)
    assert len(skel.clusters) == sum(counts)


def test_base_skeleton_structure():
    skel = build_skeleton(1, 4)
    assert [c.level for c in skel.clusters] == [0, 1, 1, 2]
    assert [(e.a, e.b, e.exp_a, e.exp_b) for e in skel.edges] == [
        (0, 1, 0, 1),
        (0, 2, 1, 2),
        (1, 3, 0, 1),
    ]
    assert skel.clusters[0].position == INTERNAL
    assert skel.clusters[1].position == INTERNAL
    assert skel.clusters[2].position == LEAF
    assert skel.clusters[3].position == LEAF


def test_cluster_count_point_values():
    assert [cluster_count(1, l) for l in (0, 1, 2)] == [1, 2, 1]
    assert cluster_count(1, 3) == 0
    for k in range(1, 7):
        assert cluster_count(k, k + 2) == 0
    assert cluster_count(2, 2) == 4  # matches the growth simulation
    assert simulate_growth_levels(2)[2] == 4


def test_skeleton_by_level_examples():
    assert build_skeleton(2, 6).level_counts() == [1, 3, 4, 2]
    skel3 = build_skeleton(3, 8)
    assert len(skel3.clusters) == 32
    assert skel3.level_counts() == [1, 4, 9, 12, 6]


def test_internal_clusters_have_full_exponent_range():
    for k, beta in ((2, 6), (3, 8), (4, 10)):
        skel = build_skeleton(k, beta)
        for c in skel.clusters:
            exps = sorted(skel.out_exponent[c.id].values())
            if c.position == INTERNAL:
                assert exps == list(range(k + 1))
            else:
                assert len(exps) == 1


def test_internal_clusters_are_previous_generation():
    # the growth rules only attach leaves, so the internal clusters of
    # the k-skeleton are exactly the clusters of the (k-1)-skeleton
    for k, beta in ((2, 6), (3, 8), (4, 10)):
        cur = build_skeleton(k, beta)
        prev = build_skeleton(k - 1, beta)
        internal_ids = {c.id for c in cur.clusters if c.position == INTERNAL}
        assert internal_ids == {c.id for c in prev.clusters}
        for c in prev.clusters:
            assert cur.clusters[c.id].level == c.level
            assert cur.clusters[c.id].parent == c.parent


def test_beta_too_small_rejected():
    with pytest.raises(ValueError):
        build_skeleton(1, 3)
    with pytest.raises(ValueError):
        build_skeleton(2, 5)
    with pytest.raises(ValueError):
        predicted_sizes(3, 7)


def test_predicted_sizes_examples():
    p = predicted_sizes(1, 4)
    # 64 + 2*16 + 4 across the four clusters
    assert (p.n0, p.n, p.max_degree) == (64, 100, 16)
    assert p.level_sizes == (64, 16, 4)
    p = predicted_sizes(1, 16)
    # 4096 + 2*256 + 16
    assert (p.n0, p.n, p.max_degree) == (4096, 4624, 256)


@pytest.mark.parametrize(
    "k,beta", [(1, 4), (1, 16), (2, 6), (3, 8), (4, 100), (6, 14)]
)
def test_predicted_sizes_order_bounds(k, beta):
    p = predicted_sizes(k, beta)
    assert p.total_bound_ok
    assert p.excess_bound_ok
    # same inequalities, spelled out in exact integer arithmetic
    assert p.n * (beta - (k + 1)) < p.n0 * beta
    assert (p.n - p.n0) * beta < p.n0 * 2 * (k + 1)


def test_predicted_sizes_big_integers_exact():
    p = predicted_sizes(6, 40)
    assert p.n0 == 40**13
    assert p.level_sizes[7] == 40**6
    assert p.n == sum(
        cluster_count(6, l) * 40 ** (13 - l) for l in range(8)
    )


@pytest.mark.parametrize(
    "k, beta, estimate, nodes", [(1, 4, 41_984, 25_600), (1, 5, 112_000, 72_000)]
)
def test_pipeline_estimate_bounds_the_nodes_the_pipeline_builds(
    request, k, beta, estimate, nodes
):
    if (k, beta) == (1, 4):  # the session's shared output
        ct, _ = request.getfixturevalue("lifted14")
    else:
        ct, _ = build_high_girth_ct(k, beta)
    assert (estimate_pipeline_size(k, beta), ct.n) == (estimate, nodes)
    assert estimate >= nodes


@pytest.mark.parametrize(
    "fixture, k, beta, bound",
    [("g14", 1, 4, 320), ("g16", 1, 16, 69_632), ("g26", 2, 6, 334_368)],
)
def test_root_edge_count_bounds_the_built_edge_count(request, fixture, k, beta, bound):
    # n_0 (1 + beta + ... + beta^k): the edges at the root cluster alone
    assert root_edge_count(k, beta) == bound
    assert bound <= request.getfixturevalue(fixture).graph.edge_count()


def test_skeleton_json_round_trip():
    for k, beta in ((1, 4), (2, 6), (3, 8)):
        skel = build_skeleton(k, beta)
        doc = skeleton_to_json_dict(skel)
        back = skeleton_from_json_dict(doc)
        assert back.k == skel.k and back.beta == skel.beta
        assert back.clusters == skel.clusters
        assert back.edges == skel.edges
        assert back.out_exponent == skel.out_exponent


def single_field_edits(doc):
    """Every document that differs from ``doc`` in one field: each
    scalar, top-level or inside a cluster or edge object, replaced by a
    value of another type or another value of its own type."""
    objects = [doc, *doc["clusters"], *doc["edges"]]
    for i, obj in enumerate(objects):
        for key, value in obj.items():
            if isinstance(value, list):
                continue
            if isinstance(value, str):
                others = [LEAF if value == INTERNAL else INTERNAL, "", 0]
            else:
                others = [value + 1, -1, str(value), None, value == 1, float(value)]
            for other in others:
                edited = json.loads(json.dumps(doc))
                [edited, *edited["clusters"], *edited["edges"]][i][key] = other
                yield edited


def test_skeleton_file_round_trip_and_single_field_edits(tmp_path, capsys):
    path, bad = tmp_path / "skel.json", tmp_path / "bad.json"
    for k, beta in ((1, 4), (1, 5), (2, 6)):
        skel = build_skeleton(k, beta)
        write_skeleton_json(str(path), skel)
        assert read_skeleton_json(str(path)) == skel
        for edited in single_field_edits(skeleton_to_json_dict(skel)):
            bad.write_text(json.dumps(edited))
            try:
                back = read_skeleton_json(str(bad))
            except ValueError as exc:
                assert "\n" not in str(exc)
                continue
            # accepted only as the document of another skeleton: beta + 1
            assert (edited["k"], edited["beta"]) == (k, beta + 1)
            assert json.dumps(skeleton_to_json_dict(back)) == json.dumps(edited)
    # the CLI reports a rejection on one line of stderr
    bad.write_text(json.dumps(next(single_field_edits(skeleton_to_json_dict(skel)))))
    capsys.readouterr()
    argv = ["export-dot", "--skeleton", str(bad), "--out", str(tmp_path / "d")]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


def _edited_skeleton_doc(edit):
    doc = skeleton_to_json_dict(build_skeleton(1, 4))
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        [1, 4],
        {"k": 1},
        _edited_skeleton_doc(lambda d: d.update(k="1")),
        _edited_skeleton_doc(lambda d: d.pop("edges")),
        _edited_skeleton_doc(lambda d: d["clusters"][2].pop("level")),
        _edited_skeleton_doc(lambda d: d["edges"].append(7)),
        _edited_skeleton_doc(lambda d: d["clusters"][3].update(id=9)),
        _edited_skeleton_doc(lambda d: d["edges"][2].update(b=9)),
        _edited_skeleton_doc(lambda d: d["edges"][2].update(b=2)),
        _edited_skeleton_doc(lambda d: d["edges"].pop()),
        _edited_skeleton_doc(lambda d: d.update(k=11, beta=24)),
        _edited_skeleton_doc(lambda d: d["clusters"][2].update(position="internal")),
    ],
    ids=[
        "array",
        "missing-beta",
        "k-a-string",
        "missing-edges",
        "cluster-missing-level",
        "edge-not-an-object",
        "ids-not-dense",
        "edge-to-unknown-cluster",
        "edge-within-one-level",
        "cluster-without-parent",
        "k-beyond-cluster-list",
        "position-edited",
    ],
)
def test_skeleton_json_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        skeleton_from_json_dict(doc)


def test_skeleton_dot_has_port_style_labels():
    text = skeleton_to_dot(build_skeleton(1, 4))
    assert 'taillabel="0"' in text and 'headlabel="1"' in text


def test_validate_accepts_built_graph(g14):
    assert validate_ct_graph(g14).ok


def test_validate_flags_malformed_assignments(g14):
    g, skel = g14.graph, g14.skeleton
    short = CTGraph(graph=g, skeleton=skel, cluster_of=g14.cluster_of[:99])
    assert str(validate_ct_graph(short)) == (
        "[assignment] cluster_of has 99 entries for 100 nodes"
    )
    unknown = CTGraph(graph=g, skeleton=skel, cluster_of=(9, *g14.cluster_of[1:]))
    assert str(validate_ct_graph(unknown)) == "[assignment] unknown cluster ids [9]"


def test_clean_report_reads_valid(g14):
    assert str(validate_ct_graph(g14)) == "valid CT graph"


def test_validate_flags_missing_edge(g14):
    g = g14.graph
    # drop one cluster-0 / cluster-1 edge
    u = 0
    v = next(w for w in g.adj[0] if g14.cluster_of[w] == 1)
    edges = [e for e in g.edges() if e != (u, v)]
    broken = CTGraph(
        graph=Graph.from_edges(g.n, edges),
        skeleton=g14.skeleton,
        cluster_of=g14.cluster_of,
    )
    report = validate_ct_graph(broken)
    assert not report.ok
    text = str(report)
    assert "biregularity" in text
    # both endpoints are flagged
    assert f"({u}, " in text and f"({v}, " in text


def test_validate_flags_intra_cluster_edge(g14):
    g = g14.graph
    edges = g.edges() + [(0, 1)]  # both nodes lie in cluster 0
    broken = CTGraph(
        graph=Graph.from_edges(g.n, edges),
        skeleton=g14.skeleton,
        cluster_of=g14.cluster_of,
    )
    report = validate_ct_graph(broken)
    assert not report.ok
    assert any(v.constraint == "independence" for v in report.violations)


def test_validate_flags_stray_and_size_violations(g14):
    g = g14.graph
    # an edge between cluster 1 and cluster 2 has no skeleton counterpart
    c1 = next(v for v in range(g.n) if g14.cluster_of[v] == 1)
    c2 = next(v for v in range(g.n) if g14.cluster_of[v] == 2)
    broken = CTGraph(
        graph=Graph.from_edges(g.n, g.edges() + [(c1, c2)]),
        skeleton=g14.skeleton,
        cluster_of=g14.cluster_of,
    )
    report = validate_ct_graph(broken)
    assert any(v.constraint == "stray-edges" for v in report.violations)

    relabeled = list(g14.cluster_of)
    relabeled[0] = 1  # cluster sizes no longer divide by beta
    report = validate_ct_graph(
        CTGraph(graph=g, skeleton=g14.skeleton, cluster_of=tuple(relabeled))
    )
    assert any(v.constraint == "size-ratio" for v in report.violations)


def test_validate_reports_of_the_flag_tests_are_pinned(g14):
    # the corrupted graphs of the three tests above; the texts were
    # recorded before validate_ct_graph read its degree table off the
    # skeleton's cached out_exponent
    g, skel, cluster_of = g14.graph, g14.skeleton, g14.cluster_of
    v = next(w for w in g.adj[0] if cluster_of[w] == 1)
    c1 = next(x for x in range(g.n) if cluster_of[x] == 1)
    c2 = next(x for x in range(g.n) if cluster_of[x] == 2)
    relabeled = (1, *cluster_of[1:])
    cases = [
        (Graph.from_edges(g.n, [e for e in g.edges() if e != (0, v)]), cluster_of),
        (Graph.from_edges(g.n, g.edges() + [(0, 1)]), cluster_of),
        (Graph.from_edges(g.n, g.edges() + [(c1, c2)]), cluster_of),
        (g, relabeled),
    ]
    texts = [
        str(validate_ct_graph(CTGraph(graph=h, skeleton=skel, cluster_of=cl)))
        for h, cl in cases
    ]
    assert texts == [
        "[biregularity] C0->C1 expects 1 neighbors per node; offenders "
        "(node, count): [(0, 0)]\n"
        "[biregularity] C1->C0 expects 4 neighbors per node; offenders "
        "(node, count): [(64, 3)]",
        "[independence] edges inside a cluster: [(0, 1)]",
        "[stray-edges] edges between non-adjacent clusters: [(64, 80)]",
        "[size-ratio] |C0|=63 and |C1|=17 violate |A| = beta*|B|\n"
        "[size-ratio] |C0|=63 and |C2|=16 violate |A| = beta*|B|\n"
        "[size-ratio] |C1|=17 and |C3|=4 violate |A| = beta*|B|\n"
        "[independence] edges inside a cluster: [(0, 64)]\n"
        "[stray-edges] edges between non-adjacent clusters: "
        "[(0, 80), (0, 81), (0, 82), (0, 83)]\n"
        "[biregularity] C1->C0 expects 4 neighbors per node; offenders "
        "(node, count): [(0, 0), (64, 3)]\n"
        "[biregularity] C2->C0 expects 16 neighbors per node; offenders "
        "(node, count): [(80, 15), (81, 15), (82, 15), (83, 15)]\n"
        "[biregularity] C1->C3 expects 1 neighbors per node; offenders "
        "(node, count): [(0, 0)]",
    ]


# sha256 of repr(build_skeleton(k, 2k + 2)): the skeleton JSON omits
# each cluster's round and parent, which the walk's classify reads
SKELETON_REPR_DIGESTS = {
    1: "132c8958e471613cb6251d9f56f817bd8606b5addfa4281d7dcf263465070d0b",
    2: "c3d7312250ac03b3c7aba7b2e87f8c6fdb984ca7bae6db390bb995a6a0d8ac44",
    3: "b217c34c471b35b6efd47e8f3e51dca06f368613d72a6b86e3ac8f545fdd529c",
    4: "c8b5c4a3903fa8b2008aef32f2cd202a7c8c2bec91dd33451c4aaacdaa09d6b0",
    5: "4dc1a228a8aa83b781d011d17c5b9caadc142236491d7f7a5f5798b5b8bb75d9",
    6: "7884215087c84a0757cedd32882bca135076d0c67577185749c5c463c446d8e5",
    7: "88e3e29c4b5bfc7efc84d21a221523c1b4043d6f501907d9e56510c61bf0266c",
}


@pytest.mark.parametrize("k", sorted(SKELETON_REPR_DIGESTS))
def test_skeleton_repr_is_pinned(k):
    text = repr(build_skeleton(k, 2 * k + 2))
    assert hashlib.sha256(text.encode()).hexdigest() == SKELETON_REPR_DIGESTS[k]


def reference_report(ct: CTGraph) -> str:
    """The report of a well-assigned CT graph, checked constraint by
    constraint: the edges inside a cluster and between non-adjacent
    clusters over ``g.edges()``, then each skeleton edge's side over the
    nodes of its cluster."""
    g, skel, cluster_of = ct.graph, ct.skeleton, ct.cluster_of
    groups = ct.cluster_nodes()
    exponent = skel.out_exponent
    lines = [
        f"[size-ratio] |C{e.a}|={len(groups[e.a])} and |C{e.b}|="
        f"{len(groups[e.b])} violate |A| = beta*|B|"
        for e in skel.edges
        if len(groups[e.a]) != skel.beta * len(groups[e.b])
    ]
    edges = g.edges()
    inside = [(u, v) for u, v in edges if cluster_of[u] == cluster_of[v]]
    stray = [
        (u, v)
        for u, v in edges
        if cluster_of[u] != cluster_of[v] and cluster_of[v] not in exponent[cluster_of[u]]
    ]
    if inside:
        lines.append(f"[independence] edges inside a cluster: {inside}")
    if stray:
        lines.append(f"[stray-edges] edges between non-adjacent clusters: {stray}")
    for e in skel.edges:
        for side, other in ((e.a, e.b), (e.b, e.a)):
            want = skel.beta ** exponent[side][other]
            counts = [
                (v, countOf(map(cluster_of.__getitem__, g.adj[v]), other))
                for v in groups[side]
            ]
            offenders = [(v, have) for v, have in counts if have != want]
            if offenders:
                lines.append(
                    f"[biregularity] C{side}->C{other} expects {want} neighbors "
                    f"per node; offenders (node, count): {offenders}"
                )
    return "\n".join(lines) if lines else "valid CT graph"


@pytest.fixture(scope="module")
def p14(lifted14):
    return lifted14[0]


def damaged_copies(ct: CTGraph, seed: int, count: int):
    """``count`` copies of ``ct`` with one seeded edit each: an edge
    removed, a non-edge added, or a node moved to another cluster."""
    rng = random.Random(seed)
    g, cluster_of = ct.graph, ct.cluster_of
    others = len(ct.skeleton.clusters) - 1
    for i in range(count):
        rows = list(g.adj)
        moved = cluster_of
        u = rng.randrange(g.n)
        if i % 3 == 0:
            v = rng.choice(rows[u])
            rows[u] = tuple(w for w in rows[u] if w != v)
            rows[v] = tuple(w for w in rows[v] if w != u)
        elif i % 3 == 1:
            v = rng.choice([w for w in range(g.n) if w != u and w not in rows[u]])
            rows[u] = tuple(sorted((*rows[u], v)))
            rows[v] = tuple(sorted((*rows[v], u)))
        else:
            c = (cluster_of[u] + rng.randrange(1, others + 1)) % (others + 1)
            moved = (*cluster_of[:u], c, *cluster_of[u + 1 :])
        yield CTGraph(graph=Graph(g.n, rows), skeleton=ct.skeleton, cluster_of=moved)


def test_validate_reports_single_edits_as_checked_one_by_one(p14):
    assert reference_report(p14) == str(validate_ct_graph(p14)) == "valid CT graph"
    for ct in damaged_copies(p14, seed=30, count=9):
        report = validate_ct_graph(ct)
        assert not report.ok
        assert str(report) == reference_report(ct)
