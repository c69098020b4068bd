"""Cluster-tree skeletons: the labeled trees that prescribe CT graphs.

A skeleton is a tree of clusters rooted at cluster 0. Each edge carries a
pair of outgoing exponents (a, a+1): in a concrete CT graph every node of
the lower cluster has beta^a neighbors in the upper cluster and every node
of the upper cluster has beta^(a+1) neighbors in the lower one. Exponents,
not values beta^i, are stored so label arithmetic stays exact at any beta.

The skeleton for parameter k starts from the fixed 4-cluster base and is
grown k-1 times:

* every internal cluster gets one new child via exponents (r, r+1) in
  round r;
* every leaf whose exponent toward its parent is q gets one new child
  via (p, p+1) for each p in {0..r} except q, so its outgoing exponents
  become 0..r, like every internal cluster's.

Cluster ids are assigned in creation order; each round appends new
clusters sorted by (parent id, exponent), so ids are stable across runs.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import NamedTuple

from .errors import SIZE_LIMIT
from .graph import Graph, load_json

INTERNAL = "internal"
LEAF = "leaf"


class Cluster(NamedTuple):
    """One cluster of a skeleton.

    ``round`` is the growth iteration that created the cluster (the base
    clusters are round 1); ``parent_exponent`` is this cluster's outgoing
    exponent on the edge toward its parent (None for the root).
    """

    id: int
    level: int
    position: str
    round: int
    parent: int | None
    parent_exponent: int | None


class SkeletonEdge(NamedTuple):
    """Edge {(a, beta^exp_a), (b, beta^exp_b)} with exp_b = exp_a + 1.

    ``a`` is the lower-level endpoint (the parent side).
    """

    a: int
    b: int
    exp_a: int
    exp_b: int


class _SkeletonFields(NamedTuple):
    k: int
    beta: int
    clusters: tuple[Cluster, ...]
    edges: tuple[SkeletonEdge, ...]


class ClusterTreeSkeleton(_SkeletonFields):
    # no __slots__: the instance dict holds the cached table

    @cached_property
    def out_exponent(self) -> dict[int, dict[int, int]]:
        """cluster id -> {neighbor cluster id -> outgoing exponent}"""
        table: dict[int, dict[int, int]] = {c.id: {} for c in self.clusters}
        for e in self.edges:
            table[e.a][e.b] = e.exp_a
            table[e.b][e.a] = e.exp_b
        return table

    def level_counts(self) -> list[int]:
        counts = [0] * (self.k + 2)
        for c in self.clusters:
            counts[c.level] += 1
        return counts


def _require_beta(k: int, beta: int) -> None:
    if k < 1:
        raise ValueError("k must be a positive integer")
    if beta < 2 * (k + 1):
        raise ValueError(f"beta must be at least 2(k+1) = {2 * (k + 1)}")


def build_skeleton(k: int, beta: int) -> ClusterTreeSkeleton:
    """Grow the skeleton for parameter ``k`` (requires beta >= 2(k+1))."""
    _require_beta(k, beta)

    # (parent, exponent toward the parent, level, round) per cluster id
    grown: list[tuple[int | None, int | None, int, int]] = [
        (None, None, 0, 1), (0, 1, 1, 1), (0, 2, 1, 1), (1, 1, 2, 1)
    ]
    leaves = range(2, 4)  # the ids made in the last round
    for r in range(2, k + 1):
        made = len(grown)
        for cid, (_, q, level, _) in enumerate(grown[:made]):
            # exponents toward the new children, ascending
            exps = [p for p in range(r + 1) if p != q] if cid in leaves else [r]
            grown.extend((cid, p + 1, level + 1, r) for p in exps)
        leaves = range(made, len(grown))

    clusters = tuple(
        Cluster(cid, level, LEAF if cid in leaves else INTERNAL, rnd, parent, q)
        for cid, (parent, q, level, rnd) in enumerate(grown)
    )
    edges = tuple(
        SkeletonEdge(c.parent, c.id, c.parent_exponent - 1, c.parent_exponent)
        for c in clusters[1:]
    )
    return ClusterTreeSkeleton(k=k, beta=beta, clusters=clusters, edges=edges)


def cluster_count(k: int, l: int) -> int:
    """Number of clusters on level ``l`` of the skeleton for parameter ``k``.

    Closed form: 1 for the root level, k!/(k-l+1)! * (k-l+2) for
    1 <= l <= k+1, and 0 above level k+1.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if l < 0:
        raise ValueError("level must be nonnegative")
    if l == 0:
        return 1
    if l > k + 1:
        return 0
    return math.perm(k, l - 1) * (k - l + 2)


def require_cluster_room(k: int, room: int) -> None:
    """Raise ValueError if the k-skeleton has more than ``room`` clusters.

    Readers call this before growing a skeleton, with the number of
    clusters their input can hold. Every level of the total is at least 1
    and level 1 alone has k + 1 clusters, so the running sum stops after
    a few levels however large k is.
    """
    total = 0
    for l in range(k + 2):
        total += cluster_count(k, l)
        if total > room:
            raise ValueError(
                f"the skeleton for k={k} has more than {room} clusters"
            )


class SizePrediction(NamedTuple):
    """Closed-form node counts and degree for the smallest CT graph."""

    k: int
    beta: int
    n0: int
    level_sizes: tuple[int, ...]  # per-cluster size at each level 0..k+1
    n: int
    max_degree: int
    # n < n0 * beta / (beta - (k+1))
    total_bound_ok: bool
    # n - n0 < n0 * 2(k+1) / beta
    excess_bound_ok: bool


def predicted_sizes(k: int, beta: int) -> SizePrediction:
    """Predict node counts for the minimum instantiation.

    Cluster size falls by a factor of beta per level: a level-l cluster
    has beta^(2k-l+1) nodes, so n0 = beta^(2k+1) and the total is the
    cluster-count-weighted sum. Exact integer arithmetic throughout.
    """
    _require_beta(k, beta)
    n0 = beta ** (2 * k + 1)
    level_sizes = tuple(beta ** (2 * k - l + 1) for l in range(k + 2))
    n = sum(cluster_count(k, l) * level_sizes[l] for l in range(k + 2))
    return SizePrediction(
        k=k,
        beta=beta,
        n0=n0,
        level_sizes=level_sizes,
        n=n,
        max_degree=beta ** (k + 1),
        total_bound_ok=n * (beta - (k + 1)) < n0 * beta,
        excess_bound_ok=(n - n0) * beta < n0 * 2 * (k + 1),
    )


def _power_passes(base: int, exp: int, bound: int) -> bool:
    """Whether bit lengths alone show base^exp > bound: base^exp >=
    2^(exp (b-1)), b being base's bit length. Every early-out asks this."""
    return exp * (base.bit_length() - 1) >= bound.bit_length()


def n0_digits(k: int, beta: int) -> float:
    """About how many decimal digits n_0 = beta^(2k+1) has."""
    _require_beta(k, beta)
    return (2 * k + 1) * math.log10(beta)


def root_edge_count(k: int, beta: int) -> int | float:
    """Edges at the root cluster, a lower bound on the CT graph's edges:
    the root is an independent set of n_0 nodes with 1 + beta + ... +
    beta^k edges each. math.inf when n_0 alone passes SIZE_LIMIT."""
    _require_beta(k, beta)
    if _power_passes(beta, 2 * k + 1, SIZE_LIMIT):
        return math.inf
    return beta ** (2 * k + 1) * ((beta ** (k + 1) - 1) // (beta - 1))


def _high_girth_min_m(delta: int, girth_target: int) -> int | float:
    """Smallest m (half the order) that ``lifts.high_girth_regular``
    accepts: 2 (1 + d + ... + d^(g-2)) for d = delta - 1, g = girth_target,
    or math.inf from SIZE_LIMIT on, which the last term settles alone."""
    d, g = delta - 1, girth_target
    if _power_passes(d, g - 2, SIZE_LIMIT):
        return math.inf
    total = 2 * ((d ** (g - 1) - 1) // (d - 1) if d > 1 else g - 1)
    return total if total < SIZE_LIMIT else math.inf


def estimate_pipeline_size(k: int, beta: int) -> int | float:
    """Upper bound on the common-lift node count for (k, beta), or
    math.inf once n_0 or the generator's order reaches SIZE_LIMIT: twice
    the supergraph bound times twice the generator's order (double covers)."""
    _require_beta(k, beta)
    if _power_passes(beta, 2 * k + 1, SIZE_LIMIT):
        return math.inf
    pred = predicted_sizes(k, beta)
    min_m = _high_girth_min_m(pred.max_degree, 2 * k + 1)
    if min_m == math.inf:  # an int past 2^1024 times math.inf overflows
        return math.inf
    return 4 * (pred.n + 4 * pred.max_degree) * (2 * min_m)


def common_lift_order(h: Graph, h_prime: Graph) -> int:
    """Node count of ``lifts.common_lift(h, h_prime)``: the product of the
    bipartite bases' orders, each graph's own or, if it is not bipartite,
    twice that for its double cover."""
    n1, n2 = (g.n if g.two_coloring() is not None else 2 * g.n for g in (h, h_prime))
    return n1 * n2


# the most bytes a working set priced below may take; a command refuses
# an input whose estimate passes it
MEMORY_BUDGET = 2**30


def common_lift_bytes(order: int, degree: int) -> int:
    """About the peak bytes ``lifts.common_lift`` takes to build a lift of
    ``order`` nodes with ``degree`` row entries each: 100 per node (its
    row tuple, its shared int and its list slot) and 10 per entry (a
    pointer and the rows it is zipped from). On circulant lifts of
    40,000 to 1,000,000 nodes at degrees 3 to 50, the growth of
    ru_maxrss came within 10% under this."""
    return order * (100 + 10 * degree)


def high_girth_bytes(order: int) -> int:
    """About the peak bytes ``lifts.high_girth_regular`` takes to build a
    graph of ``order`` nodes. Its ball table starts on the cycle, where
    each node keeps one mask of up to ``order`` bits per radius up to
    order / 2: about order^3 / 16 bytes, and the lists that hold them.
    At orders 1,000 to 2,000 (delta 3, girth 5), the growth of ru_maxrss
    came within 6% of order^3 / 14."""
    return order**3 // 14


# bytes simulate keeps per trial for its report: ru_maxrss grew by 90 a
# trial serially, and with --jobs 2 by 200 in the parent and 360 in the
# pool workers, over 100,000 to 300,000 trials with sizes below 257,
# which CPython shares; a larger size adds a 32-byte int
TRIAL_BYTES = 640
MAX_TRIALS = MEMORY_BUDGET // TRIAL_BYTES


# ---------------------------------------------------------------------------
# Concrete CT graphs and their validation
# ---------------------------------------------------------------------------


class CTGraph(NamedTuple):
    """A concrete graph together with a node -> cluster assignment."""

    graph: Graph
    skeleton: ClusterTreeSkeleton
    cluster_of: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.graph.n

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.graph.adj[v]

    def cluster(self, v: int) -> int:
        return self.cluster_of[v]

    def cluster_nodes(self) -> dict[int, list[int]]:
        groups: dict[int, list[int]] = {c.id: [] for c in self.skeleton.clusters}
        for v, c in enumerate(self.cluster_of):
            groups[c].append(v)
        return groups


class Violation(NamedTuple):
    constraint: str
    detail: str


class ValidationReport(NamedTuple):
    violations: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid CT graph"
        return "\n".join(f"[{v.constraint}] {v.detail}" for v in self.violations)


def validate_ct_graph(ct: CTGraph) -> ValidationReport:
    """Check every CT-graph constraint; violations are data, not errors.

    Checked: cluster assignment well-formed, clusters are independent
    sets, adjacent clusters are wired beta^a/beta^b biregular, no edges
    between clusters that are not skeleton-adjacent, and cluster sizes
    shrink by a factor of beta along every skeleton edge.
    """
    g = ct.graph
    skel = ct.skeleton
    beta = skel.beta
    out: list[Violation] = []

    if len(ct.cluster_of) != g.n:
        out.append(
            Violation(
                "assignment",
                f"cluster_of has {len(ct.cluster_of)} entries for {g.n} nodes",
            )
        )
        return ValidationReport(out)
    valid_ids = {c.id for c in skel.clusters}
    bad = sorted({c for c in ct.cluster_of if c not in valid_ids})
    if bad:
        out.append(Violation("assignment", f"unknown cluster ids {bad}"))
        return ValidationReport(out)

    # one pass over the rows: cluster sizes, each node's neighbour count
    # per skeleton-adjacent cluster, and the u < v edges that no skeleton
    # edge carries
    want = {
        c: {other: beta**x for other, x in row.items()}
        for c, row in skel.out_exponent.items()
    }
    sizes = dict.fromkeys(want, 0)
    independence_bad: list[tuple[int, int]] = []
    stray: list[tuple[int, int]] = []
    # (cluster, neighbour cluster) -> [(node, count)] in node order
    offenders: dict[tuple[int, int], list[tuple[int, int]]] = {}
    cluster_of = ct.cluster_of
    for v, row in enumerate(g.adj):
        cv = cluster_of[v]
        sizes[cv] += 1
        wants = want[cv]
        have = dict.fromkeys(wants, 0)
        for w in row:
            cw = cluster_of[w]
            if cw in have:
                have[cw] += 1
            elif v < w:
                (independence_bad if cw == cv else stray).append((v, w))
        for other, count in have.items():
            if count != wants[other]:
                offenders.setdefault((cv, other), []).append((v, count))

    # size ratio |B| = |A| / beta per skeleton edge
    for e in skel.edges:
        na, nb = sizes[e.a], sizes[e.b]
        if na != nb * beta:
            out.append(
                Violation(
                    "size-ratio",
                    f"|C{e.a}|={na} and |C{e.b}|={nb} violate |A| = beta*|B|",
                )
            )

    for constraint, what, edges in (
        ("independence", "edges inside a cluster", independence_bad),
        ("stray-edges", "edges between non-adjacent clusters", stray),
    ):
        if edges:
            out.append(Violation(constraint, f"{what}: {edges}"))

    # biregularity per skeleton edge
    for e in skel.edges:
        for side, other in ((e.a, e.b), (e.b, e.a)):
            if (side, other) in offenders:
                out.append(
                    Violation(
                        "biregularity",
                        f"C{side}->C{other} expects {want[side][other]} "
                        f"neighbors per node; offenders (node, count): "
                        f"{offenders[side, other]}",
                    )
                )

    return ValidationReport(out)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def skeleton_to_json_dict(skel: ClusterTreeSkeleton) -> dict:
    return {
        "k": skel.k,
        "beta": skel.beta,
        "clusters": [
            {"id": c.id, "level": c.level, "position": c.position}
            for c in skel.clusters
        ],
        "edges": [
            {"a": e.a, "b": e.b, "exp_a": e.exp_a, "exp_b": e.exp_b}
            for e in skel.edges
        ],
    }


def skeleton_from_json_dict(doc) -> ClusterTreeSkeleton:
    """Rebuild a skeleton by growing it again from the document's k and beta.

    The document must equal what :func:`skeleton_to_json_dict` writes for
    that skeleton; its cluster list bounds the skeleton before it grows.
    Any other document raises ValueError.
    """
    if not (
        isinstance(doc, dict)
        and type(doc.get("k")) is int
        and type(doc.get("beta")) is int
    ):
        raise ValueError("skeleton document needs integer 'k' and 'beta'")
    if not isinstance(doc.get("clusters"), list):
        raise ValueError("'clusters' must be a list")
    k, beta = doc["k"], doc["beta"]
    require_cluster_room(k, len(doc["clusters"]))
    skel = build_skeleton(k, beta)
    # compared as JSON text, where 1.0 and true differ from 1
    want = json.dumps(skeleton_to_json_dict(skel), sort_keys=True)
    if json.dumps(doc, sort_keys=True) != want:
        raise ValueError(f"document is not the skeleton for k={k}, beta={beta}")
    return skel


def write_skeleton_json(path: str, skel: ClusterTreeSkeleton) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(skeleton_to_json_dict(skel), fh)
        fh.write("\n")


def read_skeleton_json(path: str) -> ClusterTreeSkeleton:
    return skeleton_from_json_dict(load_json(path))


def skeleton_to_dot(skel: ClusterTreeSkeleton) -> str:
    """Flat DOT rendering with exponents drawn port-style at each end."""
    lines = ["graph skeleton {"]
    for c in skel.clusters:
        shape = "box" if c.position == INTERNAL else "ellipse"
        lines.append(f'  {c.id} [label="C{c.id} (L{c.level})", shape={shape}];')
    for e in skel.edges:
        lines.append(
            f'  {e.a} -- {e.b} [taillabel="{e.exp_a}", headlabel="{e.exp_b}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
