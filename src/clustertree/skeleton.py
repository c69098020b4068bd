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
* every leaf whose exponent toward its parent is q+1 gets one new child
  via (p, p+1) for each p in {0..r} except q.

Cluster ids are assigned in creation order; each round appends new
clusters sorted by (parent id, exponent), so ids are stable across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .graph import Graph

INTERNAL = "internal"
LEAF = "leaf"


@dataclass(frozen=True)
class Cluster:
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


@dataclass(frozen=True)
class SkeletonEdge:
    """Edge {(a, beta^exp_a), (b, beta^exp_b)} with exp_b = exp_a + 1.

    ``a`` is the lower-level endpoint (the parent side).
    """

    a: int
    b: int
    exp_a: int
    exp_b: int


@dataclass(frozen=True)
class ClusterTreeSkeleton:
    k: int
    beta: int
    clusters: tuple[Cluster, ...]
    edges: tuple[SkeletonEdge, ...]

    @cached_property
    def out_label(self) -> dict[int, dict[int, int]]:
        """cluster id -> {outgoing exponent -> neighbor cluster id}"""
        table: dict[int, dict[int, int]] = {c.id: {} for c in self.clusters}
        for e in self.edges:
            table[e.a][e.exp_a] = e.b
            table[e.b][e.exp_b] = e.a
        return table

    @cached_property
    def out_exponent(self) -> dict[int, dict[int, int]]:
        """cluster id -> {neighbor cluster id -> outgoing exponent}"""
        return {
            cid: {other: exp for exp, other in by_exp.items()}
            for cid, by_exp in self.out_label.items()
        }

    def cluster(self, cid: int) -> Cluster:
        return self.clusters[cid]

    def exponent_toward(self, c_from: int, c_to: int) -> int:
        """Outgoing exponent of ``c_from`` on its edge to ``c_to``."""
        try:
            return self.out_exponent[c_from][c_to]
        except KeyError:
            raise KeyError(f"clusters {c_from} and {c_to} are not adjacent") from None

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

    # (level, round, parent, parent_exponent) per cluster; edges as tuples
    levels = [0, 1, 1, 2]
    rounds = [1, 1, 1, 1]
    parents: list[int | None] = [None, 0, 0, 1]
    parent_exps: list[int | None] = [None, 1, 2, 1]
    edges: list[tuple[int, int, int]] = [(0, 1, 0), (0, 2, 1), (1, 3, 0)]

    # leaf ids after the base round, with the exponent toward their parent
    leaf_q = {2: 2, 3: 1}

    for r in range(2, k + 1):
        new_specs: list[tuple[int, int]] = []  # (parent id, exp_a)
        n_before = len(levels)
        for cid in range(n_before):
            if cid in leaf_q:
                q = leaf_q[cid]
                for p in range(r + 1):
                    if p != q:
                        new_specs.append((cid, p))
            else:
                new_specs.append((cid, r))
        new_specs.sort()
        new_leaf_q: dict[int, int] = {}
        for parent, exp_a in new_specs:
            cid = len(levels)
            levels.append(levels[parent] + 1)
            rounds.append(r)
            parents.append(parent)
            parent_exps.append(exp_a + 1)
            edges.append((parent, cid, exp_a))
            new_leaf_q[cid] = exp_a + 1
        leaf_q = new_leaf_q

    leaf_ids = set(leaf_q)
    clusters = tuple(
        Cluster(
            id=cid,
            level=levels[cid],
            position=LEAF if cid in leaf_ids else INTERNAL,
            round=rounds[cid],
            parent=parents[cid],
            parent_exponent=parent_exps[cid],
        )
        for cid in range(len(levels))
    )
    skel_edges = tuple(
        SkeletonEdge(a=a, b=b, exp_a=x, exp_b=x + 1) for a, b, x in edges
    )
    return ClusterTreeSkeleton(k=k, beta=beta, clusters=clusters, edges=skel_edges)


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
    return math.factorial(k) // math.factorial(k - l + 1) * (k - l + 2)


@dataclass(frozen=True)
class SizePrediction:
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
    delta = beta ** (k + 1)
    total_bound_ok = n * (beta - (k + 1)) < n0 * beta
    excess_bound_ok = (n - n0) * beta < n0 * 2 * (k + 1)
    return SizePrediction(
        k=k,
        beta=beta,
        n0=n0,
        level_sizes=level_sizes,
        n=n,
        max_degree=delta,
        total_bound_ok=total_bound_ok,
        excess_bound_ok=excess_bound_ok,
    )


# ---------------------------------------------------------------------------
# Concrete CT graphs and their validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CTGraph:
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


@dataclass(frozen=True)
class Violation:
    constraint: str
    detail: str


@dataclass
class ValidationReport:
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

    groups = ct.cluster_nodes()

    # size ratio |B| = |A| / beta per skeleton edge
    for e in skel.edges:
        na, nb = len(groups[e.a]), len(groups[e.b])
        if na != nb * beta:
            out.append(
                Violation(
                    "size-ratio",
                    f"|C{e.a}|={na} and |C{e.b}|={nb} violate |A| = beta*|B|",
                )
            )

    adjacent_pairs = {frozenset((e.a, e.b)) for e in skel.edges}
    expected: dict[tuple[int, int], int] = {}
    for e in skel.edges:
        expected[(e.a, e.b)] = beta**e.exp_a
        expected[(e.b, e.a)] = beta**e.exp_b

    independence_bad: list[tuple[int, int]] = []
    stray: list[tuple[int, int]] = []
    for u, v in g.edges():
        cu, cv = ct.cluster_of[u], ct.cluster_of[v]
        if cu == cv:
            independence_bad.append((u, v))
        elif frozenset((cu, cv)) not in adjacent_pairs:
            stray.append((u, v))
    if independence_bad:
        out.append(
            Violation(
                "independence",
                f"edges inside a cluster: {independence_bad}",
            )
        )
    if stray:
        out.append(
            Violation(
                "stray-edges",
                f"edges between non-adjacent clusters: {stray}",
            )
        )

    # biregularity per skeleton edge
    for e in skel.edges:
        for side, other in ((e.a, e.b), (e.b, e.a)):
            want = expected[(side, other)]
            offenders = []
            for v in groups[side]:
                have = sum(1 for w in g.adj[v] if ct.cluster_of[w] == other)
                if have != want:
                    offenders.append((v, have))
            if offenders:
                out.append(
                    Violation(
                        "biregularity",
                        f"C{side}->C{other} expects {want} neighbors per node; "
                        f"offenders (node, count): {offenders}",
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


_SKELETON_RECORDS = {
    "clusters": {"id": int, "level": int, "position": str},
    "edges": {"a": int, "b": int, "exp_a": int, "exp_b": int},
}


def _check_skeleton_doc(doc) -> None:
    """Raise ValueError unless ``doc`` is shaped like a written skeleton:
    integer k and beta, clusters with ids 0..n-1, and edges that join
    clusters one level apart and give every cluster but 0 a parent."""
    if not (
        isinstance(doc, dict)
        and type(doc.get("k")) is int
        and type(doc.get("beta")) is int
    ):
        raise ValueError("skeleton document needs integer 'k' and 'beta'")
    for key, fields in _SKELETON_RECORDS.items():
        records = doc.get(key)
        if not isinstance(records, list) or not all(
            isinstance(r, dict)
            and all(type(r.get(f)) is t for f, t in fields.items())
            for r in records
        ):
            raise ValueError(
                f"'{key}' must be a list of objects with {', '.join(fields)}"
            )
    ids = [c["id"] for c in doc["clusters"]]
    if sorted(ids) != list(range(len(ids))):
        raise ValueError("cluster ids must be 0..n-1, each once")
    level = {c["id"]: c["level"] for c in doc["clusters"]}
    children = set()
    for e in doc["edges"]:
        la, lb = level.get(e["a"]), level.get(e["b"])
        if la is None or lb is None or abs(la - lb) != 1:
            raise ValueError(
                f"edge {e['a']}-{e['b']} must join clusters one level apart"
            )
        children.add(e["a"] if la > lb else e["b"])
    if children != set(range(1, len(ids))):
        raise ValueError("every cluster but 0 needs an edge to its parent")


def skeleton_from_json_dict(doc: dict) -> ClusterTreeSkeleton:
    """Rebuild a skeleton, re-deriving parent and creation-round tags.

    The base clusters (ids 0..3) are round 1; any other cluster was added
    in round max(parent round + 1, parent-side exponent), which separates
    the two growth rules without storing the rounds on disk. A document
    of any other shape raises ValueError.
    """
    _check_skeleton_doc(doc)
    k, beta = doc["k"], doc["beta"]
    levels = {c["id"]: c["level"] for c in doc["clusters"]}
    positions = {c["id"]: c["position"] for c in doc["clusters"]}
    n = len(levels)
    parent: dict[int, int | None] = {0: None}
    parent_exp: dict[int, int | None] = {0: None}
    child_edges: dict[int, list[dict]] = {i: [] for i in range(n)}
    for e in doc["edges"]:
        lo, hi = (e["a"], e["b"]) if levels[e["a"]] < levels[e["b"]] else (e["b"], e["a"])
        parent[hi] = lo
        parent_exp[hi] = e["exp_b"] if hi == e["b"] else e["exp_a"]
        child_edges[lo].append(e)

    rounds: dict[int, int] = {}
    for cid in sorted(levels, key=lambda c: (levels[c], c)):
        if cid <= 3:
            rounds[cid] = 1
        else:
            p = parent[cid]
            exp_a = parent_exp[cid] - 1
            rounds[cid] = max(rounds[p] + 1, exp_a)

    clusters = tuple(
        Cluster(
            id=cid,
            level=levels[cid],
            position=positions[cid],
            round=rounds[cid],
            parent=parent[cid],
            parent_exponent=parent_exp[cid],
        )
        for cid in range(n)
    )
    edges = tuple(
        SkeletonEdge(a=e["a"], b=e["b"], exp_a=e["exp_a"], exp_b=e["exp_b"])
        for e in doc["edges"]
    )
    return ClusterTreeSkeleton(k=k, beta=beta, clusters=clusters, edges=edges)


def write_skeleton_json(path: str, skel: ClusterTreeSkeleton) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(skeleton_to_json_dict(skel), fh)
        fh.write("\n")


def read_skeleton_json(path: str) -> ClusterTreeSkeleton:
    with open(path, encoding="utf-8") as fh:
        return skeleton_from_json_dict(json.load(fh))


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
