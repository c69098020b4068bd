"""Construct and check the view isomorphism between cluster-0 and
cluster-1 nodes.

The constructive algorithm is a coupled depth-first search over the two
k-hop views. At each paired node the undiscovered neighbors are bucketed
by the outgoing exponent of the node's cluster toward each neighbor's
cluster, buckets are zipped index by index, and the single possible
bucket-length mismatch (one bucket longer on each side, by one) is
repaired by pairing the two leftover nodes with each other. The walk is
well defined when both views are trees, which girth at least 2k+1
guarantees.

The walk reads its input through four names: ``n``, ``neighbors(v)``,
``cluster(v)`` and ``skeleton``. A ``CTGraph`` and a ``VoltageLift``
both provide them, so the walk runs on a lift without building it.

Every pairing is recorded in an audit trail: positions (leaf/internal),
history exponents (the outgoing exponent back toward the parent's
cluster), bucket lengths, whether the repair fired, and, for pairs at
depth strictly between 0 and k, which case of the two-case depth
invariant applied. The audit is what the property tests interrogate.

``canonical_form`` provides the independent oracle: a rooted-tree
canonical string (sorted recursive parenthesization), so two views are
isomorphic iff their strings are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GirthTooLowError, NotATreeError, PairingFailureError
from .graph import Graph, RootedSubgraph, k_hop_subgraph
from .skeleton import ClusterTreeSkeleton

CASE_NONE = 0
CASE_BOTH = 3


@dataclass(frozen=True)
class AuditRecord:
    """One coupled-walk pair. ``case`` is 1 or 2 for pairs at depth
    0 < d < k, None where classification does not apply (the root and
    depth-k pairs), and 0/3 if neither/both cases held (a bug or a
    non-CT input)."""

    v: int
    w: int
    depth: int
    position_v: str
    position_w: str
    history_v: int | None
    history_w: int | None
    bucket_lens_v: tuple[int, ...] | None
    bucket_lens_w: tuple[int, ...] | None
    case: int | None
    special_case: bool


@dataclass
class PartialIsomorphism:
    """A bijection between two views plus the audit trail that produced it."""

    forward: dict[int, int]
    backward: dict[int, int]
    audit: list[AuditRecord] = field(default_factory=list)

    def special_case_count(self) -> int:
        return sum(1 for r in self.audit if r.special_case)

    def case_histogram(self) -> dict[int | None, int]:
        hist: dict[int | None, int] = {}
        for r in self.audit:
            hist[r.case] = hist.get(r.case, 0) + 1
        return hist


def find_isomorphism(ct, k: int, v0: int, v1: int) -> PartialIsomorphism:
    """Run the coupled walk and return the view bijection v0 -> v1.

    ``ct`` is a ``CTGraph`` or a ``VoltageLift``. Requires v0 in
    cluster 0, v1 in cluster 1 and both k-hop views to be trees (checked;
    GirthTooLowError otherwise). A bucket mismatch that the single
    repair cannot fix raises PairingFailureError.
    """
    skel = ct.skeleton
    if k != skel.k:
        raise ValueError(f"graph is built for k={skel.k}, got k={k}")
    for v in (v0, v1):
        if not (0 <= v < ct.n):
            raise ValueError(f"node {v} out of range for n={ct.n}")
    cluster = ct.cluster
    neighbors = ct.neighbors
    if cluster(v0) != 0:
        raise ValueError(f"node {v0} is not in cluster 0")
    if cluster(v1) != 1:
        raise ValueError(f"node {v1} is not in cluster 1")
    for v in (v0, v1):
        if not k_hop_subgraph(ct, v, k).is_tree():
            raise GirthTooLowError(f"the {k}-hop view of node {v} is not a tree")

    toward = skel.out_exponent
    clusters = skel.clusters
    width = k + 2

    def buckets(node: int, exclude: int | None) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(width)]
        exps = toward[cluster(node)]
        for u in neighbors(node):
            if u != exclude:
                exp = exps.get(cluster(u))
                if exp is None:
                    raise PairingFailureError(
                        f"edge ({node}, {u}) joins clusters that are not "
                        "adjacent in the skeleton; input is not a CT graph"
                    )
                out[exp].append(u)
        return out

    forward: dict[int, int] = {v0: v1}
    backward: dict[int, int] = {v1: v0}
    audit: list[AuditRecord] = []

    def assign(a: int, b: int) -> None:
        if a in forward or b in backward:
            raise PairingFailureError(
                f"node {a} or {b} would be paired twice; input is not a "
                "high-girth CT graph"
            )
        forward[a] = b
        backward[b] = a

    def map_buckets(nv: list[list[int]], nw: list[list[int]]) -> bool:
        for i in range(width):
            for a, b in zip(nv[i], nw[i]):
                assign(a, b)
        diffs = [len(nv[i]) - len(nw[i]) for i in range(width)]
        if all(d == 0 for d in diffs):
            return False
        over = [i for i, d in enumerate(diffs) if d == 1]
        under = [i for i, d in enumerate(diffs) if d == -1]
        if len(over) != 1 or len(under) != 1 or any(
            d not in (-1, 0, 1) for d in diffs
        ):
            raise PairingFailureError(
                f"bucket lengths {[len(b) for b in nv]} vs "
                f"{[len(b) for b in nw]} admit no single repair"
            )
        assign(nv[over[0]][-1], nw[under[0]][-1])
        return True

    def classify(hv: int, hw: int, cv_id: int, cw_id: int, d: int) -> int:
        cv, cw = clusters[cv_id], clusters[cw_id]
        case1 = (
            cv.round <= d
            and cw.round <= d
            and (hv == hw or (hv <= d + 1 and hw <= d + 1))
        )
        case2 = (
            cv.round == cw.round
            and d < cv.round <= k
            and hv == hw
            and cv.parent_exponent == cw.parent_exponent
        )
        if case1 and case2:
            return CASE_BOTH
        if case1:
            return 1
        if case2:
            return 2
        return CASE_NONE

    # stack entries: (v, w, prev_v, prev_w, remaining depth)
    stack: list[tuple[int, int, int | None, int | None, int]] = [
        (v0, v1, None, None, k)
    ]
    while stack:
        v, w, pv, pw, depth = stack.pop()
        d = k - depth
        cv_id, cw_id = cluster(v), cluster(w)
        if pv is None:
            hv = hw = None
        else:
            hv = toward[cv_id][cluster(pv)]
            hw = toward[cw_id][cluster(pw)]
        if depth == 0:
            audit.append(
                AuditRecord(
                    v=v,
                    w=w,
                    depth=d,
                    position_v=clusters[cv_id].position,
                    position_w=clusters[cw_id].position,
                    history_v=hv,
                    history_w=hw,
                    bucket_lens_v=None,
                    bucket_lens_w=None,
                    case=None,
                    special_case=False,
                )
            )
            continue
        nv = buckets(v, pv)
        nw = buckets(w, pw)
        special = map_buckets(nv, nw)
        case = classify(hv, hw, cv_id, cw_id, d) if 0 < d < k else None
        audit.append(
            AuditRecord(
                v=v,
                w=w,
                depth=d,
                position_v=clusters[cv_id].position,
                position_w=clusters[cw_id].position,
                history_v=hv,
                history_w=hw,
                bucket_lens_v=tuple(len(b) for b in nv),
                bucket_lens_w=tuple(len(b) for b in nw),
                case=case,
                special_case=special,
            )
        )
        for i in range(width - 1, -1, -1):
            for vc in reversed(nv[i]):
                stack.append((vc, forward[vc], v, w, depth - 1))

    return PartialIsomorphism(forward=forward, backward=backward, audit=audit)


def verify_isomorphism(
    ct, k: int, v0: int, v1: int, phi: PartialIsomorphism
) -> bool:
    """Definitional check that ``phi`` is a view isomorphism v0 -> v1.

    ``ct`` is a ``CTGraph`` or a ``VoltageLift``. Confirms that the
    forward map sends v0 to v1 and is a bijection from exactly the nodes
    of the k-hop view of v0 onto those of v1, and that every node's
    neighbours map onto exactly the neighbours of its image.
    """
    sub0 = k_hop_subgraph(ct, v0, k)
    sub1 = k_hop_subgraph(ct, v1, k)
    f = phi.forward
    if f.get(v0) != v1 or len(f) != len(sub0.nodes):
        return False
    local1 = {u: i for i, u in enumerate(sub1.nodes)}
    try:
        # view-1 local index of each view-0 node's image
        image = [local1[f[u]] for u in sub0.nodes]
    except KeyError:  # a view-0 node has no image, or one outside view 1
        return False
    if len(image) != len(sub1.nodes) or len(set(image)) != len(image):
        return False
    adj1 = sub1.graph.adj
    for i, nbrs in enumerate(sub0.graph.adj):
        if tuple(sorted(map(image.__getitem__, nbrs))) != adj1[image[i]]:
            return False
    return True


# ---------------------------------------------------------------------------
# Independent oracle: rooted-tree canonical form
# ---------------------------------------------------------------------------


def canonical_form_rooted(tree: Graph, root: int) -> str:
    """Canonical string of a tree rooted at ``root``.

    Sorted recursive parenthesization: two rooted trees are isomorphic
    iff their strings are equal. Raises NotATreeError for cyclic or
    disconnected input.
    """
    n = tree.n
    if tree.edge_count() != n - 1:
        raise NotATreeError(f"{n} nodes need {n - 1} edges, got {tree.edge_count()}")
    depth = tree.bfs_distances(root)
    if len(depth) != n:
        raise NotATreeError("graph is not connected")
    by_depth: dict[int, list[int]] = {}
    for u, d in depth.items():
        by_depth.setdefault(d, []).append(u)
    canon: list[str] = [""] * n
    for d in sorted(by_depth, reverse=True):
        for u in by_depth[d]:
            kids = sorted(canon[c] for c in tree.adj[u] if depth[c] == d + 1)
            canon[u] = "(" + "".join(kids) + ")"
    return canon[root]


def canonical_form(t: RootedSubgraph) -> str:
    """Canonical string of a k-hop view (must be a tree)."""
    return canonical_form_rooted(t.graph, 0)


# ---------------------------------------------------------------------------
# Skeleton-prescribed view trees
# ---------------------------------------------------------------------------


def unfold_view_tree(
    skel: ClusterTreeSkeleton, root_cluster: int, k: int
) -> tuple[Graph, tuple[int, ...]]:
    """Unfold the tree a k-hop view must have around a root cluster.

    In a CT graph of girth >= 2k+1 the k-hop view of any node is a tree
    whose shape is fully determined by the skeleton: a node of an
    internal cluster sees beta^i new nodes through outgoing exponent i,
    minus the edge it was discovered through. The returned graph is that
    tree with node 0 as the root, together with per-node cluster ids.
    It is the shape the skeleton prescribes, against which the views of
    concrete instances (pipeline outputs, voltage lifts) are checked.
    """
    beta = skel.beta
    clusters: list[int] = [root_cluster]
    edges: list[tuple[int, int]] = []
    # (node, cluster, exponent toward parent or None, depth)
    queue: list[tuple[int, int, int | None, int]] = [(0, root_cluster, None, 0)]
    head = 0
    while head < len(queue):
        node, cid, parent_exp, depth = queue[head]
        head += 1
        if depth == k:
            continue
        for exp in sorted(skel.out_label[cid]):
            child_cluster = skel.out_label[cid][exp]
            count = beta**exp
            if parent_exp is not None and exp == parent_exp:
                count -= 1
            child_exp = skel.exponent_toward(child_cluster, cid)
            for _ in range(count):
                child = len(clusters)
                clusters.append(child_cluster)
                edges.append((node, child))
                queue.append((child, child_cluster, child_exp, depth + 1))
    return Graph.from_edges(len(clusters), edges), tuple(clusters)
