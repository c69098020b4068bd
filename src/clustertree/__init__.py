"""Cluster-tree lower-bound graphs for the LOCAL model.

Build the skeletons, instantiate low-girth cluster-tree graphs, lift
them to girth at least 2k+1, verify that cluster-0 and cluster-1 nodes
have isomorphic k-hop views, and simulate k-round LOCAL algorithms to
exhibit the vertex-cover approximation gap and its reductions.
"""

from .builder import DoubledGraph, build_low_girth, build_matching_double
from .errors import (
    BoundViolatedError,
    ClusterTreeError,
    DegreeMismatchError,
    EmptyGraphError,
    GirthTooLowError,
    IterationLimitError,
    NotATreeError,
    NotBipartiteError,
    NotRegularError,
    PairingFailureError,
    SizeCapExceededError,
    TooLargeError,
)
from .graph import (
    INFINITE,
    Graph,
    GraphFile,
    RootedSubgraph,
    girth,
    girth_at_least,
    graph_to_dot,
    k_hop_subgraph,
    line_graph,
    read_graph_json,
    write_graph_json,
)
from .iso import (
    AuditRecord,
    PartialIsomorphism,
    canonical_form,
    canonical_form_rooted,
    find_isomorphism,
    unfold_view_tree,
    verify_isomorphism,
)
from .lifts import (
    DEFAULT_SIZE_CAP,
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
from .localsim import (
    ALGORITHMS,
    Labeling,
    SimulationReport,
    View,
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
from .skeleton import (
    Cluster,
    ClusterTreeSkeleton,
    CTGraph,
    SizePrediction,
    SkeletonEdge,
    ValidationReport,
    Violation,
    build_skeleton,
    cluster_count,
    predicted_sizes,
    read_skeleton_json,
    skeleton_to_dot,
    validate_ct_graph,
    write_skeleton_json,
)

__version__ = "0.1.0"
