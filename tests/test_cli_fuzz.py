"""Random graph documents: well-formed ones round-trip through the JSON
writer and reader, and any fed to the CLI ends in an exit code, never
in an escaped exception."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from clustertree.cli import dispatch
from clustertree.graph import Graph, load_json, read_graph_json, write_graph_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def graph_documents(draw):
    """Documents near the graph format: small CT-like graphs, each field
    sometimes missing, the wrong type or out of range."""
    n = draw(st.integers(0, 8))
    pairs = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = []
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique_by=tuple))
    # now and then a self-loop or an endpoint out of range
    edges += draw(st.lists(st.sampled_from([[0, 0], [-1, 0], [0, n]]), max_size=1))
    doc = {
        "n": n,
        "edges": edges,
        "clusters": draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
        "meta": {
            "k": draw(st.sampled_from([1, 1, 0, 2])),
            "beta": draw(st.sampled_from([4, 4, 3, 6])),
        },
    }
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=2)):
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(json_values)
    return doc


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(doc=graph_documents() | json_values)
def test_random_documents_end_in_an_exit_code(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ["verify-iso", "--k", "1", "--all-pairs-sample", "2"],
        ["simulate", "--k", "1", "--alg", "skip-local-max", "--kind", "vc",
         "--trials", "2"],
    ):
        assert dispatch(argv + ["--graph", str(path)]) in (0, 1, 2)


@st.composite
def graph_files(draw):
    """A small simple graph with optional clusters and JSON meta."""
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    clusters = draw(st.none() | st.lists(st.integers(0, 5), min_size=n, max_size=n))
    metas = st.dictionaries(st.text(max_size=3), json_values, max_size=3)
    meta = draw(st.none() | metas)
    return Graph.from_edges(n, edges), clusters, meta


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(case=graph_files())
def test_graph_json_round_trip(tmp_path_factory, case):
    g, clusters, meta = case
    path = tmp_path_factory.getbasetemp() / "round-trip.json"
    write_graph_json(str(path), g, clusters, meta)
    back = read_graph_json(str(path))
    assert (back.graph.n, back.graph.adj) == (g.n, g.adj)
    assert back.clusters == (None if clusters is None else tuple(clusters))
    assert back.meta == meta


def edge_list_document(g: Graph, clusters, meta) -> str:
    """The reference bytes: the edges as [u, v] lists, u < v, in
    ascending u and then v, in one json.dumps of the whole document."""
    doc = {
        "n": g.n,
        "edges": [[u, v] for u, nbrs in enumerate(g.adj) for v in nbrs if u < v],
    }
    if clusters is not None:
        doc["clusters"] = list(clusters)
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc) + "\n"


# write_graph_json encodes the edges of this many nodes at a time
BLOCK = 512


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(case=graph_files())
@hypothesis.example(case=(Graph(0, []), None, None))
@hypothesis.example(case=(Graph(0, []), [], {"k": 1}))
@hypothesis.example(case=(Graph.from_edges(4, [(1, 2)]), [0, 1, 1, 2], None))
@hypothesis.example(case=(Graph.from_edges(3, [(0, 2)]), None, {"stage": "x"}))
# several blocks: the first and the third without edges, one edge
# spanning blocks, and a short last block without edges
@hypothesis.example(case=(
    Graph.from_edges(
        4 * BLOCK + 7,
        [(BLOCK, BLOCK + 1), (BLOCK + 4, 2 * BLOCK + 808), (3 * BLOCK, 4 * BLOCK + 6)],
    ),
    None,
    None,
))
# edges in the last block only
@hypothesis.example(case=(
    Graph.from_edges(
        3 * BLOCK + 10, [(3 * BLOCK, 3 * BLOCK + 9), (3 * BLOCK + 2, 3 * BLOCK + 3)]
    ),
    None,
    None,
))
# node 2's neighbours all lie below it; node 1 has them on both sides
@hypothesis.example(case=(Graph.from_edges(3, [(0, 2), (1, 2)]), None, None))
@hypothesis.example(case=(
    Graph.from_edges(5, [(0, 1), (1, 2), (1, 4), (3, 4)]), None, None
))
# clusters, and meta that holds the text of an empty edge list
@hypothesis.example(case=(
    Graph.from_edges(
        2 * BLOCK + 1,
        [(0, 2 * BLOCK), (BLOCK - 1, BLOCK), (BLOCK + 100, 2 * BLOCK - 100)],
    ),
    [v % 3 for v in range(2 * BLOCK + 1)],
    {"note": '"edges": []', "edges": []},
))
def test_graph_json_bytes_match_edge_list_document(tmp_path_factory, case):
    g, clusters, meta = case
    path = tmp_path_factory.getbasetemp() / "bytes.json"
    write_graph_json(str(path), g, clusters, meta)
    assert path.read_text(encoding="utf-8") == edge_list_document(g, clusters, meta)


@pytest.fixture(scope="module")
def pipeline14(lifted14):
    """The (1,4) pipeline output: 25,600 nodes, 50 blocks, all with
    edges, and the meta the CLI writes with it."""
    ct, _ = lifted14
    return ct, {"k": 1, "beta": 4, "stage": "high-girth"}


def test_pipeline_json_bytes_match_edge_list_document(tmp_path, pipeline14):
    ct, meta = pipeline14
    path = tmp_path / "l14.json"
    write_graph_json(str(path), ct.graph, ct.cluster_of, meta)
    assert ct.graph.n > 6 * BLOCK
    text = path.read_text(encoding="utf-8")
    assert text == edge_list_document(ct.graph, ct.cluster_of, meta)


@pytest.mark.parametrize("shape", ["build16", "star600", "matching2000"])
def test_long_and_short_row_ends_match_edge_list_document(tmp_path, g16, shape):
    # the writer formats the ends of a row past its node with one template
    # per node: rows of up to 256 ends in the (1,16) build, one node with
    # 600 ends in a star, and 1,000 nodes with one end each, over 4 blocks
    if shape == "build16":
        g, clusters, meta = g16.graph, g16.cluster_of, {"k": 1, "beta": 16}
        assert max(map(len, g.adj)) == 256
    elif shape == "star600":
        g = Graph.from_edges(601, [(0, v) for v in range(1, 601)])
        clusters, meta = None, None
    else:
        edges = [(2 * i, 2 * i + 1) for i in range(1000)]
        g, clusters, meta = Graph.from_edges(2000, edges), [0, 1] * 1000, None
        assert g.n > 3 * BLOCK
    path = tmp_path / f"{shape}.json"
    write_graph_json(str(path), g, clusters, meta)
    assert path.read_text(encoding="utf-8") == edge_list_document(g, clusters, meta)


def test_pipeline_json_write_peak(tmp_path, pipeline14):
    # the writer holds one block's text at a time and builds no tuple
    # per edge: writing this 1.4 MB file peaks near 0.43 MB; a tuple per
    # edge of a block and its json.dumps text would reach 6.5 MB
    ct, meta = pipeline14
    path = tmp_path / "l14.json"
    tracemalloc.start()
    try:
        write_graph_json(str(path), ct.graph, ct.cluster_of, meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1_000_000
    assert peak < 4_000_000


def test_pipeline_json_write_peak_under_one_megabyte(tmp_path, pipeline14):
    # the writer holds one block's text at a time, with no copy of
    # clusters and no edgeless document: near 0.4 MB, where one text for
    # the 25,600 cluster entries and 4,096-node edge blocks reached 2.6 MB
    ct, meta = pipeline14
    path = tmp_path / "l14.json"
    tracemalloc.start()
    try:
        write_graph_json(str(path), ct.graph, ct.cluster_of, meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_pipeline_json_read_peak(tmp_path, pipeline14):
    # the reader frees the decoded [u, v] lists as it builds the rows and
    # turns each row into its tuple in place, so it peaks near json.load's
    # own peak (1.03 times it); holding the decoded lists, list rows and
    # tuple rows at once would reach 1.32 times it
    ct, meta = pipeline14
    path = tmp_path / "l14.json"
    write_graph_json(str(path), ct.graph, ct.cluster_of, meta)
    peaks = []
    for read in (load_json, read_graph_json):
        tracemalloc.start()
        try:
            read(str(path))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.10 * peaks[0], peaks
    gf = read_graph_json(str(path))
    assert gf.graph.adj == ct.graph.adj
    assert all(type(row) is tuple for row in gf.graph.adj)
