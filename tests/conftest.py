from __future__ import annotations

import os
import random
import resource
from pathlib import Path

import pytest

import clustertree
from clustertree.builder import build_low_girth
from clustertree.graph import Graph
from clustertree.lifts import build_high_girth_ct, high_girth_regular


@pytest.fixture(scope="session")
def g14():
    return build_low_girth(1, 4)


@pytest.fixture(scope="session")
def g16():
    return build_low_girth(1, 16)


@pytest.fixture(scope="session")
def g26():
    return build_low_girth(2, 6)


@pytest.fixture(scope="session")
def lifted14():
    """The (1,4) pipeline output and its covering map onto the base:
    25,600 nodes, built once and shared, so no test may change them."""
    return build_high_girth_ct(1, 4)


@pytest.fixture(scope="session")
def high_girth_graphs():
    """high_girth_regular(d, g, m) for the recorded digests and the
    networkx girth oracle; (25, 3, 50) is the (1,5) pipeline's call."""
    params = ((16, 3, 32), (25, 3, 50), (4, 5, 80), (3, 6, 64), (3, 6, 62))
    return {p: high_girth_regular(*p) for p in params}


def child_env() -> dict[str, str]:
    """This environment, with the imported package's source directory
    first on PYTHONPATH, for a child ``python -m clustertree``."""
    src = str(Path(clustertree.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def limit_memory() -> None:
    """A ``preexec_fn`` that limits the child's address space to 1 GB."""
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def make_random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


@pytest.fixture(scope="session")
def small_corpus():
    """50 sparse random graphs on at most 40 nodes, fixed seed."""
    rng = random.Random(42)
    out = []
    for _ in range(50):
        n = rng.randrange(8, 41)
        p = rng.uniform(1.2, 3.2) / n
        out.append(make_random_graph(rng, n, p))
    return out
