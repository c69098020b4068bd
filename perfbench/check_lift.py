"""Check a (1,5) pipeline output against its low-girth base graph.

Usage: python3 perfbench/check_lift.py LIFT_JSON BASE_JSON

Prints a JSON list of the problems found; an empty list means the lift
is right. ``perfbench/run.py`` runs this as its own process: parsing the
lift takes about 100 MB, and Linux copies a parent's RSS high-water mark
into each child it spawns, so in the benchmark process that memory would
inflate the ``peak_rss_mb`` of every later CLI invocation.
"""

from __future__ import annotations

import collections
import json
import sys

# 180 base nodes lifted with fibers of 400
NODES = 72_000
EDGES = 310_000


def lift_problems(lift_path: str, base_path: str) -> list[str]:
    with open(lift_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    n, edges, clusters = doc["n"], doc["edges"], doc.get("clusters")
    found = []
    if n != NODES or len(edges) != EDGES:
        found.append(f"lift has n={n}, m={len(edges)}")
    if clusters is None or len(clusters) != n:
        found.append("lift lacks one cluster id per node")
    elif n % base["n"] or len(edges) != n // base["n"] * len(base["edges"]):
        found.append("lift size is not a multiple of the base graph")
    else:
        fiber = n // base["n"]
        want = {c: fiber * m for c, m in collections.Counter(base["clusters"]).items()}
        if collections.Counter(clusters) != want:
            found.append("lift cluster sizes are not fiber multiples of the base")
    if any(not (0 <= u < v < n) for u, v in edges) or len({(u, v) for u, v in edges}) != len(edges):
        found.append("lift edge list is not simple and sorted per edge")
    if doc.get("meta") != {"k": 1, "beta": 5, "stage": "high-girth"}:
        found.append(f"lift meta is {doc.get('meta')}")
    return found


if __name__ == "__main__":
    print(json.dumps(lift_problems(sys.argv[1], sys.argv[2])))
