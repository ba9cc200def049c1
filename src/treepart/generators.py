"""Synthetic graph generators for desk-scale benchmarks."""

from __future__ import annotations

import random

from .graph import Graph, _int_scalar


def generate_scale_free(n: int, attach: int, seed: int) -> Graph:
    """Preferential-attachment graph: connected, simple, power-law-ish.

    Starts from a star on attach+1 vertices; every further vertex connects
    to `attach` distinct existing vertices chosen proportionally to degree.
    Deterministic for a fixed (n, attach, seed). All weights are 1.
    Raises ValueError unless n and attach are integers, 1 <= attach < n.
    """
    attach = _int_scalar(attach, "attach", 1)
    n = _int_scalar(n, "n", attach + 1)
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = [(0, j) for j in range(1, attach + 1)]
    # Flat endpoint multiset; sampling an index uniformly is sampling a
    # vertex proportionally to its current degree.
    endpoints: list[int] = []
    for u, v in edges:
        endpoints.append(u)
        endpoints.append(v)
    for v in range(attach + 1, n):
        chosen: set[int] = set()
        while len(chosen) < attach:
            chosen.add(endpoints[rng.randrange(len(endpoints))])
        for t in sorted(chosen):
            edges.append((t, v))
            endpoints.append(t)
            endpoints.append(v)
    return Graph.from_edges(n, edges)
