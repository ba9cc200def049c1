"""Seeded workload graphs. The same (workload, seed) gives the same graph."""

from __future__ import annotations

import numpy as np

from treepart import Graph, generate_scale_free


def grid_strip(rows: int, cols: int, seed: int) -> Graph:
    """rows x cols grid with vertex ids shuffled by a seeded permutation.

    The shuffle changes the METIS file, the canonical edge order and every
    tie the partitioner breaks by id; the structure, and with it the
    diameter of rows + cols - 2, stays the same for every seed.
    """
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    pairs = np.concatenate([
        np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
        np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1),
    ])
    relabel = np.random.default_rng(seed).permutation(rows * cols)
    return Graph.from_edges(rows * cols, relabel[pairs].tolist())


GENERATORS = {
    "scale_free": lambda seed, n, attach: generate_scale_free(n, attach, seed),
    "strip": lambda seed, rows, cols: grid_strip(rows, cols, seed),
}


def make_graph(generator: str, params: dict, seed: int) -> Graph:
    return GENERATORS[generator](seed, **params)


def same_graph(a: Graph, b: Graph) -> bool:
    """Equal vertex count, edges, edge weights and vertex weights."""
    return (a.n == b.n and np.array_equal(a.edge_u, b.edge_u)
            and np.array_equal(a.edge_v, b.edge_v)
            and np.array_equal(a.edge_w, b.edge_w)
            and np.array_equal(a.vertex_c, b.vertex_c))
