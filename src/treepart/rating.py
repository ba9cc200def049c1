"""Edge ratings that guide which edges get contracted during coarsening.

A high rating marks an edge as a good contraction candidate. The
conductance-based rating extends each tree edge's fundamental-cut
conductance to the remaining edges: a non-tree edge inherits the minimum
conductance along the tree path between its endpoints, because those are
exactly the fundamental cuts whose cut-set contains it.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .spantree import RootedTree, tree_paths


def cond_all_edges(g: Graph, t: RootedTree,
                   tree_conds: np.ndarray) -> np.ndarray:
    """Minimum fundamental-cut conductance containing each edge.

    For a tree edge that is its own fundamental cut's conductance (no other
    fundamental cut-set contains a tree edge). For a non-tree edge {u, v} it
    is the minimum over the tree edges on the u-v path, taken from one batch
    of tree-path queries. Raises ValueError if t or tree_conds is not g's.
    """
    if t.n != g.n:
        raise ValueError("tree does not match graph")
    out = np.array(tree_conds, dtype=np.float64, copy=True)
    if out.shape != (g.m,):
        raise ValueError("tree_conds must have one entry per edge")
    non_tree = np.flatnonzero(np.isnan(out))
    if non_tree.size == 0:
        return out
    per_vertex = out[t.parent_edge]
    out[non_tree] = tree_paths(t, g.edge_u[non_tree], g.edge_v[non_tree],
                               per_vertex).minimum
    return out


def expansion_star2(g: Graph) -> np.ndarray:
    """Squared edge weight over the product of endpoint vertex weights."""
    c = g.vertex_c.astype(np.float64)
    return g.edge_w ** 2 / (c[g.edge_u] * c[g.edge_v])


def ex_cond(g: Graph, cond: np.ndarray) -> np.ndarray:
    """Edge weight times cut conductance over endpoint weight product."""
    c = g.vertex_c.astype(np.float64)
    return g.edge_w * np.asarray(cond) / (c[g.edge_u] * c[g.edge_v])


def algebraic_distance(g: Graph, vectors: int = 8, iterations: int = 10,
                       relaxation: float = 0.5, rho_min: float = 1e-9,
                       seed: int = 0) -> np.ndarray:
    """Smoothed-random-vector distance between edge endpoints.

    Starts from `vectors` uniform random coordinates per vertex and applies
    Jacobi-style over-relaxation: each step mixes a vertex's value with the
    weighted average of its neighbors' values. Well-connected endpoints even
    out quickly, so a large remaining distance marks a bottleneck edge. The
    result is the L2 distance across vectors, clamped below by rho_min.
    """
    if vectors < 1:
        raise ValueError("need at least one vector")
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    rng = np.random.default_rng(seed)
    x = rng.random((g.n, vectors))
    eu, ev, w = g.edge_u, g.edge_v, g.edge_w
    wdeg = np.where(g.weighted_degree > 0, g.weighted_degree, 1.0)
    for _ in range(iterations):
        s = np.empty_like(x)
        for r in range(vectors):
            s[:, r] = (np.bincount(eu, weights=w * x[ev, r], minlength=g.n)
                       + np.bincount(ev, weights=w * x[eu, r], minlength=g.n))
        x = (1.0 - relaxation) * x + relaxation * s / wdeg[:, None]
    rho = np.sqrt(((x[eu] - x[ev]) ** 2).sum(axis=1))
    return np.maximum(rho, rho_min)


def ex_alg(g: Graph, rho: np.ndarray) -> np.ndarray:
    """Expansion rating scaled by inverse algebraic distance."""
    return expansion_star2(g) / np.asarray(rho)
