"""Edge ratings that guide which edges get contracted during coarsening.

A high rating marks an edge as a good contraction candidate. The
conductance-based rating extends each tree edge's fundamental-cut
conductance to the remaining edges: a non-tree edge inherits the minimum
conductance along the tree path between its endpoints, because those are
exactly the fundamental cuts whose cut-set contains it.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, _float_array
from .spantree import RootedTree, tree_paths

# algebraic_distance: vectors per vertex, sweeps, relaxation, distance floor
VECTORS = 8
ITERATIONS = 10
RELAXATION = 0.5
RHO_MIN = 1e-9


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
    out = _float_array(tree_conds, "tree_conds", g.m)
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
    cond = _float_array(cond, "cond", g.m)
    return g.edge_w * cond / (c[g.edge_u] * c[g.edge_v])


def algebraic_distance(g: Graph, seed: int) -> np.ndarray:
    """Smoothed-random-vector distance between edge endpoints.

    Starts from VECTORS uniform random coordinates per vertex and applies
    ITERATIONS Jacobi-style over-relaxation steps: each mixes a vertex's
    value with the weighted average of its neighbors' values, weighted by
    RELAXATION. Well-connected endpoints even out quickly, so a large
    remaining distance marks a bottleneck edge. The result is the L2
    distance across vectors, clamped below by RHO_MIN.
    """
    rng = np.random.default_rng(seed)
    x = rng.random((g.n, VECTORS))
    eu, ev, w = g.edge_u, g.edge_v, g.edge_w
    wdeg = np.where(g.weighted_degree > 0, g.weighted_degree, 1.0)
    for _ in range(ITERATIONS):
        s = np.empty_like(x)
        for r in range(VECTORS):
            s[:, r] = (np.bincount(eu, weights=w * x[ev, r], minlength=g.n)
                       + np.bincount(ev, weights=w * x[eu, r], minlength=g.n))
        x = (1.0 - RELAXATION) * x + RELAXATION * s / wdeg[:, None]
    rho = np.sqrt(((x[eu] - x[ev]) ** 2).sum(axis=1))
    return np.maximum(rho, RHO_MIN)


def ex_alg(g: Graph, rho: np.ndarray) -> np.ndarray:
    """Expansion rating scaled by inverse algebraic distance."""
    return expansion_star2(g) / _float_array(rho, "rho", g.m)
