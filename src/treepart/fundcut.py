"""Conductance of every fundamental cut of a rooted spanning tree.

Removing one tree edge splits the vertices into the subtree below the
edge's child endpoint and the rest. The conductance of that cut is the
total weight of crossing edges divided by the smaller side's volume
(volume = sum of weighted degrees).

The fast path computes all n-1 values from three per-vertex quantities:

  subtree_vol[u]   volume of the subtree rooted at u
  intra_weight[u]  twice the weight of non-tree edges whose endpoints lie
                   in different child subtrees of u, plus once the weight
                   of non-tree edges from u down into its own subtree
  inter_weight[u]  weight of non-tree edges leaving u's subtree

so that the cut weight of u's parent edge is inter_weight[u] plus the
parent edge's own weight. Preorder labels make every subtree the label
interval label[u]..max_label[u], so a subtree sum is a difference of two
prefix sums over the vertices in preorder. subtree_vol sums the weighted
degrees. inter_weight sums a difference array: each non-tree edge {a, b}
with lowest common ancestor l adds +w at a and at b and -2w at l, which
cancels inside every subtree that holds both endpoints. intra_weight is
the per-LCA total of those edges. The LCAs come from one batch of binary
lifting queries (`spantree.tree_paths`), so the whole pass takes
O(n + m log n) work: O(n + m) for the sums and O(log n) lifting steps
per non-tree edge.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .spantree import RootedTree, tree_paths


def _subtree_sums(t: RootedTree, x: np.ndarray) -> np.ndarray:
    """Per-vertex sum of x over the vertex's subtree."""
    prefix = np.zeros(t.n + 1)
    np.cumsum(x[t.preorder], out=prefix[1:])
    return prefix[t.max_label + 1] - prefix[t.label]


def _aggregates(g: Graph, t: RootedTree, stats: dict | None):
    if t.n != g.n:
        raise ValueError("tree does not match graph")
    n = g.n
    child = np.flatnonzero(t.parent_edge >= 0)
    tree_edges = t.parent_edge[child]
    non_tree = np.ones(g.m, dtype=bool)
    non_tree[tree_edges] = False
    a = g.edge_u[non_tree]
    b = g.edge_v[non_tree]
    w = g.edge_w[non_tree]
    paths = tree_paths(t, a, b)
    lca = paths.lca

    sub = _subtree_sums(t, g.weighted_degree)
    # An edge counts once at its LCA per endpoint other than the LCA.
    intra = np.bincount(lca, weights=w * (2 - (a == lca) - (b == lca)),
                        minlength=n)
    diff = (np.bincount(a, weights=w, minlength=n)
            + np.bincount(b, weights=w, minlength=n)
            - 2.0 * np.bincount(lca, weights=w, minlength=n))
    inter = _subtree_sums(t, diff)

    cond = np.full(g.m, np.nan)
    vol = sub[child]
    cond[tree_edges] = ((inter[child] + g.edge_w[tree_edges])
                        / np.minimum(vol, g.total_volume - vol))
    if stats is not None:
        # Each edge's two adjacency entries are read once, by the tree split
        # and the difference array; path_steps are the LCA lifting steps.
        stats["adjacency_visits"] = 2 * g.m
        stats["vertex_visits"] = n
        stats["path_steps"] = paths.steps
    return cond, sub, intra, inter


def all_fundamental_conductances(g: Graph, t: RootedTree,
                                 stats: dict | None = None) -> np.ndarray:
    """Conductance of each tree edge's fundamental cut.

    Returns a dense array over canonical edge ids; entries for non-tree
    edges are NaN. Pass a dict as `stats` to collect the work counters
    adjacency_visits, vertex_visits and path_steps.
    """
    cond, _, _, _ = _aggregates(g, t, stats)
    return cond
