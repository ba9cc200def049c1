"""Spanning trees: Borůvka MST, rooted preorder labeling, tree-path queries."""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .graph import Graph, _boruvka


@dataclass(eq=False)
class RootedTree:
    """Rooted spanning tree with preorder labels; every per-vertex field is
    an int64 array of length n.

    parent[root] == root and parent_edge[root] == -1. label is a preorder
    numbering, so v is a descendant of u (u included) exactly when
    label[u] <= label[v] <= max_label[u]. preorder lists vertices by
    ascending label.
    """

    root: int
    parent: np.ndarray
    parent_edge: np.ndarray
    depth: np.ndarray
    label: np.ndarray
    max_label: np.ndarray
    preorder: np.ndarray

    @property
    def n(self) -> int:
        return len(self.parent)

    def tree_edge_ids(self) -> list[int]:
        return np.sort(self.parent_edge[self.parent_edge >= 0]).tolist()


def minimum_spanning_tree(g: Graph, values: Sequence[float]) -> np.ndarray:
    """Sorted edge ids of the minimum spanning tree under the strict order
    (value, edge id).

    Built by Borůvka hooking (see graph._boruvka). The order is strict, so
    the tree is unique and is the one Kruskal builds with ties broken by id.
    """
    vals = np.asarray(values, dtype=np.float64)
    if len(vals) != g.m:
        raise ValueError("values length must equal edge count")
    if not np.all(np.isfinite(vals)):
        raise ValueError("edge values must be finite")
    taken, _ = _boruvka(g, np.argsort(vals, kind="stable"))
    tree = np.flatnonzero(taken)
    if len(tree) != g.n - 1:
        raise ValueError("graph is not connected")
    return tree


def root_and_label(g: Graph, tree_edges: Iterable[int], root: int) -> RootedTree:
    """Root a spanning tree and compute preorder labels in one traversal.

    Children are visited in ascending vertex id, making labels independent
    of the order in which tree edges are supplied.
    """
    n = g.n
    edges = np.sort(np.fromiter(tree_edges, dtype=np.int64))
    if len(edges) != n - 1:
        raise ValueError("tree_edges must contain exactly n-1 edges")
    if edges.size and (edges[0] < 0 or edges[-1] >= g.m):
        raise ValueError("tree edge id out of range")
    if not 0 <= root < n:
        raise ValueError("root out of range")
    # The tree as a graph of its own: its CSR lists each vertex's tree
    # neighbours in ascending id, and adj_eid indexes `edges`.
    tree = Graph(n, g.edge_u[edges], g.edge_v[edges], g.edge_w[edges],
                 g.vertex_c)
    off, nbr = tree.adj_off_list, tree.adj_nbr_list
    eid = edges[tree.adj_eid].tolist()

    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [0] * n
    label = [-1] * n
    preorder: list[int] = []

    parent[root] = root
    stack = [root]
    while stack:
        u = stack.pop()
        label[u] = len(preorder)
        preorder.append(u)
        # Reversed push so the smallest-id child is labeled first.
        for i in reversed(range(off[u], off[u + 1])):
            v = nbr[i]
            if parent[v] == -1 and v != root:
                parent[v] = u
                parent_edge[v] = eid[i]
                depth[v] = depth[u] + 1
                stack.append(v)
    if len(preorder) != n:
        raise ValueError("tree_edges do not span the graph")

    max_label = label[:]
    for v in reversed(preorder):
        p = parent[v]
        if p != v and max_label[v] > max_label[p]:
            max_label[p] = max_label[v]
    return RootedTree(root, *(np.asarray(x, dtype=np.int64) for x in (
        parent, parent_edge, depth, label, max_label, preorder)))


def lca(t: RootedTree, u: int, v: int) -> int:
    """Lowest common ancestor of u and v: a one-pair tree_paths query, so
    each call builds the lifting tables; batch many pairs with tree_paths."""
    if not all(isinstance(x, Integral) and 0 <= x < t.n for x in (u, v)):
        raise ValueError(f"vertex ids must be integers in [0, {t.n}), "
                         f"got ({u}, {v})")
    return int(tree_paths(t, [u], [v]).lca[0])


class TreePaths(NamedTuple):
    """Answers of a batch of tree-path queries.

    lca[i] is the lowest common ancestor of the i-th vertex pair. minimum[i]
    is the smallest per-vertex value over the path's tree edges (inf for a
    pair of equal vertices), or None when no values were given. steps counts
    the element steps of binary lifting: ancestor-table entries built plus
    one per pair and table level in each of the two lifting phases.
    """

    lca: np.ndarray
    minimum: np.ndarray | None
    steps: int


def tree_paths(t: RootedTree, a, b, values=None) -> TreePaths:
    """LCAs, and optionally path minima, of many vertex pairs at once.

    Binary lifting over the parent array: with L = bit length of the tree
    depth, building the 2^k-ancestor tables takes n(L-1) steps and each pair
    takes 2L, so a batch of q pairs costs O((n + q) log n). values[v] is the
    value of v's parent edge; the root's entry is ignored.
    """
    parent, depth = t.parent, t.depth
    a = np.array(a, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    levels = max(1, int(depth.max()).bit_length())
    up = [parent]
    for _ in range(1, levels):
        up.append(up[-1][up[-1]])
    mins = None
    if values is not None:
        # mn[k][v]: minimum over the 2^k parent edges above v. Windows that
        # reach past the root are never read, so the root's entry is unused.
        mn = [np.asarray(values, dtype=np.float64)]
        for k in range(levels - 1):
            mn.append(np.minimum(mn[k], mn[k][up[k]]))
        mins = np.full(a.size, np.inf)

    swap = depth[a] < depth[b]
    a[swap], b[swap] = b[swap], a[swap]
    lift = depth[a] - depth[b]
    for k in range(levels):
        sel = np.flatnonzero((lift >> k) & 1)
        if mins is not None:
            mins[sel] = np.minimum(mins[sel], mn[k][a[sel]])
        a[sel] = up[k][a[sel]]
    for k in reversed(range(levels)):
        ua, ub = up[k][a], up[k][b]
        sel = np.flatnonzero(ua != ub)
        if mins is not None:
            mins[sel] = np.minimum(mins[sel], np.minimum(mn[k][a[sel]],
                                                         mn[k][b[sel]]))
        a[sel] = ua[sel]
        b[sel] = ub[sel]
    # a and b are now equal (the LCA) or children of the LCA.
    below = a != b
    if mins is not None:
        mins[below] = np.minimum(mins[below], np.minimum(mn[0][a[below]],
                                                         mn[0][b[below]]))
    steps = t.n * (levels - 1) + 2 * levels * a.size
    return TreePaths(np.where(below, parent[a], a), mins, steps)
