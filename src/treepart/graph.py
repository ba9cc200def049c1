"""Undirected weighted graph in CSR-style adjacency form.

Vertices are 0-based integers. Every undirected edge gets one canonical id,
its rank in the list of endpoint pairs sorted by (min endpoint, max endpoint).
All edge-indexed arrays in this package (contrast values, conductances,
ratings) use these ids.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class Graph:
    """Finite, undirected, simple graph with vertex and edge weights.

    Immutable after construction; safe to share across concurrent runs.
    Use :meth:`from_edges` to build one.

    Attributes:
        n: number of vertices
        m: number of undirected edges
        edge_u, edge_v: canonical endpoint arrays with edge_u[e] < edge_v[e]
        edge_w: positive edge weights (float64)
        vertex_c: positive integer vertex weights
        adj_off, adj_nbr, adj_eid: CSR adjacency; the neighbors of u are
            adj_nbr[adj_off[u]:adj_off[u+1]], sorted ascending, and
            adj_eid carries the canonical edge id of each entry
    """

    def __init__(self, n: int, edge_u: np.ndarray, edge_v: np.ndarray,
                 edge_w: np.ndarray, vertex_c: np.ndarray):
        self.n = n
        self.m = len(edge_u)
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_w = edge_w
        self.vertex_c = vertex_c
        self.adj_off, self.adj_nbr, self.adj_eid = self._build_csr()

    @classmethod
    @np.errstate(over="ignore")  # an overflowed sum raises ValueError below
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray,
                   edge_weights: Sequence[float] | None = None,
                   vertex_weights: Sequence[int] | None = None) -> "Graph":
        """Build a graph from endpoint pairs, assigning canonical edge ids.

        `edges` is an iterable of (u, v) pairs or an integer array of shape
        (k, 2). Parallel edges are merged by summing their weights.
        Self-loops are rejected. Missing weights default to 1. The merged
        weights and the total volume must be finite. Endpoints and vertex
        weights of a non-integer dtype raise ValueError, never truncate.
        """
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        raw = np.asarray(edges if isinstance(edges, np.ndarray)
                         else list(edges))
        if raw.size and raw.dtype.kind not in "biu":
            raise ValueError(f"edge endpoints must be integers, got "
                             f"{raw.dtype}")
        pairs = raw.astype(np.int64, copy=False).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("vertex id out of range")
        if edge_weights is None:
            w = np.ones(len(pairs), dtype=np.float64)
        else:
            w = np.asarray(edge_weights, dtype=np.float64)
            if len(w) != len(pairs):
                raise ValueError("edge_weights length mismatch")
        if not np.all(w > 0):
            raise ValueError("edge weights must be strictly positive")

        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(lo == hi):
            raise ValueError("self-loops are not allowed")

        # One stable sort on the composite key lo*n + hi: it fits in int64
        # for n < 3e9 and gives lexsort's (lo, hi) order.
        order = np.argsort(lo * n + hi, kind="stable")
        lo, hi, w = lo[order], hi[order], w[order]
        new = np.ones(len(lo), dtype=bool)
        new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        starts = np.flatnonzero(new)
        edge_u = lo[starts]
        edge_v = hi[starts]
        edge_w = np.add.reduceat(w, starts)
        if not np.isfinite(2.0 * edge_w.sum()):
            raise ValueError("edge weights overflow: merged weights and "
                             "total volume must be finite")

        if vertex_weights is None:
            c = np.ones(n, dtype=np.int64)
        else:
            c = np.asarray(vertex_weights)
            if c.dtype.kind not in "biu":
                raise ValueError(f"vertex weights must be integers, got "
                                 f"{c.dtype}")
            c = c.astype(np.int64, copy=False)
            if len(c) != n:
                raise ValueError("vertex_weights length mismatch")
            if np.any(c <= 0):
                raise ValueError("vertex weights must be positive integers")
        return cls(n, edge_u, edge_v, edge_w, c)

    def _build_csr(self):
        ends = np.concatenate([self.edge_u, self.edge_v])
        other = np.concatenate([self.edge_v, self.edge_u])
        eids = np.concatenate([np.arange(self.m), np.arange(self.m)])
        order = np.argsort(ends * self.n + other, kind="stable")  # n < 3e9
        nbr = other[order]
        eid = eids[order]
        counts = np.bincount(ends, minlength=self.n)
        off = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return off, nbr, eid

    # Python-list mirrors of the CSR arrays; plain ints are much faster than
    # numpy scalars in the traversal loops.
    @cached_property
    def adj_off_list(self) -> list[int]:
        return self.adj_off.tolist()

    @cached_property
    def adj_nbr_list(self) -> list[int]:
        return self.adj_nbr.tolist()

    @cached_property
    def adj_w_list(self) -> list[float]:
        """Edge weight per CSR adjacency entry."""
        return self.edge_w[self.adj_eid].tolist()

    @cached_property
    def csr_src(self) -> np.ndarray:
        """Source vertex of each CSR adjacency entry."""
        counts = self.adj_off[1:] - self.adj_off[:-1]
        return np.repeat(np.arange(self.n, dtype=np.int64), counts)

    @cached_property
    def weighted_degree(self) -> np.ndarray:
        wdeg = np.zeros(self.n, dtype=np.float64)
        np.add.at(wdeg, self.edge_u, self.edge_w)
        np.add.at(wdeg, self.edge_v, self.edge_w)
        return wdeg

    @cached_property
    def total_volume(self) -> float:
        """Sum of all weighted degrees, i.e. twice the total edge weight."""
        return float(2.0 * self.edge_w.sum())

    @cached_property
    def is_connected(self) -> bool:
        """True iff the graph has a single connected component."""
        return len(connected_components(self)) == 1


def check_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component (cached on g)."""
    return g.is_connected


def _boruvka(g: Graph, ranked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Borůvka hooking with pointer jumping (Shiloach & Vishkin 1982).

    `ranked` lists the edge ids from least to greatest. Every round, each
    component takes its least outgoing edge, so the number of components at
    least halves. Returns (taken, comp): taken[e] marks the minimum spanning
    forest under that order, and comp[v] names v's component by one of its
    vertices.
    """
    ids = ranked  # live edges in order; a position is a rank
    eu, ev = g.edge_u[ids], g.edge_v[ids]
    vertex = np.arange(g.n)
    comp = vertex
    taken = np.zeros(g.m, dtype=bool)
    while True:
        cu, cv = comp[eu], comp[ev]
        live = cu != cv
        if not live.any():
            break
        ids, eu, ev, cu, cv = ids[live], eu[live], ev[live], cu[live], cv[live]
        rank = np.arange(len(ids))
        best = np.full(g.n, len(ids))
        np.minimum.at(best, cu, rank)
        np.minimum.at(best, cv, rank)
        heads = np.flatnonzero(best < len(ids))
        pick = best[heads]
        taken[ids[pick]] = True
        ptr = vertex.copy()
        ptr[heads] = cu[pick] + cv[pick] - heads  # the other end's component
        # Two components that took the same edge point at each other; the
        # smaller id becomes the root. Pointer jumping flattens the rest
        # until every vertex points at its root.
        ptr = np.where(ptr[ptr] == vertex, np.minimum(ptr, vertex), ptr)
        jumped = ptr[ptr]
        while (jumped != ptr).any():
            ptr, jumped = jumped, jumped[jumped]
        comp = ptr[comp]
    return taken, comp


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each in ascending id, and
    the components ordered by their smallest vertex."""
    _, comp = _boruvka(g, np.arange(g.m))
    order = np.argsort(comp, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(comp[order])) + 1).tolist(), g.n]
    verts = order.tolist()
    # Disjoint lists compare by their first, i.e. smallest, vertex.
    return sorted(verts[i:j] for i, j in zip(cuts, cuts[1:]))


def largest_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Extract the largest connected component as a new graph.

    Returns the subgraph plus an array mapping its vertex ids back to the
    original ids. Intended as preprocessing for inputs that are not connected.
    """
    comps = connected_components(g)
    keep = max(comps, key=len)  # ties: the one with the least vertex
    old_ids = np.asarray(keep, dtype=np.int64)
    new_id = -np.ones(g.n, dtype=np.int64)
    new_id[old_ids] = np.arange(len(keep))
    mask = new_id[g.edge_u] >= 0
    sub = Graph.from_edges(
        len(keep),
        np.column_stack((new_id[g.edge_u[mask]], new_id[g.edge_v[mask]])),
        edge_weights=g.edge_w[mask],
        vertex_weights=g.vertex_c[old_ids],
    )
    return sub, old_ids
