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

# Vertex weights and their total must stay below this: float64 holds every
# integer below it, so weights read as floats, `contract`'s merged weights
# and `balance_cap`'s ceil(total / 2) are exact, and the int64 total cannot
# wrap.
WEIGHT_LIMIT = 2 ** 53


def _int_array(x, what: str, lo: int, hi: float) -> np.ndarray:
    """x as an int64 array; ValueError unless its dtype is bool or integer
    and every entry lies in [lo, hi). Floats and strings are never cast."""
    raw = np.asarray(x)
    # Compared as Python ints, exact for bool too; int64 must hold every entry.
    if raw.size and (raw.dtype.kind not in "biu" or int(raw.min()) < lo
                     or int(raw.max()) >= min(hi, 2 ** 63)):
        raise ValueError(f"{what} must be integers in [{lo}, {hi})")
    return raw.astype(np.int64, copy=False)


def _int_scalar(x, what: str, lo: int, hi: float = np.inf) -> int:
    """x as a Python int; ValueError unless it is one bool or integer (a
    0-d array counts), under the rule of `_int_array`."""
    raw = np.asarray(x)
    if raw.ndim:
        raise ValueError(f"{what} must be integers in [{lo}, {hi})")
    return int(_int_array(raw, what, lo, hi))


def _float_scalar(x, what: str, lo: float) -> float:
    """x as a Python float; ValueError unless it is one bool, integer or
    float (a 0-d array counts) and x >= lo, so NaN fails and inf passes.
    Strings and None are never parsed."""
    raw = np.asarray(x)
    if raw.ndim or raw.dtype.kind not in "biuf" or not raw >= lo:
        raise ValueError(f"{what} must be >= {lo}, got {x!r}")
    return float(raw)


def _float_array(x, what: str, length: int) -> np.ndarray:
    """x as a new float64 array; ValueError unless it has shape (length,)
    and a bool, integer or float dtype. Strings are never parsed."""
    raw = np.asarray(x)
    if raw.shape != (length,) or raw.dtype.kind not in "biuf":
        raise ValueError(f"{what} must be numbers in a 1-d array of length "
                         f"{length}")
    return raw.astype(np.float64)


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
        """Build a graph on n >= 1 vertices, assigning canonical edge ids.

        `edges` is empty or holds (u, v) pairs of integers in [0, n), as an
        iterable or an array of shape (k, 2). Parallel edges merge by summing
        their weights; self-loops are rejected. `edge_weights` holds one
        positive number per pair and `vertex_weights` one integer >= 1 per
        vertex, both 1 if omitted. Merged weights and the total volume must
        be finite, and the vertex weights must sum to less than 2**53.
        Anything else raises ValueError; nothing is cast.
        """
        n = _int_scalar(n, "n", 1)
        raw = np.asarray(edges if isinstance(edges, np.ndarray)
                         else list(edges))
        if raw.size and (raw.ndim != 2 or raw.shape[1] != 2):
            raise ValueError(f"edges must be (u, v) pairs of shape (k, 2), "
                             f"got shape {raw.shape}")
        pairs = _int_array(raw, "edge endpoints", 0, n).reshape(-1, 2)
        w = (np.ones(len(pairs)) if edge_weights is None
             else _float_array(edge_weights, "edge_weights", len(pairs)))
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
            c = _int_array(vertex_weights, "vertex weights", 1, np.inf)
            if c.shape != (n,):
                raise ValueError("vertex_weights length mismatch")
            # Exact for positive integers: the float64 sum reaches 2**53
            # exactly when the true sum does.
            if c.sum(dtype=np.float64) >= WEIGHT_LIMIT:
                raise ValueError("vertex weights must sum to less than 2**53")
        return cls(n, edge_u, edge_v, edge_w, c)

    def _build_csr(self):
        ends = np.concatenate([self.edge_u, self.edge_v])
        other = np.concatenate([self.edge_v, self.edge_u])
        eids = np.concatenate([np.arange(self.m), np.arange(self.m)])
        # Distinct keys in a simple graph, so an unstable sort gives the one
        # order; n < 3e9 keeps them in int64.
        order = np.argsort(ends * self.n + other)
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
        """True iff the graph has a single connected component: its
        Borůvka forest (see `_boruvka`) has n - 1 edges."""
        return int(_boruvka(self, np.arange(self.m)).sum()) == self.n - 1


def check_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component (cached on g)."""
    return g.is_connected


def _boruvka(g: Graph, ranked: np.ndarray) -> np.ndarray:
    """Borůvka hooking with pointer jumping (Shiloach & Vishkin 1982).

    `ranked` lists the edge ids from least to greatest. Every round, each
    component takes its least outgoing edge, so the number of components at
    least halves. Returns `taken`: taken[e] marks the minimum spanning
    forest under that order. A forest on n vertices with k components has
    n - k edges, so the graph is connected exactly when n - 1 are taken.
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
    return taken

