"""Multilevel bipartitioner: match, contract, partition, refine, prolong.

Coarsening repeatedly contracts a maximal matching chosen greedily by edge
rating, recomputing the rating on every level because contraction changes
both edge and vertex weights. The coarsest graph is bipartitioned by seeded
region growing, and the solution is prolonged back level by level with a
boundary FM refinement pass at each step.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
from dataclasses import dataclass

import numpy as np

from .fundcut import all_fundamental_conductances
from .graph import Graph, check_connected
from .partition import Partition, balance_cap, check_partition, is_balanced
from .rating import (algebraic_distance, cond_all_edges, ex_alg, ex_cond,
                     expansion_star2)
from .sampling import contrast
from .spantree import minimum_spanning_tree, root_and_label

logger = logging.getLogger(__name__)

RATINGS = ("excond", "exalg", "exp2")
INITIAL_ATTEMPTS = 25  # seeded region growings on the coarsest graph
MAX_FM_PASSES = 10
SHRINK_LIMIT = 1.05  # coarsening stops after a level that shrinks less


@dataclass
class PartitionConfig:
    """Knobs for one partitioning run. Two runs with equal config and seed
    produce identical partitions."""

    rating: str = "excond"
    trees: int = 20
    epsilon: float = 0.03
    seed: int = 0
    coarsest_size: int = 60

    def __post_init__(self):
        if self.rating not in RATINGS:
            raise ValueError(f"unknown rating {self.rating!r}")
        if self.trees < 1:
            raise ValueError(f"trees must be at least 1, got {self.trees}")
        if self.coarsest_size < 2:
            raise ValueError("coarsest_size must be at least 2, got "
                             f"{self.coarsest_size}")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


def compute_rating(g: Graph, cfg: PartitionConfig, seed: int) -> np.ndarray:
    """Per-edge rating of the configured kind, deterministic per seed."""
    if cfg.rating == "exp2":
        return expansion_star2(g)
    rng = random.Random(seed)
    if cfg.rating == "exalg":
        return ex_alg(g, algebraic_distance(g, seed=rng.getrandbits(64)))
    gamma = contrast(g, cfg.trees, rng.getrandbits(64))
    mst_ids = minimum_spanning_tree(g, gamma)
    root = rng.randrange(g.n)
    tree = root_and_label(g, mst_ids, root)
    conds = all_fundamental_conductances(g, tree)
    return ex_cond(g, cond_all_edges(g, tree, conds))


def greedy_matching(g: Graph, rating: np.ndarray,
                    max_vertex_weight: float) -> np.ndarray:
    """Maximal matching built from edges in descending rating order.

    Ties break on canonical edge id. An edge is skipped when either endpoint
    is already matched or the merged vertex would exceed max_vertex_weight.
    Returns the mate of each vertex, -1 if unmatched.
    """
    vals = np.asarray(rating, dtype=np.float64)
    if len(vals) != g.m:
        raise ValueError("rating length must equal edge count")
    if not np.all(np.isfinite(vals)):
        raise ValueError("ratings must be finite")
    order = np.argsort(-vals, kind="stable").tolist()
    eu = g.edge_u.tolist()
    ev = g.edge_v.tolist()
    c = g.vertex_c.tolist()
    mate = [-1] * g.n
    for e in order:
        u, v = eu[e], ev[e]
        if mate[u] < 0 and mate[v] < 0 and c[u] + c[v] <= max_vertex_weight:
            mate[u] = v
            mate[v] = u
    return np.asarray(mate, dtype=np.int64)


def contract(g: Graph, mate: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Merge matched pairs into single vertices.

    Vertex weights add up, parallel edges merge with summed weights, and
    self-loops vanish. Returns the coarse graph and the fine-to-coarse
    vertex map. Raises ValueError unless `mate` has one integer entry in
    [-1, n) per vertex (floats such as 1.9 are not cast) and pairs them
    symmetrically.
    """
    raw = np.asarray(mate)
    if raw.shape == (g.n,) and raw.dtype.kind not in "biu":
        raise ValueError(f"mate entries must be integers, got {raw.dtype}")
    if raw.shape != (g.n,) or raw.min() < -1 or raw.max() >= g.n:
        raise ValueError("mate must hold one entry in [-1, n) per vertex")
    mate = raw.astype(np.int64)
    ids = np.arange(g.n)
    ok = (mate < 0) | ((mate != ids) & (mate[np.maximum(mate, 0)] == ids))
    if not ok.all():
        raise ValueError("mate array is not a symmetric matching")
    # Coarse ids follow the smaller vertex of each pair (the leader).
    leader = (mate < 0) | (mate > ids)
    nc = int(np.count_nonzero(leader))
    cmap = np.empty(g.n, dtype=np.int64)
    cmap[leader] = np.arange(nc)
    cmap[~leader] = cmap[mate[~leader]]
    coarse_c = np.bincount(cmap, weights=g.vertex_c, minlength=nc)
    cu = cmap[g.edge_u]
    cv = cmap[g.edge_v]
    keep = cu != cv
    coarse = Graph.from_edges(nc, np.column_stack((cu[keep], cv[keep])),
                              edge_weights=g.edge_w[keep],
                              vertex_weights=coarse_c.astype(np.int64))
    return coarse, cmap


def initial_bipartition(g: Graph, epsilon: float, attempts: int,
                        seed: int) -> Partition:
    """Best of several seeded BFS region growings on the coarsest graph.

    Each attempt grows block 0 from a random vertex until it reaches half
    the total weight, never adding a vertex that would break the balance
    cap. Balanced attempts are ranked by cut weight; if none is balanced the
    least-imbalanced attempt is returned (with a warning). Raises
    ValueError when attempts < 1 or epsilon is not >= 0.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {attempts}")
    cap = balance_cap(g, epsilon)
    n = g.n
    if n == 1:
        return Partition.from_blocks(g, [0])
    total = int(g.vertex_c.sum())
    target = math.ceil(total / 2)
    c = g.vertex_c.tolist()
    off = g.adj_off_list
    nbr = g.adj_nbr_list
    rng = random.Random(seed)

    best_key = None
    best_block = None
    for attempt in range(attempts):
        start = rng.randrange(n)
        block = [1] * n
        w0 = 0
        queued = bytearray(n)
        queued[start] = 1
        queue = [start]
        head = 0
        while head < len(queue) and w0 < target:
            v = queue[head]
            head += 1
            if w0 + c[v] > cap:
                continue
            block[v] = 0
            w0 += c[v]
            for i in range(off[v], off[v + 1]):
                t = nbr[i]
                if not queued[t]:
                    queued[t] = 1
                    queue.append(t)
        w1 = total - w0
        balanced = w0 <= cap and w1 <= cap and 0 < w0 < total
        blk = np.asarray(block)
        cut = float(g.edge_w[blk[g.edge_u] != blk[g.edge_v]].sum())
        key = (0, cut, attempt) if balanced else (1, max(w0, w1), attempt)
        if best_key is None or key < best_key:
            best_key = key
            best_block = block
    if best_key[0] == 1:
        logger.warning("no balanced initial bipartition found; "
                       "returning least-imbalanced attempt")
    return Partition.from_blocks(g, best_block)


def fm_refine(g: Graph, p: Partition, epsilon: float,
              max_passes: int) -> Partition:
    """Pass-based boundary FM refinement of the edge cut.

    Each pass tentatively moves boundary vertices one at a time in
    max-gain order (a vertex moves at most once per pass, never into a
    block it would push over the cap) and commits the best prefix of the
    move sequence; balance comes before cut, so an unbalanced start can
    recover. A pass is cut short once max(100, n // 25) moves in a row fail
    to produce a new best prefix; the tail of a stalled sequence is nearly
    always reverted anyway, and skipping it keeps passes cheap on large
    graphs. Stops after a pass that improves neither balance nor cut.
    Raises ValueError when p is malformed (see :func:`check_partition`),
    max_passes < 0 or epsilon is not >= 0.

    The candidates are ordered by (cut change, stamp). A pass starts them
    as one sorted run: the boundary vertices in vertex-id order take the
    stamps 0, 1, ..., and a stable argsort of their cut changes orders
    them. Entries pushed during the pass go to a heap with later stamps,
    so each pop takes the run head unless the heap top has a strictly
    smaller cut change. That is the pop order of a single heap holding
    both, since no two entries share a stamp.
    """
    out = check_partition(g, p)
    if max_passes < 0:
        raise ValueError(f"max_passes must be >= 0, got {max_passes}")
    cap = balance_cap(g, epsilon)
    stall_limit = max(100, g.n // 25)
    block = bytearray(out.block)
    blk = np.frombuffer(block, dtype=np.uint8)
    bw = out.block_weight
    off = g.adj_off_list
    nbr = g.adj_nbr_list
    w = g.adj_w_list
    c = g.vertex_c.tolist()
    wdeg = g.weighted_degree.tolist()
    heappop = heapq.heappop
    heappush = heapq.heappush

    for _ in range(max_passes):
        cross = blk[g.edge_u] != blk[g.edge_v]
        start_cut = float(g.edge_w[cross].sum())
        cw = g.edge_w * cross  # uncut edges add +0.0: sums stay bit-equal
        acr = (np.bincount(g.edge_u, weights=cw, minlength=g.n)
               + np.bincount(g.edge_v, weights=cw, minlength=g.n))
        across = acr.tolist()
        bnd = np.flatnonzero(acr > 0)
        gain = g.weighted_degree[bnd] - 2.0 * acr[bnd]
        order = np.argsort(gain, kind="stable")
        rg = gain[order].tolist()
        rv = bnd[order].tolist()
        nrun = len(rv)
        ptr = 0

        # Entries carry the cut change at push time. Improved gains push a
        # fresh entry right away; worsened ones are caught by comparing the
        # popped entry against the current gain and re-pushing.
        heap: list[tuple[float, int, int]] = []
        stamp = nrun
        moved = bytearray(g.n)
        seq: list[int] = []
        cur = start_cut
        # Best prefix by (over the cap, cut, heavier block weight): a
        # balanced prefix beats any unbalanced one, and equal-cut prefixes
        # prefer the more balanced state.
        heavy = bw[0] if bw[0] > bw[1] else bw[1]
        best = start = (heavy > cap, start_cut, float(heavy))
        best_len = 0
        since_best = 0
        while since_best < stall_limit:
            if ptr < nrun and (not heap or rg[ptr] <= heap[0][0]):
                neg_gain = rg[ptr]
                v = rv[ptr]
                ptr += 1
            elif heap:
                neg_gain, _, v = heappop(heap)
            else:
                break
            if moved[v]:
                continue
            current = wdeg[v] - 2.0 * across[v]
            if neg_gain != current:
                if across[v] > 0:
                    heappush(heap, (current, stamp, v))
                    stamp += 1
                continue
            b = block[v]
            o = 1 - b
            if bw[o] + c[v] > cap or bw[b] == c[v]:
                continue
            moved[v] = 1
            block[v] = o
            bw[b] -= c[v]
            bw[o] += c[v]
            cur += neg_gain
            seq.append(v)
            heavy = bw[0] if bw[0] > bw[1] else bw[1]
            key = (heavy > cap, cur, float(heavy))
            if key < best:
                best = key
                best_len = len(seq)
                since_best = 0
            else:
                since_best += 1
            for i in range(off[v], off[v + 1]):
                t = nbr[i]
                wt = w[i]
                if block[t] == o:
                    # Gain of t worsened; its stale entry corrects on pop.
                    across[t] -= wt
                else:
                    across[t] += wt
                    if not moved[t]:
                        heappush(heap, (wdeg[t] - 2.0 * across[t], stamp, t))
                        stamp += 1
            across[v] = wdeg[v] - across[v]

        for v in seq[best_len:]:
            o = block[v]
            b = 1 - o
            block[v] = b
            bw[o] -= c[v]
            bw[b] += c[v]
        if best[:2] >= start[:2]:
            break
    return Partition(list(block), bw)


def partition_multilevel(g: Graph, cfg: PartitionConfig) -> Partition:
    """Full multilevel bipartition of a connected graph."""
    if not check_connected(g):
        raise ValueError("input graph must be connected")
    rng = random.Random(cfg.seed)
    total = int(g.vertex_c.sum())
    max_vertex_weight = 1.5 * total / cfg.coarsest_size

    levels: list[tuple[Graph, np.ndarray]] = []
    cur = g
    while cur.n > cfg.coarsest_size:
        rating = compute_rating(cur, cfg, rng.getrandbits(64))
        mate = greedy_matching(cur, rating, max_vertex_weight)
        coarse, cmap = contract(cur, mate)
        if coarse.n == cur.n:
            break
        shrink = cur.n / coarse.n
        levels.append((cur, cmap))
        cur = coarse
        if shrink < SHRINK_LIMIT:
            break

    p = initial_bipartition(cur, cfg.epsilon, INITIAL_ATTEMPTS,
                            rng.getrandbits(64))
    p = fm_refine(cur, p, cfg.epsilon, MAX_FM_PASSES)
    for fine, cmap in reversed(levels):
        # Contraction adds up vertex weights, so the block weights carry over.
        p = Partition(np.asarray(p.block)[cmap].tolist(), list(p.block_weight))
        p = fm_refine(fine, p, cfg.epsilon, MAX_FM_PASSES)
    if not is_balanced(g, p, cfg.epsilon):
        logger.warning("final partition violates the balance constraint "
                       "(infeasible vertex weights?)")
    return p
