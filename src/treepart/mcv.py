"""Maximum communication volume: metric, edge cut, greedy postprocessing.

A block's communication volume counts, over its vertices, how many other
blocks each vertex touches; with two blocks that is simply the number of
boundary vertices in the block. MCV is the maximum over blocks.
"""

from __future__ import annotations

import random
from typing import Callable

import numpy as np

from .graph import Graph
from .partition import Partition, balance_cap, is_balanced


def _boundary(g: Graph, blk: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """External degree of every vertex (its neighbors in the other block)
    and the per-block counts of boundary vertices, where it is positive."""
    cross = blk[g.edge_u] != blk[g.edge_v]
    ext = (np.bincount(g.edge_u[cross], minlength=g.n)
           + np.bincount(g.edge_v[cross], minlength=g.n))
    return ext, [int(np.count_nonzero((ext > 0) & (blk == b))) for b in (0, 1)]


def comm_volumes(g: Graph, p: Partition) -> tuple[int, int]:
    """Per-block communication volumes, recomputed from scratch."""
    return tuple(_boundary(g, p.block_array())[1])


def mcv(g: Graph, p: Partition) -> int:
    return max(comm_volumes(g, p))


def edge_cut(g: Graph, p: Partition) -> float:
    """Total weight of edges crossing the partition."""
    blk = p.block_array()
    return float(g.edge_w[blk[g.edge_u] != blk[g.edge_v]].sum())


def mcv_postprocess(g: Graph, p: Partition, rounds: int = 20,
                    epsilon: float = 0.03, seed: int = 0,
                    on_accept: Callable[[list[int], tuple[int, int], list[int]], None] | None = None,
                    stats: dict | None = None) -> Partition:
    """Greedy rounds of single-vertex moves that never increase MCV.

    Each round snapshots the boundary vertices and visits them in a seeded
    random order; a vertex moves to the opposite block when the move keeps
    or reduces MCV and preserves balance. External degrees and volumes are
    counted once up front and then maintained incrementally, so deciding
    one vertex costs O(deg).

    The moves trade edge cut for communication volume, so the cut may grow.
    `on_accept`, if given, is called after every accepted move with the
    maintained (block, volumes, external_degree) state; tests use it to
    cross-check the incremental bookkeeping. A `stats` dict collects the
    executed round count and the peak per-round adjacency touches (both 0
    when no round runs, e.g. on a graph without edges).
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if not is_balanced(g, p, epsilon):
        raise ValueError("input partition violates the balance constraint")
    out = p.copy()
    cap = balance_cap(g, epsilon)
    block = out.block
    bw = out.block_weight
    ext, vols = _boundary(g, out.block_array())
    ext = ext.tolist()
    off = g.adj_off_list
    nbr = g.adj_nbr_list
    c = g.vertex_c.tolist()
    rng = random.Random(seed)

    executed = 0
    max_touches = 0
    for _ in range(rounds):
        boundary = [v for v in range(g.n) if ext[v] > 0]
        if not boundary:
            break
        rng.shuffle(boundary)
        executed += 1
        touches = g.n  # boundary snapshot scan
        accepted = 0
        for v in boundary:
            if ext[v] == 0:
                continue
            b = block[v]
            o = 1 - b
            if bw[o] + c[v] > cap or bw[b] == c[v]:
                continue
            same = 0
            became_internal = 0
            became_boundary = 0
            touches += off[v + 1] - off[v]
            for i in range(off[v], off[v + 1]):
                t = nbr[i]
                if block[t] == b:
                    same += 1
                    if ext[t] == 0:
                        became_boundary += 1
                elif ext[t] == 1:
                    became_internal += 1
            new_b = vols[b] + became_boundary - 1
            new_o = vols[o] - became_internal + (1 if same else 0)
            if max(new_b, new_o) > max(vols):
                continue
            block[v] = o
            bw[b] -= c[v]
            bw[o] += c[v]
            vols[b] = new_b
            vols[o] = new_o
            touches += off[v + 1] - off[v]
            for i in range(off[v], off[v + 1]):
                t = nbr[i]
                ext[t] += 1 if block[t] == b else -1
            ext[v] = same
            accepted += 1
            if on_accept is not None:
                on_accept(block, (vols[0], vols[1]), ext)
        max_touches = max(max_touches, touches)
        if not accepted:
            break
    if stats is not None:
        stats["rounds"] = executed
        stats["max_round_touches"] = max_touches
    return out
