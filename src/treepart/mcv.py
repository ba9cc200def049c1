"""Maximum communication volume: metric, edge cut, greedy postprocessing.

A block's communication volume counts, over its vertices, how many other
blocks each vertex touches; with two blocks that is simply the number of
boundary vertices in the block. MCV is the maximum over blocks.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import Callable

import numpy as np

from .graph import Graph, _int_scalar
from .partition import (EPSILON, Partition, _as_blocks, _weights_by_block,
                        balance_cap)

MCV_ROUNDS = 20  # default number of postprocessing rounds


def _boundary(g: Graph, blk: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """External degree of every vertex (its neighbors in the other block)
    and the per-block counts of boundary vertices, where it is positive."""
    cross = blk[g.edge_u] != blk[g.edge_v]
    ext = (np.bincount(g.edge_u[cross], minlength=g.n)
           + np.bincount(g.edge_v[cross], minlength=g.n))
    return ext, [int(np.count_nonzero((ext > 0) & (blk == b))) for b in (0, 1)]


def comm_volumes(g: Graph, p: Partition) -> tuple[int, int]:
    """Per-block communication volumes, recomputed from scratch. Raises
    ValueError unless p.block gives each vertex the block 0 or 1."""
    return tuple(_boundary(g, _as_blocks(g, p.block))[1])


def mcv(g: Graph, p: Partition) -> int:
    return max(comm_volumes(g, p))


def edge_cut(g: Graph, p: Partition) -> float:
    """Total weight of edges crossing the partition. Raises ValueError
    unless p.block gives each vertex the block 0 or 1."""
    blk = _as_blocks(g, p.block)
    return float(g.edge_w[blk[g.edge_u] != blk[g.edge_v]].sum())


def _visit_order(rng: random.Random, k: int) -> list[int]:
    """A seeded permutation of range(k): one 64-bit key per index, drawn in
    one batch from rng, the index written into its low bits so the keys
    are distinct. The keys are sorted in place and the indices read back
    from their low bits, which lists them in ascending key order."""
    low = k.bit_length()
    keys = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"),
                         dtype="<u8") >> low
    keys <<= low
    keys |= np.arange(k, dtype=np.uint64)
    keys.sort()
    keys &= (1 << low) - 1
    return keys.tolist()


def mcv_postprocess(g: Graph, p: Partition, rounds: int = MCV_ROUNDS,
                    epsilon: float = EPSILON, seed: int = 0,
                    on_accept: Callable[[list[int], tuple[int, int], list[int]], None] | None = None,
                    stats: dict | None = None) -> Partition:
    """Greedy rounds of single-vertex moves that never increase MCV.

    Each round snapshots the boundary vertices and visits them in a seeded
    random order; a vertex moves to the opposite block when the move keeps
    or reduces MCV and preserves balance. The order of a round with k
    snapshot vertices comes from one `getrandbits(64k)` call on the run's
    `random.Random(seed)`: the draw is cut into k little-endian 64-bit
    keys, the low `k.bit_length()` bits of each key are replaced by its
    snapshot index, and the vertices are visited in ascending key order.

    Deciding one vertex costs O(1). Besides its external degree ext[u]
    (neighbours in the other block), every vertex u keeps bb[u], its
    neighbours in its own block with external degree 0, which turn boundary
    if u leaves, and bi[u], its neighbours in the other block with external
    degree 1, which turn internal if u joins them; all three are set up
    with bincounts over the adjacency entries. Moving v changes the volume
    of its block by bb[v] - 1 and that of the other block by
    [deg(v) > ext[v]] - bi[v]. So with top = max(vols), the move of v from
    block b keeps MCV <= top iff bb[v] <= room[b] = top - vols[b] + 1 and
    bi[v] - [deg(v) > ext[v]] >= need[b] = vols[1 - b] - top. Both
    thresholds are kept per block and reset after each accepted move, and
    they are tested before the rarer rejections: a vertex no longer on the
    boundary, and a move that breaks balance or empties a block.

    An accepted move of v passes once over N(v), updating the external
    degrees and v's part in its neighbours' counters and recounting bb[v]
    and bi[v]. A neighbour t whose external degree crosses between the
    classes 0, 1 and >= 2 also moves its part in the counters of its other
    neighbours, one pass over N(t). While t stays in its block it crosses
    at most 6 times a round: each decrement uses up a neighbour in the
    other block that has not moved yet, and once ext[t] <= 2 at most 2 are
    left. Every vertex moves at most once a round, so a round costs at most
    n + 2m + 24m = n + 26m adjacency touches. `stats["max_round_touches"]`
    is the largest over the rounds of n (the boundary snapshot) plus deg(v)
    per accepted move plus deg(t) per class change; `stats["rounds"]` is
    the executed round count (both 0 when no round runs, e.g. on a graph
    without edges).

    The moves trade edge cut for communication volume, so the cut may grow.
    `on_accept`, if given, is called after every accepted move with the
    maintained (block, volumes, external_degree) state; tests use it to
    cross-check the incremental bookkeeping. Raises ValueError when p.block
    is malformed (see :meth:`Partition.from_blocks`), a block weight
    recounted from it exceeds the balance cap, or rounds is not an int >= 0.
    """
    blk = _as_blocks(g, p.block)
    rounds = _int_scalar(rounds, "rounds", 0)
    cap = balance_cap(g, epsilon)
    bw = _weights_by_block(g, blk)
    if max(bw) > cap:
        raise ValueError("input partition violates the balance constraint")
    n = g.n
    block = blk.tolist()
    ext, vols = _boundary(g, blk)
    src = g.csr_src
    ext_nbr = ext[g.adj_nbr]
    bb = np.bincount(src[ext_nbr == 0], minlength=n).tolist()
    bi = np.bincount(src[(ext_nbr == 1) & (blk[src] != blk[g.adj_nbr])],
                     minlength=n).tolist()
    ext = ext.tolist()
    off = g.adj_off_list
    nbr = g.adj_nbr_list
    deg = np.diff(g.adj_off).tolist()
    c = g.vertex_c.tolist()
    rng = random.Random(seed)
    top = max(vols)
    room = [top - vols[0] + 1, top - vols[1] + 1]
    need = [vols[1] - top, vols[0] - top]

    executed = 0
    max_touches = 0
    for _ in range(rounds):
        boundary = list(compress(range(n), ext))
        if not boundary:
            break
        executed += 1
        touches = n  # boundary snapshot scan
        accepted = 0
        for i in _visit_order(rng, len(boundary)):
            v = boundary[i]
            b = block[v]
            if bb[v] > room[b]:
                continue
            ev = ext[v]
            same = deg[v] - ev
            if bi[v] - (same > 0) < need[b] or not ev:
                continue
            o = 1 - b
            if bw[o] + c[v] > cap or bw[b] == c[v]:
                continue
            block[v] = o
            bw[b] -= c[v]
            bw[o] += c[v]
            vols[b] += bb[v] - 1
            vols[o] += (same > 0) - bi[v]
            top = max(vols)
            room = [top - vols[0] + 1, top - vols[1] + 1]
            need = [vols[1] - top, vols[0] - top]
            ext[v] = same
            lo, hi = off[v], off[v + 1]
            touches += hi - lo
            # bb[v] and bi[v] are recounted into these, which overwrite
            # what the class changes of v's neighbours add to them.
            bbv = biv = 0
            for t in nbr[lo:hi]:
                e = ext[t]
                if block[t] == b:  # t lost v from its block
                    ext[t] = e + 1
                    if e == 0:
                        # t leaves bb of its neighbours and joins bi[v]
                        biv += 1
                        touches += deg[t]
                        for x in nbr[off[t]:off[t + 1]]:
                            bb[x] -= 1
                    elif e == 1:
                        # t leaves bi of its old external neighbour
                        touches += deg[t]
                        for x in nbr[off[t]:off[t + 1]]:
                            if block[x] != b and x != v:
                                bi[x] -= 1
                                break
                    if same == 1:
                        bi[t] += 1  # v's one neighbour left behind
                else:  # t gained v
                    ext[t] = e - 1
                    if e == 1:
                        # t joins bb of its neighbours and of v
                        bbv += 1
                        touches += deg[t]
                        for x in nbr[off[t]:off[t + 1]]:
                            bb[x] += 1
                    elif e == 2:
                        # t joins bi of its last external neighbour
                        touches += deg[t]
                        for x in nbr[off[t]:off[t + 1]]:
                            if block[x] != o:
                                bi[x] += 1
                                break
                    if ev == 1:
                        bi[t] -= 1  # t was v's one external neighbour
                    if not same:
                        bb[t] += 1  # v turned internal
            bb[v] = bbv
            bi[v] = biv
            accepted += 1
            if on_accept is not None:
                on_accept(block, (vols[0], vols[1]), ext)
        max_touches = max(max_touches, touches)
        if not accepted:
            break
    if stats is not None:
        stats["rounds"] = executed
        stats["max_round_touches"] = max_touches
    return Partition(block)
