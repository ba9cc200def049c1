"""Random breadth-first-traversal spanning trees and per-edge contrast.

Each sampled tree picks a root uniformly at random and runs a plain BFS
that scans the neighbors of each popped vertex in an independent random
order: every adjacency entry gets a uniform key from the tree's own
generator, and a vertex's neighbors are scanned in ascending key order.
The contrast of an edge is the smaller of the two per-orientation counts of
trees containing it, accumulated over a whole tree collection. The CSR has
one adjacency entry per edge orientation, and the entry u -> v that claims
v in a tree is that tree edge oriented away from the root. So contrast
counts claims per entry and takes, for each edge, the smaller count of its
two entries.

The trees of a collection grow in lockstep. One level-synchronous sweep
advances W trees together over flattened (tree, vertex) slots, so one BFS
level of all W trees costs a fixed number of numpy calls, not one set per
tree. Each tree still draws its root and keys from its own seed, so every
tree is the one a sequential BFS with those keys builds. On each level:

- An undiscovered slot is claimed by the first adjacency entry, in frontier
  order, that reaches it: the neighbor a sequential BFS pops first. The
  graph is simple, so the candidates for one slot come from distinct
  frontier positions, and `np.minimum.at` over the entries' positions finds
  the first one in O(entries).
- A sequential BFS queues the newly reached vertices by (queue position of
  the parent, key of the entry), equal keys in CSR order. The frontier is
  grouped by tree, each part in queue order, so one stable lexsort of the
  winning entries by (frontier position of the parent, key) gives exactly
  that order for every tree. Neither rule depends on W, so a tree comes
  out the same whichever sweep it shares.

W = max(1, min(T, SWEEP_CAP // 2m)) for T trees. A sweep holds W*2m float
keys and W*n <= W*(m + 1) per-slot integers, and one level of one tree
expands at most 2m entries, so the cap bounds the keys, the per-slot state
and every per-level temporary together. A graph with more than
SWEEP_CAP / 2 edges is swept one tree at a time.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .graph import Graph, _int_array
from .spantree import RootedTree, root_and_label

# Adjacency entries in flight per sweep: 2^17 float64 keys are 1 MiB.
SWEEP_CAP = 1 << 17
_UNSEEN = np.iinfo(np.int64).max


def _sweep(g: Graph, seeds: Sequence[int]):
    """Grow one random BFT tree per seed, all in one level-synchronous sweep.

    Each tree draws its root and then 2m entry keys (none when n = 1) from
    `np.random.default_rng(seed)`. Returns (roots, entry), entry of shape
    (len(seeds), n): entry[t, v] is the adjacency entry that claimed v in
    tree t, or -1 at the root, so v's parent is `g.csr_src[entry[t, v]]`
    and its parent edge `g.adj_eid[entry[t, v]]`, in exactly the FIFO BFS
    tree of seed t. Raises ValueError if the graph is not connected.
    """
    n, w, two_m = g.n, len(seeds), 2 * g.m
    roots = np.empty(w, dtype=np.int64)
    keys = np.empty(w * two_m)
    for t, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        roots[t] = rng.integers(n)
        if n > 1:
            rng.random(out=keys[t * two_m:(t + 1) * two_m])
    # Slot t*n + v is vertex v of tree t, and key t*2m + i is adjacency
    # entry i of tree t. Per slot, `via` holds _UNSEEN until the slot's
    # level, then on that level the position of its first candidate entry,
    # and from then on the entry that claimed it.
    off, deg = g.adj_off, np.diff(g.adj_off)
    via = np.full(w * n, _UNSEEN, dtype=np.int64)
    # The frontier, grouped by tree, each tree's part in queue order.
    f_tree = np.arange(w, dtype=np.int64)
    f_vert = roots
    via[f_tree * n + roots] = -1
    while f_vert.size:
        counts = deg[f_vert]
        ends = counts.cumsum()
        # Adjacency entry and target slot of every expansion, in frontier
        # order; `pos` is the position in that order.
        entry = (np.arange(ends[-1])
                 + (off[f_vert] + counts - ends).repeat(counts))
        slot = (f_tree * n).repeat(counts) + g.adj_nbr[entry]
        pos = (via[slot] == _UNSEEN).nonzero()[0]
        slot = slot[pos]
        np.minimum.at(via, slot, pos)
        won = via[slot] == pos
        pos, slot = pos[won], slot[won]
        src = ends.searchsorted(pos, side="right")
        tree = f_tree[src]
        claimed = entry[pos]
        via[slot] = claimed
        order = np.lexsort((keys[claimed + tree * two_m], src))
        f_tree = tree[order]
        f_vert = slot[order] - f_tree * n
    if (via == _UNSEEN).any():
        raise ValueError("graph is not connected")
    return roots, via.reshape(w, n)


def sample_bft(g: Graph, seed: int) -> RootedTree:
    """Sample one random BFT spanning tree, deterministic per seed."""
    roots, entry = _sweep(g, [seed])
    return root_and_label(g, g.adj_eid[entry[entry >= 0]], int(roots[0]))


def subseeds(seed: int, count: int) -> list[int]:
    """Derive independent per-tree seeds from a collection seed."""
    master = random.Random(seed)
    return [master.getrandbits(64) for _ in range(count)]


def contrast(g: Graph, trees: int, seed: int) -> np.ndarray:
    """Per-edge contrast over `trees` sampled BFT trees.

    Tree i is `sample_bft(g, subseeds(seed, trees)[i])`. The trees are
    grown in sweeps of max(1, min(trees, SWEEP_CAP // 2m)) trees each (see
    the module docstring). Claims per adjacency entry repeat across trees,
    so each sweep adds them with one bincount; an edge's contrast is the
    smaller count of its two entries. Raises ValueError if the graph is
    not connected or trees is not an integer >= 1.
    """
    trees = int(_int_array(trees, "trees", 1, np.inf))
    seeds = subseeds(seed, trees)
    width = max(1, min(trees, SWEEP_CAP // max(2 * g.m, 1)))
    claims = np.zeros(2 * g.m, dtype=np.int64)
    for lo in range(0, trees, width):
        entry = _sweep(g, seeds[lo:lo + width])[1]
        claims += np.bincount(entry[entry >= 0], minlength=2 * g.m)
    gamma = np.full(g.m, trees, dtype=np.int64)
    np.minimum.at(gamma, g.adj_eid, claims)
    return gamma
