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
  frontier positions, one entry each.
- A sequential BFS queues the newly reached vertices by (queue position of
  the parent, key of the entry), equal keys in CSR order. The frontier is
  grouped by tree, each part in queue order, so ordering the winning
  entries by (frontier position of the parent, key), ties in CSR order,
  gives exactly that order for every tree. Neither rule depends on W, so
  a tree comes out the same whichever sweep it shares.

The sweep holds each key x as the uint32 floor(x * 2^32). The map is
monotone, so the uint32 order is the float order except where two keys
share their top 32 bits. Each level sorts once: an argsort of the int64
(frontier position << 32 | uint32 key), which fits because frontier
positions stay below W*n < 2^31. Equal neighbors in that order are
siblings whose keys tie on 32 bits. Then, and only then, the level redraws
the float keys of the tied trees from their seeds (the same root and key
draw) and orders its entries with a stable lexsort by (frontier position,
uint32 key, float key), so equal floats keep CSR order. Real draws tie on
32 bits rarely: k siblings tie with probability about k^2 / 2^33. Whole
partitions of an 8 x 1250 strip and of generate_scale_free(10^4, 4) take
no fallback, and contrast(star with 2^17 leaves, 20, 1) takes it on 18
levels.

Each level finds the claims in one of two directions (direction-optimizing
BFS, Beamer, Asanovic & Patterson 2012):

- Top-down expands every entry of the frontier, and `np.minimum.at` over
  the entries' positions finds each slot's first one.
- Bottom-up has each unseen slot v scan its own entries v -> u for the
  frontier neighbor u of least frontier position, with one
  `np.minimum.reduceat`. That u is the parent top-down finds, and the
  claimed entry is the one entry u -> v, the reverse of the scanned entry.
  The winners reach the sort in slot order, which for one parent is its
  CSR order, so the fallback's stable lexsort breaks exact key ties the
  same way as well.

A level runs bottom-up when its frontier has more entries (fdeg) than the
unseen slots have plus W*n/8. The unseen slots' entry count starts at
W*2m and loses each level's fdeg; when it reaches 0 the sweep stops, with
no level expanded just to find nothing. Each slot is in one frontier, so
the fdeg of all levels sum to at most W*2m: the top-down expansions and
the bottom-up entry scans are each at most W*2m per sweep, and the W*n
scans for unseen slots, which run only while W*n/8 < fdeg, sum to less
than 8*W*2m.

W = max(1, min(T, SWEEP_CAP // 2m)) for T trees. A sweep holds W*2m
uint32 keys, 4 bytes each, so SWEEP_CAP = 2^18 entries take the 1 MiB that
2^17 float64 keys took, and the sweep is twice as wide: W = 6 on an
8 x 1250 grid strip. The keys are drawn through one float64 buffer of 2m
entries, which is freed before the levels run. Per slot, the sweep holds
W*n <= W*(m + 1) integers in `via`, and as many in `rank`, the frontier
positions of bottom-up levels, made only at the first bottom-up level
(a strip never takes one). One level of W trees expands or scans at most
W*2m entries, so the cap bounds the keys, the per-slot state and every
per-level temporary together. A graph with more than SWEEP_CAP / 2 edges
is swept one tree at a time. The map from each entry to its reverse, 2m
integers, is built once per `contrast` call.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .graph import Graph, _int_scalar
from .spantree import RootedTree, root_and_label

# Adjacency entries in flight per sweep: 2^18 uint32 keys are 1 MiB.
SWEEP_CAP = 1 << 18
_UNSEEN = np.iinfo(np.int64).max


def _reverse_entries(g: Graph) -> np.ndarray:
    """rev[i] is the adjacency entry of edge adj_eid[i] in the opposite
    orientation, in O(m) and without a sort."""
    down = (g.adj_nbr != g.edge_v[g.adj_eid]).astype(np.int64)
    by_edge = np.empty((g.m, 2), dtype=np.int64)
    by_edge[g.adj_eid, down] = np.arange(2 * g.m)
    return by_edge[g.adj_eid, 1 - down]


def _bottom_up(fdeg: int, unseen: int, slots: int) -> bool:
    """Whether a BFS level runs bottom-up: its frontier has more adjacency
    entries (fdeg) than the unseen slots have (unseen) plus slots / 8."""
    return fdeg > unseen + slots / 8


def _draw(n: int, seed: int, out: np.ndarray) -> int:
    """Draw the root of the tree with this seed and fill `out` with its 2m
    float64 entry keys (none when n = 1)."""
    rng = np.random.default_rng(seed)
    root = int(rng.integers(n))
    if n > 1:
        rng.random(out=out)
    return root


def _exact_keys(g: Graph, seeds: Sequence[int], tree: np.ndarray,
                claimed: np.ndarray, tied: np.ndarray) -> np.ndarray:
    """The float64 keys of entries `claimed` of trees `tree`, redrawn from
    the seeds of the trees in `tied`; 0 for entries of the other trees."""
    full = np.zeros(claimed.size)
    buf = np.empty(2 * g.m)
    for t in np.unique(tied).tolist():
        _draw(g.n, seeds[t], buf)
        mine = tree == t
        full[mine] = buf[claimed[mine]]
    return full


def _sweep(g: Graph, seeds: Sequence[int], rev: np.ndarray | None = None):
    """Grow one random BFT tree per seed, all in one level-synchronous sweep.

    Each tree draws its root and then 2m entry keys (none when n = 1) from
    `np.random.default_rng(seed)`. Returns (roots, entry), entry of shape
    (len(seeds), n): entry[t, v] is the adjacency entry that claimed v in
    tree t, or -1 at the root, so v's parent is `g.csr_src[entry[t, v]]`
    and its parent edge `g.adj_eid[entry[t, v]]`, in exactly the FIFO BFS
    tree of seed t. `rev` is `_reverse_entries(g)`, built here if not
    given. Each level's sort packs frontier positions into 31 bits, so
    len(seeds) * n must be below 2^31. Raises ValueError if the graph is
    not connected.
    """
    n, w, two_m = g.n, len(seeds), 2 * g.m
    off, deg = g.adj_off, np.diff(g.adj_off)
    # So every slot a bottom-up level scans has an entry.
    if n > 1 and not deg.all():
        raise ValueError("graph is not connected")
    if rev is None:
        rev = _reverse_entries(g)
    roots = np.empty(w, dtype=np.int64)
    keys = np.empty(w * two_m, dtype=np.uint32)
    buf = np.empty(two_m)
    for t, s in enumerate(seeds):
        roots[t] = _draw(n, s, buf)
        # floor(x * 2^32): the product is exact and below 2^32.
        keys[t * two_m:(t + 1) * two_m] = np.multiply(buf, 2.0 ** 32,
                                                      out=buf)
    del buf
    # Slot t*n + v is vertex v of tree t, and key t*2m + i is adjacency
    # entry i of tree t. Per slot, `via` holds _UNSEEN until the slot's
    # level, then on a top-down level the position of its first candidate
    # entry, and from then on the entry that claimed it. `rank`, made at
    # the first bottom-up level, holds _UNSEEN until the slot's frontier
    # runs bottom-up, and then its position in that frontier.
    via = np.full(w * n, _UNSEEN, dtype=np.int64)
    rank = None
    # The frontier, grouped by tree, each tree's part in queue order.
    f_tree = np.arange(w, dtype=np.int64)
    f_vert = roots
    via[f_tree * n + roots] = -1
    # Adjacency entries of the unseen slots.
    unseen = w * two_m
    while f_vert.size:
        counts = deg[f_vert]
        ends = counts.cumsum()
        fdeg = int(ends[-1])
        unseen -= fdeg
        if not unseen:
            break
        if not _bottom_up(fdeg, unseen, w * n):
            # Adjacency entry and target slot of every expansion, in
            # frontier order; `pos` is the position in that order.
            entry = (np.arange(fdeg)
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
        else:
            # Each unseen slot scans its own entries v -> u for the
            # frontier neighbor u of least frontier position `src`. Its
            # other neighbors are unseen: one in an earlier frontier
            # would have claimed it.
            if rank is None:
                rank = np.full(w * n, _UNSEEN, dtype=np.int64)
            rank[f_tree * n + f_vert] = np.arange(f_vert.size)
            slot = (via == _UNSEEN).nonzero()[0]
            tree = slot // n
            vert = slot - tree * n
            counts = deg[vert]
            ends = counts.cumsum()
            entry = (np.arange(ends[-1])
                     + (off[vert] + counts - ends).repeat(counts))
            r = rank[(tree * n).repeat(counts) + g.adj_nbr[entry]]
            best = np.minimum.reduceat(r, ends - counts)
            won = best < _UNSEEN
            hit = r == np.where(won, best, -1).repeat(counts)
            slot, tree, src = slot[won], tree[won], best[won]
            claimed = rev[entry[hit]]
        via[slot] = claimed
        # One sort by (parent's frontier position, 32-bit key). Equal
        # neighbors in it are siblings whose keys tie on 32 bits: order
        # them by their float keys, equal floats in CSR order.
        key = keys[claimed + tree * two_m]
        both = src << 32 | key
        order = both.argsort()
        both = both[order]
        tie = both[1:] == both[:-1]
        if tie.any():
            full = _exact_keys(g, seeds, tree, claimed,
                               tree[order[1:][tie]])
            order = np.lexsort((full, key, src))
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
    trees = _int_scalar(trees, "trees", 1)
    seeds = subseeds(seed, trees)
    width = max(1, min(trees, SWEEP_CAP // max(2 * g.m, 1)))
    claims = np.zeros(2 * g.m, dtype=np.int64)
    rev = _reverse_entries(g)
    for lo in range(0, trees, width):
        entry = _sweep(g, seeds[lo:lo + width], rev)[1]
        claims += np.bincount(entry[entry >= 0], minlength=2 * g.m)
    gamma = np.full(g.m, trees, dtype=np.int64)
    np.minimum.at(gamma, g.adj_eid, claims)
    return gamma
