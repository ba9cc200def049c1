"""Random breadth-first-traversal spanning trees and per-edge contrast.

Each sampled tree picks a root uniformly at random and runs a plain FIFO
BFS that scans the neighbors of each popped vertex in an independent
random order. The tree's generator draws the root and then one random
permutation of the vertices, the keys, and a popped vertex scans its
neighbors in ascending key order. The contrast of an edge is the smaller
of the two per-orientation counts of trees containing it, accumulated over
a whole tree collection. The CSR has one adjacency entry per edge
orientation, and the entry u -> v that claims v in a tree is that tree
edge oriented away from the root. So contrast counts claims per entry and
takes, for each edge, the smaller count of its two entries.

One key per vertex samples the same distribution of trees as one key per
adjacency entry. Only the order among a popped vertex's unseen neighbors
matters, and a vertex is an unseen neighbor of exactly one popped vertex,
its parent: after that it is seen. So each key orders one vertex among
its siblings, once, and no earlier decision has looked at it. Sibling
sets are disjoint, and the relative orders that a uniform permutation
gives disjoint sets are uniform and independent, so the children of every
vertex still come in a uniformly random order, independent across
vertices and levels.

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
  the parent, key of the vertex). The frontier is grouped by tree, each
  part in queue order, so ordering the claimed slots by (frontier position
  of the parent, key) gives exactly that order for every tree: one argsort
  of the int64 (frontier position << 32 | key). Keys are distinct within a
  tree and frontier positions across trees, so nothing ties. Neither rule
  depends on W, so a tree comes out the same whichever sweep it shares.

Each level finds the claims in one of two directions (direction-optimizing
BFS, Beamer, Asanovic & Patterson 2012):

- Top-down expands every entry of the frontier and runs one
  `np.minimum.at` of the entries' positions into `via`. A claimed slot
  holds -2 - entry, and a root -1, so every slot claimed on an earlier
  level is negative and keeps its code, while each unseen slot, which
  holds _UNSEEN, takes the position of its first candidate. The winners
  are the entries whose position their slot then holds: one comparison,
  with no pass that first filters out the claimed slots. The sweep
  decodes `via` in place before it returns.
- Bottom-up has each unseen slot v scan its own entries v -> u for the
  frontier neighbor u of least frontier position, with one
  `np.minimum.reduceat`. That u is the parent top-down finds, and the
  claimed entry is the one entry u -> v, the reverse of the scanned entry.
  The map from each entry to its reverse, 2m integers, is built at the
  first bottom-up level of a sweep (a strip never takes one).

A level runs bottom-up when its frontier has more entries (fdeg) than the
unseen slots have plus W*n/8. The unseen slots' entry count starts at
W*2m and loses each level's fdeg; when it reaches 0 the sweep stops, with
no level expanded just to find nothing. Each slot is in one frontier, so
the fdeg of all levels sum to at most W*2m: the top-down expansions and
the bottom-up entry scans are each at most W*2m per sweep, and the W*n
scans for unseen slots, which run only while W*n/8 < fdeg, sum to less
than 8*W*2m.

W = max(1, min(T, SLOT_CAP // n)) for T trees, so a sweep holds at most
SLOT_CAP = 2^19 slots unless n alone is larger: an int32 key and an int32
`via` (the claiming entry) per slot, 4 MiB at the cap. A graph of
n <= 2^19 / T vertices, such as an 8 x 1250 strip, takes all T trees in
one sweep, so a deep graph pays for its diameter once, not T / W times.

Per-level temporaries grow with the entries a level expands, not with the
slots. A level that would expand more than LEVEL_CAP = 2^17 entries, or a
bottom-up level whose W*n slot scan is that wide, splits the sweep into
groups of max(1, LEVEL_CAP // 2m) trees. Each group finishes on its own
views of `via` and the keys, with its own part of the frontier and its
own unseen-entry count. As n <= 2m, no later level of a group reaches the
cap unless one tree alone does, so `rank`, the frontier positions made at
a group's first bottom-up level, holds at most max(LEVEL_CAP, n) slots.
Trees are independent, so the split changes no tree. An 8 x 1250 strip
never splits; generate_scale_free(10^4, 4) splits into single trees at
its first level wider than the cap. The int32 state bounds the graph:
W*n and 2m must stay below 2^31. Then every entry is at most 2^31 - 2, so
its code -2 - entry is at least -2^31 and fits `via`.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from .graph import Graph, _int_scalar
from .spantree import RootedTree, root_and_label

# Slots (tree, vertex) per sweep: int32 keys and `via` take 4 MiB at 2^19.
SLOT_CAP = 1 << 19
# Adjacency entries a level of a multi-tree sweep may expand before the
# sweep splits into groups of trees.
LEVEL_CAP = 1 << 17
_UNSEEN = np.iinfo(np.int32).max


def _reverse_entries(g: Graph) -> np.ndarray:
    """rev[i] is the adjacency entry of edge adj_eid[i] in the opposite
    orientation, as int32, in O(m) and without a sort.

    Row u lists its smaller neighbors first, then the entries u -> v with
    u < v in canonical edge order. So the entry u -> v of edge e sits at e
    plus the count of smaller-neighbor entries in rows 0..u, and every
    other entry is the reverse of the one its edge has there."""
    lower = np.bincount(g.edge_v, minlength=g.n).cumsum().astype(np.int32)
    up = lower[g.edge_u]
    up += np.arange(g.m, dtype=np.int32)
    rev = up[g.adj_eid]
    down = (rev != np.arange(2 * g.m, dtype=np.int32)).nonzero()[0]
    rev[rev[down]] = down
    return rev


def _bottom_up(fdeg: int, unseen: int, slots: int) -> bool:
    """Whether a BFS level runs bottom-up: its frontier has more adjacency
    entries (fdeg) than the unseen slots have (unseen) plus slots / 8."""
    return fdeg > unseen + slots / 8


def _queue(via: np.ndarray, key: np.ndarray, slot: np.ndarray,
           src: np.ndarray, claimed: np.ndarray) -> np.ndarray:
    """Record that entries `claimed` claim slots `slot` from the parents at
    frontier positions `src`, each as the code -2 - entry, and return those
    slots in queue order, by (frontier position of the parent, key)."""
    via[slot] = -2 - claimed
    return slot[(src << 32 | key[slot]).argsort()]


def _top_down(g: Graph, via: np.ndarray, key: np.ndarray,
              f_slot: np.ndarray, f_vert: np.ndarray, counts: np.ndarray,
              ends: np.ndarray, fdeg: int) -> np.ndarray:
    """Expand every entry of the frontier; each unseen slot it reaches is
    claimed by its first entry. Returns the next frontier."""
    # Adjacency entry and target slot of every expansion, in frontier
    # order; `pos` is the position in that order, int32 like `via`:
    # np.minimum.at is ten times slower when it casts.
    pos = np.arange(fdeg, dtype=np.int32)
    entry = (g.adj_off[f_vert] + counts - ends).repeat(counts)
    entry += pos
    slot = (f_slot - f_vert).repeat(counts)
    slot += g.adj_nbr[entry]
    np.minimum.at(via, slot, pos)
    won = (via[slot] == pos).nonzero()[0]
    # The level's full-length arrays go before the claims are queued.
    del pos
    slot, claimed = slot[won], entry[won]
    del entry
    return _queue(via, key, slot, ends.searchsorted(won, side="right"),
                  claimed)


def _bottom_up_level(g: Graph, deg: np.ndarray, via: np.ndarray,
                     key: np.ndarray, rank: np.ndarray,
                     rev: np.ndarray) -> np.ndarray:
    """Have each unseen slot v scan its own entries v -> u for the frontier
    neighbor u of least frontier position `rank`; the claimed entry u -> v
    is the reverse of the scanned one. The other neighbors of v are
    unseen: one in an earlier frontier would have claimed it. Returns the
    next frontier."""
    n = g.n
    slot = (via == _UNSEEN).nonzero()[0]
    vert = slot % n
    counts = deg[vert]
    ends = counts.cumsum()
    entry = np.arange(ends[-1])
    entry += (g.adj_off[vert] + counts - ends).repeat(counts)
    r = (slot - vert).repeat(counts)
    r += g.adj_nbr[entry]
    r = rank[r]
    best = np.minimum.reduceat(r, ends - counts)
    won = best < _UNSEEN
    hit = r == np.where(won, best, -1).repeat(counts)
    return _queue(via, key, slot[won], best[won].astype(np.int64),
                  rev[entry[hit]])


def _sweep(g: Graph, seeds: Sequence[int]):
    """Grow one random BFT tree per seed, all in one level-synchronous sweep.

    Each tree draws its root and then a permutation of the n vertices, its
    keys (none when n = 1), from `np.random.default_rng(seed)`. Returns
    (roots, entry), entry of shape (len(seeds), n): entry[t, v] is the
    adjacency entry that claimed v in tree t, or -1 at the root, so v's
    parent is `g.csr_src[entry[t, v]]` and its parent edge
    `g.adj_eid[entry[t, v]]`, in exactly the FIFO BFS tree of seed t. The
    slot state is int32, so len(seeds) * n and 2m must be below 2^31.
    Raises ValueError if the graph is not connected.
    """
    n, w, two_m = g.n, len(seeds), 2 * g.m
    deg = np.diff(g.adj_off)
    # So every slot a bottom-up level scans has an entry.
    if n > 1 and not deg.all():
        raise ValueError("graph is not connected")
    roots = np.empty(w, dtype=np.int64)
    keys = np.zeros(w * n, dtype=np.int32)
    for t, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        roots[t] = rng.integers(n)
        if n > 1:
            keys[t * n:(t + 1) * n] = rng.permutation(n)
    # Slot t*n + v is vertex v of tree t. `via` holds _UNSEEN until the
    # slot's level, then on a top-down level the position of its first
    # candidate entry, and from then on -2 - the entry that claimed it, or
    # -1 at a root. `rank` holds _UNSEEN until the slot's frontier runs
    # bottom-up, and then its position in that frontier.
    via = np.full(w * n, _UNSEEN, dtype=np.int32)
    f_slot = np.arange(w, dtype=np.int64) * n + roots
    via[f_slot] = -1
    group = max(1, LEVEL_CAP // max(two_m, 1))
    rev = None
    # Each item is a group of trees still to grow: its views of `via` and
    # the keys, its frontier, and the entries of its frontier and unseen
    # slots.
    work = [(via, keys, f_slot, w * two_m)]
    while work:
        part, key, f_slot, unseen = work.pop()
        k = part.size // n
        rank = None
        while f_slot.size:
            f_vert = f_slot % n
            counts = deg[f_vert]
            ends = counts.cumsum()
            fdeg = int(ends[-1])
            unseen -= fdeg
            if not unseen:
                break
            up = _bottom_up(fdeg, unseen, k * n)
            if k > group and (fdeg > LEVEL_CAP or up and k * n > LEVEL_CAP):
                # The frontier is grouped by tree in tree order, so
                # f_slot >= lo * n from one position on, and a binary
                # search finds each group's part. The level's arrays go
                # before the groups are made.
                del f_vert, counts, ends
                for lo in range(0, k, group):
                    a, b = f_slot.searchsorted([lo * n, (lo + group) * n])
                    sub = part[lo * n:(lo + group) * n]
                    front = f_slot[a:b] - lo * n
                    left = (deg[(sub == _UNSEEN).nonzero()[0] % n].sum()
                            + deg[front % n].sum())
                    work.append((sub, key[lo * n:(lo + group) * n], front,
                                 int(left)))
                break
            if not up:
                f_slot = _top_down(g, part, key, f_slot, f_vert, counts,
                                   ends, fdeg)
                continue
            if rev is None:
                rev = _reverse_entries(g)
            if rank is None:
                rank = np.full(k * n, _UNSEEN, dtype=np.int32)
            rank[f_slot] = np.arange(f_slot.size)
            f_slot = _bottom_up_level(g, deg, part, key, rank, rev)
    if (via == _UNSEEN).any():
        raise ValueError("graph is not connected")
    # Decode in place: a copy would raise the sweep's peak memory.
    np.subtract(-2, via, out=via)
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
    grown in sweeps of max(1, min(trees, SLOT_CAP // n)) trees each (see
    the module docstring). Claims per adjacency entry repeat across trees,
    so each tree adds them with one bincount; an edge's contrast is the
    smaller count of its two entries. Raises ValueError if the graph is
    not connected or trees is not an integer >= 1.
    """
    trees = _int_scalar(trees, "trees", 1)
    seeds = subseeds(seed, trees)
    width = max(1, min(trees, SLOT_CAP // g.n))
    claims = np.zeros(2 * g.m, dtype=np.int64)
    for lo in range(0, trees, width):
        for row in _sweep(g, seeds[lo:lo + width])[1]:
            claims += np.bincount(row[row >= 0], minlength=2 * g.m)
    gamma = np.full(g.m, trees, dtype=np.int64)
    np.minimum.at(gamma, g.adj_eid, claims)
    return gamma
