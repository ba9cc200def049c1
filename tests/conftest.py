"""Shared fixtures: tiny named graphs, seeded random corpora, oracles."""

from __future__ import annotations

import heapq
import math
import random
from collections import deque

import numpy as np
import pytest

from treepart import (Graph, MetisFormatError, Partition, RootedTree,
                      balance_cap, is_balanced, sample_bft)
from treepart.partition import check_partition


@pytest.fixture
def p3():
    """Path a-b-c with unit weights (vertices 0-1-2)."""
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def c4():
    """4-cycle 0-1-2-3-0 with unit weights."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def p4():
    """Path 0-1-2-3 with unit weights."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def k2():
    return Graph.from_edges(2, [(0, 1)])


@pytest.fixture
def triangle():
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def star_plus():
    """Star 0-1 with 1-2, 1-3 plus the extra edge {2, 3}."""
    return Graph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)])


def chorded_c6() -> Graph:
    """6-cycle 0-1-2-3-4-5-0 with the chord {0, 3}."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                (0, 5), (0, 3)])


# Partitions of chorded_c6 that a refiner must reject, with the message.
MALFORMED_PARTITIONS = [
    pytest.param([0, 0, 0, 1, 1, 1], [0, 0], "block_weight", id="stale"),
    pytest.param([0, 0, 0, 1, 1, 1], [4, 2], "block_weight", id="off"),
    pytest.param([0, 0, 0, 1, 1, 2], [3, 3], "block ids", id="id-2"),
    pytest.param([0, 0, 0, 1, 1, -1], [3, 3], "block ids", id="id-neg"),
    pytest.param([0, 0, 0, 1, 1, 0.5], [3, 3], "block ids", id="id-half"),
    pytest.param([0, 0, 0, 1, 1], [3, 2], "length", id="short"),
]


def neighbors(g: Graph, v: int) -> list[int]:
    """Neighbours of v in ascending id, read off the CSR arrays."""
    return g.adj_nbr[g.adj_off[v]:g.adj_off[v + 1]].tolist()


def edge_id(g: Graph, u: int, v: int) -> int:
    """Canonical id of the edge {u, v}; KeyError if there is none."""
    nbrs = neighbors(g, u)
    if v not in nbrs:
        raise KeyError((u, v))
    return int(g.adj_eid[g.adj_off[u] + nbrs.index(v)])


def volume(g: Graph, vertices) -> float:
    """Total weighted degree of a vertex set.

    Edges with both endpoints inside the set count twice, once per endpoint.
    """
    idx = np.fromiter(vertices, dtype=np.int64)
    if idx.size == 0:
        return 0.0
    if idx.min() < 0 or idx.max() >= g.n:
        raise ValueError("vertex id out of range")
    return float(g.weighted_degree[idx].sum())


def copy_partition(p: Partition) -> Partition:
    """Independent lists, also when the fields are arrays or tuples."""
    return Partition(list(p.block), list(p.block_weight))


def random_connected_graph(rng: random.Random, n_lo: int = 3, n_hi: int = 12,
                           w_lo: int = 1, w_hi: int = 10,
                           extra_frac: float = 0.6) -> Graph:
    """Random connected graph: a random spanning tree plus extra edges."""
    n = rng.randint(n_lo, n_hi)
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        u = verts[rng.randrange(i)]
        v = verts[i]
        edges.add((min(u, v), max(u, v)))
    max_extra = n * (n - 1) // 2 - (n - 1)
    for _ in range(int(extra_frac * n * 2)):
        if len(edges) - (n - 1) >= max_extra:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edge_list = sorted(edges)
    weights = [rng.randint(w_lo, w_hi) for _ in edge_list]
    return Graph.from_edges(n, edge_list, edge_weights=weights)


def random_balanced_blocks(g: Graph, rng: random.Random) -> list[int] | None:
    """Random bipartition with ceil(n/2) zeros; None when unbalanceable."""
    n = g.n
    if n < 2:
        return None
    ids = list(range(n))
    rng.shuffle(ids)
    block = [1] * n
    for v in ids[: (n + 1) // 2]:
        block[v] = 0
    return block


def external_degrees(g: Graph, block) -> list[int]:
    """Per-vertex count of neighbors in the other block, by adjacency scan."""
    return [sum(block[t] != block[v] for t in neighbors(g, v))
            for v in range(g.n)]


def scalar_visit_order(rng: random.Random, k: int) -> list[int]:
    """Oracle: the visiting order of one postprocessing round of k snapshot
    vertices. One getrandbits(64k) draw is read as k little-endian 64-bit
    keys; key i gets i in its low k.bit_length() bits, and the indices are
    listed by ascending key."""
    raw = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
    low = k.bit_length()
    keys = [int.from_bytes(raw[8 * i:8 * i + 8], "little") >> low << low | i
            for i in range(k)]
    return sorted(range(k), key=keys.__getitem__)


def scalar_mcv_postprocess(g: Graph, p: Partition, rounds: int = 20,
                           epsilon: float = 0.03, seed: int = 0,
                           on_accept=None, stats: dict | None = None
                           ) -> Partition:
    """Oracle: MCV postprocessing that decides each move by scanning N(v).

    Same move order, rules, `on_accept` calls and `stats["rounds"]` as
    treepart.mcv_postprocess, but every decision counts the neighbours that
    would become boundary or internal one adjacency entry at a time, so one
    decision costs O(deg(v)). Its `max_round_touches` counts the snapshot
    scan plus every adjacency entry read, and is not comparable.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if not is_balanced(g, p, epsilon):
        raise ValueError("input partition violates the balance constraint")
    out = copy_partition(p)
    cap = balance_cap(g, epsilon)
    block = out.block
    bw = out.block_weight
    ext = external_degrees(g, block)
    vols = [sum(1 for v in range(g.n) if ext[v] and block[v] == b)
            for b in (0, 1)]
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
        boundary = [boundary[i]
                    for i in scalar_visit_order(rng, len(boundary))]
        executed += 1
        touches = g.n
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


def scalar_fm_refine(g: Graph, p: Partition, epsilon: float,
                     max_passes: int) -> Partition:
    """Oracle: boundary FM that heapifies one tuple per boundary vertex.

    Same moves, stamps, pass rule and result as treepart.fm_refine, but
    every pass lists the boundary in a loop over all n vertices and builds
    one heap of (cut change, stamp, vertex) entries from it.
    """
    out = check_partition(g, p)
    if max_passes < 0:
        raise ValueError(f"max_passes must be >= 0, got {max_passes}")
    cap = balance_cap(g, epsilon)
    if g.n < 2 or g.m == 0:
        return out
    stall_limit = max(100, g.n // 25)
    block = out.block
    bw = out.block_weight
    off = g.adj_off_list
    nbr = g.adj_nbr_list
    w = g.adj_w_list
    c = g.vertex_c.tolist()
    wdeg = g.weighted_degree.tolist()

    for _ in range(max_passes):
        blk = np.asarray(block)
        cross = blk[g.edge_u] != blk[g.edge_v]
        start_cut = float(g.edge_w[cross].sum())
        across = (np.bincount(g.edge_u[cross], weights=g.edge_w[cross],
                              minlength=g.n)
                  + np.bincount(g.edge_v[cross], weights=g.edge_w[cross],
                                minlength=g.n)).tolist()

        # Heap entries carry the gain at push time. Improved gains push a
        # fresh entry right away; worsened ones are caught by comparing the
        # popped entry against the current gain and re-pushing.
        heap: list[tuple[float, int, int]] = []
        stamp = 0
        for v in range(g.n):
            if across[v] > 0:
                heap.append((wdeg[v] - 2.0 * across[v], stamp, v))
                stamp += 1
        heapq.heapify(heap)

        moved = bytearray(g.n)
        seq: list[int] = []
        cur = start_cut
        # Best prefix by (over the cap, cut, heavier block weight): a
        # balanced prefix beats any unbalanced one, and equal-cut prefixes
        # prefer the more balanced state.
        best = start = (max(bw) > cap, start_cut, float(max(bw)))
        best_len = 0
        since_best = 0
        while heap and since_best < stall_limit:
            neg_gain, _, v = heapq.heappop(heap)
            if moved[v]:
                continue
            current = wdeg[v] - 2.0 * across[v]
            if neg_gain != current:
                if across[v] > 0:
                    heapq.heappush(heap, (current, stamp, v))
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
            key = (max(bw) > cap, cur, float(max(bw)))
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
                        heapq.heappush(
                            heap, (wdeg[t] - 2.0 * across[t], stamp, t))
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
    return out


def cut_corpus(count: int = 1000, seed: int = 20240501):
    """Seeded random connected graphs with random BFT spanning trees."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        g = random_connected_graph(rng, n_lo=3, n_hi=12, w_lo=1, w_hi=10)
        t = sample_bft(g, rng.randrange(2 ** 32))
        corpus.append((g, t))
    return corpus


def level_sync_bft(g: Graph, seed: int):
    """Oracle: one BFT tree grown alone, level by level.

    Draws the root and 2m entry keys from `np.random.default_rng(seed)`
    like treepart.sampling. Every new vertex is claimed by the frontier
    entry minimizing (frontier position of the source, entry key), found by
    a lexsort over all new entries, and the next frontier is ordered by
    the same pair, ties by vertex id.

    Returns (root, parent, parent_edge, depth) as arrays; the root is its
    own parent. Raises ValueError if the graph is not connected.
    """
    n = g.n
    rng = np.random.default_rng(seed)
    root = int(rng.integers(n))
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    parent[root] = root
    if n == 1:
        return root, parent, parent_edge, depth
    keys = rng.random(2 * g.m)
    off = g.adj_off
    visited = np.zeros(n, dtype=bool)
    visited[root] = True
    frontier = np.asarray([root], dtype=np.int64)
    reached = 1
    d = 0
    while frontier.size:
        starts = off[frontier]
        counts = off[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        shift = np.concatenate([[0], np.cumsum(counts)[:-1]])
        entries = np.repeat(starts - shift, counts) + np.arange(total)
        tgt = g.adj_nbr[entries]
        new = ~visited[tgt]
        if not new.any():
            break
        tgt = tgt[new]
        entries = entries[new]
        rank = np.repeat(np.arange(frontier.size), counts)[new]
        key = keys[entries]
        order = np.lexsort((key, rank, tgt))
        tgt_sorted = tgt[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        first[1:] = tgt_sorted[1:] != tgt_sorted[:-1]
        sel = order[first]
        chosen = tgt[sel]
        parent[chosen] = frontier[rank[sel]]
        parent_edge[chosen] = g.adj_eid[entries[sel]]
        d += 1
        depth[chosen] = d
        visited[chosen] = True
        reached += chosen.size
        frontier = chosen[np.lexsort((key[sel], rank[sel]))]
    if reached != n:
        raise ValueError("graph is not connected")
    return root, parent, parent_edge, depth


def queue_bft(g: Graph, seed: int):
    """Oracle: the sampling definition as a plain FIFO-queue BFS.

    Same root and keys as `level_sync_bft`; each popped vertex scans its
    adjacency entries in ascending key order and claims every neighbor not
    yet seen. Returns (root, parent, parent_edge, depth) as lists.
    """
    n = g.n
    rng = np.random.default_rng(seed)
    root = int(rng.integers(n))
    keys = rng.random(2 * g.m).tolist() if n > 1 else []
    off, nbr, eid = g.adj_off_list, g.adj_nbr_list, g.adj_eid.tolist()
    parent, parent_edge, depth = [-1] * n, [-1] * n, [0] * n
    parent[root] = root
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for i in sorted(range(off[u], off[u + 1]), key=keys.__getitem__):
            v = nbr[i]
            if parent[v] < 0:
                parent[v], parent_edge[v], depth[v] = u, eid[i], depth[u] + 1
                queue.append(v)
    if min(parent) < 0:
        raise ValueError("graph is not connected")
    return root, parent, parent_edge, depth


def orientation_counts(g: Graph, tree_list):
    """(min_closer, max_closer) of (root, parent, parent_edge, ...) trees,
    counted edge by edge."""
    min_c = np.zeros(g.m, dtype=np.int64)
    max_c = np.zeros(g.m, dtype=np.int64)
    for _, parent, parent_edge, *_ in tree_list:
        for v in range(g.n):
            e = int(parent_edge[v])
            if e >= 0:
                if parent[v] < v:
                    min_c[e] += 1
                else:
                    max_c[e] += 1
    return min_c, max_c


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def union_find_components(g: Graph) -> list[list[int]]:
    """Oracle: components by union-find over the edges, each in ascending
    id, ordered by their smallest vertex."""
    uf = UnionFind(g.n)
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        uf.union(u, v)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(uf.find(v), []).append(v)
    return list(groups.values())


def kruskal_mst(g: Graph, values) -> np.ndarray:
    """Oracle: Kruskal over edges in (value, edge id) order with a
    union-find. Returns the sorted tree edge ids; raises ValueError if the
    graph is not connected."""
    order = np.lexsort((np.arange(g.m), np.asarray(values, dtype=np.float64)))
    eu, ev = g.edge_u.tolist(), g.edge_v.tolist()
    uf = UnionFind(g.n)
    chosen = []
    for e in order.tolist():
        if len(chosen) == g.n - 1:
            break
        if uf.union(eu[e], ev[e]):
            chosen.append(e)
    if len(chosen) != g.n - 1:
        raise ValueError("graph is not connected")
    return np.asarray(sorted(chosen), dtype=np.int64)


def tadj_root_and_label(g: Graph, tree_edges, root: int) -> RootedTree:
    """Oracle: root a spanning tree by a DFS over per-vertex lists of
    (neighbour, edge id) tuples, each sorted, so children are labelled in
    ascending id. Raises ValueError if the edges do not span the graph."""
    n = g.n
    tadj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in tree_edges:
        u, v = int(g.edge_u[e]), int(g.edge_v[e])
        tadj[u].append((v, e))
        tadj[v].append((u, e))
    for lst in tadj:
        lst.sort()
    parent, parent_edge, depth = [-1] * n, [-1] * n, [0] * n
    label = [-1] * n
    preorder: list[int] = []
    parent[root] = root
    stack = [root]
    while stack:
        u = stack.pop()
        label[u] = len(preorder)
        preorder.append(u)
        for v, e in reversed(tadj[u]):
            if parent[v] == -1 and v != root:
                parent[v], parent_edge[v], depth[v] = u, e, depth[u] + 1
                stack.append(v)
    if len(preorder) != n:
        raise ValueError("tree_edges do not span the graph")
    max_label = label[:]
    for v in reversed(preorder):
        p = parent[v]
        if p != v:
            max_label[p] = max(max_label[p], max_label[v])
    return RootedTree(root, *(np.asarray(x, dtype=np.int64) for x in (
        parent, parent_edge, depth, label, max_label, preorder)))


def naive_lca(t: RootedTree, u: int, v: int) -> int:
    """Oracle: collect u's ancestor set, then walk v upwards."""
    ancestors = {u}
    x = u
    while t.parent[x] != x:
        x = t.parent[x]
        ancestors.add(x)
    while v not in ancestors:
        v = t.parent[v]
    return v


def postorder_cut_aggregates(g: Graph, t: RootedTree):
    """Oracle: fundamental-cut conductances and the three per-vertex
    aggregates (subtree volume, intra and inter weight) from one postorder
    traversal that walks parent pointers to each non-tree edge's LCA.

    Returns (cond, subtree_vol, intra_weight, inter_weight); cond is NaN on
    non-tree edges. Independent of the prefix-sum and binary-lifting code in
    treepart.fundcut, whose results it must reproduce.
    """
    n = g.n
    off = g.adj_off_list
    nbr = g.adj_nbr_list
    eid = g.adj_eid.tolist()
    w = g.edge_w.tolist()
    wdeg = g.weighted_degree.tolist()
    total = g.total_volume
    label, max_label = t.label.tolist(), t.max_label.tolist()
    parent, depth = t.parent.tolist(), t.depth.tolist()
    has_child = bytearray(n)
    for v in range(n):
        if parent[v] != v:
            has_child[parent[v]] = 1

    is_tree = bytearray(g.m)
    for e in t.parent_edge.tolist():
        if e >= 0:
            is_tree[e] = 1

    def walk_lca(a, b):
        while depth[a] > depth[b]:
            a = parent[a]
        while depth[b] > depth[a]:
            b = parent[b]
        while a != b:
            a = parent[a]
            b = parent[b]
        return a

    sub = [0.0] * n
    intra = [0.0] * n
    inter = [0.0] * n
    cond = np.full(g.m, np.nan)
    for u in reversed(t.preorder.tolist()):
        pe = -1
        if not has_child[u]:
            # Leaf: every incident non-tree edge leaves the subtree.
            sub[u] = wdeg[u]
            for i in range(off[u], off[u + 1]):
                e = eid[i]
                if is_tree[e]:
                    pe = e
                else:
                    intra[walk_lca(u, nbr[i])] += w[e]
                    inter[u] += w[e]
        else:
            for i in range(off[u], off[u + 1]):
                e = eid[i]
                v = nbr[i]
                if is_tree[e]:
                    if label[u] < label[v]:
                        sub[u] += sub[v]
                        inter[u] += inter[v]
                    else:
                        pe = e
                elif not label[u] <= label[v] <= max_label[u]:
                    # Edges into the subtree are counted at the other end.
                    intra[walk_lca(u, v)] += w[e]
                    inter[u] += w[e]
            sub[u] += wdeg[u]
            inter[u] -= intra[u]
        if pe >= 0:
            cond[pe] = (inter[u] + w[pe]) / min(sub[u], total - sub[u])
    return cond, np.asarray(sub), np.asarray(intra), np.asarray(inter)


def brute_force_conductance(g: Graph, t: RootedTree, edge_id: int) -> float:
    """Oracle: delete the tree edge, two-color, and apply the definition.

    Independent of the array pass in treepart.fundcut; used to validate it.
    """
    a = int(g.edge_u[edge_id])
    b = int(g.edge_v[edge_id])
    if t.parent_edge[a] != edge_id and t.parent_edge[b] != edge_id:
        raise ValueError("edge is not a tree edge")
    tadj: list[list[int]] = [[] for _ in range(g.n)]
    for v, e in enumerate(t.parent_edge.tolist()):
        if e >= 0 and e != edge_id:
            p = int(t.parent[v])
            tadj[v].append(p)
            tadj[p].append(v)
    side = bytearray(g.n)
    side[a] = 1
    vol_a = float(g.weighted_degree[a])
    queue = [a]
    while queue:
        u = queue.pop()
        for v in tadj[u]:
            if not side[v]:
                side[v] = 1
                vol_a += float(g.weighted_degree[v])
                queue.append(v)
    cut = 0.0
    for e in range(g.m):
        if side[g.edge_u[e]] != side[g.edge_v[e]]:
            cut += float(g.edge_w[e])
    return cut / min(vol_a, g.total_volume - vol_a)


def scalar_parse_metis(text: str | bytes) -> Graph:
    """Oracle: the METIS reader one line and one entry at a time.

    Each ordered pair (u, v) accumulates its weight in file order and its
    entry count in a dict; every pair must meet its reverse. Raises
    MetisFormatError with the first fault in file order. Independent of the
    array pass in treepart.metis_io, whose results and messages it must
    reproduce.
    """
    def read(kind, token):
        try:
            if "_" not in token:
                return kind(token)
        except ValueError:
            pass
        name = "integer" if kind is int else "numeric"
        raise MetisFormatError(f"invalid {name} token {token!r}")

    if not text.isascii():
        raise MetisFormatError("input is not ASCII")
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    lines = [ln for ln in lines if not ln.startswith("%")]
    if not lines or not lines[0].split():
        raise MetisFormatError("missing header line")

    header = lines[0].split()
    if len(header) not in (2, 3):
        raise MetisFormatError(f"header must be 'n m [fmt]', got {header!r}")
    n, m_header = read(int, header[0]), read(int, header[1])
    if n < 1 or m_header < 0:
        raise MetisFormatError(f"header needs n >= 1 and m >= 0, got {header!r}")
    fmt = header[2] if len(header) == 3 else "0"
    if fmt not in ("0", "00", "1", "01", "10", "11"):
        raise MetisFormatError(f"unsupported fmt flag {fmt!r}")
    has_vweights = fmt in ("10", "11")
    has_eweights = fmt in ("1", "01", "11")

    body = lines[1:]
    if len(body) < n:
        raise MetisFormatError(f"expected {n} vertex lines, found {len(body)}")
    if any(ln.strip() for ln in body[n:]):
        raise MetisFormatError(f"more than the {n} vertex lines")

    vertex_c = np.ones(n, dtype=np.int64)
    directed: dict[tuple[int, int], list[float]] = {}
    entries = 0
    for u in range(n):
        tokens = body[u].split()
        pos = 0
        if has_vweights:
            if not tokens:
                raise MetisFormatError(f"vertex {u + 1}: missing vertex weight")
            cw = read(float, tokens[0])
            if cw <= 0 or not cw.is_integer():
                raise MetisFormatError(
                    f"vertex {u + 1}: vertex weight must be a positive integer")
            if cw >= 2 ** 53:
                raise MetisFormatError(
                    f"vertex {u + 1}: vertex weight must be below 2**53")
            vertex_c[u] = int(cw)
            pos = 1
        step = 2 if has_eweights else 1
        if (len(tokens) - pos) % step:
            raise MetisFormatError(f"vertex {u + 1}: ragged adjacency line")
        while pos < len(tokens):
            t = read(int, tokens[pos])
            if t < 1 or t > n:
                raise MetisFormatError(
                    f"vertex {u + 1}: neighbor id {t} out of range")
            v = t - 1
            if v == u:
                raise MetisFormatError(f"vertex {u + 1}: self-loop")
            w = read(float, tokens[pos + 1]) if has_eweights else 1.0
            if not 0.0 < w < math.inf:
                raise MetisFormatError(
                    f"vertex {u + 1}: edge weight must be positive and finite")
            acc = directed.setdefault((u, v), [0.0, 0])
            acc[0] += w
            acc[1] += 1
            entries += 1
            pos += step

    if sum(vertex_c.tolist()) >= 2 ** 53:
        raise MetisFormatError("vertex weights sum to 2**53 or more")
    if entries != 2 * m_header:
        raise MetisFormatError(
            f"header claims {m_header} edges but file lists {entries} "
            f"adjacency entries (expected {2 * m_header})")
    for (u, v), (w, cnt) in directed.items():
        back = directed.get((v, u))
        if back is None or back[1] != cnt or back[0] != w:
            raise MetisFormatError(
                f"asymmetric adjacency between vertices {u + 1} and {v + 1}")

    pairs = [(u, v) for (u, v) in directed if u < v]
    weights = [directed[p][0] for p in pairs]
    if not math.isfinite(2.0 * sum(weights)):
        raise MetisFormatError("edge weights overflow: merged weights and "
                               "total volume must be finite")
    return Graph.from_edges(n, pairs, edge_weights=weights,
                            vertex_weights=vertex_c)
