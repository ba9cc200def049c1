import itertools
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treepart import (Graph, PartitionConfig, contrast, generate_scale_free,
                      partition_multilevel, sample_bft)
from treepart import multilevel, sampling
from treepart.sampling import subseeds
from tests.conftest import (cut_corpus, edge_id, interleaved_best,
                            level_sync_bft, neighbors, orientation_counts,
                            queue_bft, random_connected_graph,
                            reverse_entries_by_edge, traced_peak)

# One tree per sweep, and every tree of a collection in one sweep.
CAPS = [1, 2 ** 40]
# Sweeps that never split, that split into groups of max(1, 64 // 2m)
# trees at their first level wider than 64 entries, and that split into
# single trees at their first level.
LEVEL_CAPS = [sampling.LEVEL_CAP, 64, 1]


class TestSampleBft:
    def test_p3_unique_spanning_tree(self, p3):
        for seed in range(5):
            t = sample_bft(p3, seed)
            assert sorted(t.tree_edge_ids()) == [0, 1]

    def test_deterministic(self):
        rng = random.Random(3)
        g = random_connected_graph(rng, n_lo=8, n_hi=12)
        a = sample_bft(g, 99)
        b = sample_bft(g, 99)
        assert a.root == b.root
        assert a.parent.tolist() == b.parent.tolist()
        assert a.parent_edge.tolist() == b.parent_edge.tolist()

    def test_c4_drops_one_cycle_edge(self, c4):
        t = sample_bft(c4, 17)
        ids = t.tree_edge_ids()
        assert len(ids) == 3
        assert len(set(ids)) == 3

    def test_depth_increments_along_parents(self):
        rng = random.Random(5)
        g = random_connected_graph(rng, n_lo=6, n_hi=12)
        t = sample_bft(g, 4)
        for v in range(g.n):
            if v != t.root:
                assert t.depth[v] == t.depth[t.parent[v]] + 1

    def test_is_a_genuine_bfs_tree(self):
        # Depth must equal the hop distance from the root and every parent
        # edge must join a vertex to an actual graph neighbor.
        from collections import deque
        rng = random.Random(16)
        for _ in range(20):
            g = random_connected_graph(rng, n_lo=4, n_hi=20)
            t = sample_bft(g, rng.randrange(10 ** 9))
            for v in range(g.n):
                if v != t.root:
                    e = t.parent_edge[v]
                    assert {int(g.edge_u[e]), int(g.edge_v[e])} == \
                        {v, t.parent[v]}
            dist = [-1] * g.n
            dist[t.root] = 0
            queue = deque([t.root])
            while queue:
                u = queue.popleft()
                for w in neighbors(g, u):
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            assert dist == t.depth.tolist()

    def test_roots_cover_all_vertices(self, p3):
        roots = {sample_bft(p3, s).root for s in range(60)}
        assert roots == {0, 1, 2}

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="not connected"):
            sample_bft(g, 0)


class TestContrast:
    def test_bounds(self):
        rng = random.Random(21)
        for _ in range(15):
            g = random_connected_graph(rng)
            trees = rng.randint(1, 12)
            gamma = contrast(g, trees, rng.randrange(2 ** 32))
            assert np.all(gamma >= 0)
            assert np.all(gamma <= trees // 2)

    def test_bridges_appear_in_every_tree(self, monkeypatch):
        # Two triangles joined by the bridge {2, 3}.
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3),
                                 (3, 4), (3, 5), (4, 5)])
        bridge = edge_id(g, 2, 3)
        gamma, claims = swept_claims(g, 25, 8, monkeypatch)
        both = claims[g.adj_eid == bridge]
        assert both.sum() == 25
        assert gamma[bridge] == both.min()

    def test_counts_sum_bounded_by_trees(self, monkeypatch):
        rng = random.Random(33)
        g = random_connected_graph(rng)
        _, claims = swept_claims(g, 10, 5, monkeypatch)
        assert np.all(claims >= 0)
        assert np.all(np.bincount(g.adj_eid, claims, g.m) <= 10)

    def test_gamma_is_min_of_counts(self, monkeypatch):
        rng = random.Random(47)
        g = random_connected_graph(rng)
        gamma, claims = swept_claims(g, 8, 123, monkeypatch)
        want = [min(claims[g.adj_eid == e]) for e in range(g.m)]
        assert gamma.tolist() == want

    def test_matches_per_tree_sampling(self, monkeypatch):
        # Counting claims equals finding each sample_bft tree edge's
        # parent-to-child entry by hand.
        rng = random.Random(55)
        g = random_connected_graph(rng, n_lo=6, n_hi=10)
        trees, seed = 6, 2024
        want = np.zeros(2 * g.m, dtype=int)
        for sub in subseeds(seed, trees):
            t = sample_bft(g, sub)
            for v in range(g.n):
                if v != t.root:
                    u = t.parent[v]
                    want[g.adj_off[u] + neighbors(g, u).index(v)] += 1
        _, claims = swept_claims(g, trees, seed, monkeypatch)
        assert claims.tolist() == want.tolist()

    def test_p3_roots_at_both_ends_give_gamma_one(self, p3):
        # Find a collection seed whose two trees are rooted at the opposite
        # path ends; each orients {0, 1} differently, so gamma must be 1.
        for seed in range(500):
            roots = {sample_bft(p3, sub).root for sub in subseeds(seed, 2)}
            if roots == {0, 2}:
                gamma = contrast(p3, 2, seed)
                assert gamma[edge_id(p3, 0, 1)] == 1
                return
        pytest.fail("no seed with roots at both path ends found")

    def test_needs_at_least_one_tree(self, p3):
        with pytest.raises(ValueError):
            contrast(p3, 0, 1)


def relabeled(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def family_graph(name, n, rng):
    """Connected graph of one shape family on shuffled vertex ids."""
    if name == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif name == "star":
        edges = [(0, i) for i in range(1, n)]
    elif name == "cycle":
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif name == "caterpillar":
        spine = max(1, n // 2)
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [(rng.randrange(spine), i) for i in range(spine, n)]
    elif name == "strip":  # 8 x n grid
        edges = [(r * n + c, r * n + c + 1) for r in range(8)
                 for c in range(n - 1)]
        edges += [(r * n + c, (r + 1) * n + c) for r in range(7)
                  for c in range(n)]
        n *= 8
    else:
        return random_connected_graph(rng, n_lo=n, n_hi=n)
    return relabeled(n, edges, rng)


def swept_claims(g, trees, seed, monkeypatch):
    """contrast(g, trees, seed) and, counted one by one, the claims per
    adjacency entry of the sweeps it ran."""
    claims = np.zeros(2 * g.m, dtype=np.int64)
    sweep = sampling._sweep

    def recording(g, seeds, *rest):
        roots, entry = sweep(g, seeds, *rest)
        for i in entry[entry >= 0].tolist():
            claims[i] += 1
        return roots, entry

    monkeypatch.setattr(sampling, "_sweep", recording)
    gamma = contrast(g, trees, seed)
    monkeypatch.setattr(sampling, "_sweep", sweep)
    return gamma, claims


def swept_trees(g, seeds):
    """(roots, parent, parent_edge) of the trees that one sweep grows."""
    roots, entry = sampling._sweep(g, seeds)
    # A claiming entry points from the parent to the vertex it claims.
    claimed = entry >= 0
    assert np.array_equal(g.adj_nbr[entry[claimed]], claimed.nonzero()[1])
    assert np.array_equal((~claimed).sum(axis=1), np.ones(len(seeds)))
    parent = np.repeat(roots[:, None], g.n, axis=1)
    parent[claimed] = g.csr_src[entry[claimed]]
    parent_edge = np.full((len(seeds), g.n), -1)
    parent_edge[claimed] = g.adj_eid[entry[claimed]]
    return roots, parent, parent_edge


def assert_sweeps_match_oracles(g, trees, seed, monkeypatch,
                                level_caps=LEVEL_CAPS):
    """Parents, parent edges, depths and per-entry claim counts of every
    sampler path equal both per-tree oracles. The sweep of all trees and
    contrast's one wide sweep run at each LEVEL_CAP of `level_caps`, and
    contrast also one tree per sweep."""
    seeds = subseeds(seed, trees)
    swept = []
    monkeypatch.setattr(sampling, "SLOT_CAP", CAPS[0])
    counts = [swept_claims(g, trees, seed, monkeypatch)]
    monkeypatch.setattr(sampling, "SLOT_CAP", CAPS[1])
    before = sampling.LEVEL_CAP
    for cap in level_caps:
        monkeypatch.setattr(sampling, "LEVEL_CAP", cap)
        swept.append(swept_trees(g, seeds))
        counts.append(swept_claims(g, trees, seed, monkeypatch))
    monkeypatch.setattr(sampling, "LEVEL_CAP", before)
    alone = [sample_bft(g, s) for s in seeds]
    # Entry u -> v is the tree edge with u nearer the root, which is the
    # min_closer orientation iff u < v.
    min_closer = g.csr_src < g.adj_nbr
    for oracle in (level_sync_bft, queue_bft):
        want = [oracle(g, s) for s in seeds]
        for t, (root, pa, pe, depth) in enumerate(want):
            assert alone[t].root == root
            assert alone[t].parent.tolist() == list(pa)
            assert alone[t].parent_edge.tolist() == list(pe)
            assert alone[t].depth.tolist() == list(depth)
            for roots, parent, parent_edge in swept:
                assert roots[t] == root
                assert parent[t].tolist() == list(pa)
                assert parent_edge[t].tolist() == list(pe)
        min_c, max_c = orientation_counts(g, want)
        want_claims = np.where(min_closer, min_c[g.adj_eid], max_c[g.adj_eid])
        for gamma, claims in counts:
            assert np.array_equal(claims, want_claims)
            assert np.array_equal(gamma, np.minimum(min_c, max_c))


class TestAgainstOracles:
    """The lockstep sweep against a tree-at-a-time level-synchronous BFS
    and a FIFO-queue BFS, with one tree per sweep and all trees in one."""

    def test_criterion_1_corpus(self, monkeypatch):
        for i, (g, _) in enumerate(cut_corpus()):
            assert_sweeps_match_oracles(g, (1, 3, 20)[i % 3], i, monkeypatch)

    @pytest.mark.parametrize("name", ["path", "star", "cycle",
                                      "caterpillar", "strip", "random"])
    @pytest.mark.parametrize("trees", [1, 3, 20])
    def test_families(self, name, trees, monkeypatch):
        rng = random.Random(f"{name}-{trees}")
        for n in (3, 4, 9, 40):
            g = family_graph(name, n, rng)
            assert_sweeps_match_oracles(g, trees, rng.randrange(2 ** 32),
                                        monkeypatch)

    @pytest.mark.parametrize("trees", [1, 3, 20])
    def test_tiny_graphs(self, trees, monkeypatch):
        for g in (Graph.from_edges(1, []), Graph.from_edges(2, [(0, 1)]),
                  Graph.from_edges(3, [(0, 2), (1, 2)]),
                  Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])):
            for seed in range(5):
                assert_sweeps_match_oracles(g, trees, seed, monkeypatch)


def rated_graphs(g, seed, monkeypatch):
    """Each graph that partition_multilevel(g, seed) rates, finest first."""
    graphs = []
    real = multilevel.compute_rating
    monkeypatch.setattr(multilevel, "compute_rating",
                        lambda g, cfg, s: graphs.append(g)
                        or real(g, cfg, s))
    partition_multilevel(g, PartitionConfig(seed=seed))
    return graphs


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("family", ["sf", "strip"])
def test_every_multilevel_level(family, seed, monkeypatch):
    # Each graph that partition_multilevel rates: 2000 vertices down to
    # the coarsest level, both sparse and dense.
    if family == "sf":
        g = generate_scale_free(2000, 4, seed)
    else:
        g = family_graph("strip", 250, random.Random(seed))
    graphs = rated_graphs(g, seed, monkeypatch)
    assert len(graphs) > 3 and graphs[0] is g
    seeds = subseeds(seed, 2)
    for level in graphs:
        roots, entry = sampling._sweep(level, seeds)
        for t, s in enumerate(seeds):
            root, parent, parent_edge, _ = queue_bft(level, s)
            assert roots[t] == root
            want = np.asarray(parent_edge)
            got = np.where(entry[t] >= 0, level.adj_eid[entry[t]], -1)
            assert np.array_equal(got, want)
            assert np.array_equal(level.csr_src[entry[t][entry[t] >= 0]],
                                  np.asarray(parent)[want >= 0])


@st.composite
def connected_graphs(draw):
    """A random spanning tree on shuffled ids plus random extra edges."""
    n = draw(st.integers(1, 30))
    ids = draw(st.permutations(range(n)))
    edges = {tuple(sorted((ids[draw(st.integers(0, i - 1))], ids[i])))
             for i in range(1, n)}
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {tuple(sorted(p)) for p in draw(st.lists(pair, max_size=60))
                  if p[0] != p[1]}
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(connected_graphs(), st.integers(1, 20), st.integers(0, 2 ** 64 - 1))
def test_sweep_matches_oracles_property(g, trees, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_sweeps_match_oracles(g, trees, seed, monkeypatch)


def force_direction(monkeypatch, direction):
    """Patch the sweep's direction rule `sampling._bottom_up`: "top-down"
    or "bottom-up" on every level, "alternating" from level to level, and
    "default" leaves the rule as it is."""
    if direction == "alternating":
        turns = itertools.cycle([True, False])
        monkeypatch.setattr(sampling, "_bottom_up", lambda *level: next(turns))
    elif direction != "default":
        monkeypatch.setattr(sampling, "_bottom_up",
                            lambda *level: direction == "bottom-up")


FORCED = ["bottom-up", "top-down", "alternating"]


def root_of(seed, trees, n):
    """The root that the first tree of contrast(g, trees, seed) draws."""
    return int(np.random.default_rng(subseeds(seed, trees)[0]).integers(n))


def star(n, hub):
    return Graph.from_edges(n, [(hub, v) for v in range(n) if v != hub])


def clique(k, tail=0):
    """K_k on 0..k-1 plus a path of `tail` vertices hung from k - 1."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(v, v + 1) for v in range(k - 1, k + tail - 1)]
    return Graph.from_edges(k + tail, edges)


class TestDirections:
    """Top-down and bottom-up levels pick the same parent and entry, so the
    sweep equals both oracles whichever direction each level takes."""

    @pytest.mark.parametrize("direction", FORCED)
    def test_criterion_1_corpus(self, direction, monkeypatch):
        force_direction(monkeypatch, direction)
        for i, (g, _) in enumerate(cut_corpus()):
            assert_sweeps_match_oracles(g, (1, 3, 20)[i % 3], i, monkeypatch)

    @pytest.mark.parametrize("direction", FORCED + ["default"])
    def test_hub_families(self, direction, monkeypatch):
        force_direction(monkeypatch, direction)
        n = 40
        graphs = [
            (star(n, root_of(1, 1, n)), 1, 1),  # rooted at the hub
            (star(n, (root_of(2, 1, n) + 1) % n), 1, 2),  # at a leaf
            (star(n, 0), 20, 3),
            (clique(12), 3, 4),
            (clique(12), 20, 5),
            (Graph.from_edges(n + 2, [(a, b) for a in (0, 1)
                                      for b in range(2, n + 2)]), 20, 6),
            (clique(15, tail=30), 3, 7),
            (clique(15, tail=30), 20, 8),
            (generate_scale_free(3000, 4, 9), 3, 9),
        ]
        for g, trees, seed in graphs:
            assert_sweeps_match_oracles(g, trees, seed, monkeypatch)

    def test_default_rule_takes_both_directions(self, monkeypatch):
        # The rule runs a level bottom-up only while its frontier has more
        # entries than the unseen slots plus W*n/8, so the W*n scans of
        # bottom-up levels add up to less than 8 * W*2m. Every slot is in
        # one frontier, so the frontiers' entries add up to W*2m at most.
        levels = []
        rule = sampling._bottom_up
        monkeypatch.setattr(sampling, "_bottom_up", lambda *level:
                            levels.append(level + (rule(*level),))
                            or rule(*level))
        sf = generate_scale_free(3000, 4, 1)
        for g, trees, both in ((sf, 1, True), (sf, 3, True),
                               (family_graph("strip", 60, random.Random(2)),
                                3, False)):
            levels.clear()
            sampling._sweep(g, subseeds(7, trees))
            assert {up for *_, up in levels} == ({False, True} if both
                                                 else {False})
            fdeg = sum(f for f, *_ in levels)
            assert fdeg <= trees * 2 * g.m
            assert sum(slots for *_, slots, up in levels if up) \
                < 8 * trees * 2 * g.m

    @pytest.mark.parametrize("direction", FORCED)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_multilevel_level(self, direction, seed, monkeypatch):
        graphs = rated_graphs(generate_scale_free(2000, 4, seed), seed,
                              monkeypatch)
        seeds = subseeds(seed, 3)
        want = [sampling._sweep(level, seeds) for level in graphs]
        force_direction(monkeypatch, direction)
        for level, (roots, entry) in zip(graphs, want):
            got = sampling._sweep(level, seeds)
            assert np.array_equal(got[0], roots)
            assert np.array_equal(got[1], entry)


@pytest.mark.parametrize("direction", ["bottom-up", "alternating"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(connected_graphs(), st.integers(1, 20), st.integers(0, 2 ** 64 - 1))
def test_sweep_matches_oracles_property_forced(direction, g, trees, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        force_direction(monkeypatch, direction)
        assert_sweeps_match_oracles(g, trees, seed, monkeypatch)


class FixedKeys:
    """Stands in for np.random.default_rng: root 0 and the given vertex
    keys, whatever the seed."""

    keys = None

    def __init__(self, seed):
        pass

    def integers(self, n):
        return 0

    def permutation(self, n):
        return self.keys.copy()


def ladder(rungs):
    """Root 0 with children 1..rungs; children i and i + 1 share the
    grandchild rungs + i, and grandchildren j and j + 1 share the
    great-grandchild rungs + j + (rungs - 1)."""
    edges = [(0, i) for i in range(1, rungs + 1)]
    edges += [(i, rungs + i) for i in range(1, rungs)]
    edges += [(i + 1, rungs + i) for i in range(1, rungs)]
    low, high = rungs + 1, 2 * rungs - 1
    edges += [(j, j + rungs - 1) for j in range(low, high)]
    edges += [(j + 1, j + rungs - 1) for j in range(low, high)]
    return Graph.from_edges(3 * rungs - 2, edges)


@pytest.mark.parametrize("direction", FORCED + ["default"])
@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_siblings_are_queued_by_key(order, direction, monkeypatch):
    # A shared child goes to whichever of its two parents is queued first,
    # the one of lower key: with ascending keys, child i claims grandchild
    # rungs + i and grandchild j claims rungs + j + (rungs - 1); with
    # descending keys, their right-hand neighbors do.
    rungs = 6
    g = ladder(rungs)
    keys = np.arange(g.n) if order == "ascending" else np.arange(g.n)[::-1]
    monkeypatch.setattr(FixedKeys, "keys", keys)
    monkeypatch.setattr(np.random, "default_rng", FixedKeys)
    force_direction(monkeypatch, direction)
    shift = 0 if order == "ascending" else 1
    want = {rungs + i: i + shift for i in range(1, rungs)}
    want |= {j + rungs - 1: j + shift
             for j in range(rungs + 1, 2 * rungs - 1)}
    roots, parents, _ = swept_trees(g, [0, 1, 2])
    assert roots.tolist() == [0, 0, 0]
    for parent in [*parents, sample_bft(g, 0).parent]:
        assert {v: int(parent[v]) for v in want} == want
    assert_sweeps_match_oracles(g, 3, 0, monkeypatch)


REAL_RNG = np.random.default_rng


class TestKeyTies:
    """Each level orders its claimed slots with one unstable argsort of
    (frontier position of the parent << 32 | key), which needs no
    tie-break: the keys of a tree are a permutation of its vertices and
    frontier positions differ across trees, so no two sort keys tie."""

    @pytest.mark.parametrize("direction", FORCED + ["default"])
    def test_real_keys_need_no_fallback(self, direction, monkeypatch):
        force_direction(monkeypatch, direction)
        g = generate_scale_free(3000, 4, 9)
        drawn, sorted_keys, ties = [], [], []

        class Recording:
            def __init__(self, seed):
                self._rng = REAL_RNG(seed)

            def integers(self, n):
                return self._rng.integers(n)

            def permutation(self, n):
                keys = self._rng.permutation(n)
                drawn.append(keys)
                return keys

        queue = sampling._queue

        def queued(via, key, slot, src, claimed):
            order = src << 32 | key[slot]
            sorted_keys.append(order.size)
            ties.append(order.size - np.unique(order).size)
            return queue(via, key, slot, src, claimed)

        monkeypatch.setattr(np.random, "default_rng", Recording)
        monkeypatch.setattr(sampling, "_queue", queued)
        for trees, seed in ((1, 3), (3, 9), (20, 7)):
            seeds = subseeds(seed, trees)
            _, entry = sampling._sweep(g, seeds)
            contrast(g, trees, seed)
            for t, s in enumerate(seeds):
                want = np.asarray(queue_bft(g, s)[2])
                got = np.where(entry[t] >= 0, g.adj_eid[entry[t]], -1)
                assert np.array_equal(got, want)
        assert len(drawn) == 3 * (1 + 3 + 20)
        for keys in drawn:
            assert np.array_equal(np.sort(keys), np.arange(g.n))
        assert sum(sorted_keys) > 0 and not any(ties)


class LevelLog:
    """Records, through the direction rule and `_queue`, each level that
    the sweeps run, as (trees in the sweep or group, fdeg, bottom-up), and
    how many slots each level claims."""

    def __init__(self, monkeypatch, n):
        self.levels, self.claimed = [], []
        rule, queue = sampling._bottom_up, sampling._queue

        def asked(fdeg, unseen, slots):
            up = rule(fdeg, unseen, slots)
            self.levels.append((slots // n, fdeg, up))
            return up

        def queued(via, key, slot, src, claimed):
            self.claimed.append(slot.size)
            return queue(via, key, slot, src, claimed)

        monkeypatch.setattr(sampling, "_bottom_up", asked)
        monkeypatch.setattr(sampling, "_queue", queued)


class TestSplits:
    """A sweep whose level gets wider than LEVEL_CAP entries splits into
    groups of max(1, LEVEL_CAP // 2m) trees, each finished on its own; the
    trees do not change, in any direction."""

    @pytest.mark.parametrize("direction", FORCED + ["default"])
    @pytest.mark.parametrize("cap", [64, 1])
    def test_star_and_scale_free(self, cap, direction, monkeypatch):
        force_direction(monkeypatch, direction)
        for g, trees, seed in ((star(3001, 0), 3, 1),
                               (generate_scale_free(3000, 4, 9), 3, 2)):
            with monkeypatch.context() as patch:
                patch.setattr(sampling, "LEVEL_CAP", cap)
                log = LevelLog(patch, g.n)
                sampling._sweep(g, subseeds(seed, trees))
            assert min(width for width, *_ in log.levels) == 1
            assert_sweeps_match_oracles(g, trees, seed, monkeypatch,
                                        level_caps=[cap])

    @pytest.mark.parametrize("direction", FORCED + ["default"])
    @pytest.mark.parametrize("cap", [64, 1])
    def test_levels_stay_under_the_cap(self, cap, direction, monkeypatch):
        # Every level runs all trees of the sweep until the first one that
        # is too wide; after it only groups of at most max(1, cap // 2m)
        # trees run. Every level claims a slot, so no group counts more
        # unseen entries than its trees have, and none stops early, since
        # the trees equal the unsplit sweep's.
        force_direction(monkeypatch, direction)
        graphs = [(g, (1, 3, 20)[i % 3], i)
                  for i, (g, _) in enumerate(cut_corpus())]
        graphs.append((generate_scale_free(3000, 4, 9), 20, 2))
        splits = 0
        for g, trees, seed in graphs:
            seeds = subseeds(seed, trees)
            with monkeypatch.context() as patch:
                patch.setattr(sampling, "LEVEL_CAP", 2 ** 40)
                roots, entry = sampling._sweep(g, seeds)
            with monkeypatch.context() as patch:
                patch.setattr(sampling, "LEVEL_CAP", cap)
                log = LevelLog(patch, g.n)
                got = sampling._sweep(g, seeds)
            assert np.array_equal(got[0], roots)
            assert np.array_equal(got[1], entry)
            assert all(log.claimed)
            group = max(1, cap // (2 * g.m))
            wide = [width > group and (fdeg > cap or up and width * g.n > cap)
                    for width, fdeg, up in log.levels]
            widths = [width for width, *_ in log.levels]
            if any(wide):
                first = wide.index(True) + 1
                assert widths[:first] == [trees] * first
                assert max(widths[first:]) <= group
                splits += 1
            else:
                assert set(widths) <= {trees}
        assert splits > len(graphs) / 4


def test_sampling_caches_nothing_on_the_graph():
    # An array cached on a Graph lives as long as the graph, and the
    # caller's graph outlives partition_multilevel: caching the 2m-entry
    # reverse map raised sf-excond's peak RSS by 3 MB (101 to 104 MB)
    # when every level stayed alive until the partition returned.
    g = generate_scale_free(300, 3, 1)
    before = dict(vars(g))
    contrast(g, 20, 7)
    sample_bft(g, 7)
    assert vars(g).keys() == before.keys()
    assert all(vars(g)[k] is v for k, v in before.items())


def test_contrast_leaves_no_cycle_holding_the_graph(refcount_only,
                                                    monkeypatch):
    # Once contrast returns, reference counting alone frees the graph and
    # the sweep's reverse map, also when the sweep splits into groups.
    for cap in LEVEL_CAPS:
        monkeypatch.setattr(sampling, "LEVEL_CAP", cap)
        g = generate_scale_free(3000, 4, 9)
        ref = weakref.ref(g)
        contrast(g, 20, 7)
        del g
        assert ref() is None, cap


def test_reverse_entries():
    g = generate_scale_free(500, 3, 4)
    rev = sampling._reverse_entries(g)
    src = np.repeat(np.arange(g.n), np.diff(g.adj_off))
    assert np.array_equal(g.adj_eid[rev], g.adj_eid)
    assert np.array_equal(src[rev], g.adj_nbr)
    assert np.array_equal(g.adj_nbr[rev], src)
    assert sampling._reverse_entries(Graph.from_edges(1, [])).size == 0


def test_reverse_entries_match_the_edge_table():
    graphs = [g for g, _ in cut_corpus()]
    graphs += [Graph.from_edges(1, []), generate_scale_free(3000, 4, 1)]
    for g in graphs:
        rev = sampling._reverse_entries(g)
        assert rev.dtype == np.int32
        assert np.array_equal(rev, reverse_entries_by_edge(g))


@pytest.mark.parametrize("cap, m, trees, widths", [
    (2 ** 17, 18742, 20, [6, 6, 6, 2]),
    (2 ** 17, 39984, 20, [3] * 6 + [2]),
    (2 ** 17, 100, 20, [20]),
    (1, 100, 3, [1, 1, 1]),
    (2 ** 40, 100, 3, [3]),
    (None, 18742, 20, [20]),
    (None, 39984, 20, [13, 7]),
])
def test_sweep_width_follows_cap(cap, m, trees, widths, monkeypatch):
    # W = max(1, min(trees, cap // n)) trees share a sweep, on a star of m
    # edges and n = m + 1 vertices; cap None is the default SLOT_CAP.
    g = Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])
    seen = []
    sweep = sampling._sweep
    if cap is not None:
        monkeypatch.setattr(sampling, "SLOT_CAP", cap)
    monkeypatch.setattr(sampling, "_sweep",
                        lambda g, seeds, *rest: seen.append(len(seeds))
                        or sweep(g, seeds, *rest))
    contrast(g, trees, 3)
    assert seen == widths


def strip_8x1250(seed):
    """An 8 x 1250 grid on shuffled ids, the shape of perfbench's strip."""
    return family_graph("strip", 1250, random.Random(seed))


def shuffled_path(n):
    return family_graph("path", n, random.Random(n))


def count_levels(monkeypatch):
    """The list to which each level of the sweeps that follow appends
    itself: the rule `_bottom_up` is asked once per level."""
    levels = []
    rule = sampling._bottom_up
    monkeypatch.setattr(sampling, "_bottom_up",
                        lambda *level: levels.append(level) or rule(*level))
    return levels


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_strip_levels_bounded_by_width(seed, monkeypatch):
    # A sweep takes at most diameter + 1 levels, so contrast's
    # ceil(20 / W) sweeps take at most 1 * 1257 levels at W = 20.
    g = strip_8x1250(seed)
    width = min(20, sampling.SLOT_CAP // g.n)
    assert width == 20
    levels = count_levels(monkeypatch)
    contrast(g, 20, seed)
    diameter = 1250 - 1 + 8 - 1
    assert len(levels) <= math.ceil(20 / width) * (diameter + 1) == 1257


def test_contrast_on_shuffled_paths_scales_linearly(monkeypatch):
    # A path of n <= SLOT_CAP / 20 vertices takes the 20 trees in one
    # sweep of at most n levels, so doubling n doubles the work; a sweep
    # width that fell with n would make the time grow as n^2. The two
    # sizes are timed interleaved, so a change in machine speed reaches
    # both.
    paths = [shuffled_path(n) for n in (10 ** 4, 2 * 10 ** 4)]
    for g in paths:
        with monkeypatch.context() as patch:
            levels = count_levels(patch)
            sweeps = []
            sweep = sampling._sweep
            patch.setattr(sampling, "_sweep", lambda g, seeds:
                          sweeps.append(seeds) or sweep(g, seeds))
            contrast(g, 20, 7)
        assert [len(seeds) for seeds in sweeps] == [20]
        assert len(levels) <= g.n
    seconds = interleaved_best([lambda g=g: contrast(g, 20, 7)
                                for g in paths], 3)
    assert seconds[1] / seconds[0] <= 3.0


def test_reverse_map_made_at_the_first_bottom_up_level(monkeypatch):
    # A strip never takes a bottom-up level, so its sweep makes no reverse
    # map; a scale-free sweep makes one, which its groups share.
    made = []
    real = sampling._reverse_entries
    monkeypatch.setattr(sampling, "_reverse_entries",
                        lambda g: made.append(g) or real(g))
    contrast(family_graph("strip", 200, random.Random(3)), 20, 1)
    assert made == []
    g = generate_scale_free(3000, 4, 9)
    for cap in LEVEL_CAPS:
        monkeypatch.setattr(sampling, "LEVEL_CAP", cap)
        made.clear()
        sampling._sweep(g, subseeds(4, 3))
        assert made == [g]


@pytest.mark.parametrize("make, bound_mib", [
    (lambda: strip_8x1250(0), 2.3),
    (lambda: generate_scale_free(10 ** 4, 4, 1), 5.1),
    (lambda: shuffled_path(2 * 10 ** 4), 4.3),
], ids=["strip-8x1250", "sf-10^4", "path-2x10^4"])
def test_contrast_peak_memory(make, bound_mib):
    # A sweep holds 8 bytes per slot, an int32 key and an int32 `via`,
    # and per-level temporaries bounded by LEVEL_CAP entries. The strip
    # (W = 20, one sweep) reads 2.09 MiB, sf (W = 20, split into single
    # trees at its first level wider than LEVEL_CAP) 4.60 MiB and the
    # 2*10^4 path (W = 20) 3.90 MiB.
    g = make()
    contrast(g, 1, 0)
    assert traced_peak(lambda: contrast(g, 20, 1)) <= bound_mib * 2 ** 20


class TestErrorPaths:
    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("g", [
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
        Graph.from_edges(3, []),
    ])
    def test_disconnected_rejected(self, g, cap, monkeypatch):
        monkeypatch.setattr(sampling, "SLOT_CAP", cap)
        for trees in (1, 3, 20):
            with pytest.raises(ValueError, match="^graph is not connected$"):
                contrast(g, trees, 7)
            with pytest.raises(ValueError, match="^graph is not connected$"):
                sampling._sweep(g, subseeds(7, trees))

    @pytest.mark.parametrize("direction", FORCED + ["default"])
    @pytest.mark.parametrize("g", [
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)]),
        Graph.from_edges(9, [(0, v) for v in range(1, 6)]),
        Graph.from_edges(9, [(0, 1), (0, 2), (1, 2), (2, 3),
                             (4, 5), (4, 6), (4, 7), (4, 8), (5, 6)]),
    ], ids=["path-and-isolated", "star-and-isolated", "two-components"])
    def test_disconnected_rejected_in_every_direction(self, g, direction,
                                                       monkeypatch):
        force_direction(monkeypatch, direction)
        for trees in (1, 3, 20):
            for seed in range(4):
                with pytest.raises(ValueError,
                                   match="^graph is not connected$"):
                    sampling._sweep(g, subseeds(seed, trees))
                with pytest.raises(ValueError,
                                   match="^graph is not connected$"):
                    contrast(g, trees, seed)
        for seed in range(20):
            with pytest.raises(ValueError, match="^graph is not connected$"):
                sample_bft(g, seed)

    @pytest.mark.parametrize("cap", CAPS)
    def test_single_vertex_draws_no_keys(self, cap, monkeypatch):
        drawn = []
        real = np.random.default_rng

        class Recording:
            """A generator that records which draws it was asked for."""

            def __init__(self, seed):
                self._rng = real(seed)

            def __getattr__(self, name):
                drawn.append(name)
                return getattr(self._rng, name)

        monkeypatch.setattr(sampling, "SLOT_CAP", cap)
        monkeypatch.setattr(np.random, "default_rng", Recording)
        g = Graph.from_edges(1, [])
        for trees in (1, 3, 20):
            roots, entry = sampling._sweep(g, subseeds(11, trees))
            assert roots.tolist() == [0] * trees
            assert entry.tolist() == [[-1]] * trees
            assert contrast(g, trees, 11).shape == (0,)
        assert sample_bft(g, 5).root == 0
        assert set(drawn) == {"integers"}
        # Each tree draws its root, then its vertex keys.
        drawn.clear()
        contrast(Graph.from_edges(2, [(0, 1)]), 3, 11)
        assert drawn == ["integers", "permutation"] * 3
