import random

import numpy as np
import pytest

from treepart import Graph, contrast, directed_edge_counts, sample_bft
from treepart.sampling import subseeds
from tests.conftest import random_connected_graph


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
                for w in g.neighbors(u):
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

    def test_bridges_appear_in_every_tree(self):
        # Two triangles joined by the bridge {2, 3}.
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3),
                                 (3, 4), (3, 5), (4, 5)])
        bridge = g.edge_ids[(2, 3)]
        counts = directed_edge_counts(g, 25, 8)
        assert counts.min_closer[bridge] + counts.max_closer[bridge] == 25

    def test_counts_sum_bounded_by_trees(self):
        rng = random.Random(33)
        g = random_connected_graph(rng)
        counts = directed_edge_counts(g, 10, 5)
        total = counts.min_closer + counts.max_closer
        assert np.all(total <= 10)
        assert np.all(counts.min_closer >= 0)
        assert np.all(counts.max_closer >= 0)

    def test_gamma_is_min_of_counts(self):
        rng = random.Random(47)
        g = random_connected_graph(rng)
        counts = directed_edge_counts(g, 8, 123)
        gamma = contrast(g, 8, 123)
        assert np.array_equal(
            gamma, np.minimum(counts.min_closer, counts.max_closer))

    def test_matches_per_tree_sampling(self):
        # Accumulating counts equals orienting each sample_bft tree by hand.
        rng = random.Random(55)
        g = random_connected_graph(rng, n_lo=6, n_hi=10)
        trees, seed = 6, 2024
        min_c = np.zeros(g.m, dtype=int)
        max_c = np.zeros(g.m, dtype=int)
        for sub in subseeds(seed, trees):
            t = sample_bft(g, sub)
            for v in range(g.n):
                e = t.parent_edge[v]
                if e < 0:
                    continue
                if t.parent[v] < v:
                    min_c[e] += 1
                else:
                    max_c[e] += 1
        counts = directed_edge_counts(g, trees, seed)
        assert np.array_equal(counts.min_closer, min_c)
        assert np.array_equal(counts.max_closer, max_c)

    def test_p3_roots_at_both_ends_give_gamma_one(self, p3):
        # Find a collection seed whose two trees are rooted at the opposite
        # path ends; each orients {0, 1} differently, so gamma must be 1.
        for seed in range(500):
            roots = {sample_bft(p3, sub).root for sub in subseeds(seed, 2)}
            if roots == {0, 2}:
                gamma = contrast(p3, 2, seed)
                assert gamma[p3.edge_ids[(0, 1)]] == 1
                return
        pytest.fail("no seed with roots at both path ends found")

    def test_needs_at_least_one_tree(self, p3):
        with pytest.raises(ValueError):
            contrast(p3, 0, 1)
