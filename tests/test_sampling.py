import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treepart import Graph, contrast, directed_edge_counts, sample_bft
from treepart import sampling
from treepart.sampling import subseeds
from tests.conftest import (cut_corpus, level_sync_bft, orientation_counts,
                            queue_bft, random_connected_graph)

# One tree per sweep, and every tree of a collection in one sweep.
CAPS = [1, 2 ** 40]


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


def assert_sweeps_match_oracles(g, trees, seed, monkeypatch):
    """Counts, parents, parent edges and depths of every sampler path
    equal both per-tree oracles."""
    seeds = subseeds(seed, trees)
    roots, parent, parent_edge = sampling._sweep(g, seeds)
    alone = [sample_bft(g, s) for s in seeds]
    counts = []
    for cap in CAPS:
        monkeypatch.setattr(sampling, "SWEEP_CAP", cap)
        counts.append((directed_edge_counts(g, trees, seed),
                       contrast(g, trees, seed)))
    for oracle in (level_sync_bft, queue_bft):
        want = [oracle(g, s) for s in seeds]
        for t, (root, pa, pe, depth) in enumerate(want):
            assert roots[t] == alone[t].root == root
            assert parent[t].tolist() == alone[t].parent.tolist() == list(pa)
            assert (parent_edge[t].tolist() == alone[t].parent_edge.tolist()
                    == list(pe))
            assert alone[t].depth.tolist() == list(depth)
        min_c, max_c = orientation_counts(g, want)
        for got, gamma in counts:
            assert np.array_equal(got.min_closer, min_c)
            assert np.array_equal(got.max_closer, max_c)
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


@pytest.mark.parametrize("cap, m, trees, widths", [
    (2 ** 17, 18742, 20, [3] * 6 + [2]),  # m of the 8 x 1250 grid strip
    (2 ** 17, 39984, 20, [1] * 20),
    (2 ** 17, 100, 20, [20]),
    (1, 100, 3, [1, 1, 1]),
    (2 ** 40, 100, 3, [3]),
])
def test_sweep_width_follows_cap(cap, m, trees, widths, monkeypatch):
    # W = max(1, min(trees, cap // 2m)) trees share a sweep.
    g = Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])
    seen = []
    sweep = sampling._sweep
    monkeypatch.setattr(sampling, "SWEEP_CAP", cap)
    monkeypatch.setattr(sampling, "_sweep",
                        lambda g, seeds: seen.append(len(seeds))
                        or sweep(g, seeds))
    directed_edge_counts(g, trees, 3)
    assert seen == widths


class TestErrorPaths:
    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("g", [
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
        Graph.from_edges(3, []),
    ])
    def test_disconnected_rejected(self, g, cap, monkeypatch):
        monkeypatch.setattr(sampling, "SWEEP_CAP", cap)
        for trees in (1, 3, 20):
            for fn in (directed_edge_counts, contrast):
                with pytest.raises(ValueError,
                                   match="^graph is not connected$"):
                    fn(g, trees, 7)

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

        monkeypatch.setattr(sampling, "SWEEP_CAP", cap)
        monkeypatch.setattr(np.random, "default_rng", Recording)
        g = Graph.from_edges(1, [])
        for trees in (1, 3, 20):
            counts = directed_edge_counts(g, trees, 11)
            assert counts.min_closer.shape == (0,)
            assert counts.max_closer.shape == (0,)
            assert contrast(g, trees, 11).shape == (0,)
        assert sample_bft(g, 5).root == 0
        assert "random" not in drawn
        directed_edge_counts(Graph.from_edges(2, [(0, 1)]), 3, 11)
        assert "random" in drawn
