import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treepart import (Graph, PartitionConfig, contrast, generate_scale_free,
                      partition_multilevel, sample_bft)
from treepart import multilevel, sampling
from treepart.sampling import subseeds
from tests.conftest import (cut_corpus, edge_id, level_sync_bft, neighbors,
                            orientation_counts, queue_bft,
                            random_connected_graph)

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


def assert_sweeps_match_oracles(g, trees, seed, monkeypatch):
    """Parents, parent edges, depths and per-entry claim counts of every
    sampler path equal both per-tree oracles."""
    seeds = subseeds(seed, trees)
    roots, entry = sampling._sweep(g, seeds)
    # A claiming entry points from the parent to the vertex it claims.
    claimed = entry >= 0
    assert np.array_equal(g.adj_nbr[entry[claimed]], claimed.nonzero()[1])
    assert np.array_equal((~claimed).sum(axis=1), np.ones(trees))
    parent = np.repeat(roots[:, None], g.n, axis=1)
    parent[claimed] = g.csr_src[entry[claimed]]
    parent_edge = np.full((trees, g.n), -1)
    parent_edge[claimed] = g.adj_eid[entry[claimed]]
    alone = [sample_bft(g, s) for s in seeds]
    counts = []
    for cap in CAPS:
        monkeypatch.setattr(sampling, "SWEEP_CAP", cap)
        counts.append(swept_claims(g, trees, seed, monkeypatch))
    # Entry u -> v is the tree edge with u nearer the root, which is the
    # min_closer orientation iff u < v.
    min_closer = g.csr_src < g.adj_nbr
    for oracle in (level_sync_bft, queue_bft):
        want = [oracle(g, s) for s in seeds]
        for t, (root, pa, pe, depth) in enumerate(want):
            assert roots[t] == alone[t].root == root
            assert parent[t].tolist() == alone[t].parent.tolist() == list(pa)
            assert (parent_edge[t].tolist() == alone[t].parent_edge.tolist()
                    == list(pe))
            assert alone[t].depth.tolist() == list(depth)
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


class FixedKeys:
    """Stands in for np.random.default_rng: root 0 and the given keys,
    whatever the seed."""

    keys = None

    def __init__(self, seed):
        pass

    def integers(self, n):
        return 0

    def random(self, size=None, out=None):
        if out is None:
            return self.keys.copy()
        out[:] = self.keys
        return out


def test_keys_closer_than_a_float_step_keep_their_order(monkeypatch):
    # Star on 0 with leaves 1..2048, keyed so that leaf 2048 is popped last
    # (frontier rank 2047). Its children 2049 and 2050 both reach 2051; the
    # key of 2050 is lower by 2^-44, a quarter of a float step at 2047.5,
    # so 2050 is popped first and claims 2051.
    leaves = 2048
    edges = [(0, i) for i in range(1, leaves + 1)]
    edges += [(leaves, leaves + 1), (leaves, leaves + 2),
              (leaves + 1, leaves + 3), (leaves + 2, leaves + 3)]
    g = Graph.from_edges(leaves + 4, edges)
    keys = np.full(2 * g.m, 0.25)
    keys[:leaves] = np.arange(1, leaves + 1) / 4096
    keys[g.csr_src == leaves] = [0.1, 0.5 + 2.0 ** -44, 0.5]
    monkeypatch.setattr(FixedKeys, "keys", keys)
    monkeypatch.setattr(np.random, "default_rng", FixedKeys)
    assert queue_bft(g, 0)[1][leaves + 3] == leaves + 2
    assert_sweeps_match_oracles(g, 2, 0, monkeypatch)


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


REAL_RNG = np.random.default_rng


class CoarseKeys:
    """Stands in for np.random.default_rng: the real generator of the seed,
    with every key x it draws mapped to floor(8x)/8, plus x * 2^-40 when
    `distinct`. The keys then share their top 32 bits in 8 groups, so
    siblings tie on the sweep's 32-bit keys and nearly every level takes
    the exact fallback. With the small term the float keys mostly stay
    apart; without it they tie too and must fall to CSR order."""

    distinct = True

    def __init__(self, seed):
        self._rng = REAL_RNG(seed)

    def integers(self, n):
        return self._rng.integers(n)

    def random(self, size=None, out=None):
        x = self._rng.random(size, out=out)
        x[...] = np.floor(8 * x) / 8 + (x * 2.0 ** -40 if self.distinct
                                        else 0.0)
        return x


KEY_FORMS = ["ties-on-32-bits", "exact-ties"]


def coarse_keys(monkeypatch, form):
    monkeypatch.setattr(CoarseKeys, "distinct", form == "ties-on-32-bits")
    monkeypatch.setattr(np.random, "default_rng", CoarseKeys)


@pytest.fixture
def regenerations(monkeypatch):
    """The tied trees of each call to the sweep's exact fallback."""
    calls = []
    real = sampling._exact_keys
    monkeypatch.setattr(sampling, "_exact_keys",
                        lambda g, seeds, tree, claimed, tied:
                        calls.append(np.unique(tied).tolist())
                        or real(g, seeds, tree, claimed, tied))
    return calls


@pytest.mark.parametrize("form", KEY_FORMS)
def test_coarse_keys_tie_on_32_bits(form, monkeypatch):
    coarse_keys(monkeypatch, form)
    keys = np.random.default_rng(5).random(1000)
    assert np.array_equal(keys, CoarseKeys(5).random(out=np.empty(1000)))
    top = np.unique(np.floor(keys * 2.0 ** 32))
    assert top.tolist() == [k * 2 ** 29 for k in range(8)]
    distinct = np.unique(keys).size
    if form == "ties-on-32-bits":
        assert distinct > 900
    else:
        assert distinct == 8


class TestKeyTies:
    """Siblings whose keys tie on 32 bits take the exact fallback, which
    orders them by their float keys, equal floats in CSR order: the sweep
    still equals both oracles, in every direction."""

    @pytest.mark.parametrize("direction", FORCED + ["default"])
    @pytest.mark.parametrize("form", KEY_FORMS)
    def test_criterion_1_corpus(self, form, direction, monkeypatch,
                                regenerations):
        coarse_keys(monkeypatch, form)
        force_direction(monkeypatch, direction)
        for i, (g, _) in enumerate(cut_corpus()):
            assert_sweeps_match_oracles(g, (1, 3, 20)[i % 3], i, monkeypatch)
        assert regenerations

    @pytest.mark.parametrize("direction", FORCED + ["default"])
    @pytest.mark.parametrize("form", KEY_FORMS)
    def test_star_and_scale_free(self, form, direction, monkeypatch,
                                 regenerations):
        coarse_keys(monkeypatch, form)
        force_direction(monkeypatch, direction)
        for g, trees, seed in ((star(3001, 0), 3, 1),
                               (generate_scale_free(3000, 4, 9), 3, 2)):
            regenerations.clear()
            assert_sweeps_match_oracles(g, trees, seed, monkeypatch)
            assert regenerations

    def test_fallback_redraws_only_the_tied_trees(self, monkeypatch,
                                                  regenerations):
        # One tree in three draws coarse keys; only it is ever redrawn.
        g = generate_scale_free(500, 3, 4)
        seeds = subseeds(6, 3)

        def one_coarse(seed):
            return (CoarseKeys if seed == seeds[1] else REAL_RNG)(seed)

        monkeypatch.setattr(np.random, "default_rng", one_coarse)
        roots, entry = sampling._sweep(g, seeds)
        assert regenerations and set(sum(regenerations, [])) == {1}
        for t, s in enumerate(seeds):
            want = np.asarray(queue_bft(g, s)[2])
            got = np.where(entry[t] >= 0, g.adj_eid[entry[t]], -1)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("direction", FORCED + ["default"])
    def test_real_keys_need_no_fallback(self, direction, monkeypatch,
                                        regenerations):
        force_direction(monkeypatch, direction)
        g = generate_scale_free(3000, 4, 9)
        for trees, seed in ((1, 3), (3, 9), (20, 7)):
            sampling._sweep(g, subseeds(seed, trees))
            contrast(g, trees, seed)
        assert regenerations == []


def test_sampling_caches_nothing_on_the_graph():
    # partition_multilevel keeps every level's Graph alive, so an array
    # cached on it grows with the number of levels: caching the 2m-entry
    # reverse map raised sf-excond's peak RSS by 3 MB (101 to 104 MB).
    g = generate_scale_free(300, 3, 1)
    before = dict(vars(g))
    contrast(g, 20, 7)
    sample_bft(g, 7)
    assert vars(g).keys() == before.keys()
    assert all(vars(g)[k] is v for k, v in before.items())


def test_reverse_entries():
    g = generate_scale_free(500, 3, 4)
    rev = sampling._reverse_entries(g)
    src = np.repeat(np.arange(g.n), np.diff(g.adj_off))
    assert np.array_equal(g.adj_eid[rev], g.adj_eid)
    assert np.array_equal(src[rev], g.adj_nbr)
    assert np.array_equal(g.adj_nbr[rev], src)
    assert sampling._reverse_entries(Graph.from_edges(1, [])).size == 0


@pytest.mark.parametrize("cap, m, trees, widths", [
    (2 ** 17, 18742, 20, [3] * 6 + [2]),  # m of the 8 x 1250 grid strip
    (2 ** 17, 39984, 20, [1] * 20),  # of generate_scale_free(10^4, 4)
    (2 ** 17, 100, 20, [20]),
    (1, 100, 3, [1, 1, 1]),
    (2 ** 40, 100, 3, [3]),
    (None, 18742, 20, [6, 6, 6, 2]),
    (None, 39984, 20, [3] * 6 + [2]),
])
def test_sweep_width_follows_cap(cap, m, trees, widths, monkeypatch):
    # W = max(1, min(trees, cap // 2m)) trees share a sweep; cap None is
    # the default SWEEP_CAP.
    g = Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])
    seen = []
    sweep = sampling._sweep
    if cap is not None:
        monkeypatch.setattr(sampling, "SWEEP_CAP", cap)
    monkeypatch.setattr(sampling, "_sweep",
                        lambda g, seeds, *rest: seen.append(len(seeds))
                        or sweep(g, seeds, *rest))
    contrast(g, trees, 3)
    assert seen == widths


def strip_8x1250(seed):
    """An 8 x 1250 grid on shuffled ids, the shape of perfbench's strip."""
    return family_graph("strip", 1250, random.Random(seed))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_strip_levels_bounded_by_width(seed, monkeypatch):
    # The rule `_bottom_up` is asked once per BFS level. A sweep takes at
    # most diameter + 1 levels, so contrast's ceil(20 / W) sweeps take at
    # most 4 * 1257 = 5028 levels at W = 6; at W = 3 it swept 7453 to
    # 8159.
    g = strip_8x1250(seed)
    width = sampling.SWEEP_CAP // (2 * g.m)
    assert width == 6
    levels = []
    rule = sampling._bottom_up
    monkeypatch.setattr(sampling, "_bottom_up",
                        lambda *level: levels.append(level) or rule(*level))
    contrast(g, 20, seed)
    diameter = 1250 - 1 + 8 - 1
    assert len(levels) <= math.ceil(20 / width) * (diameter + 1) == 5028


@pytest.mark.parametrize("make, bound_mib", [
    (lambda: strip_8x1250(0), 2.6),
    (lambda: generate_scale_free(10 ** 4, 4, 1), 6.5),
], ids=["strip-8x1250", "sf-10^4"])
def test_contrast_peak_memory(make, bound_mib):
    # Narrower keys pay for the width: 2^18 uint32 keys take the bytes of
    # 2^17 float64 keys, and the float draw is freed before the levels run.
    # The strip reads 2.48 MiB (W = 6; 2.23 with float64 keys at W = 3),
    # sf 6.02 MiB (W = 3, whose per-level temporaries are three times
    # those of W = 1; 3.4 at W = 1).
    g = make()
    contrast(g, 1, 0)
    tracemalloc.start()
    try:
        contrast(g, 20, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20


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

        monkeypatch.setattr(sampling, "SWEEP_CAP", cap)
        monkeypatch.setattr(np.random, "default_rng", Recording)
        g = Graph.from_edges(1, [])
        for trees in (1, 3, 20):
            roots, entry = sampling._sweep(g, subseeds(11, trees))
            assert roots.tolist() == [0] * trees
            assert entry.tolist() == [[-1]] * trees
            assert contrast(g, trees, 11).shape == (0,)
        assert sample_bft(g, 5).root == 0
        assert "random" not in drawn
        contrast(Graph.from_edges(2, [(0, 1)]), 3, 11)
        assert "random" in drawn
