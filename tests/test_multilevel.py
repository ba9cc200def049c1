import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treepart import (RATINGS, Graph, Partition, PartitionConfig,
                      contract, edge_cut, fm_refine, generate_scale_free,
                      greedy_matching, initial_bipartition, is_balanced,
                      partition_multilevel)
from tests.conftest import (MALFORMED_PARTITIONS, chorded_c6,
                            random_balanced_blocks, random_connected_graph)


def max_weight_matching_value(g, rating):
    """Exhaustive oracle: best total rating over all matchings (n small)."""
    edges = [(int(g.edge_u[e]), int(g.edge_v[e]), rating[e])
             for e in range(g.m)]

    def best(idx, used):
        if idx == len(edges):
            return 0.0
        u, v, w = edges[idx]
        skip = best(idx + 1, used)
        if u in used or v in used:
            return skip
        take = w + best(idx + 1, used | {u, v})
        return max(skip, take)

    return best(0, frozenset())


class TestGreedyMatching:
    def test_greedy_order_on_path(self, p3):
        mate = greedy_matching(p3, np.array([3.0, 5.0]), 1e9)
        assert mate[1] == 2 and mate[2] == 1 and mate[0] == -1

    def test_weight_cap_blocks_everything(self, p3):
        mate = greedy_matching(p3, np.array([3.0, 5.0]), 1.5)
        assert list(mate) == [-1, -1, -1]

    def test_symmetry_and_adjacency(self):
        rng = random.Random(42)
        for _ in range(20):
            g = random_connected_graph(rng)
            rating = np.array([rng.random() for _ in range(g.m)])
            mate = greedy_matching(g, rating, 1e9)
            for v in range(g.n):
                if mate[v] >= 0:
                    assert mate[mate[v]] == v
                    assert (min(v, mate[v]), max(v, mate[v])) in g.edge_ids

    def test_at_least_half_of_optimum(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_connected_graph(rng, n_lo=4, n_hi=9)
            rating = np.array([rng.randint(1, 10) for _ in range(g.m)])
            mate = greedy_matching(g, rating, 1e9)
            got = sum(rating[g.edge_ids[(min(v, mate[v]), max(v, mate[v]))]]
                      for v in range(g.n) if 0 <= mate[v] and v < mate[v])
            assert got >= 0.5 * max_weight_matching_value(g, rating)


class TestContract:
    def test_p3_contract_one_edge(self, p3):
        mate = np.array([-1, 2, 1])
        coarse, cmap = contract(p3, mate)
        assert coarse.n == 2 and coarse.m == 1
        assert sorted(coarse.vertex_c) == [1, 2]
        assert coarse.edge_w[0] == 1.0
        assert cmap[1] == cmap[2]

    def test_triangle_merges_parallel_edges(self, triangle):
        mate = np.array([1, 0, -1])
        coarse, _ = contract(triangle, mate)
        assert coarse.n == 2 and coarse.m == 1
        assert coarse.edge_w[0] == 2.0

    def test_empty_matching_is_identity(self, c4):
        coarse, cmap = contract(c4, np.full(4, -1))
        assert coarse.n == c4.n and coarse.m == c4.m
        assert list(coarse.edge_w) == list(c4.edge_w)
        assert list(cmap) == list(range(4))

    def test_weight_conservation_and_cut_preservation(self):
        rng = random.Random(77)
        for _ in range(20):
            g = random_connected_graph(rng)
            rating = np.array([rng.random() for _ in range(g.m)])
            mate = greedy_matching(g, rating, 1e9)
            coarse, cmap = contract(g, mate)
            assert coarse.vertex_c.sum() == g.vertex_c.sum()
            # A coarse partition prolonged to the fine graph cuts the same
            # weight on both levels.
            blocks = random_balanced_blocks(coarse, rng)
            if blocks is None:
                continue
            pc = Partition.from_blocks(coarse, blocks)
            fine_blocks = [blocks[cmap[v]] for v in range(g.n)]
            pf = Partition.from_blocks(g, fine_blocks)
            assert edge_cut(coarse, pc) == pytest.approx(edge_cut(g, pf))

    def test_asymmetric_mate_rejected(self, p3):
        with pytest.raises(ValueError, match="symmetric"):
            contract(p3, np.array([1, 2, 0]))

    def test_self_mate_rejected(self, p3):
        with pytest.raises(ValueError, match="symmetric"):
            contract(p3, np.array([-1, 1, -1]))

    def test_coarse_ids_follow_pair_leaders(self):
        # Coarse ids are handed out in ascending order of each pair's
        # smaller vertex, as a sequential scan over the vertices would.
        rng = random.Random(78)
        for _ in range(30):
            g = random_connected_graph(rng, n_lo=2, n_hi=20)
            rating = np.array([rng.random() for _ in range(g.m)])
            mate = greedy_matching(g, rating, 1e9).tolist()
            expect = []
            for v in range(g.n):
                if mate[v] < 0 or mate[v] > v:
                    expect.append(len(set(expect)))
                else:
                    expect.append(expect[mate[v]])
            _, cmap = contract(g, np.array(mate))
            assert cmap.tolist() == expect


class TestInitialBipartition:
    def test_p4_finds_optimal_contiguous_split(self, p4):
        p = initial_bipartition(p4, 0.0, attempts=25, seed=3)
        assert p.block_weight == [2, 2]
        assert edge_cut(p4, p) == 1.0

    def test_k2(self, k2):
        p = initial_bipartition(k2, 0.03, attempts=5, seed=1)
        assert sorted(p.block) == [0, 1]
        assert edge_cut(k2, p) == 1.0

    def test_balance_postcondition(self):
        rng = random.Random(99)
        for _ in range(20):
            g = random_connected_graph(rng, n_lo=4, n_hi=12)
            p = initial_bipartition(g, 0.03, attempts=25,
                                    seed=rng.randrange(1000))
            assert is_balanced(g, p, 0.03)

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        p = initial_bipartition(g, 0.03, attempts=3, seed=0)
        assert p.block == [0]

    def test_infeasible_balance_warns_and_returns_best_effort(self, caplog):
        # One vertex outweighs the cap, so no attempt can balance.
        g = Graph.from_edges(2, [(0, 1)], vertex_weights=[3, 1])
        with caplog.at_level("WARNING", logger="treepart.multilevel"):
            p = initial_bipartition(g, 0.0, attempts=4, seed=0)
        assert "no balanced initial bipartition" in caplog.text
        assert sorted(p.block_weight) == [1, 3]


class TestFmRefine:
    def test_p4_interleaved_blocks_fixed(self, p4):
        # Epsilon must leave room for the intermediate 3/1 state a single
        # move creates; the balance tie-break then lands on the 2/2 split.
        p = Partition.from_blocks(p4, [0, 1, 0, 1])
        assert edge_cut(p4, p) == 3.0
        refined = fm_refine(p4, p, 0.5, max_passes=10)
        assert edge_cut(p4, refined) == 1.0
        assert is_balanced(p4, refined, 0.0)

    def test_unbalanced_input_rebalanced(self):
        # Moving vertex 2 raises the cut from 1 to 5 but restores balance,
        # and a balanced prefix wins over any cut.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)],
                             edge_weights=[1.0, 5.0, 1.0])
        out = fm_refine(g, Partition.from_blocks(g, [0, 0, 0, 1]), 0.0, 10)
        assert out.block == [0, 0, 1, 1]
        assert is_balanced(g, out, 0.0)

    def test_optimal_input_unchanged(self, p4):
        p = Partition.from_blocks(p4, [0, 0, 1, 1])
        refined = fm_refine(p4, p, 0.0, max_passes=10)
        assert edge_cut(p4, refined) == 1.0

    def test_never_increases_cut_and_keeps_balance(self):
        rng = random.Random(55)
        for _ in range(30):
            g = random_connected_graph(rng, n_lo=4, n_hi=14)
            blocks = random_balanced_blocks(g, rng)
            p = Partition.from_blocks(g, blocks)
            if not is_balanced(g, p, 0.03):
                continue
            refined = fm_refine(g, p, 0.03, max_passes=5)
            assert edge_cut(g, refined) <= edge_cut(g, p) + 1e-9
            assert is_balanced(g, refined, 0.03)

    def test_block_weight_consistent_after_refine(self):
        rng = random.Random(56)
        g = random_connected_graph(rng, n_lo=6, n_hi=12)
        p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
        refined = fm_refine(g, p, 0.03, max_passes=5)
        again = Partition.from_blocks(g, refined.block)
        assert refined.block_weight == again.block_weight

    @pytest.mark.parametrize("block, weight, message", MALFORMED_PARTITIONS)
    def test_malformed_partition_rejected(self, block, weight, message):
        with pytest.raises(ValueError, match=message):
            fm_refine(chorded_c6(), Partition(block, weight), 0.03, 10)


class TestPartitionMultilevel:
    def test_k2_trivial(self, k2):
        p = partition_multilevel(k2, PartitionConfig(seed=1))
        assert sorted(p.block) == [0, 1]

    def test_deterministic(self):
        g = generate_scale_free(500, 3, 7)
        cfg = PartitionConfig(rating="excond", trees=10, seed=42)
        a = partition_multilevel(g, cfg)
        b = partition_multilevel(g, cfg)
        assert a.block == b.block

    def test_all_ratings_produce_balanced_partitions(self):
        g = generate_scale_free(400, 3, 11)
        for rating in ("excond", "exalg", "exp2"):
            cfg = PartitionConfig(rating=rating, trees=8, seed=5)
            p = partition_multilevel(g, cfg)
            assert is_balanced(g, p, cfg.epsilon)
            assert 0 < sum(p.block) < g.n

    def test_beats_random_balanced_baseline(self):
        g = generate_scale_free(1000, 4, 13)
        cfg = PartitionConfig(rating="excond", trees=10, seed=3)
        p = partition_multilevel(g, cfg)
        ours = edge_cut(g, p)
        rng = random.Random(99)
        baseline = min(
            edge_cut(g, Partition.from_blocks(g, random_balanced_blocks(g, rng)))
            for _ in range(100))
        assert ours <= baseline

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            partition_multilevel(g, PartitionConfig())

    def test_unknown_rating_rejected(self):
        with pytest.raises(ValueError, match="unknown rating"):
            PartitionConfig(rating="bogus")

    @pytest.mark.parametrize("field, value, message", [
        ("trees", 0, "trees must be at least 1"),
        ("trees", -3, "trees must be at least 1"),
        ("coarsest_size", 1, "coarsest_size must be at least 2"),
        ("coarsest_size", 0, "coarsest_size must be at least 2"),
        ("epsilon", -1.0, "epsilon must be >= 0"),
        ("epsilon", float("nan"), "epsilon must be >= 0"),
    ])
    def test_degenerate_config_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            PartitionConfig(**{field: value})

    def test_smallest_valid_config_accepted(self, k2):
        cfg = PartitionConfig(trees=1, coarsest_size=2, epsilon=0.0)
        assert partition_multilevel(k2, cfg).block_weight == [1, 1]


@st.composite
def matched_graphs(draw):
    """A connected graph with integer edge and vertex weights (so every sum
    is exact) and a random matching of its edges."""
    n = draw(st.integers(1, 25))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 1:
        vertex = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    edges = sorted(edges)
    g = Graph.from_edges(
        n, edges,
        edge_weights=draw(st.lists(st.integers(1, 10 ** 6), min_size=len(edges),
                                   max_size=len(edges))),
        vertex_weights=draw(st.lists(st.integers(1, 10 ** 6), min_size=n,
                                     max_size=n)))
    mate = [-1] * n
    for e in draw(st.permutations(range(g.m))):
        u, v = int(g.edge_u[e]), int(g.edge_v[e])
        if mate[u] < 0 and mate[v] < 0 and draw(st.booleans()):
            mate[u], mate[v] = v, u
    return g, np.asarray(mate, dtype=np.int64)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matched_graphs())
def test_contract_keeps_vertex_and_non_loop_edge_weight(case):
    g, mate = case
    coarse, cmap = contract(g, mate)
    assert coarse.n == g.n - int(np.count_nonzero(mate >= 0)) // 2
    assert int(coarse.vertex_c.sum()) == int(g.vertex_c.sum())
    # Every fine edge between two coarse vertices lands on their coarse
    # edge; the edges inside a matched pair vanish.
    want: dict[tuple[int, int], float] = {}
    for u, v, w in zip(cmap[g.edge_u].tolist(), cmap[g.edge_v].tolist(),
                       g.edge_w.tolist()):
        if u != v:
            key = (min(u, v), max(u, v))
            want[key] = want.get(key, 0.0) + w
    got = dict(zip(zip(coarse.edge_u.tolist(), coarse.edge_v.tolist()),
                   coarse.edge_w.tolist()))
    assert got == want


def test_contract_of_near_overflow_weights_stays_finite():
    # The fine total volume is finite, so merging parallel coarse edges
    # cannot overflow either.
    big = 2.0 ** 1020
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)],
                         edge_weights=[big] * 4)
    coarse, _ = contract(g, np.array([-1, 2, 1, -1]))
    assert coarse.edge_w.tolist() == [2 * big, 2 * big]
    assert coarse.total_volume == g.total_volume < float("inf")


@st.composite
def unit_graphs(draw):
    """A connected unit-weight graph on 2 to 120 vertices, a rating, a seed
    and a coarsest size small enough to force coarsening levels."""
    n = draw(st.integers(2, 120))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    g = random_connected_graph(rng, n_lo=n, n_hi=n, w_lo=1, w_hi=1,
                               extra_frac=draw(st.sampled_from([0.0, 0.6,
                                                                2.0])))
    cfg = PartitionConfig(rating=draw(st.sampled_from(RATINGS)), trees=4,
                          epsilon=0.0, seed=draw(st.integers(0, 99)),
                          coarsest_size=draw(st.sampled_from([2, 8, 60])))
    return g, cfg


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(unit_graphs())
def test_epsilon_zero_gives_exact_halves_on_unit_weights(case):
    g, cfg = case
    p = partition_multilevel(g, cfg)
    assert sorted(p.block_weight) == [g.n // 2, (g.n + 1) // 2]
    assert is_balanced(g, p, 0.0)
