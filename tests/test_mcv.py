import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from treepart import (Graph, Partition, comm_volumes, edge_cut, is_balanced,
                      mcv, mcv_postprocess)
from tests.conftest import (external_degrees, random_balanced_blocks,
                            random_connected_graph)


class TestMetric:
    def test_c4_halves(self, c4):
        p = Partition.from_blocks(c4, [0, 0, 1, 1])
        assert comm_volumes(c4, p) == (2, 2)
        assert mcv(c4, p) == 2

    def test_star_center_versus_leaves(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        p = Partition.from_blocks(g, [0, 1, 1, 1])
        assert comm_volumes(g, p) == (1, 3)
        assert mcv(g, p) == 3

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        p = Partition.from_blocks(g, [0])
        assert mcv(g, p) == 0

    def test_edge_cut_examples(self, c4, k2):
        assert edge_cut(c4, Partition.from_blocks(c4, [0, 0, 1, 1])) == 2.0
        assert edge_cut(c4, Partition.from_blocks(c4, [0, 0, 0, 0])) == 0.0
        assert edge_cut(k2, Partition.from_blocks(k2, [0, 1])) == 1.0


class TestPostprocess:
    def test_never_increases_mcv(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_connected_graph(rng, n_lo=4, n_hi=14, w_lo=1, w_hi=1)
            p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
            if not is_balanced(g, p, 0.03):
                continue
            out = mcv_postprocess(g, p, rounds=10, epsilon=0.03, seed=7)
            assert mcv(g, out) <= mcv(g, p)
            assert is_balanced(g, out, 0.03)

    def test_monotone_in_round_count(self):
        rng = random.Random(22)
        g = random_connected_graph(rng, n_lo=10, n_hi=14, w_lo=1, w_hi=1)
        p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
        values = [mcv(g, mcv_postprocess(g, p, rounds=r, epsilon=0.03, seed=3))
                  for r in range(6)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_optimal_input_unchanged(self, c4):
        p = Partition.from_blocks(c4, [0, 0, 1, 1])
        out = mcv_postprocess(c4, p, rounds=5, epsilon=0.03, seed=1)
        assert mcv(c4, out) == 2  # every balanced split of C4 has MCV 2

    def test_negative_rounds_rejected(self, c4):
        p = Partition.from_blocks(c4, [0, 0, 1, 1])
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            mcv_postprocess(c4, p, rounds=-1, epsilon=0.03, seed=1)

    def test_incremental_state_matches_scratch(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(50):
            g = random_connected_graph(rng, n_lo=4, n_hi=14, w_lo=1, w_hi=1)
            p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
            if not is_balanced(g, p, 0.03):
                continue

            def audit(block, vols, ext):
                fresh = Partition.from_blocks(g, block)
                assert vols == comm_volumes(g, fresh)
                assert list(ext) == external_degrees(g, block)

            out = mcv_postprocess(g, p, rounds=5, epsilon=0.03,
                                  seed=rng.randrange(1000), on_accept=audit)
            fresh = Partition.from_blocks(g, out.block)
            assert out.block_weight == fresh.block_weight
            checked += 1
        assert checked >= 40

    def test_stats_filled_without_edges(self):
        g = Graph.from_edges(2, [])
        stats = {}
        mcv_postprocess(g, Partition.from_blocks(g, [0, 1]), seed=0,
                        stats=stats)
        assert stats == {"rounds": 0, "max_round_touches": 0}
        g = Graph.from_edges(1, [])
        stats = {}
        mcv_postprocess(g, Partition.from_blocks(g, [0]), epsilon=1.0,
                        seed=0, stats=stats)
        assert stats == {"rounds": 0, "max_round_touches": 0}

    def test_unbalanced_input_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        p = Partition.from_blocks(g, [0, 0, 0, 1])
        with pytest.raises(ValueError, match="balance"):
            mcv_postprocess(g, p, epsilon=0.0, seed=0)

    def test_deterministic(self):
        rng = random.Random(24)
        g = random_connected_graph(rng, n_lo=10, n_hi=14)
        p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
        a = mcv_postprocess(g, p, rounds=8, epsilon=0.03, seed=9)
        b = mcv_postprocess(g, p, rounds=8, epsilon=0.03, seed=9)
        assert a.block == b.block

    def test_round_cost_linear_in_graph_size(self):
        # One round scans the boundary snapshot plus at most twice the
        # adjacency of every visited vertex: within 4 * (n + m).
        rng = random.Random(25)
        for _ in range(20):
            g = random_connected_graph(rng, n_lo=6, n_hi=14)
            p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
            stats = {}
            mcv_postprocess(g, p, rounds=6, epsilon=0.03, seed=2, stats=stats)
            if stats["rounds"]:
                assert stats["max_round_touches"] <= 4 * (g.n + g.m)


@st.composite
def balanced_starts(draw):
    """A connected graph with vertex weights 1-3, an epsilon, and a start
    that puts the vertices, in random order, into the lighter block."""
    n = draw(st.integers(2, 30))
    ids = draw(st.permutations(range(n)))
    edges = {tuple(sorted((ids[draw(st.integers(0, i - 1))], ids[i])))
             for i in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {tuple(sorted(p)) for p in draw(st.lists(pair, max_size=60))
              if p[0] != p[1]}
    c = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    g = Graph.from_edges(n, sorted(edges), vertex_weights=c)
    epsilon = draw(st.sampled_from([0.0, 0.03, 0.25]))
    block, weight = [0] * n, [0, 0]
    for v in draw(st.permutations(range(n))):
        b = int(weight[1] < weight[0])
        block[v] = b
        weight[b] += c[v]
    p = Partition.from_blocks(g, block)
    assume(is_balanced(g, p, epsilon))
    return g, p, epsilon


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(balanced_starts(), st.integers(0, 8), st.integers(0, 2 ** 32))
def test_postprocess_keeps_balance_and_never_raises_mcv(case, rounds, seed):
    g, p, epsilon = case
    before = p.copy()
    out = mcv_postprocess(g, p, rounds=rounds, epsilon=epsilon, seed=seed)
    assert mcv(g, out) <= mcv(g, p)
    assert is_balanced(g, out, epsilon)
    assert out.block_weight == Partition.from_blocks(g, out.block).block_weight
    assert p == before
