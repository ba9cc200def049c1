import random

import numpy as np
import pytest

from treepart import Graph, check_connected, largest_component, volume
from treepart import graph as graph_module
from tests.conftest import random_connected_graph


class TestConstruction:
    def test_canonical_ids_sorted_by_endpoints(self):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (2, 0)])
        assert list(zip(g.edge_u, g.edge_v)) == [(0, 1), (0, 2), (2, 3)]

    def test_parallel_edges_merge_by_summing(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0)], edge_weights=[2.0, 3.0])
        assert g.m == 1
        assert g.edge_w[0] == 5.0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1)], edge_weights=[0.0])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1)], vertex_weights=[1, 0])

    @pytest.mark.parametrize("n, edges, weights", [
        (2, [(0, 1), (0, 1)], [1e308, 1e308]),          # merged weight
        (3, [(0, 1), (1, 2)], [1e308, 1e308]),          # total volume
        (2, [(0, 1)], [9e307]),                         # 2 * weight
        (2, [(0, 1)], [float("inf")]),
    ])
    def test_weight_overflow_rejected(self, n, edges, weights):
        with pytest.raises(ValueError, match="overflow"):
            Graph.from_edges(n, edges, edge_weights=weights)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            Graph.from_edges(2, [(0, 1)], edge_weights=[float("nan")])

    def test_large_finite_total_accepted(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)],
                             edge_weights=[4e307, 4e307])
        assert g.total_volume == 1.6e308

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_adjacency_symmetric(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_graph(rng)
            pairs = set()
            for u in range(g.n):
                for i in range(g.adj_off[u], g.adj_off[u + 1]):
                    pairs.add((u, int(g.adj_nbr[i]), int(g.adj_eid[i])))
            for u, v, e in pairs:
                assert (v, u, e) in pairs
                assert {u, v} == {int(g.edge_u[e]), int(g.edge_v[e])}

    def test_sorts_match_two_key_lexsort(self):
        # Edges, merged weights and adjacency come out in the order of a
        # stable lexsort by (min, max) endpoint and by (end, other end).
        rng = np.random.default_rng(5)
        for n in (2, 3, 17, 400):
            pairs = rng.integers(0, n, size=(2000, 2))
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            w = rng.random(len(pairs)) * 10.0 ** rng.integers(-8, 8,
                                                              len(pairs))
            g = Graph.from_edges(n, pairs, edge_weights=w)
            lo, hi = pairs.min(axis=1), pairs.max(axis=1)
            order = np.lexsort((hi, lo))
            lo, hi = lo[order], hi[order]
            starts = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1])
                                          | (hi[1:] != hi[:-1])])
            assert g.edge_u.tolist() == lo[starts].tolist()
            assert g.edge_v.tolist() == hi[starts].tolist()
            assert g.edge_w.tolist() == \
                np.add.reduceat(w[order], starts).tolist()
            ends = np.r_[g.edge_u, g.edge_v]
            other = np.r_[g.edge_v, g.edge_u]
            order = np.lexsort((other, ends))
            assert g.adj_nbr.tolist() == other[order].tolist()
            assert g.adj_eid.tolist() == \
                np.r_[np.arange(g.m), np.arange(g.m)][order].tolist()


class TestVolume:
    def test_middle_vertex_of_path(self, p3):
        assert volume(p3, [1]) == 2.0

    def test_whole_vertex_set_is_twice_edge_weight(self, p3):
        assert volume(p3, [0, 1, 2]) == 4.0

    def test_degree_sum_over_subset(self, p3):
        assert volume(p3, [0, 1]) == 3.0

    def test_handshake_identity_random(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_connected_graph(rng)
            total = sum(volume(g, [v]) for v in range(g.n))
            assert total == pytest.approx(2.0 * g.edge_w.sum())

    def test_additive_over_disjoint_sets(self):
        rng = random.Random(13)
        for _ in range(20):
            g = random_connected_graph(rng)
            verts = list(range(g.n))
            rng.shuffle(verts)
            k = rng.randrange(g.n + 1)
            a, b = verts[:k], verts[k:]
            assert volume(g, a) + volume(g, b) == pytest.approx(volume(g, verts))


class TestConnectivity:
    def test_path_connected(self, p3):
        assert check_connected(p3)

    def test_two_disjoint_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not check_connected(g)

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        assert check_connected(g)

    def test_answer_cached_on_graph(self, monkeypatch):
        calls = []
        components = graph_module.connected_components
        monkeypatch.setattr(graph_module, "connected_components",
                            lambda g: calls.append(g) or components(g))
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not check_connected(g)
        assert not check_connected(g)
        assert check_connected(Graph.from_edges(2, [(0, 1)]))
        assert len(calls) == 2

    def test_largest_component_extraction(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)],
                             edge_weights=[2, 3, 4],
                             vertex_weights=[1, 2, 3, 4, 5, 6])
        sub, old = largest_component(g)
        assert check_connected(sub)
        assert sub.n == 3
        assert list(old) == [0, 1, 2]
        assert list(sub.vertex_c) == [1, 2, 3]
        assert sorted(sub.edge_w) == [2, 3]
