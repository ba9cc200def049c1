import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treepart import Graph, check_connected, generate_scale_free
from treepart import graph as graph_module
from tests.conftest import (cut_corpus, random_connected_graph,
                            union_find_components, volume)
from tests.test_spantree import family_graph, strip


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

    @pytest.mark.parametrize("edges", [[(0.5, 1.7), (1, 2)],
                                       np.array([(0.5, 1.7), (1, 2)]),
                                       [(0.0, 1.0)]])
    def test_fractional_endpoints_rejected(self, edges):
        # Truncation would build the edges {0, 1} and {1, 2}.
        with pytest.raises(ValueError, match="endpoints must be integers"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize("weights", [[1.5, 1, 1],
                                         np.array([1.9, 1, 1]),
                                         [2.0, 1.0, 1.0]])
    def test_fractional_vertex_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="vertex weights must be int"):
            Graph.from_edges(3, [(0, 1), (1, 2)], vertex_weights=weights)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    def test_integer_dtypes_accepted(self, dtype):
        g = Graph.from_edges(3, np.array([(2, 1), (0, 1)], dtype=dtype),
                             vertex_weights=np.array([1, 2, 3], dtype=dtype))
        assert g.edge_u.tolist() == [0, 1] and g.edge_v.tolist() == [1, 2]
        assert g.vertex_c.dtype == np.int64
        assert g.vertex_c.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("edges", [[], np.empty((0, 2), dtype=np.int64),
                                       iter(())], ids=["list", "array",
                                                       "iterator"])
    def test_no_edges(self, n, edges):
        g = Graph.from_edges(n, edges)
        assert g.m == 0
        for arr, dtype in ((g.edge_u, np.int64), (g.edge_v, np.int64),
                           (g.edge_w, np.float64)):
            assert arr.dtype == dtype and arr.shape == (0,)
        assert g.adj_off.tolist() == [0] * (n + 1)
        assert g.adj_nbr.size == 0 and g.adj_eid.size == 0

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

    def test_unstable_csr_sort_matches_lexsort(self):
        # The CSR sorts the keys end * n + other end with an unstable
        # argsort. They are distinct in a simple graph, so the adjacency
        # is the (end, other end) lexsort order.
        graphs = [g for g, _ in cut_corpus()]
        graphs.append(generate_scale_free(3000, 4, 1))
        for g in graphs:
            ends = np.r_[g.edge_u, g.edge_v]
            other = np.r_[g.edge_v, g.edge_u]
            order = np.lexsort((other, ends))
            assert np.array_equal(g.adj_nbr, other[order])
            assert np.array_equal(g.adj_eid,
                                  np.r_[np.arange(g.m), np.arange(g.m)][order])


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
        boruvka = graph_module._boruvka
        monkeypatch.setattr(graph_module, "_boruvka",
                            lambda g, ranked: calls.append(g)
                            or boruvka(g, ranked))
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not check_connected(g)
        assert not check_connected(g)
        assert check_connected(Graph.from_edges(2, [(0, 1)]))
        assert len(calls) == 2


def assert_forest_rule(g):
    """check_connected(g) holds exactly when union-find finds one
    component, and Borůvka's forest has n - (union-find's component count)
    edges and the same components. Returns that count."""
    comps = union_find_components(g)
    assert check_connected(g) == (len(comps) == 1)
    taken = graph_module._boruvka(g, np.arange(g.m))
    assert taken.dtype == bool and taken.shape == (g.m,)
    assert int(taken.sum()) == g.n - len(comps)
    forest = Graph.from_edges(g.n, np.column_stack((g.edge_u[taken],
                                                    g.edge_v[taken])))
    assert union_find_components(forest) == comps
    return len(comps)


def relabelled_union(parts, rng):
    """Disjoint union of graphs, vertex ids shuffled, random vertex weights."""
    n = sum(h.n for h in parts)
    ids = list(range(n))
    rng.shuffle(ids)
    edges, weights, base = [], [], 0
    for h in parts:
        edges += [(ids[base + u], ids[base + v])
                  for u, v in zip(h.edge_u.tolist(), h.edge_v.tolist())]
        weights += h.edge_w.tolist()
        base += h.n
    return Graph.from_edges(n, edges, edge_weights=weights,
                            vertex_weights=[rng.randint(1, 5)
                                            for _ in range(n)])


def random_forest(n, rng):
    """Each vertex but the first hangs off an earlier one with prob. 0.8."""
    ids = list(range(n))
    rng.shuffle(ids)
    return Graph.from_edges(n, [(ids[rng.randrange(i)], ids[i])
                                for i in range(1, n) if rng.random() < 0.8])


class TestComponentsMatchUnionFind:
    def test_random_connected_graphs(self):
        rng = random.Random(41)
        for _ in range(200):
            g = random_connected_graph(rng, n_lo=1, n_hi=30)
            assert assert_forest_rule(g) == 1

    def test_disjoint_unions(self):
        rng = random.Random(42)
        for _ in range(100):
            parts = [random_connected_graph(rng, n_lo=1, n_hi=10)
                     for _ in range(rng.randint(2, 5))]
            g = relabelled_union(parts, rng)
            assert assert_forest_rule(g) == len(parts)

    def test_forests(self):
        rng = random.Random(43)
        for n in (2, 5, 20, 100, 2000):
            for _ in range(5):
                assert_forest_rule(random_forest(n, rng))

    def test_edgeless_graphs(self):
        for n in (1, 2, 5, 1000):
            g = Graph.from_edges(n, [])
            assert assert_forest_rule(g) == n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_graph_on_up_to_three_vertices(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, k):
                assert_forest_rule(Graph.from_edges(n, edges))

    @pytest.mark.parametrize("name", ["path", "star", "caterpillar"])
    def test_tree_families_with_chords(self, name):
        rng = random.Random(44)
        for n in (4, 50, 3000):
            g = family_graph(name, n, rng)
            assert assert_forest_rule(g) == 1
            two = relabelled_union([g, family_graph(name, n, rng)], rng)
            assert assert_forest_rule(two) == 2

    def test_strips(self):
        rng = random.Random(45)
        for k in (1, 7, 150):
            for g in (strip(k), strip(k, rng),
                      relabelled_union([strip(k), strip(k + 1)], rng)):
                assert_forest_rule(g)


@st.composite
def multi_component_graphs(draw):
    """1-4 components, each a random spanning tree plus extra edges, on
    shuffled vertex ids."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    ids = draw(st.permutations(range(sum(sizes))))
    edges, base = set(), 0
    for size in sizes:
        part = ids[base:base + size]
        base += size
        for i in range(1, size):
            edges.add(tuple(sorted((part[draw(st.integers(0, i - 1))],
                                    part[i]))))
        pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        edges |= {tuple(sorted((part[a], part[b])))
                  for a, b in draw(st.lists(pair, max_size=15)) if a != b}
    return Graph.from_edges(len(ids), sorted(edges)), len(sizes)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(multi_component_graphs())
def test_components_match_union_find_property(case):
    g, k = case
    assert assert_forest_rule(g) == k
