import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treepart import (Graph, lca, minimum_spanning_tree, root_and_label,
                      sample_bft)
from treepart.spantree import tree_paths
from tests.conftest import (cut_corpus, interleaved_best, kruskal_mst,
                            naive_lca, random_connected_graph,
                            tadj_root_and_label)
from tests.test_fundcut import family


class TestMst:
    def test_triangle_picks_two_cheapest(self, triangle):
        ids = minimum_spanning_tree(triangle, [1.0, 2.0, 3.0])
        assert list(ids) == [0, 1]

    def test_equal_values_tie_break_by_id(self, triangle):
        ids = minimum_spanning_tree(triangle, [5.0, 5.0, 5.0])
        assert list(ids) == [0, 1]

    def test_spanning_tree_shape(self):
        rng = random.Random(8)
        for _ in range(25):
            g = random_connected_graph(rng)
            vals = [rng.random() for _ in range(g.m)]
            ids = minimum_spanning_tree(g, vals)
            assert len(ids) == g.n - 1
            root_and_label(g, ids.tolist(), 0)  # raises if not spanning

    def test_total_value_is_minimal_small(self):
        # Exhaustive check against all spanning trees on small graphs.
        from itertools import combinations
        rng = random.Random(9)
        for _ in range(10):
            g = random_connected_graph(rng, n_lo=4, n_hi=6)
            vals = [rng.randint(1, 9) for _ in range(g.m)]
            ids = minimum_spanning_tree(g, vals)
            got = sum(vals[e] for e in ids)
            best = None
            for subset in combinations(range(g.m), g.n - 1):
                try:
                    root_and_label(g, list(subset), 0)
                except ValueError:
                    continue
                total = sum(vals[e] for e in subset)
                best = total if best is None else min(best, total)
            assert got == best

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="not connected"):
            minimum_spanning_tree(g, [1.0, 1.0])

    def test_nonfinite_values_rejected(self, p3):
        with pytest.raises(ValueError, match="finite"):
            minimum_spanning_tree(p3, [1.0, float("nan")])


class TestRootAndLabel:
    def test_p3_rooted_at_middle(self, p3):
        t = root_and_label(p3, [0, 1], root=1)
        assert t.label[1] == 0
        assert t.label[0] == 1  # smaller-id child labeled first
        assert t.label[2] == 2
        assert t.parent.tolist() == [1, 1, 1]
        assert t.depth.tolist() == [1, 0, 1]

    def test_root_dominates_all_labels(self):
        rng = random.Random(12)
        g = random_connected_graph(rng)
        t = sample_bft(g, 3)
        assert t.max_label[t.root] == g.n - 1
        assert t.label[t.root] == 0

    def test_leaf_max_label_is_own_label(self):
        rng = random.Random(14)
        g = random_connected_graph(rng)
        t = sample_bft(g, 6)
        parents = {int(t.parent[v]) for v in range(g.n) if v != t.root}
        for v in range(g.n):
            if v not in parents:
                assert t.max_label[v] == t.label[v]

    def test_descendant_interval_characterization(self):
        rng = random.Random(15)
        g = random_connected_graph(rng, n_lo=6, n_hi=12)
        t = sample_bft(g, 7)

        def descends(x, u):
            while True:
                if x == u:
                    return True
                if t.parent[x] == x:
                    return False
                x = t.parent[x]

        for u in range(g.n):
            for x in range(g.n):
                interval = t.label[u] <= t.label[x] <= t.max_label[u]
                assert interval == descends(x, u)

    def test_wrong_edge_count_rejected(self, p3):
        with pytest.raises(ValueError, match="n-1"):
            root_and_label(p3, [0], root=0)

    def test_non_spanning_rejected(self, c4):
        # Edges 0-1 and 0-3 plus 0-1 again do not span.
        with pytest.raises(ValueError):
            root_and_label(c4, [0, 0, 1], root=0)

    @pytest.mark.parametrize("edges", [[-1, 0], [0, 2], [1, 5]])
    def test_edge_id_out_of_range_rejected(self, p3, edges):
        # -1 would index the last edge, leaving a parent without an edge.
        match = r"^tree edge ids must be integers in \[0, 2\)$"
        with pytest.raises(ValueError, match=match):
            root_and_label(p3, edges, root=0)


TREE_FIELDS = ("parent", "parent_edge", "depth", "label", "max_label",
               "preorder")


def assert_same_rooting(g, tree_edges, root):
    got = root_and_label(g, tree_edges, root)
    want = tadj_root_and_label(g, tree_edges, root)
    assert got.root == want.root
    for name in TREE_FIELDS:
        field = getattr(got, name)
        assert field.dtype == np.int64
        assert np.array_equal(field, getattr(want, name)), name


def assert_matches_oracles(g, values, root):
    """Borůvka gives Kruskal's id array, and the CSR rooting of that tree
    gives every field of the tuple-list rooting."""
    ids = minimum_spanning_tree(g, values)
    assert ids.dtype == np.int64
    assert np.array_equal(ids, kruskal_mst(g, values))
    assert_same_rooting(g, ids.tolist(), root)


def family_graph(name, n, rng):
    """Tree family of tests.test_fundcut plus its chords, ids shuffled."""
    parent, chords = family(name, n, rng)
    ids = list(range(n))
    rng.shuffle(ids)
    edges = {(min(ids[parent[i]], ids[i]), max(ids[parent[i]], ids[i]))
             for i in range(1, n)}
    edges |= {(min(ids[u], ids[v]), max(ids[u], ids[v]))
              for u, v in chords if u != v}
    return Graph.from_edges(n, sorted(edges))


def strip(k, rng=None):
    """8 x k grid strip, vertex ids shuffled when `rng` is given."""
    n = 8 * k
    ids = list(range(n))
    if rng is not None:
        rng.shuffle(ids)
    edges = [(ids[8 * c + r], ids[8 * c + r + 1])
             for c in range(k) for r in range(7)]
    edges += [(ids[8 * c + r], ids[8 * c + 8 + r])
              for c in range(k - 1) for r in range(8)]
    return Graph.from_edges(n, edges)


def value_kinds(g, rng):
    """Float values, small integers (many ties) and all-equal values."""
    return ([rng.random() for _ in range(g.m)],
            [rng.randrange(4) for _ in range(g.m)],
            [1.0] * g.m)


class TestAgainstOracles:
    def test_criterion1_corpus(self):
        rng = random.Random(31)
        for g, t in cut_corpus():
            for values in value_kinds(g, rng):
                assert_matches_oracles(g, values, rng.randrange(g.n))
            # The sampled BFT tree, supplied in shuffled order.
            edges = t.tree_edge_ids()
            rng.shuffle(edges)
            assert_same_rooting(g, edges, t.root)

    @pytest.mark.parametrize("name", ["path", "star", "caterpillar",
                                      "random"])
    def test_tree_families_with_chords(self, name):
        rng = random.Random(32)
        for n in (4, 9, 50, 400):
            g = family_graph(name, n, rng)
            for values in value_kinds(g, rng):
                assert_matches_oracles(g, values, rng.randrange(n))

    def test_strips(self):
        rng = random.Random(33)
        for k in (1, 2, 7, 150):
            for g in (strip(k), strip(k, rng)):
                for values in value_kinds(g, rng):
                    assert_matches_oracles(g, values, rng.randrange(g.n))

    def test_path_plus_chords_all_equal_values_large(self):
        rng = random.Random(34)
        n = 10 ** 5
        g = family_graph("path", n, rng)
        assert_matches_oracles(g, np.ones(g.m), rng.randrange(n))

    def test_path_with_values_increasing_along_it_large(self):
        # Every vertex takes its edge towards vertex 0: one Borůvka round
        # whose pointer chain is n long, and a rooting DFS n deep.
        n = 10 ** 5
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        assert_matches_oracles(g, np.arange(g.m, dtype=np.float64), 0)
        assert_matches_oracles(g, np.arange(g.m, 0, -1.0), n // 3)

    def test_tiny_graphs(self):
        g1 = Graph.from_edges(1, [])
        assert_matches_oracles(g1, [], 0)
        assert minimum_spanning_tree(g1, []).tolist() == []
        for root in (0, 1):
            assert_matches_oracles(Graph.from_edges(2, [(0, 1)]), [3.0],
                                   root)
        for edges in ([(0, 1), (1, 2)], [(0, 2), (1, 2)],
                      [(0, 1), (0, 2), (1, 2)]):
            g = Graph.from_edges(3, edges)
            for values in ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 2.0, 1.0],
                           [5.0, 5.0, 5.0]):
                for root in range(3):
                    assert_matches_oracles(g, values[:g.m], root)

    @pytest.mark.parametrize("n, edges", [
        (2, []),
        (4, [(0, 1), (2, 3)]),
        (5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
        (3, [(0, 1)]),
    ])
    def test_disconnected(self, n, edges):
        g = Graph.from_edges(n, edges)
        values = [1.0] * g.m
        for mst in (minimum_spanning_tree, kruskal_mst):
            with pytest.raises(ValueError, match="^graph is not connected$"):
                mst(g, values)


@pytest.mark.parametrize("name", ["path", "star", "caterpillar"])
def test_boruvka_scales_linearly(name):
    # Every Borůvka round at least halves the components, so doubling n
    # should about double the time of the MST and of the connectivity
    # check (2.1 for n log n); quadratic work would read 4. The two sizes
    # are timed interleaved, so a shift in machine speed reaches both.
    rng = random.Random(name)
    graphs = [family_graph(name, n, rng) for n in (5 * 10 ** 4, 10 ** 5)]
    values = [np.random.default_rng(g.n).random(g.m) for g in graphs]

    def connected(g):
        vars(g).pop("is_connected", None)  # drop the cached answer
        assert g.is_connected

    mst = interleaved_best([lambda g=g, v=v: minimum_spanning_tree(g, v)
                            for g, v in zip(graphs, values)], 9)
    conn = interleaved_best([lambda g=g: connected(g) for g in graphs], 9)
    assert mst[1] / mst[0] <= 3.0, mst
    assert conn[1] / conn[0] <= 3.0, conn


@st.composite
def valued_graphs(draw):
    """A connected graph on up to 30 vertices with float or tied integer
    edge values, and a root."""
    n = draw(st.integers(1, 30))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 1:
        vertex = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    ids = draw(st.permutations(range(n)))
    g = Graph.from_edges(n, [(ids[u], ids[v]) for u, v in edges])
    value = draw(st.sampled_from([st.integers(0, 3).map(float),
                                  st.floats(-1e3, 1e3)]))
    values = draw(st.lists(value, min_size=g.m, max_size=g.m))
    return g, values, draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(valued_graphs())
def test_mst_and_rooting_match_oracles(case):
    assert_matches_oracles(*case)


class TestLca:
    def test_identity(self, p3):
        t = root_and_label(p3, [0, 1], root=0)
        assert lca(t, 2, 2) == 2

    def test_ancestor_case(self, p3):
        t = root_and_label(p3, [0, 1], root=0)  # chain 0 -> 1 -> 2
        assert lca(t, 1, 2) == 1

    def test_siblings_meet_at_root(self, p3):
        t = root_and_label(p3, [0, 1], root=1)
        assert lca(t, 0, 2) == 1

    def test_matches_naive_walk(self):
        rng = random.Random(19)
        for _ in range(15):
            g = random_connected_graph(rng, n_lo=5, n_hi=12)
            t = sample_bft(g, rng.randrange(1000))
            for _ in range(20):
                u, v = rng.randrange(g.n), rng.randrange(g.n)
                assert lca(t, u, v) == naive_lca(t, u, v)

    @pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (3, 0), (0, 3),
                                      (0.7, 2), (2, 1.0)])
    def test_vertex_out_of_range(self, p3, u, v):
        # -1 would otherwise read vertex 2, 0.7 would truncate to vertex 0
        # and 3 would raise IndexError.
        t = root_and_label(p3, [0, 1], root=0)
        with pytest.raises(ValueError, match="must be integers in"):
            lca(t, u, v)

    def test_numpy_integer_ids(self, p3):
        t = root_and_label(p3, [0, 1], root=1)
        assert lca(t, np.int64(0), np.int32(2)) == 1


def walk_path_min(t, u, v, values):
    """Oracle: minimum of values[x] over the vertices x whose parent edge
    lies on the u-v tree path, by walking up to the scalar LCA."""
    top = naive_lca(t, u, v)
    best = math.inf
    for x in (u, v):
        while x != top:
            best = min(best, values[x])
            x = t.parent[x]
    return best


@st.composite
def rooted_trees(draw):
    """A path, star, caterpillar or random tree on shuffled vertex ids,
    rooted anywhere."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["path", "star", "caterpillar", "random"]))
    spine = max(1, n // 2)
    parent = [0]
    for i in range(1, n):
        if shape == "path" or (shape == "caterpillar" and i < spine):
            parent.append(i - 1)
        elif shape == "star":
            parent.append(0)
        else:
            parent.append(draw(st.integers(0, (i if shape == "random"
                                               else spine) - 1)))
    ids = draw(st.permutations(range(n)))
    g = Graph.from_edges(n, [(ids[parent[i]], ids[i]) for i in range(1, n)])
    return root_and_label(g, range(n - 1), draw(st.integers(0, n - 1)))


@st.composite
def path_queries(draw):
    t = draw(rooted_trees())
    vertex = st.integers(0, t.n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=t.n,
                           max_size=t.n))
    return t, pairs, values


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(path_queries())
def test_tree_paths_match_scalar_walk(query):
    t, pairs, values = query
    a = [u for u, _ in pairs]
    b = [v for _, v in pairs]
    got = tree_paths(t, a, b, values)
    assert got.lca.tolist() == [naive_lca(t, u, v) for u, v in pairs]
    assert got.minimum.tolist() == [walk_path_min(t, u, v, values)
                                    for u, v in pairs]
    assert tree_paths(t, a, b).minimum is None
    levels = max(1, int(t.depth.max()).bit_length())
    assert got.steps == t.n * (levels - 1) + 2 * levels * len(pairs)
