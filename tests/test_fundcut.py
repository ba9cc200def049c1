import random

import numpy as np
import pytest

from treepart import (Graph, all_fundamental_conductances, cond_all_edges,
                      root_and_label, sample_bft)
from treepart.fundcut import cut_attributes
from tests.conftest import (brute_force_conductance, cut_corpus, edge_id,
                            naive_lca, postorder_cut_aggregates,
                            random_connected_graph, volume)


def descendants(t, u):
    return [x for x in range(t.n)
            if t.label[u] <= t.label[x] <= t.max_label[u]]


def brute_attributes(g, t, u):
    """Evaluate the three vertex aggregates straight from their definitions."""
    desc = set(descendants(t, u))
    sub = volume(g, desc)
    tree_edges = set(t.tree_edge_ids())
    intra = 0.0
    inter = 0.0
    for e in range(g.m):
        a, b = int(g.edge_u[e]), int(g.edge_v[e])
        w = float(g.edge_w[e])
        if (a != u and b != u and a in desc and b in desc
                and naive_lca(t, a, b) == u):
            intra += 2.0 * w
        if e not in tree_edges:
            if (a == u and b in desc) or (b == u and a in desc):
                intra += w
            if (a in desc) != (b in desc):
                inter += w
    return sub, intra, inter


class TestExamples:
    def test_p3_leaf_cut(self, p3):
        t = root_and_label(p3, [0, 1], root=2)
        conds = all_fundamental_conductances(p3, t)
        assert conds[edge_id(p3, 0, 1)] == pytest.approx(1.0)

    def test_c4_path_tree_middle_edge(self, c4):
        # Spanning tree is the path 0-1-2-3; cutting {1, 2} crosses {1,2}
        # and {0, 3}.
        tree = [edge_id(c4, 0, 1), edge_id(c4, 1, 2), edge_id(c4, 2, 3)]
        t = root_and_label(c4, tree, root=0)
        conds = all_fundamental_conductances(c4, t)
        e = edge_id(c4, 1, 2)
        assert conds[e] == pytest.approx(0.5)
        assert conds[e] == pytest.approx(brute_force_conductance(c4, t, e))

    def test_star_plus_attributes_and_cond(self, star_plus):
        g = star_plus
        tree = [edge_id(g, 0, 1), edge_id(g, 1, 2), edge_id(g, 1, 3)]
        t = root_and_label(g, tree, root=0)
        attrs = cut_attributes(g, t)
        assert attrs.intra_weight[1] == pytest.approx(2.0)
        assert attrs.inter_weight[1] == pytest.approx(0.0)
        assert attrs.subtree_vol[1] == pytest.approx(7.0)
        conds = all_fundamental_conductances(g, t)
        assert conds[edge_id(g, 0, 1)] == pytest.approx(1.0)

    def test_triangle_brute_force(self, triangle):
        t = root_and_label(triangle, [0, 2], root=0)  # tree {01, 12}
        e = edge_id(triangle, 0, 1)
        assert brute_force_conductance(triangle, t, e) == pytest.approx(1.0)

    def test_non_tree_edge_rejected(self, c4):
        tree = [0, 1, 2]
        t = root_and_label(c4, tree, root=0)
        non_tree = [e for e in range(c4.m) if e not in tree][0]
        with pytest.raises(ValueError, match="not a tree edge"):
            brute_force_conductance(c4, t, non_tree)

    def test_mismatched_tree_rejected(self, p3, c4):
        t = root_and_label(p3, [0, 1], root=0)
        with pytest.raises(ValueError, match="does not match"):
            all_fundamental_conductances(c4, t)


class TestAgainstOracle:
    def test_matches_brute_force_on_random_corpus(self):
        rng = random.Random(101)
        for _ in range(200):
            g = random_connected_graph(rng)
            t = sample_bft(g, rng.randrange(2 ** 32))
            conds = all_fundamental_conductances(g, t)
            tree_ids = set(t.tree_edge_ids())
            for e in range(g.m):
                if e in tree_ids:
                    assert conds[e] == pytest.approx(
                        brute_force_conductance(g, t, e), abs=1e-9)
                else:
                    assert np.isnan(conds[e])

    def test_attribute_equalities_random(self):
        rng = random.Random(202)
        for _ in range(60):
            g = random_connected_graph(rng)
            t = sample_bft(g, rng.randrange(2 ** 32))
            attrs = cut_attributes(g, t)
            for u in range(g.n):
                sub, intra, inter = brute_attributes(g, t, u)
                assert attrs.subtree_vol[u] == sub
                assert attrs.intra_weight[u] == intra
                assert attrs.inter_weight[u] == inter

    def test_subtree_volume_conservation(self):
        rng = random.Random(303)
        g = random_connected_graph(rng)
        t = sample_bft(g, 5)
        attrs = cut_attributes(g, t)
        children = [v for v in range(g.n)
                    if t.parent[v] == t.root and v != t.root]
        child_sum = sum(attrs.subtree_vol[c] for c in children)
        assert child_sum + volume(g, [t.root]) == pytest.approx(
            g.total_volume)

    def test_conductance_positive_and_bounded(self):
        rng = random.Random(404)
        for _ in range(40):
            g = random_connected_graph(rng)
            t = sample_bft(g, rng.randrange(2 ** 32))
            conds = all_fundamental_conductances(g, t)
            for e in t.tree_edge_ids():
                assert conds[e] > 0
                assert np.isfinite(conds[e])

    def test_visit_counter_bound(self):
        rng = random.Random(505)
        for _ in range(30):
            g = random_connected_graph(rng)
            t = sample_bft(g, rng.randrange(2 ** 32))
            stats = {}
            all_fundamental_conductances(g, t, stats)
            assert stats["adjacency_visits"] + stats["vertex_visits"] \
                <= 2 * g.m + g.n


def array_pass(g, t):
    """Conductances and aggregates of the array pass, oracle-shaped."""
    attrs = cut_attributes(g, t)
    return (all_fundamental_conductances(g, t), attrs.subtree_vol,
            attrs.intra_weight, attrs.inter_weight)


def tree_plus_chords(parent, chords, root, rng=None):
    """Graph of the tree given by `parent` (vertex i > 0 hangs below
    parent[i] < i) plus `chords`, rooted at `root`; integer weights from
    `rng` if given. Returns (g, t)."""
    tree = [(parent[i], i) for i in range(1, len(parent))]
    tree_set = set(tree)
    edges = tree + [(u, v) for u, v in chords
                    if u != v and (min(u, v), max(u, v)) not in tree_set]
    weights = rng and [rng.randint(1, 10) for _ in edges]
    g = Graph.from_edges(len(parent), edges, edge_weights=weights)
    return g, root_and_label(g, [edge_id(g, *e) for e in tree], root)


def reweighted(g, rng):
    """Same graph with weights log-uniform over 1e-3..1e3."""
    w = [10 ** rng.uniform(-3, 3) for _ in range(g.m)]
    return Graph.from_edges(g.n, zip(g.edge_u.tolist(), g.edge_v.tolist()),
                            edge_weights=w)


def family(name, n, rng):
    """(parent list, chord list) of one adversarial tree family."""
    if name == "path":
        parent = [max(i - 1, 0) for i in range(n)]
    elif name == "star":
        parent = [0] * n
    elif name == "caterpillar":
        spine = max(1, n // 2)
        parent = [max(i - 1, 0) if i < spine else rng.randrange(spine)
                  for i in range(n)]
    else:
        parent = [rng.randrange(i) if i else 0 for i in range(n)]
    chords = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    if name == "path":
        chords += [(i, n - 1 - i) for i in range(n // 2)]  # long chords
    return parent, chords


FAMILIES = ["path", "star", "caterpillar", "random"]


class TestAgainstPostorderOracle:
    """The array pass against the parent-walking postorder traversal, on
    the criterion-1 corpus and on adversarial tree families."""

    def test_corpus_bit_identical(self):
        for g, t in cut_corpus():
            for got, want in zip(array_pass(g, t),
                                 postorder_cut_aggregates(g, t)):
                assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_families_bit_identical(self, name):
        rng = random.Random(name)
        for n in (1, 2, 3, 17, 64, 200):
            parent, chords = family(name, n, rng)
            for root in {0, n // 2, n - 1}:
                g, t = tree_plus_chords(parent, chords, root, rng)
                for got, want in zip(array_pass(g, t),
                                     postorder_cut_aggregates(g, t)):
                    assert np.array_equal(got, want, equal_nan=True)

    def test_single_vertex_and_single_edge(self):
        g = Graph.from_edges(1, [])
        t = root_and_label(g, [], 0)
        conds = all_fundamental_conductances(g, t)
        assert conds.size == 0 and cond_all_edges(g, t, conds).size == 0
        g = Graph.from_edges(2, [(0, 1)], edge_weights=[3.0])
        for root in (0, 1):
            t = root_and_label(g, [0], root)
            assert list(all_fundamental_conductances(g, t)) == [1.0]
            vol = cut_attributes(g, t).subtree_vol
            assert (vol[root], vol[1 - root]) == (6.0, 3.0)

    @pytest.mark.parametrize("name", FAMILIES + ["corpus"])
    def test_wide_float_weights_agree(self, name):
        # Prefix-sum differences round differently from the postorder sums,
        # so results may differ in the last digits. The tolerance is fixed
        # at a relative 1e-8; aggregates are taken relative to the total
        # volume, since an inter weight can cancel to zero.
        rng = random.Random(f"float-{name}")
        if name == "corpus":
            cases = [(reweighted(g, rng), t) for g, t in cut_corpus(200)]
        else:
            cases = []
            for n in (2, 17, 64, 200):
                parent, chords = family(name, n, rng)
                g, t = tree_plus_chords(parent, chords, n // 2)
                cases.append((reweighted(g, rng), t))
        for g, t in cases:
            got = array_pass(g, t)
            want = postorder_cut_aggregates(g, t)
            assert np.allclose(got[0], want[0], rtol=1e-8, atol=0,
                               equal_nan=True)
            for a, b in zip(got[1:], want[1:]):
                assert np.allclose(a, b, rtol=0, atol=1e-8 * g.total_volume)
            full = cond_all_edges(g, t, got[0])
            assert np.allclose(full, cond_all_edges(g, t, want[0]),
                               rtol=1e-8, atol=0)
