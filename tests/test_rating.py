import random
from unittest.mock import patch

import numpy as np
import pytest

from treepart import (Graph, algebraic_distance, all_fundamental_conductances,
                      cond_all_edges, ex_alg, ex_cond, expansion_star2,
                      rating, root_and_label, sample_bft)
from tests.conftest import (brute_force_conductance, edge_id,
                            random_connected_graph, scalar_algebraic_distance)


def brute_cond(g, t):
    """Oracle for Cond: minimum conductance over all fundamental cuts whose
    cut-set contains the edge, by enumerating every tree edge's cut."""
    tree_ids = t.tree_edge_ids()
    cut_sets = {}
    conds = {}
    for te in tree_ids:
        a = int(g.edge_u[te])
        b = int(g.edge_v[te])
        child = a if t.parent_edge[a] == te else b
        inside = {x for x in range(g.n)
                  if t.label[child] <= t.label[x] <= t.max_label[child]}
        cut_sets[te] = {e for e in range(g.m)
                        if (int(g.edge_u[e]) in inside)
                        != (int(g.edge_v[e]) in inside)}
        conds[te] = brute_force_conductance(g, t, te)
    out = np.empty(g.m)
    for e in range(g.m):
        out[e] = min(conds[te] for te in tree_ids if e in cut_sets[te])
    return out


class TestCondAllEdges:
    def test_tree_edge_keeps_own_value(self, p3):
        t = root_and_label(p3, [0, 1], root=0)
        conds = all_fundamental_conductances(p3, t)
        full = cond_all_edges(p3, t, conds)
        assert full[0] == conds[0] and full[1] == conds[1]

    def test_c4_chord_takes_path_minimum(self, c4):
        tree = [edge_id(c4, 0, 1), edge_id(c4, 1, 2), edge_id(c4, 2, 3)]
        t = root_and_label(c4, tree, root=0)
        conds = all_fundamental_conductances(c4, t)
        full = cond_all_edges(c4, t, conds)
        chord = edge_id(c4, 0, 3)
        assert full[chord] == pytest.approx(min(conds[e] for e in tree))

    def test_star_plus_chord(self, star_plus):
        g = star_plus
        tree = [edge_id(g, 0, 1), edge_id(g, 1, 2), edge_id(g, 1, 3)]
        t = root_and_label(g, tree, root=0)
        conds = all_fundamental_conductances(g, t)
        full = cond_all_edges(g, t, conds)
        chord = edge_id(g, 2, 3)
        expect = min(conds[edge_id(g, 1, 2)], conds[edge_id(g, 1, 3)])
        assert full[chord] == pytest.approx(expect)

    def test_matches_brute_force_enumeration(self):
        rng = random.Random(606)
        for _ in range(150):
            g = random_connected_graph(rng)
            t = sample_bft(g, rng.randrange(2 ** 32))
            conds = all_fundamental_conductances(g, t)
            full = cond_all_edges(g, t, conds)
            expect = brute_cond(g, t)
            assert np.allclose(full, expect, atol=1e-9)

    @pytest.mark.parametrize("case", ["short", "long", "tree-of-p3",
                                      "tree-of-p5"])
    def test_mismatched_input_rejected(self, c4, case):
        tree = [edge_id(c4, 0, 1), edge_id(c4, 1, 2), edge_id(c4, 2, 3)]
        t = root_and_label(c4, tree, root=0)
        conds = all_fundamental_conductances(c4, t)
        if case == "short":
            conds = conds[:-1]
        elif case == "long":
            conds = np.append(conds, 0.5)
        else:
            n = int(case[-1])
            path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
            t = root_and_label(path, list(range(n - 1)), root=0)
        match = ("tree does not match" if case.startswith("tree")
                 else r"tree_conds must be numbers in a 1-d array of length 4")
        with pytest.raises(ValueError, match=match):
            cond_all_edges(c4, t, conds)


class TestPointwiseRatings:
    def test_ex_cond_arithmetic(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert ex_cond(g, np.array([0.5]))[0] == pytest.approx(0.5)
        g2 = Graph.from_edges(2, [(0, 1)], vertex_weights=[2, 2])
        assert ex_cond(g2, np.array([0.5]))[0] == pytest.approx(0.125)
        assert ex_cond(g, np.array([0.0]))[0] == 0.0

    def test_expansion_star2_arithmetic(self):
        g = Graph.from_edges(2, [(0, 1)], edge_weights=[2.0],
                             vertex_weights=[1, 4])
        assert expansion_star2(g)[0] == pytest.approx(1.0)
        g2 = Graph.from_edges(2, [(0, 1)])
        assert expansion_star2(g2)[0] == pytest.approx(1.0)

    def test_expansion_quadruples_with_doubled_weight(self):
        g1 = Graph.from_edges(2, [(0, 1)], edge_weights=[3.0])
        g2 = Graph.from_edges(2, [(0, 1)], edge_weights=[6.0])
        assert expansion_star2(g2)[0] == pytest.approx(
            4 * expansion_star2(g1)[0])

    def test_ex_cond_identity_per_edge(self):
        rng = random.Random(707)
        g = random_connected_graph(rng)
        cond = np.array([rng.random() for _ in range(g.m)])
        lhs = ex_cond(g, cond)
        rhs = cond * expansion_star2(g) / g.edge_w
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_vertex_weight_scaling_preserves_order(self):
        rng = random.Random(808)
        g = random_connected_graph(rng)
        scaled = Graph.from_edges(
            g.n, zip(g.edge_u, g.edge_v), edge_weights=g.edge_w,
            vertex_weights=3 * g.vertex_c)
        cond = np.array([rng.random() for _ in range(g.m)])
        r1 = ex_cond(g, cond)
        r2 = ex_cond(scaled, cond)
        assert np.allclose(r2, r1 / 9.0, rtol=1e-12)
        assert np.array_equal(np.argsort(r1), np.argsort(r2))


class TestAlgebraicDistance:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_scalar_oracle(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n_lo=2, n_hi=30)
        if seed % 2:
            g = Graph.from_edges(
                g.n, np.column_stack((g.edge_u, g.edge_v)),
                edge_weights=[rng.random() + 0.01 for _ in range(g.m)])
        assert np.allclose(algebraic_distance(g, seed),
                           scalar_algebraic_distance(g, seed),
                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_k2_and_edgeless_match_scalar_oracle(self, k2, n):
        for g in (k2, Graph.from_edges(n, [])):
            got = algebraic_distance(g, n)
            want = scalar_algebraic_distance(g, n)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_zero_iterations_keeps_initial_distances(self, p3):
        with patch.object(rating, "ITERATIONS", 0):
            rho = algebraic_distance(p3, seed=3)
        x = np.random.default_rng(3).random((p3.n, 8))
        expect = np.sqrt(((x[p3.edge_u] - x[p3.edge_v]) ** 2).sum(axis=1))
        assert np.allclose(rho, np.maximum(expect, 1e-9))

    def test_k2_converges_to_clamp(self, k2):
        rho = algebraic_distance(k2, seed=1)
        assert rho[0] == pytest.approx(1e-9)

    def test_deterministic(self, c4):
        a = algebraic_distance(c4, seed=11)
        b = algebraic_distance(c4, seed=11)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("iterations", [0, 20])
    def test_edgeless_graph(self, n, iterations):
        with patch.object(rating, "ITERATIONS", iterations):
            rho = algebraic_distance(Graph.from_edges(n, []), seed=4)
        assert rho.dtype == np.float64 and rho.shape == (0,)

    def test_smoothing_shrinks_distances(self):
        rng = random.Random(909)
        g = random_connected_graph(rng, n_lo=8, n_hi=12)
        x = np.random.default_rng(5).random((g.n, 8))
        r0 = np.sqrt(((x[g.edge_u] - x[g.edge_v]) ** 2).sum(axis=1))
        r10 = algebraic_distance(g, seed=5)
        assert r10.mean() < r0.mean()

    def test_ex_alg_arithmetic(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert ex_alg(g, np.array([0.5]))[0] == pytest.approx(2.0)
        assert ex_alg(g, np.array([1.0]))[0] == pytest.approx(
            expansion_star2(g)[0])
        assert ex_alg(g, np.array([0.25]))[0] == pytest.approx(
            2 * ex_alg(g, np.array([0.5]))[0])
