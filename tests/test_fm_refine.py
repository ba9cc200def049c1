"""fm_refine against the scalar oracle: equal blocks."""

import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treepart import (Graph, Partition, PartitionConfig, fm_refine,
                      generate_scale_free, multilevel, partition_multilevel)
from tests.conftest import (copy_partition, cut_corpus,
                            random_balanced_blocks, scalar_fm_refine)
from tests.test_mcv import k2k_path, star, wheel
from tests.test_spantree import strip

EPSILONS = [0.0, 0.03, 1.0]
WEIGHTS = ["unit", "integer", "float"]


def refine_with_passes(g, p, epsilon, max_passes):
    """fm_refine with its pass limit MAX_FM_PASSES set to max_passes."""
    with patch.object(multilevel, "MAX_FM_PASSES", max_passes):
        return fm_refine(g, p, epsilon)


def assert_matches_oracle(g, p, epsilon,
                          max_passes=multilevel.MAX_FM_PASSES):
    before = copy_partition(p)
    got = refine_with_passes(g, p, epsilon, max_passes)
    want = scalar_fm_refine(g, p, epsilon, max_passes)
    assert got.block == want.block
    assert p == before


def reweighted(g, kind, rng):
    """g with unit, integer or float edge weights; the last two also draw
    vertex weights 1-5."""
    if kind == "unit":
        return g
    if kind == "integer":
        ew = [rng.randint(1, 10) for _ in range(g.m)]
    else:
        ew = [rng.random() + 0.01 for _ in range(g.m)]
    return Graph.from_edges(g.n, np.column_stack((g.edge_u, g.edge_v)),
                            edge_weights=ew,
                            vertex_weights=[rng.randint(1, 5)
                                            for _ in range(g.n)])


def starts(g, rng):
    """A balanced random start and an unbalanced one (two thirds of the
    vertices in block 0)."""
    block = random_balanced_blocks(g, rng)
    yield Partition.from_blocks(g, block)
    ids = list(range(g.n))
    rng.shuffle(ids)
    block = [1] * g.n
    for v in ids[: (2 * g.n + 2) // 3]:
        block[v] = 0
    yield Partition.from_blocks(g, block)


def test_criterion1_corpus():
    rng = random.Random(61)
    for i, (g, _) in enumerate(cut_corpus()):
        g = reweighted(g, WEIGHTS[i % 3], rng)
        for p in starts(g, rng):
            for epsilon in EPSILONS:
                assert_matches_oracle(g, p, epsilon)


@pytest.mark.parametrize("family", [star, wheel, k2k_path,
                                    lambda k: strip(k, random.Random(k))],
                         ids=["star", "wheel", "k2k_path", "strip"])
@pytest.mark.parametrize("k", [3, 40, 400])
@pytest.mark.parametrize("kind", WEIGHTS)
def test_families(family, k, kind):
    rng = random.Random(k)
    g = reweighted(family(k), kind, rng)
    for p in starts(g, rng):
        for epsilon in EPSILONS:
            assert_matches_oracle(g, p, epsilon)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("kind", WEIGHTS)
def test_edgeless(n, kind):
    # The oracle returns before its first pass; fm_refine finds an empty
    # boundary and stops after one, for every start and balance state.
    g = reweighted(Graph.from_edges(n, []), kind, random.Random(n))
    for bits in range(2 ** n):
        p = Partition.from_blocks(g, [(bits >> v) & 1 for v in range(n)])
        for epsilon in EPSILONS:
            for max_passes in (0, multilevel.MAX_FM_PASSES):
                assert_matches_oracle(g, p, epsilon, max_passes)


@pytest.mark.parametrize("rating", ["excond", "exp2"])
@pytest.mark.parametrize("seed", [1, 2])
def test_every_multilevel_level_on_sf(monkeypatch, rating, seed):
    calls = []
    real = multilevel.fm_refine

    def record(g, p, epsilon):
        calls.append((g, copy_partition(p), epsilon))
        return real(g, p, epsilon)

    monkeypatch.setattr(multilevel, "fm_refine", record)
    partition_multilevel(generate_scale_free(10000, 4, seed),
                         PartitionConfig(rating=rating, seed=seed))
    assert len(calls) > 5 and calls[-1][0].n == 10000
    for g, p, epsilon in calls:
        assert_matches_oracle(g, p, epsilon)


def test_tie_between_run_and_pushed_entry():
    # The pass starts from the run (-2, 0), (-2, 3), (-1, 4), (0, 1),
    # (0, 2) of (cut change, vertex). Moving 0 pushes vertex 5 at -1, level
    # with the run entry of 4, which has the smaller stamp and so moves
    # first. After that, moving 5 would empty block 1 and is refused.
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2),
                             (3, 4)])
    p = Partition.from_blocks(g, [1, 0, 0, 0, 1, 1])
    assert refine_with_passes(g, p, 1.0, 1).block == [0, 0, 0, 0, 0, 1]
    assert_matches_oracle(g, p, 1.0, 1)


@st.composite
def fm_cases(draw):
    """A connected graph with unit, integer or float weights, any start
    (one block may be empty), an epsilon and a pass limit."""
    n = draw(st.integers(2, 30))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {tuple(sorted(q)) for q in draw(st.lists(pair, max_size=60))
              if q[0] != q[1]}
    edges = sorted(edges)
    kind = draw(st.sampled_from(WEIGHTS))
    if kind == "unit":
        ew = None
    elif kind == "integer":
        ew = draw(st.lists(st.integers(1, 10), min_size=len(edges),
                           max_size=len(edges)))
    else:
        ew = draw(st.lists(st.floats(0.01, 10.0), min_size=len(edges),
                           max_size=len(edges)))
    c = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    g = Graph.from_edges(n, edges, edge_weights=ew, vertex_weights=c)
    block = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return (g, Partition.from_blocks(g, block),
            draw(st.sampled_from(EPSILONS)), draw(st.integers(0, 10)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(fm_cases())
def test_matches_oracle_property(case):
    assert_matches_oracle(*case)
