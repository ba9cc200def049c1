import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treepart import (RATINGS, Graph, Partition, PartitionConfig,
                      balance_cap, fm_refine, generate_scale_free,
                      initial_bipartition, is_balanced, mcv_postprocess,
                      multilevel, partition_multilevel)
from tests.conftest import MALFORMED_PARTITIONS, block_weights, chorded_c6


@pytest.mark.parametrize("block, message", MALFORMED_PARTITIONS)
def test_is_balanced_rejects_malformed(block, message):
    with pytest.raises(ValueError, match=message):
        is_balanced(chorded_c6(), Partition(block), 0.03)


def test_one_block_partition_is_not_balanced():
    # The block weights are recounted from the block on every call.
    g = generate_scale_free(100, 2, 1)
    assert not is_balanced(g, Partition([0] * g.n), 0.03)
    g = chorded_c6()
    assert not is_balanced(g, Partition([1, 1, 1, 1, 1, 1]), 0.5)
    split = Partition.from_blocks(g, [0, 1, 0, 1, 1, 1])
    assert not is_balanced(g, split, 0.03)
    assert is_balanced(g, split, 0.5)


@pytest.mark.parametrize("block", [[0, 0, 0, 1, 1, 0.5], [0, 0, 0, 1, 1, 1.0],
                                   [0, 0, 0, 1, 1, 2],
                                   [0, 0, 0, 1, 1, -1], [0, 0, 0, 1, 1]])
def test_from_blocks_rejects_malformed(block):
    with pytest.raises(ValueError):
        Partition.from_blocks(chorded_c6(), block)


@pytest.mark.parametrize("refine", [
    lambda g, p: mcv_postprocess(g, p, epsilon=0.5, seed=0),
    lambda g, p: fm_refine(g, p, 0.5)], ids=["mcv", "fm"])
def test_refiners_copy_array_and_tuple_fields(refine):
    g = generate_scale_free(60, 2, 1)
    block = [0] * 30 + [1] * 30
    random.Random(0).shuffle(block)
    want = refine(g, Partition(list(block)))
    for given_block in (np.array(block), tuple(block)):
        out = refine(g, Partition(given_block))
        assert list(given_block) == block
        assert out == want
        assert type(out.block) is list
        assert {type(x) for x in out.block} == {int}


@pytest.mark.parametrize("call", [
    lambda g, p: balance_cap(g, -0.01),
    lambda g, p: fm_refine(g, p, math.nan),
    lambda g, p: initial_bipartition(g, -2.0, 0),
    lambda g, p: mcv_postprocess(g, p, epsilon=math.nan)],
    ids=["balance_cap", "fm", "initial", "mcv"])
@pytest.mark.parametrize("n", [200, 1])
def test_epsilon_below_zero_or_nan_rejected(call, n):
    g = generate_scale_free(n, 2, 1) if n > 1 else Graph.from_edges(1, [])
    p = Partition.from_blocks(g, [v % 2 for v in range(n)])
    with pytest.raises(ValueError, match="epsilon must be >= 0, got"):
        call(g, p)


@st.composite
def weighted_starts(draw):
    """A connected graph with vertex weights 1-4, any block of its
    vertices, and an epsilon."""
    n = draw(st.integers(2, 40))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(min(p), max(p)) for p in draw(st.lists(pair, max_size=2 * n))
              if p[0] != p[1]}
    g = Graph.from_edges(n, sorted(edges), vertex_weights=draw(
        st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    block = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return g, Partition(block), draw(st.sampled_from([0.0, 0.03, 0.5]))


def within_cap(g, block, epsilon):
    return max(block_weights(g, block)) <= balance_cap(g, epsilon)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weighted_starts(), st.integers(0, 2 ** 32))
def test_refiners_keep_recounted_weights_within_cap(case, seed):
    g, p, epsilon = case
    fits = within_cap(g, p.block, epsilon)
    out = fm_refine(g, p, epsilon)
    assert within_cap(g, out.block, epsilon) or not fits
    if fits:
        out = mcv_postprocess(g, p, 5, epsilon, seed)
        assert within_cap(g, out.block, epsilon)
    else:
        with pytest.raises(ValueError, match="balance"):
            mcv_postprocess(g, p, 5, epsilon, seed)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weighted_starts(), st.sampled_from(RATINGS), st.integers(0, 99))
def test_multilevel_keeps_recounted_weights_within_cap(case, rating, seed):
    # Refinement starts from the coarsest graph's initial bipartition, whose
    # total vertex weight, and so cap, equals g's.
    g, _, epsilon = case
    starts = []

    def spy(coarsest, *args):
        starts.append((coarsest, initial_bipartition(coarsest, *args)))
        return starts[-1][1]

    cfg = PartitionConfig(rating=rating, trees=2, epsilon=epsilon, seed=seed,
                          coarsest_size=4)
    with mock.patch.object(multilevel, "initial_bipartition", spy):
        out = partition_multilevel(g, cfg)
    [(coarsest, start)] = starts
    if within_cap(coarsest, start.block, epsilon):
        assert within_cap(g, out.block, epsilon)
