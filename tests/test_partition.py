import random

import numpy as np
import pytest

from treepart import Partition, fm_refine, generate_scale_free, mcv_postprocess
from treepart.partition import check_partition
from tests.conftest import MALFORMED_PARTITIONS, chorded_c6


@pytest.mark.parametrize("block, weight, message", MALFORMED_PARTITIONS)
def test_check_partition_rejects_malformed(block, weight, message):
    with pytest.raises(ValueError, match=message):
        check_partition(chorded_c6(), Partition(block, weight))


def test_check_partition_accepts_recounted_weights():
    g = chorded_c6()
    check_partition(g, Partition.from_blocks(g, [0, 1, 0, 1, 1, 1]))
    check_partition(g, Partition([1, 1, 1, 1, 1, 1], [0, 6]))


@pytest.mark.parametrize("block", [[0, 0, 0, 1, 1, 0.5], [0, 0, 0, 1, 1, 1.0],
                                   [0, 0, 0, 1, 1, 2],
                                   [0, 0, 0, 1, 1, -1], [0, 0, 0, 1, 1]])
def test_from_blocks_rejects_malformed(block):
    with pytest.raises(ValueError):
        Partition.from_blocks(chorded_c6(), block)


@pytest.mark.parametrize("refine", [
    lambda g, p: mcv_postprocess(g, p, epsilon=0.5, seed=0),
    lambda g, p: fm_refine(g, p, 0.5, 10)], ids=["mcv", "fm"])
def test_refiners_copy_array_and_tuple_fields(refine):
    g = generate_scale_free(60, 2, 1)
    block = [0] * 30 + [1] * 30
    random.Random(0).shuffle(block)
    arr = np.array(block)
    out = refine(g, Partition(arr, (30, 30)))
    assert arr.tolist() == block
    assert out.block_weight == Partition.from_blocks(g, out.block).block_weight
