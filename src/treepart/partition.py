"""Two-block vertex partition; block weights are recounted where used."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _float_scalar, _int_array

EPSILON = 0.03  # default allowed imbalance: blocks up to 3% over half


@dataclass
class Partition:
    """The block, 0 or 1, of every vertex.

    Nothing else is stored: the block weights and the boundary state are
    counted from `block` by the code that needs them, so they cannot go
    stale.
    """

    block: list[int]

    @classmethod
    def from_blocks(cls, g: Graph, block) -> "Partition":
        return cls(_as_blocks(g, block).tolist())


def _as_blocks(g: Graph, block) -> np.ndarray:
    """`block` as an int64 array; ValueError unless it gives each of g's n
    vertices the integer block 0 or 1 (floats such as 0.5 are not cast)."""
    raw = np.asarray(block)
    if raw.shape != (g.n,):
        raise ValueError("block array length must equal vertex count")
    return _int_array(raw, "block ids", 0, 2)


def _weights_by_block(g: Graph, blk: np.ndarray) -> list[int]:
    return [int(g.vertex_c[blk == 0].sum()), int(g.vertex_c[blk == 1].sum())]


def balance_cap(g: Graph, epsilon: float) -> float:
    """Largest allowed block weight: (1 + epsilon) * ceil(total / 2).

    Raises ValueError unless epsilon is one number >= 0 (inf passes)."""
    epsilon = _float_scalar(epsilon, "epsilon", 0)
    total = int(g.vertex_c.sum())
    return (1.0 + epsilon) * math.ceil(total / 2)


def is_balanced(g: Graph, p: Partition, epsilon: float) -> bool:
    """True iff both block weights, recounted from p.block, are at most
    balance_cap(g, epsilon). Raises ValueError when p.block is malformed
    (see Partition.from_blocks) or epsilon is not one number >= 0."""
    weights = _weights_by_block(g, _as_blocks(g, p.block))
    return max(weights) <= balance_cap(g, epsilon)
