"""Two-block vertex partition with maintained block weights."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _int_array


@dataclass
class Partition:
    """Block assignment plus the two block weights the refiners maintain.

    block[v] is 0 or 1. block_weight can be recomputed from `block` alone
    via :meth:`from_blocks`; per-vertex boundary state is not stored here,
    since only MCV postprocessing keeps any and it builds its own.
    """

    block: list[int]
    block_weight: list[int]

    @classmethod
    def from_blocks(cls, g: Graph, block) -> "Partition":
        blk = _as_blocks(g, block)
        return cls(blk.tolist(), _block_weights(g, blk))


def _as_blocks(g: Graph, block) -> np.ndarray:
    """`block` as an int64 array; ValueError unless it gives each of g's n
    vertices the integer block 0 or 1 (floats such as 0.5 are not cast)."""
    raw = np.asarray(block)
    if raw.shape != (g.n,):
        raise ValueError("block array length must equal vertex count")
    return _int_array(raw, "block ids", 0, 2)


def _block_weights(g: Graph, blk: np.ndarray) -> list[int]:
    return [int(g.vertex_c[blk == 0].sum()), int(g.vertex_c[blk == 1].sum())]


def check_partition(g: Graph, p: Partition) -> Partition:
    """Raise ValueError unless p assigns each of g's n vertices to block 0
    or 1 and p.block_weight equals the recounted block weights. Returns a
    copy of p whose fields are fresh lists of Python ints."""
    blk = _as_blocks(g, p.block)
    weights = _block_weights(g, blk)
    if weights != list(p.block_weight):
        raise ValueError("block_weight does not match the block weights "
                         "recounted from block")
    return Partition(blk.tolist(), weights)


def balance_cap(g: Graph, epsilon: float) -> float:
    """Largest allowed block weight: (1 + epsilon) * ceil(total / 2).

    Raises ValueError when epsilon is negative or NaN."""
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    total = int(g.vertex_c.sum())
    return (1.0 + epsilon) * math.ceil(total / 2)


def is_balanced(g: Graph, p: Partition, epsilon: float) -> bool:
    return max(p.block_weight) <= balance_cap(g, epsilon)
