"""Two-block vertex partition with maintained block weights."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph


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
        blk = np.asarray(block, dtype=np.int64)
        if len(blk) != g.n:
            raise ValueError("block array length must equal vertex count")
        if blk.size and (blk.min() < 0 or blk.max() > 1):
            raise ValueError("block ids must be 0 or 1")
        weights = [int(g.vertex_c[blk == 0].sum()), int(g.vertex_c[blk == 1].sum())]
        return cls(blk.tolist(), weights)

    def copy(self) -> "Partition":
        return Partition(self.block[:], self.block_weight[:])

    def block_array(self) -> np.ndarray:
        return np.asarray(self.block, dtype=np.int64)


def balance_cap(g: Graph, epsilon: float) -> float:
    """Largest allowed block weight: (1 + epsilon) * ceil(total / 2)."""
    total = int(g.vertex_c.sum())
    return (1.0 + epsilon) * math.ceil(total / 2)


def is_balanced(g: Graph, p: Partition, epsilon: float) -> bool:
    return max(p.block_weight) <= balance_cap(g, epsilon)
