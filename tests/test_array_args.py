"""One rule for array arguments: ids are integers in range, values are
numbers of the right length, and nothing is cast.

Every array argument of the public API goes through `graph._int_array` or
`graph._float_array`, every integer count (vertices, trees, rounds, runs,
jobs) through `graph._int_scalar`, and every real knob (epsilon, the
matching's vertex weight cap) through `graph._float_scalar`. The table passes each one a float or a string (or an
out-of-range entry) where integers are expected, and a string or a wrong
length where numbers are expected, and expects the ValueError that names
the rule ("... must ..."), not one that numpy raises on the way.
"""

from pathlib import Path

import numpy as np
import pytest

from treepart import (Graph, Partition, PartitionConfig,
                      all_fundamental_conductances, balance_cap,
                      cond_all_edges, contract, contrast, ex_alg, ex_cond,
                      generate_scale_free, greedy_matching, is_balanced,
                      mcv_postprocess, minimum_spanning_tree, root_and_label,
                      run_experiment)
from treepart.spantree import tree_paths

SRC = Path(__file__).resolve().parents[1] / "src" / "treepart"


def p3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def triangle() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def p3_tree():
    return root_and_label(p3(), [0, 1], 0)


def conds(g: Graph) -> np.ndarray:
    return all_fundamental_conductances(g, root_and_label(g, [0, 1], 0))


REJECTED = {
    # Graph.from_edges: endpoints, their shape, edge and vertex weights.
    "endpoints-float32": lambda: Graph.from_edges(
        3, np.array([[0, 1]], dtype=np.float32)),
    "endpoints-string": lambda: Graph.from_edges(3, [("0", "1")]),
    "endpoints-uint8-past-n": lambda: Graph.from_edges(
        3, np.array([[0, 3]], dtype=np.uint8)),
    "edges-quadruple": lambda: Graph.from_edges(4, [(0, 1, 2, 3)]),
    "edges-flat": lambda: Graph.from_edges(4, [0, 1, 2, 3]),
    "edge-weights-string": lambda: Graph.from_edges(
        2, [(0, 1)], edge_weights=["2.5"]),
    "edge-weights-long": lambda: Graph.from_edges(
        2, [(0, 1)], edge_weights=[1.0, 2.0]),
    "vertex-weights-float32": lambda: Graph.from_edges(
        2, [(0, 1)], vertex_weights=np.array([1, 2], dtype=np.float32)),
    "vertex-weights-string": lambda: Graph.from_edges(
        2, [(0, 1)], vertex_weights=["1", "1"]),
    "vertex-weights-uint64-wraps": lambda: Graph.from_edges(
        2, [(0, 1)], vertex_weights=np.array([1, 2 ** 63], dtype=np.uint64)),
    "vertex-weights-total-wraps": lambda: Graph.from_edges(
        3, [(0, 1), (1, 2)], vertex_weights=[2 ** 62] * 3),
    "vertex-weights-total-at-limit": lambda: Graph.from_edges(
        3, [(0, 1), (1, 2)], vertex_weights=[2 ** 52, 2 ** 52 - 1, 1]),
    # Block ids of a partition.
    "blocks-float32": lambda: Partition.from_blocks(
        p3(), np.array([0, 1, 1], dtype=np.float32)),
    "blocks-string": lambda: Partition.from_blocks(p3(), ["0", "1", "1"]),
    "blocks-uint8-255": lambda: is_balanced(
        p3(), Partition(np.array([0, 1, 255], dtype=np.uint8)), 0.03),
    # contract's mate.
    "mate-float32": lambda: contract(
        p3(), np.array([1, 0, -1], dtype=np.float32)),
    "mate-string": lambda: contract(p3(), np.array(["1", "0", "-1"])),
    "mate-uint64-wraps": lambda: contract(
        p3(), np.array([1, 0, 2 ** 64 - 1], dtype=np.uint64)),
    # root_and_label's tree edge ids and root.
    "tree-edges-float": lambda: root_and_label(triangle(), [0.7, 2.2], 0),
    "tree-edges-string": lambda: root_and_label(triangle(), ["0", "2"], 0),
    "tree-edges-uint64-wraps": lambda: root_and_label(
        p3(), np.array([0, 2 ** 64 - 1], dtype=np.uint64), 0),
    "root-float": lambda: root_and_label(p3(), [0, 1], 0.5),
    "root-string": lambda: root_and_label(p3(), [0, 1], "0"),
    "root-past-n": lambda: root_and_label(p3(), [0, 1], 3),
    # tree_paths' vertex pairs and values.
    "pairs-float": lambda: tree_paths(p3_tree(), [0.7], [2]),
    "pairs-minus-one": lambda: tree_paths(p3_tree(), [-1], [1]),
    "pairs-past-n": lambda: tree_paths(p3_tree(), [0], [3]),
    "pairs-string": lambda: tree_paths(p3_tree(), ["0"], [1]),
    "pairs-broadcast": lambda: tree_paths(p3_tree(), [2], [0, 1, 2]),
    "pairs-2d": lambda: tree_paths(p3_tree(), [[2]], [0]),
    "pairs-2d-both": lambda: tree_paths(p3_tree(), [[0, 1]], [[2, 2]]),
    "path-values-string": lambda: tree_paths(
        p3_tree(), [0], [2], ["1", "2", "3"]),
    "path-values-short": lambda: tree_paths(p3_tree(), [0], [2], [1.0, 2.0]),
    # Edge values: MST values, matching ratings, tree conductances.
    "mst-values-string": lambda: minimum_spanning_tree(
        triangle(), ["1", "2", "3"]),
    "mst-values-short": lambda: minimum_spanning_tree(triangle(), [1, 2]),
    "rating-string": lambda: greedy_matching(triangle(), ["1", "2", "3"], 10),
    "rating-long": lambda: greedy_matching(triangle(), [1, 2, 3, 4], 10),
    "ex-cond-short": lambda: ex_cond(p3(), [0.5]),
    "ex-alg-short": lambda: ex_alg(p3(), [2.0]),
    "tree-conds-string": lambda: cond_all_edges(
        triangle(), root_and_label(triangle(), [0, 1], 0),
        conds(triangle()).astype(str)),
    "tree-conds-2d": lambda: cond_all_edges(
        triangle(), root_and_label(triangle(), [0, 1], 0),
        conds(triangle())[None, :]),
    # Counts: scalars, each an integer at or above its minimum.
    "config-coarsest-size-float": lambda: PartitionConfig(coarsest_size=10.5),
    "config-trees-float": lambda: PartitionConfig(trees=2.5),
    "mcv-rounds-float": lambda: mcv_postprocess(
        generate_scale_free(200, 2, 1), Partition([0, 1] * 100), rounds=2.5),
    "contrast-trees-float": lambda: contrast(p3(), 2.5, 0),
    "graph-n-float": lambda: Graph.from_edges(2.5, [(0, 1)]),
    "scale-free-n-float": lambda: generate_scale_free(10.5, 2, 1),
    "runs-float": lambda: run_experiment([], [PartitionConfig()], 2.5, 0),
    "jobs-string": lambda: run_experiment([], [PartitionConfig()], 1, 0,
                                          jobs="2"),
    # A count or root is one integer, never a list or array.
    "config-trees-list": lambda: PartitionConfig(trees=[3]),
    "config-trees-empty": lambda: PartitionConfig(trees=[]),
    "root-empty": lambda: root_and_label(p3(), [0, 1], []),
    "graph-n-list": lambda: Graph.from_edges([3], [(0, 1)]),
    "contrast-trees-array": lambda: contrast(p3(), np.array([2]), 0),
    # Real knobs: one number, at or above its minimum, NaN never.
    "config-epsilon-string": lambda: PartitionConfig(epsilon="0.1"),
    "config-epsilon-none": lambda: PartitionConfig(epsilon=None),
    "config-epsilon-array": lambda: PartitionConfig(
        epsilon=np.array([0.1, 0.2])),
    "balance-cap-epsilon-string": lambda: balance_cap(p3(), "0.1"),
    "is-balanced-epsilon-string": lambda: is_balanced(
        p3(), Partition([0, 1, 1]), "0.1"),
    "matching-cap-nan": lambda: greedy_matching(
        triangle(), [1, 2, 3], float("nan")),
    "matching-cap-string": lambda: greedy_matching(
        triangle(), [1, 2, 3], "10"),
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_malformed_array_argument_rejected(call):
    with pytest.raises(ValueError, match="must"):
        call()


def test_accepted_forms():
    # Empty edges, numpy integer roots and ids, and integer values pass.
    assert Graph.from_edges(3, []).m == 0
    assert Graph.from_edges(3, np.empty((0, 2), dtype=np.int32)).m == 0
    t = root_and_label(triangle(), np.array([2, 0], dtype=np.uint8),
                       np.int32(1))
    assert t.root == 1 and type(t.root) is int
    assert tree_paths(t, np.array([0], dtype=np.int16), [2]).lca.tolist() \
        == [1]
    assert minimum_spanning_tree(triangle(), [3, 2, 1]).tolist() == [1, 2]
    # Counts may be numpy integers and are stored as Python ints.
    cfg = PartitionConfig(trees=np.int64(3), coarsest_size=np.uint64(2))
    assert (cfg.trees, cfg.coarsest_size) == (3, 2)
    assert type(cfg.trees) is int and type(cfg.coarsest_size) is int
    # Bool entries are integers under an unbounded range too.
    assert Graph.from_edges(2, [(0, 1)], vertex_weights=[True, True]) \
        .vertex_c.tolist() == [1, 1]
    # Real knobs may be any number at or above their minimum, inf included,
    # and are stored as Python floats.
    cfg = PartitionConfig(epsilon=np.float32(0.5))
    assert cfg.epsilon == 0.5 and type(cfg.epsilon) is float
    assert PartitionConfig(epsilon=float("inf")).epsilon == float("inf")
    assert balance_cap(p3(), np.array(0)) == 2.0
    assert balance_cap(p3(), float("inf")) == float("inf")
    assert greedy_matching(triangle(), [1, 2, 3], float("inf")).tolist() \
        == [-1, 2, 1]
    assert greedy_matching(triangle(), [1, 2, 3], 0).tolist() == [-1] * 3
    # Vertex weights may sum to just below 2**53.
    g = Graph.from_edges(3, [(0, 1), (1, 2)],
                         vertex_weights=[2 ** 52, 2 ** 52 - 2, 1])
    assert int(g.vertex_c.sum()) == 2 ** 53 - 1


def test_dtype_rule_lives_in_graph_module():
    # The dtype decisions for array and scalar arguments sit behind
    # graph._int_array, _int_scalar, _float_array and _float_scalar; no
    # other module may make its own.
    users = sorted(p.name for p in SRC.glob("*.py")
                   if "dtype.kind" in p.read_text())
    assert users == ["graph.py"]


def test_weight_limit_lives_in_graph_module():
    # The 2**53 rule for vertex weights has one home, graph.WEIGHT_LIMIT.
    homes = sorted(p.name for p in SRC.glob("*.py")
                   if "WEIGHT_LIMIT =" in p.read_text())
    assert homes == ["graph.py"]
