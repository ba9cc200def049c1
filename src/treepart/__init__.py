"""Multilevel graph bipartitioning with spanning-tree conductance ratings.

Pipeline: sample random BFT trees to get per-edge contrast values, build a
minimum spanning tree with respect to contrast, compute the conductance of
all its fundamental cuts in O(n + m log n) time (prefix sums over preorder
labels, binary-lifting LCAs), turn those into an edge rating
that guides matching-based coarsening, and finish with greedy maximum
communication volume (MCV) postprocessing.
"""

from .bench import (ExperimentReport, RunRecord, config_label, emit_csv,
                    emit_table, geometric_mean, run_experiment, run_single)
from .fundcut import all_fundamental_conductances
from .generators import generate_scale_free
from .graph import Graph, check_connected
from .mcv import comm_volumes, edge_cut, mcv, mcv_postprocess
from .metis_io import (MetisFormatError, load_metis, parse_metis, save_metis,
                       serialize_metis, write_partition)
from .multilevel import (RATINGS, PartitionConfig, compute_rating, contract,
                         fm_refine, greedy_matching, initial_bipartition,
                         partition_multilevel)
from .partition import Partition, balance_cap, is_balanced
from .rating import (algebraic_distance, cond_all_edges, ex_alg, ex_cond,
                     expansion_star2)
from .sampling import contrast, sample_bft
from .spantree import RootedTree, lca, minimum_spanning_tree, root_and_label

__all__ = [
    "ExperimentReport", "Graph", "MetisFormatError", "Partition",
    "PartitionConfig", "RATINGS", "RootedTree", "RunRecord",
    "algebraic_distance", "all_fundamental_conductances", "balance_cap",
    "check_connected", "comm_volumes", "cond_all_edges", "config_label",
    "contract", "contrast", "compute_rating", "edge_cut", "emit_csv",
    "emit_table", "ex_alg", "ex_cond", "expansion_star2", "fm_refine",
    "generate_scale_free", "geometric_mean", "greedy_matching",
    "initial_bipartition", "is_balanced", "lca", "load_metis", "mcv",
    "mcv_postprocess", "minimum_spanning_tree", "parse_metis",
    "partition_multilevel", "root_and_label", "run_experiment",
    "run_single", "sample_bft", "save_metis", "serialize_metis",
    "write_partition",
]
