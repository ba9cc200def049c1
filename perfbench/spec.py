"""What the benchmark measures: workloads and metrics.

This module is the single source for BENCHMARK.json (`run.py --record`
writes it from here) and for the checks on the benchmark's own output.
"""

from __future__ import annotations

from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

EPSILON = 0.03
TREES = 20
MCV_ROUNDS = 20
# A run makes at least this many seeded runs; avg_cut and avg_mcv are
# means over exactly these, so they repeat exactly on any machine.
MIN_RUNS = 5
# A traced run repeats at least this many seeded runs under tracing; the
# per-layer counts are medians over exactly these, so they repeat exactly.
MIN_TRACED_RUNS = 3
SETUP_REPEATS = 7
# Seconds measure.reference_s takes on an unloaded machine of the kind the
# benchmark was written on (2-core x86-64 VM, Python 3.11, numpy 2.4). It
# only sets the unit: reported times are seconds on such a machine.
REF_SECONDS = 0.025


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str
    params: dict
    smoke_params: dict
    rating: str


WORKLOADS = (
    Workload(
        "sf-excond",
        "generate_scale_free(10000, 4) with excond: the paper's"
        " small-diameter complex network; the rating layers take over half"
        " of partition time, FM most of the rest",
        "scale_free", {"n": 10_000, "attach": 4}, {"n": 300, "attach": 4},
        "excond"),
    Workload(
        "sf-exp2",
        "same graph with exp2: skips sampling/spantree/fundcut, so FM, MCV"
        " postprocessing and contraction's graph builds dominate; control"
        " for rating-layer changes",
        "scale_free", {"n": 10_000, "attach": 4}, {"n": 300, "attach": 4},
        "exp2"),
    Workload(
        "strip-excond",
        "8x1250 grid strip, seeded relabel, excond: high-diameter mesh where"
        " per-BFS-level sampling cost dominates and MCV postprocessing is"
        " nearly free",
        "strip", {"rows": 8, "cols": 1250}, {"rows": 4, "cols": 60},
        "excond"),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    doc: str
    bound: float | None = None
    # Workloads on which the benchmark's own test requires the value to be
    # positive (None: all) and to be exactly 0 because the layer is skipped.
    runs_on: tuple[str, ...] | None = None
    zero_on: tuple[str, ...] = ()


EXCOND = ("sf-excond", "strip-excond")
SCALE_FREE = ("sf-excond", "sf-exp2")
# The excond pipeline's layers: skipped entirely by the exp2 rating.
RATING_LAYER = {"runs_on": EXCOND, "zero_on": ("sf-exp2",)}

END_TO_END = (
    Metric("run_s", "s", "lower",
           "median seconds of partition_multilevel + edge_cut +"
           " mcv_postprocess per seeded run (the CLI's avgTime)", 0.25),
    Metric("partition_s", "s", "lower",
           "median seconds of partition_multilevel", 0.25),
    Metric("postprocess_s", "s", "lower",
           "median seconds of mcv_postprocess", 0.25),
    Metric("load_s", "s", "lower", "median seconds of load_metis", 0.25),
    Metric("setup_s", "s", "lower",
           "median seconds to generate the workload graph and write it as"
           " a METIS file", 0.25),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident memory of the benchmark process", 0.05),
    Metric("avg_cut", "weight", "lower",
           "mean edge cut before postprocessing over the first MIN_RUNS"
           " seeded runs", 0.05),
    Metric("avg_mcv", "vertices", "lower",
           "mean MCV after postprocessing over the first MIN_RUNS seeded"
           " runs", 0.03),
)

# Every `_s` metric below is a self time: the span's duration minus the
# time its child spans cover, summed over the seeded run and reported as
# the median over traced seeded runs. Counts are medians over the first
# MIN_TRACED_RUNS seeded runs. `doc` names the end-to-end metric the layer
# should move and on which workload.
PER_LAYER = (
    Metric("sampling.contrast_s", "s", "lower",
           "contrast (BFT sampling); moves partition_s, most on"
           " strip-excond, partly on sf-excond, not on sf-exp2",
           **RATING_LAYER),
    Metric("sampling.trees", "count", "lower",
           "BFT trees sampled per seeded run (trees x levels)",
           **RATING_LAYER),
    Metric("sampling.s_per_tree", "s", "lower",
           "sampling.contrast_s / sampling.trees", **RATING_LAYER),
    Metric("spantree.mst_s", "s", "lower",
           "minimum_spanning_tree; moves partition_s on sf-excond",
           **RATING_LAYER),
    Metric("spantree.root_and_label_s", "s", "lower",
           "root_and_label; moves partition_s on sf-excond", **RATING_LAYER),
    Metric("fundcut.conductances_s", "s", "lower",
           "all_fundamental_conductances; moves partition_s on sf-excond",
           **RATING_LAYER),
    Metric("fundcut.adjacency_visits", "count", "lower",
           "adjacency_visits from the stats= dict, summed over levels",
           **RATING_LAYER),
    Metric("fundcut.path_steps", "count", "lower",
           "sum of tree-path lengths over non-tree edges, summed over"
           " levels: the LCA-walk work the library's counter omits",
           **RATING_LAYER),
    Metric("fundcut.steps_per_nontree_edge", "steps/edge", "lower",
           "fundcut.path_steps per non-tree edge", **RATING_LAYER),
    Metric("rating.cond_all_edges_s", "s", "lower",
           "cond_all_edges; moves partition_s on sf-excond", **RATING_LAYER),
    Metric("rating.ex_cond_s", "s", "lower", "ex_cond", **RATING_LAYER),
    Metric("rating.expansion_star2_s", "s", "lower",
           "expansion_star2, the exp2 rating itself",
           runs_on=("sf-exp2",), zero_on=EXCOND),
    Metric("multilevel.compute_rating_s", "s", "lower",
           "compute_rating's own code (its rating calls are their own"
           " spans); moves partition_s"),
    Metric("multilevel.matching_s", "s", "lower",
           "greedy_matching; moves partition_s, most on sf-exp2"),
    Metric("multilevel.contract_s", "s", "lower",
           "contract without its Graph.from_edges; moves partition_s"),
    Metric("multilevel.initial_s", "s", "lower",
           "initial_bipartition; moves partition_s"),
    Metric("multilevel.fm_s", "s", "lower",
           "fm_refine; moves partition_s, most on sf-exp2"),
    Metric("multilevel.self_s", "s", "lower",
           "partition_multilevel's own code (prolongation); moves"
           " partition_s"),
    Metric("multilevel.levels", "count", "lower",
           "coarsening steps (rating, matching, contraction)"),
    Metric("multilevel.coarsest_n", "count", "lower",
           "vertices of the graph initial_bipartition splits"),
    Metric("multilevel.match_ratio", "ratio", "higher",
           "matched vertices over vertices, summed over levels"),
    Metric("partition.from_blocks_s", "s", "lower",
           "Partition.from_blocks; moves partition_s, most on sf-exp2"),
    Metric("partition.from_blocks_calls", "count", "lower",
           "Partition.from_blocks calls per seeded run"),
    Metric("graph.from_edges_s", "s", "lower",
           "Graph.from_edges in contract and in load_metis; moves"
           " partition_s and load_s"),
    Metric("graph.check_connected_s", "s", "lower",
           "check_connected; moves partition_s"),
    Metric("mcv.postprocess_s", "s", "lower",
           "mcv_postprocess; moves postprocess_s on sf-*, near zero on"
           " strip-excond"),
    Metric("mcv.rounds", "count", "lower",
           "executed postprocessing rounds, from the stats= dict"),
    Metric("mcv.max_round_touches", "count", "lower",
           "peak adjacency touches of one round, from the stats= dict"),
    Metric("mcv.accepted_moves", "count", "lower",
           "moves accepted by mcv_postprocess, counted with on_accept",
           runs_on=SCALE_FREE),
    Metric("metis_io.parse_s", "s", "lower",
           "load_metis without its Graph.from_edges; moves load_s, more on"
           " sf-*"),
    Metric("metis_io.bytes", "B", "lower", "size of the METIS file"),
    Metric("metis_io.mb_per_s", "MB/s", "higher",
           "metis_io.bytes / metis_io.parse_s"),
    Metric("trace.run_s", "s", "lower",
           "median run_s of the traced seeded runs"),
    Metric("trace.overhead_s", "s", "lower",
           "trace.run_s minus the untraced median run_s of the same seeds",
           runs_on=()),
)


def benchmark_json() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
