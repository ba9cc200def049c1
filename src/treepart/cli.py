"""Command-line driver for benchmark experiments."""

from __future__ import annotations

import argparse
import sys

from .bench import emit_csv, emit_table, run_experiment
from .mcv import MCV_ROUNDS
from .metis_io import write_partition
from .multilevel import RATINGS, PartitionConfig


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treepart",
        description="Multilevel graph bipartitioning benchmark: seeded runs "
                    "over METIS-format graphs with MCV postprocessing.")
    p.add_argument("--graph", action="append", required=True, metavar="FILE",
                   help="METIS graph file; repeat for several graphs")
    p.add_argument("--rating", action="append", choices=RATINGS,
                   help="edge rating (default excond); repeat to compare "
                        "several, the first one is the quotient reference")
    p.add_argument("--trees", type=int, default=PartitionConfig.trees,
                   help="spanning trees sampled per level for excond")
    p.add_argument("--epsilon", type=float, default=PartitionConfig.epsilon,
                   help="allowed block imbalance")
    p.add_argument("--runs", type=int, default=50,
                   help="seeded runs per graph and config")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    post = p.add_mutually_exclusive_group()
    post.add_argument("--mcv-rounds", type=int, default=MCV_ROUNDS,
                      help="postprocessing rounds; 0 skips postprocessing")
    post.add_argument("--no-postprocessing", action="store_const", const=0,
                      dest="mcv_rounds", help="same as --mcv-rounds 0")
    p.add_argument("--coarsest-size", type=int,
                   default=PartitionConfig.coarsest_size,
                   help="stop coarsening at this many vertices")
    p.add_argument("--output", metavar="CSV", help="write the CSV report here")
    p.add_argument("--partition-out", metavar="PATH",
                   help="write the best partition per graph and config")
    p.add_argument("--no-timing", action="store_true",
                   help="leave timing columns empty for reproducible output")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the run grid")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    ratings = list(dict.fromkeys(args.rating or ["excond"]))
    try:
        configs = [PartitionConfig(rating=r, trees=args.trees,
                                   epsilon=args.epsilon,
                                   coarsest_size=args.coarsest_size)
                   for r in ratings]
        report = run_experiment(
            args.graph, configs, args.runs, args.seed,
            mcv_rounds=args.mcv_rounds, jobs=args.jobs)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(emit_table(report, timing=not args.no_timing))
    if args.output:
        with open(args.output, "w") as f:
            f.write(emit_csv(report, timing=not args.no_timing))
    if args.partition_out:
        single = len(args.graph) * len(configs) == 1
        for (graph, label), blocks in report.best_blocks.items():
            path = (args.partition_out if single
                    else f"{args.partition_out}.{graph}.{label}")
            write_partition(blocks, path)
    if report.errors:
        for name, msg in report.errors:
            print(f"error: {name}: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
