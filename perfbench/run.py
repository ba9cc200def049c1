"""Seeded partition benchmark for treepart.

Run from the root of a treepart checkout; it imports treepart from ./src:

    python3 perfbench/run.py --workload sf-excond --seed 1 --seconds 20 \\
        --trace 0

Set-up generates the workload's graph from the seed and writes it as a
METIS file (several times; setup_s is the median). Then a closed loop, one
process and one thread, makes seeded runs back to back the way the CLI's
`run_single` does: load_metis, partition_multilevel, edge_cut,
mcv_postprocess, mcv. Every seeded run's output is checked. The loop runs
for --seconds and at least spec.MIN_RUNS seeded runs. Times are medians
over the seeded runs, scaled to a fixed machine speed (see measure.py).

With --trace 1 the loop runs for half the time, then repeats the same
seeds with spans recorded around the library's functions (see tracing.py)
and reports the per-layer metrics instead of the end-to-end ones. The
traced partitions must equal the untraced ones byte for byte.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

    python3 perfbench/run.py --record   # every workload at seed 0, traced
                                        # and untraced; writes BENCHMARK.json
                                        # and perfbench/baseline.json
    python3 perfbench/run.py --smoke ...  # tiny graphs, for test_perfbench.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Import treepart from this checkout's source tree, or stop."""
    if not (SRC / "treepart" / "__init__.py").is_file():
        sys.exit(f"perfbench: no treepart source under {SRC}")
    sys.path.insert(0, str(SRC))


def result_line(report: dict, declared) -> dict:
    runs = report["runs"]
    failed = sum(1 for r in runs if r.failures)
    metrics = {m.name: {"value": report["metrics"][m.name], "unit": m.unit}
               for m in declared}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def run_workload(args) -> int:
    use_checkout_source()
    from measure import measure

    workload = spec.BY_NAME[args.workload]
    declared = spec.PER_LAYER if args.trace else spec.END_TO_END
    report = measure(workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke)
    for r in report["runs"]:
        for msg in r.failures:
            print(f"FAILED seeded run {r.seed}: {msg}", file=sys.stderr)
    line = result_line(report, declared)
    print(f"{workload.name} seed {args.seed}: {report['samples']} seeded"
          f" runs, failed_frac {line['failed'] / line['attempted']:.3g}")
    for name, m in line["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    for note in report["notes"]:
        print(f"  {note}")
    print(json.dumps(line))
    return 0


def record(seconds: int) -> int:
    """Measure every workload at seed 0 in fresh processes and write
    BENCHMARK.json and perfbench/baseline.json."""
    import numpy

    results = {}
    for w in spec.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w.name, "--seed", "0",
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600, check=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            out = proc.stdout.splitlines()
            results.setdefault(w.name, {})[f"trace{trace}"] = {
                "report": [ln.strip() for ln in out[1:-1]],
                "result": json.loads(out[-1]),
            }
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(spec.benchmark_json(), indent=2) + "\n")
    baseline = {
        "what": "first baseline of perfbench, seed 0, run_seconds"
                f" {seconds}, measured on the treepart source it was added"
                " to",
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "platform": platform.platform()},
        "workloads": [{"name": w.name, "generator": w.generator,
                       "params": w.params, "rating": w.rating,
                       "epsilon": spec.EPSILON, "trees": spec.TREES,
                       "mcv_rounds": spec.MCV_ROUNDS, "why": w.why}
                      for w in spec.WORKLOADS],
        "metrics": [{"name": m.name, "unit": m.unit, "better": m.better,
                     "bound": m.bound, "doc": m.doc}
                    for m in spec.END_TO_END + spec.PER_LAYER],
        "results": results,
    }
    (Path(__file__).resolve().parent / "baseline.json").write_text(
        json.dumps(baseline, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=sorted(spec.BY_NAME))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny graphs, for the benchmark's own test")
    ap.add_argument("--record", action="store_true",
                    help="write BENCHMARK.json and perfbench/baseline.json")
    args = ap.parse_args(argv)
    if args.record:
        use_checkout_source()
        return record(spec.RUN_SECONDS)
    if args.workload is None:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
