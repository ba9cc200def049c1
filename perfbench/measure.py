"""Set-up, the seeded-run loop and the output checks of one benchmark run.

Every time the benchmark reports is scaled to a fixed machine speed. The
machines it runs on are shared, and their speed shifts by up to 1.7x for
tens of seconds at a time (a fixed Python loop measured back to back shows
it). So a fixed reference workload that shares no code with treepart is
timed right before and right after each timed region, and the region's
wall seconds are multiplied by spec.REF_SECONDS over the mean of the two.
A change to treepart moves the scaled time as it moves the wall time; a
shift in the machine's speed moves both the region and the reference.
"""

from __future__ import annotations

import itertools
import os
import resource
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import spec
import tracing
from treepart import (Partition, PartitionConfig, is_balanced, mcv,
                      save_metis)

WORK = Path(__file__).resolve().parent / "_work"


def reference_s() -> float:
    """Wall seconds of a fixed mix of Python loops and numpy calls, about
    spec.REF_SECONDS on an unloaded machine."""
    t0 = perf_counter()
    n = 20_000
    nxt = [(i * 7919 + 13) % n for i in range(n)]
    seen = bytearray(n)
    total = 0
    for i in range(n):
        j = nxt[i]
        if not seen[j]:
            seen[j] = 1
            total += j
    counts: dict[str, int] = {}
    for word in " ".join(map(str, nxt)).split():
        counts[word[-2:]] = counts.get(word[-2:], 0) + 1
    a = np.asarray(nxt)
    for _ in range(20):
        a = np.argsort(a ^ 5, kind="stable")
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at the reference speed."""
    return spec.REF_SECONDS / ((before + after) / 2)


@dataclass
class SeededRun:
    """Times of one seeded run, scaled to the reference speed; `raw_run_s`
    is the wall time."""

    seed: int
    load_s: float
    partition_s: float
    postprocess_s: float
    run_s: float
    raw_run_s: float
    run_scale: float
    cut: float
    mcv: int
    blocks: bytes
    failures: list[str]


def seeded_run(api, path, reference, cfg, seed) -> SeededRun:
    """One seeded run through `api` (traced or not), then its checks."""
    r0 = reference_s()
    with api.installed():
        with api.span("load"):
            t0 = perf_counter()
            g = api.load_metis(path)
            t1 = perf_counter()
        r1 = reference_s()
        with api.span("run"):
            t2 = perf_counter()
            p = api.partition_multilevel(g, replace(cfg, seed=seed))
            t3 = perf_counter()
            cut = api.edge_cut(g, p)
            t4 = perf_counter()
            q = api.mcv_postprocess(g, p, rounds=spec.MCV_ROUNDS,
                                    epsilon=spec.EPSILON, seed=seed)
            t5 = perf_counter()
    r2 = reference_s()

    failures = []
    if not inputs.same_graph(g, reference):
        failures.append("loaded graph differs from the generated one")
    for label, part in (("partition", p), ("postprocessed partition", q)):
        blk = np.asarray(part.block)
        if len(blk) != g.n or not np.isin(blk, (0, 1)).all():
            failures.append(f"{label} is not a 0/1 vector of length n")
        elif not (is_balanced(g, part, spec.EPSILON) and is_balanced(
                g, Partition.from_blocks(g, part.block), spec.EPSILON)):
            failures.append(f"{label} is not balanced")
    before, after = mcv(g, p), mcv(g, q)
    if after > before:
        failures.append(f"postprocessing raised MCV {before} -> {after}")
    # Independent of edge_cut: each crossing edge is seen from both ends.
    blk = np.asarray(p.block)
    crossing = blk[g.csr_src] != blk[g.adj_nbr]
    recomputed = float(g.edge_w[g.adj_eid[crossing]].sum()) / 2
    if recomputed != cut:
        failures.append(f"edge_cut reported {cut}, recomputed {recomputed}")
    k = scale(r1, r2)
    return SeededRun(seed, (t1 - t0) * scale(r0, r1), (t3 - t2) * k,
                     (t5 - t4) * k, (t5 - t2) * k, t5 - t2, k, cut, after,
                     bytes(p.block) + bytes(q.block), failures)


def tail_note(values: list[float]) -> str:
    """The highest percentile of `values` with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"run_s.tail: none, {n} samples (a tail needs 11)"
    return (f"run_s.tail: {sorted(values)[n - 11]:.6g} s, the"
            f" p{100.0 * (n - 10) / n:.1f} of {n} samples")


def measure(workload: spec.Workload, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    params = workload.smoke_params if smoke else workload.params
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{workload.name}-{seed}-{os.getpid()}.graph"
    cfg = PartitionConfig(rating=workload.rating, trees=spec.TREES,
                          epsilon=spec.EPSILON)
    try:
        setup = []
        after = reference_s()
        for _ in range(spec.SETUP_REPEATS):
            before = after
            t0 = perf_counter()
            reference = inputs.make_graph(workload.generator, params, seed)
            save_metis(reference, path)
            t1 = perf_counter()
            after = reference_s()
            setup.append((t1 - t0) * scale(before, after))

        budget = seconds / 2 if trace else seconds
        least = spec.MIN_TRACED_RUNS if trace else spec.MIN_RUNS
        runs: list[SeededRun] = []
        start = perf_counter()
        for i in itertools.count():
            if len(runs) >= least and perf_counter() - start >= budget:
                break
            runs.append(seeded_run(tracing.UNTRACED, path, reference, cfg,
                                   seed * 1000 + i))
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024

        report = {"runs": runs, "samples": len(runs), "notes": []}
        if not trace:
            run_s = [r.run_s for r in runs]
            quality = runs[:spec.MIN_RUNS]
            report["notes"] += [
                tail_note(run_s),
                "wall-clock run_s median"
                f" {statistics.median(r.raw_run_s for r in runs):.4f} s; the"
                " machine ran at"
                f" {statistics.median(r.run_scale for r in runs):.3f} of the"
                " reference speed"]
            report["metrics"] = {
                "run_s": statistics.median(run_s),
                "partition_s": statistics.median(r.partition_s for r in runs),
                "postprocess_s": statistics.median(
                    r.postprocess_s for r in runs),
                "load_s": statistics.median(r.load_s for r in runs),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
                "avg_cut": statistics.fmean(r.cut for r in quality),
                "avg_mcv": statistics.fmean(r.mcv for r in quality),
            }
            return report

        tracer = tracing.Tracer()
        api = tracing.call_sites(tracer)
        traced, summaries = [], []
        for i, r in enumerate(runs):
            tracer.run = i
            t = seeded_run(api, path, reference, cfg, r.seed)
            if t.blocks != r.blocks:
                t.failures.append("traced partition differs from untraced")
            summary = tracing.summarize_run(tracer, i, t.run_scale)
            layer_sum = sum(summary["layers"].values())
            if abs(layer_sum - t.run_s) > max(1e-3, 0.01 * t.run_s):
                t.failures.append(f"layer self times add up to {layer_sum}"
                                  f" s, traced run_s is {t.run_s} s")
            traced.append(t)
            summaries.append(summary)
        report["runs"] = runs + traced
        timed = {m.name for m in spec.PER_LAYER if m.unit in ("s", "MB/s")}
        metrics = tracing.median_metrics(summaries, timed,
                                         spec.MIN_TRACED_RUNS)
        metrics["trace.run_s"] = statistics.median(t.run_s for t in traced)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - \
            statistics.median(r.run_s for r in runs)
        report["metrics"] = metrics
        layers = {name: statistics.median(s["layers"].get(name, 0.0)
                                          for s in summaries)
                  for name in summaries[0]["layers"]}
        report["notes"].append("median self time per layer under the run"
                               " span: " + ", ".join(
                                   f"{k} {v:.4f} s" for k, v in sorted(
                                       layers.items(), key=lambda kv: -kv[1])))
        return report
    finally:
        path.unlink(missing_ok=True)
