"""Seeded benchmark runs, indicator aggregation, and report emission.

For every (graph, config) pair the runner executes a fixed number of seeded
partitioning runs and aggregates five indicators: minMCV, avgMCV, minCut,
avgCut, avgTime. MCV is measured after postprocessing, the cut before it.
Quotients against a reference config are summarized by geometric means
across graphs.
"""

from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .graph import Graph, _int_scalar
from .mcv import MCV_ROUNDS, edge_cut, mcv, mcv_postprocess
from .metis_io import load_metis
from .multilevel import PartitionConfig, partition_multilevel

INDICATORS = ("minMCV", "avgMCV", "minCut", "avgCut", "avgTime")

CSV_COLUMNS = ("graph", "config", "minMCV", "avgMCV", "minCut", "avgCut",
               "avgTime", "q_minMCV", "q_avgMCV", "q_minCut", "q_avgCut",
               "q_avgTime")


@dataclass
class RunRecord:
    graph: str
    config: str
    run: int
    seed: int
    mcv: int
    cut: float
    seconds: float


@dataclass
class ConfigStats:
    graph: str
    config: str
    values: dict[str, float]


@dataclass
class ExperimentReport:
    reference: str
    records: list[RunRecord]
    stats: list[ConfigStats]
    quotients: dict[tuple[str, str], dict[str, float]]
    geo_means: dict[str, dict[str, float]]
    errors: list[tuple[str, str]]
    best_blocks: dict[tuple[str, str], list[int]]


def config_label(cfg: PartitionConfig) -> str:
    return f"excond{cfg.trees}" if cfg.rating == "excond" else cfg.rating


def geometric_mean(values) -> float:
    """exp of the mean log; NaN when no positive finite values are given."""
    logs = [math.log(v) for v in values if v > 0 and math.isfinite(v)]
    if not logs:
        return float("nan")
    return math.exp(sum(logs) / len(logs))


def run_single(g: Graph, cfg: PartitionConfig, seed: int, *,
               mcv_rounds: int = MCV_ROUNDS
               ) -> tuple[int, float, float, list[int]]:
    """One seeded run: returns (mcv, cut before postprocessing, seconds,
    blocks). MCV postprocessing runs only when mcv_rounds > 0."""
    t0 = time.perf_counter()
    p = partition_multilevel(g, replace(cfg, seed=seed))
    cut = edge_cut(g, p)
    if mcv_rounds > 0:
        p = mcv_postprocess(g, p, rounds=mcv_rounds, epsilon=cfg.epsilon,
                            seed=seed)
    elapsed = time.perf_counter() - t0
    return mcv(g, p), cut, elapsed, p.block


def _run_job(args):
    """All runs of one (graph, config) cell: (name, label, records, best
    blocks, None), or (name, label, None, None, message) when a run raises
    ValueError, so a pool worker returns the fault instead of raising it."""
    (g, name, cfg, runs, base_seed, mcv_rounds) = args
    label = config_label(cfg)
    records = []
    best = None
    try:
        for r in range(runs):
            seed = base_seed + r
            mcv_val, cut, secs, blocks = run_single(
                g, cfg, seed, mcv_rounds=mcv_rounds)
            records.append(RunRecord(name, label, r, seed, mcv_val, cut, secs))
            key = (mcv_val, cut, r)
            if best is None or key < best[0]:
                best = (key, blocks)
    except ValueError as exc:
        return name, label, None, None, str(exc)
    return name, label, records, best[1], None


def _reject_duplicates(what: str, names: list[str]) -> None:
    dupes = sorted({name for name in names if names.count(name) > 1})
    if dupes:
        raise ValueError(f"duplicate {what}: {', '.join(dupes)}")


def run_experiment(graph_paths, configs, runs: int, base_seed: int, *,
                   mcv_rounds: int = MCV_ROUNDS,
                   jobs: int = 1) -> ExperimentReport:
    """Run the full (graph x config) grid.

    Each graph is parsed once and held until the grid ends. A graph that
    fails to load is skipped, and a (graph, config) cell whose runs raise
    ValueError (a disconnected graph, or vertex weights that no bisection
    within the balance cap fits when postprocessing is on) gets no stats
    row and no best blocks; the other cells still run. Both are reported
    under `errors`, load errors first in path order, then cell errors as
    (graph name, "<config label>: <message>") in (graph, config) order.
    MCV postprocessing runs only when mcv_rounds > 0. Two paths with the
    same name (file name without `.graph`) are rejected, and so are two
    configs with the same `config_label`, since rows and quotients are
    keyed by it. The first config is the reference for quotients. Raises
    ValueError unless runs and jobs are integers >= 1 and mcv_rounds one
    >= 0.
    """
    runs = _int_scalar(runs, "runs", 1)
    if not configs:
        raise ValueError("need at least one config")
    mcv_rounds = _int_scalar(mcv_rounds, "mcv_rounds", 0)
    jobs = _int_scalar(jobs, "jobs", 1)
    _reject_duplicates("config labels", [config_label(c) for c in configs])
    graph_paths = list(graph_paths)
    names = [_graph_name(path) for path in graph_paths]
    _reject_duplicates("graph names", names)
    usable = []
    errors: list[tuple[str, str]] = []
    for path, name in zip(graph_paths, names):
        try:
            usable.append((load_metis(path), name))
        except (OSError, ValueError) as exc:
            errors.append((name, str(exc)))

    # Both paths return results in jobs_args order: (graph, config) order.
    jobs_args = [(g, name, cfg, runs, base_seed, mcv_rounds)
                 for g, name in usable for cfg in configs]
    if jobs > 1 and len(jobs_args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_job, jobs_args))
    else:
        results = [_run_job(a) for a in jobs_args]

    records: list[RunRecord] = []
    stats: list[ConfigStats] = []
    best_blocks: dict[tuple[str, str], list[int]] = {}
    for name, label, recs, blocks, fault in results:
        if fault is not None:
            errors.append((name, f"{label}: {fault}"))
            continue
        records.extend(recs)
        mcvs = [r.mcv for r in recs]
        cuts = [r.cut for r in recs]
        secs = [r.seconds for r in recs]
        stats.append(ConfigStats(name, label, {
            "minMCV": float(min(mcvs)),
            "avgMCV": sum(mcvs) / len(mcvs),
            "minCut": float(min(cuts)),
            "avgCut": sum(cuts) / len(cuts),
            "avgTime": sum(secs) / len(secs),
        }))
        best_blocks[(name, label)] = blocks

    labels = [config_label(cfg) for cfg in configs]
    reference = labels[0]
    by_key = {(s.graph, s.config): s.values for s in stats}
    quotients: dict[tuple[str, str], dict[str, float]] = {}
    for s in stats:
        ref = by_key.get((s.graph, reference))
        q = {}
        for ind in INDICATORS:
            if ref is not None and ref[ind] > 0:
                q[ind] = s.values[ind] / ref[ind]
            else:
                q[ind] = float("nan")
        quotients[(s.graph, s.config)] = q
    geo_means = {
        label: {ind: geometric_mean(
            quotients[(s.graph, label)][ind]
            for s in stats if s.config == label) for ind in INDICATORS}
        for label in labels
    }
    return ExperimentReport(reference, records, stats, quotients, geo_means,
                            errors, best_blocks)


def _graph_name(path) -> str:
    name = str(path).replace("\\", "/").rsplit("/", 1)[-1]
    return name[:-6] if name.endswith(".graph") else name


def _report_rows(report: ExperimentReport, timing: bool):
    """(graph, config, indicators, quotients) per report line: one per
    (graph, config) pair, then one GEOMEAN line per config whose indicators
    are None and whose quotients are the geometric means. With timing off,
    every avgTime is None."""
    def blank(values):
        return values if timing else {**values, "avgTime": None}

    for s in report.stats:
        yield (s.graph, s.config, blank(s.values),
               blank(report.quotients[(s.graph, s.config)]))
    for label in dict.fromkeys(s.config for s in report.stats):
        yield "GEOMEAN", label, None, blank(report.geo_means[label])


def emit_csv(report: ExperimentReport, timing: bool = True) -> str:
    """Deterministic CSV with a fixed column order.

    With timing disabled the time columns are left empty, so reports from
    repeated identical invocations are byte-identical.
    """
    def cells(values):
        return ["" if values is None or values[ind] is None
                else f"{values[ind]:.12g}" for ind in INDICATORS]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for graph, config, values, quotients in _report_rows(report, timing):
        writer.writerow([graph, config, *cells(values), *cells(quotients)])
    return buf.getvalue()


def emit_table(report: ExperimentReport, timing: bool = True) -> str:
    """Human-readable fixed-width table, one line per (graph, config)."""
    header = (f"{'graph':<24} {'config':<10} {'minMCV':>8} {'avgMCV':>10} "
              f"{'minCut':>10} {'avgCut':>12} {'avgTime':>9} {'q_avgMCV':>9}")
    lines = [header, "-" * len(header)]
    for graph, config, values, q in _report_rows(report, timing):
        # GEOMEAN lines show the geometric means in the indicator columns.
        digits = (0, 2, 0, 1) if values is not None else (3, 3, 3, 3)
        values = values if values is not None else q
        t = values["avgTime"]
        t = f"{'-':>9}" if t is None else f"{t:9.3f}"
        lines.append(
            f"{graph:<24} {config:<10} {values['minMCV']:8.{digits[0]}f} "
            f"{values['avgMCV']:10.{digits[1]}f} "
            f"{values['minCut']:10.{digits[2]}f} "
            f"{values['avgCut']:12.{digits[3]}f} {t} {q['avgMCV']:9.3f}")
    for name, msg in report.errors:
        lines.append(f"{name:<24} ERROR: {msg}")
    return "\n".join(lines) + "\n"
