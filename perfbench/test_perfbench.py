"""The benchmark's own test: smoke runs on tiny graphs, in seconds.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import tracing  # noqa: E402
from treepart import (Graph, lca, minimum_spanning_tree,  # noqa: E402
                      root_and_label)


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=120)


def result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_is_written_from_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w.name for w in spec.WORKLOADS])
def test_smoke_reports_every_metric(workload, trace):
    line = result(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] >= (2 * spec.MIN_TRACED_RUNS if trace
                                 else spec.MIN_RUNS)
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(line["metrics"]) == [m.name for m in declared]
    for m in declared:
        got = line["metrics"][m.name]
        assert got["unit"] == m.unit, m.name
        if m.runs_on is None or workload in m.runs_on:
            assert got["value"] > 0, m.name
        if workload in m.zero_on:
            assert got["value"] == 0, m.name


def test_counts_and_quality_repeat_exactly():
    timed = {m.name for m in spec.PER_LAYER + spec.END_TO_END
             if m.unit in ("s", "MB/s", "MB")}
    for trace in (0, 1):
        a, b = (result("sf-excond", trace, seed=5) for _ in range(2))
        for name, got in a["metrics"].items():
            if name not in timed:
                assert got == b["metrics"][name], name


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("sf-exp2", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def walked_steps(g, tree) -> int:
    """Parent steps of the library's LCA walk, summed over non-tree edges."""
    in_tree = set(tree.tree_edge_ids())
    total = 0
    for e in range(g.m):
        if e not in in_tree:
            u, v = int(g.edge_u[e]), int(g.edge_v[e])
            total += tree.depth[u] + tree.depth[v] - 2 * tree.depth[
                lca(tree, u, v)]
    return total


def test_path_steps_match_the_parent_walk():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 60)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = Graph.from_edges(n, sorted(edges))
        values = [rng.random() for _ in range(g.m)]
        tree = root_and_label(g, minimum_spanning_tree(g, values).tolist(),
                              rng.randrange(n))
        steps, nontree = tracing.tree_path_steps(g, tree)
        assert nontree == g.m - (n - 1)
        assert steps == walked_steps(g, tree)
