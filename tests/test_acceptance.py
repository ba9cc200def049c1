"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale criteria
(5-7) share one module-scoped benchmark grid over ten generated scale-free
graphs with ten seeds each; their runtime budgets are checked against the
portions of that grid they require.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import numpy as np
import pytest

from treepart import (Partition, PartitionConfig, all_fundamental_conductances,
                      balance_cap, comm_volumes,
                      cond_all_edges, contrast, generate_scale_free,
                      geometric_mean, is_balanced, mcv,
                      mcv_postprocess, minimum_spanning_tree,
                      partition_multilevel, root_and_label, sample_bft,
                      save_metis)
from treepart.cli import main as cli_main
from tests.conftest import (block_weights, brute_force_conductance,
                            cut_attributes, cut_corpus, external_degrees,
                            interleaved_best, random_balanced_blocks,
                            random_connected_graph)
from tests.test_fundcut import brute_attributes, family, tree_plus_chords
from tests.test_rating import brute_cond


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def small_corpus():
    """1000 seeded random connected graphs with random spanning trees."""
    return cut_corpus()


DESK_GRAPHS = [(10000, attach, 9000 + i)
               for i, attach in enumerate((2, 3, 4, 5, 2, 3, 4, 5, 2, 3))]
DESK_SEEDS = list(range(10))
DESK_CONFIGS = {
    "excond20": PartitionConfig(rating="excond", trees=20),
    "exp2": PartitionConfig(rating="exp2"),
    "exalg": PartitionConfig(rating="exalg"),
}


@pytest.fixture(scope="module")
def desk_grid():
    """10 scale-free graphs x 10 seeds x 3 ratings, with postprocessing.

    Records per-run MCV before and after postprocessing, balance checks,
    and the wall time spent per config.
    """
    graphs = [generate_scale_free(n, a, s) for n, a, s in DESK_GRAPHS]
    runs = {label: {"before": [], "after": [], "balanced": []}
            for label in DESK_CONFIGS}
    seconds = {}
    for label, base in DESK_CONFIGS.items():
        t0 = time.perf_counter()
        for g in graphs:
            before = []
            after = []
            for seed in DESK_SEEDS:
                p = partition_multilevel(g, replace(base, seed=seed))
                runs[label]["balanced"].append(is_balanced(g, p, base.epsilon))
                before.append(mcv(g, p))
                pp = mcv_postprocess(g, p, rounds=20, epsilon=base.epsilon,
                                     seed=seed)
                runs[label]["balanced"].append(
                    is_balanced(g, pp, base.epsilon))
                after.append(mcv(g, pp))
            runs[label]["before"].append(sum(before) / len(before))
            runs[label]["after"].append(sum(after) / len(after))
        seconds[label] = time.perf_counter() - t0
    return runs, seconds


def test_criterion_1_fundamental_cut_oracle(small_corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for g, t in small_corpus:
        conds = all_fundamental_conductances(g, t)
        for e in t.tree_edge_ids():
            diff = abs(conds[e] - brute_force_conductance(g, t, e))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(1, ok, f"max |fast - brute| = {worst:.2e} over 1000 graphs "
                  f"in {elapsed:.1f}s (budget 10s)")


def test_criterion_2_traversal_field_equalities(small_corpus):
    mismatches = 0
    for g, t in small_corpus:
        attrs = cut_attributes(g, t)
        for u in range(g.n):
            sub, intra, inter = brute_attributes(g, t, u)
            if (attrs.subtree_vol[u] != sub or attrs.intra_weight[u] != intra
                    or attrs.inter_weight[u] != inter):
                mismatches += 1
    report(2, mismatches == 0,
           f"{mismatches} field mismatches over 1000 graphs (exact compare)")


def path_step_bound(g):
    """O(m log n) bound on the LCA lifting steps of one conductance pass."""
    return (2 * g.m + g.n) * max(1, (g.n - 1).bit_length())


def test_criterion_3_linear_work_bound(small_corpus):
    over = 0
    for g, t in small_corpus:
        stats = {}
        all_fundamental_conductances(g, t, stats)
        if stats["adjacency_visits"] + stats["vertex_visits"] > 2 * g.m + g.n:
            over += 1
        if stats["path_steps"] > path_step_bound(g):
            over += 1

    def prepared(g, t):
        g.weighted_degree, g.total_volume  # warm cached properties
        return g, t

    families = {
        "scale-free": [prepared(g, sample_bft(g, 7)) for g in
                       (generate_scale_free(12500, 8, 321),   # m close to 1e5
                        generate_scale_free(25000, 8, 321))],  # m close to 2e5
        # Path tree rooted at an end, 2n random and n/2 long chords.
        "path+chords": [prepared(*tree_plus_chords(
                            *family("path", n, random.Random(321)), 0))
                        for n in (28000, 56000)],        # m close to 1e5, 2e5
    }
    ratios = {}
    details = []

    def conductances(g, t):
        stats = {}
        all_fundamental_conductances(g, t, stats)
        assert stats["adjacency_visits"] + stats["vertex_visits"] \
            <= 2 * g.m + g.n
        assert stats["path_steps"] <= path_step_bound(g)

    for name, (small, big) in families.items():
        # Interleaved best-of-5 to suppress noise.
        best = interleaved_best([lambda g=g, t=t: conductances(g, t)
                                 for g, t in (small, big)], 5)
        ratios[name] = best[1] / best[0]
        details.append(f"{name} {best[0] * 1e3:.0f}ms @m={small[0].m} vs "
                       f"{best[1] * 1e3:.0f}ms @m={big[0].m}, ratio "
                       f"{ratios[name]:.2f} <= 3")
    ok = over == 0 and all(r <= 3.0 for r in ratios.values())
    report(3, ok, "visit counter within 2m+n and lifting steps within "
                  "(2m+n)*bitlen(n-1) on all instances; runtime "
                  + "; ".join(details))


def test_criterion_4_cond_matches_cut_enumeration():
    rng = random.Random(20240504)
    worst = 0.0
    for _ in range(500):
        g = random_connected_graph(rng, n_lo=3, n_hi=12, w_lo=1, w_hi=10)
        t = sample_bft(g, rng.randrange(2 ** 32))
        full = cond_all_edges(g, t, all_fundamental_conductances(g, t))
        worst = max(worst, float(np.abs(full - brute_cond(g, t)).max()))
    report(4, worst < 1e-9,
           f"max |Cond - enumerated min| = {worst:.2e} over 500 instances")


@pytest.mark.slow
def test_criterion_5_mcv_postprocessing(desk_grid):
    runs, seconds = desk_grid

    # Soundness on small instances: per-round monotonicity and incremental
    # bookkeeping equal to from-scratch recomputation after every move.
    rng = random.Random(20240505)
    sound = True
    audited = 0
    while audited < 50:
        g = random_connected_graph(rng, n_lo=4, n_hi=14)
        p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
        if not is_balanced(g, p, 0.03):
            continue

        def audit(block, vols, ext, g=g):
            fresh = Partition.from_blocks(g, block)
            nonlocal sound
            if vols != comm_volumes(g, fresh) \
                    or list(ext) != external_degrees(g, block):
                sound = False

        seed = rng.randrange(10 ** 6)
        trail = [mcv(g, mcv_postprocess(g, p, rounds=r, epsilon=0.03,
                                        seed=seed, on_accept=audit))
                 for r in range(5)]
        if any(a < b for a, b in zip(trail, trail[1:])):
            sound = False
        out = mcv_postprocess(g, p, rounds=5, epsilon=0.03, seed=seed)
        if not is_balanced(g, out, 0.03):
            sound = False
        audited += 1

    quotients = [a / b for a, b in
                 zip(runs["excond20"]["after"], runs["excond20"]["before"])]
    gm = geometric_mean(quotients)
    elapsed = seconds["excond20"]
    ok = sound and gm <= 0.97 and elapsed < 300.0
    report(5, ok, f"soundness on 50 instances: {sound}; geomean "
                  f"avgMCV(post)/avgMCV(none) = {gm:.4f} <= 0.97 over "
                  f"{len(quotients)} graphs; excond portion {elapsed:.0f}s "
                  f"(budget 300s)")


@pytest.mark.slow
def test_criterion_6_balance(desk_grid):
    runs, _ = desk_grid
    flags = [b for label in runs for b in runs[label]["balanced"]]
    rng = random.Random(20240506)
    for _ in range(25):
        g = random_connected_graph(rng, n_lo=4, n_hi=30)
        p = partition_multilevel(g, PartitionConfig(trees=6, seed=1))
        flags.append(max(block_weights(g, p.block))
                     <= balance_cap(g, 0.03) + 1e-9)
    ok = all(flags)
    report(6, ok, f"(1+0.03)*ceil(W/2) balance held on {len(flags)} "
                  f"emitted partitions")


@pytest.mark.slow
def test_criterion_7_rating_direction(desk_grid):
    runs, seconds = desk_grid
    q_exp2 = [a / b for a, b in
              zip(runs["excond20"]["after"], runs["exp2"]["after"])]
    q_exalg = [a / b for a, b in
               zip(runs["excond20"]["after"], runs["exalg"]["after"])]
    gm_exp2 = geometric_mean(q_exp2)
    gm_exalg = geometric_mean(q_exalg)
    total = sum(seconds.values())
    ok = gm_exp2 <= 1.0 and total < 900.0
    report(7, ok, f"geomean avgMCV excond20/exp2 = {gm_exp2:.4f} <= 1.0; "
                  f"excond20/exalg = {gm_exalg:.4f} (informational); grid "
                  f"took {total:.0f}s (budget 900s)")


def test_criterion_8_determinism(tmp_path):
    g = generate_scale_free(1500, 3, 77)
    gpath = tmp_path / "det.graph"
    save_metis(g, gpath)
    outputs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        part_path = tmp_path / f"{tag}.part"
        rc = cli_main(["--graph", str(gpath), "--runs", "3", "--trees", "8",
                       "--seed", "11", "--no-timing",
                       "--output", str(csv_path),
                       "--partition-out", str(part_path)])
        assert rc == 0
        outputs.append((csv_path.read_bytes(), part_path.read_bytes()))
    ok = outputs[0] == outputs[1]
    report(8, ok, "two seeded invocations gave byte-identical CSV and "
                  "partition files")


def test_criterion_9_mst_cut_property():
    rng = random.Random(20240509)
    violations = 0
    for _ in range(500):
        g = random_connected_graph(rng, n_lo=3, n_hi=12, w_lo=1, w_hi=10)
        gamma = contrast(g, 8, rng.randrange(2 ** 32))
        tree_ids = minimum_spanning_tree(g, gamma)
        t = root_and_label(g, tree_ids.tolist(), rng.randrange(g.n))
        for te in tree_ids.tolist():
            a, b = int(g.edge_u[te]), int(g.edge_v[te])
            child = a if t.parent_edge[a] == te else b
            inside = {x for x in range(g.n)
                      if t.label[child] <= t.label[x] <= t.max_label[child]}
            cut_gammas = [gamma[e] for e in range(g.m)
                          if (int(g.edge_u[e]) in inside)
                          != (int(g.edge_v[e]) in inside)]
            if gamma[te] > min(cut_gammas):
                violations += 1
    report(9, violations == 0,
           f"{violations} cut-property violations over 500 instances "
           f"(tree-edge contrast minimal in its fundamental cut-set)")
