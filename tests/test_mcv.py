import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import treepart
from treepart import (Graph, Partition, PartitionConfig, comm_volumes,
                      edge_cut, generate_scale_free, is_balanced, mcv,
                      mcv_postprocess, partition_multilevel)
from treepart.mcv import _visit_order
from tests.conftest import (MALFORMED_PARTITIONS, chorded_c6,
                            copy_partition, external_degrees,
                            random_balanced_blocks, random_connected_graph,
                            scalar_mcv_postprocess, scalar_visit_order)


class TestMetric:
    def test_c4_halves(self, c4):
        p = Partition.from_blocks(c4, [0, 0, 1, 1])
        assert comm_volumes(c4, p) == (2, 2)
        assert mcv(c4, p) == 2

    def test_star_center_versus_leaves(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        p = Partition.from_blocks(g, [0, 1, 1, 1])
        assert comm_volumes(g, p) == (1, 3)
        assert mcv(g, p) == 3

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        p = Partition.from_blocks(g, [0])
        assert mcv(g, p) == 0

    def test_edge_cut_examples(self, c4, k2):
        assert edge_cut(c4, Partition.from_blocks(c4, [0, 0, 1, 1])) == 2.0
        assert edge_cut(c4, Partition.from_blocks(c4, [0, 0, 0, 0])) == 0.0
        assert edge_cut(k2, Partition.from_blocks(k2, [0, 1])) == 1.0

    @pytest.mark.parametrize("metric", [edge_cut, comm_volumes, mcv])
    @pytest.mark.parametrize("block", [[0, 2, 1], [0.0, 1.0, 1.0],
                                       [0, 1, 1, 0], [0, 1]],
                             ids=["id-2", "float", "long", "short"])
    def test_malformed_blocks_rejected(self, p3, metric, block):
        with pytest.raises(ValueError, match="block"):
            metric(p3, Partition(block))


class TestPostprocess:
    def test_never_increases_mcv(self):
        rng = random.Random(21)
        for _ in range(30):
            g = random_connected_graph(rng, n_lo=4, n_hi=14, w_lo=1, w_hi=1)
            p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
            if not is_balanced(g, p, 0.03):
                continue
            out = mcv_postprocess(g, p, rounds=10, epsilon=0.03, seed=7)
            assert mcv(g, out) <= mcv(g, p)
            assert is_balanced(g, out, 0.03)

    def test_monotone_in_round_count(self):
        rng = random.Random(22)
        g = random_connected_graph(rng, n_lo=10, n_hi=14, w_lo=1, w_hi=1)
        p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
        values = [mcv(g, mcv_postprocess(g, p, rounds=r, epsilon=0.03, seed=3))
                  for r in range(6)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_optimal_input_unchanged(self, c4):
        p = Partition.from_blocks(c4, [0, 0, 1, 1])
        out = mcv_postprocess(c4, p, rounds=5, epsilon=0.03, seed=1)
        assert mcv(c4, out) == 2  # every balanced split of C4 has MCV 2

    def test_negative_rounds_rejected(self, c4):
        p = Partition.from_blocks(c4, [0, 0, 1, 1])
        with pytest.raises(ValueError, match=r"rounds must be integers in \[0, inf\)"):
            mcv_postprocess(c4, p, rounds=-1, epsilon=0.03, seed=1)

    def test_incremental_state_matches_scratch(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(50):
            g = random_connected_graph(rng, n_lo=4, n_hi=14, w_lo=1, w_hi=1)
            p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
            if not is_balanced(g, p, 0.03):
                continue

            def audit(block, vols, ext):
                fresh = Partition.from_blocks(g, block)
                assert vols == comm_volumes(g, fresh)
                assert list(ext) == external_degrees(g, block)

            out = mcv_postprocess(g, p, rounds=5, epsilon=0.03,
                                  seed=rng.randrange(1000), on_accept=audit)
            assert is_balanced(g, out, 0.03)
            checked += 1
        assert checked >= 40

    def test_stats_filled_without_edges(self):
        g = Graph.from_edges(2, [])
        stats = {}
        mcv_postprocess(g, Partition.from_blocks(g, [0, 1]), seed=0,
                        stats=stats)
        assert stats == {"rounds": 0, "max_round_touches": 0}
        g = Graph.from_edges(1, [])
        stats = {}
        mcv_postprocess(g, Partition.from_blocks(g, [0]), epsilon=1.0,
                        seed=0, stats=stats)
        assert stats == {"rounds": 0, "max_round_touches": 0}

    @pytest.mark.parametrize("block, message", MALFORMED_PARTITIONS)
    def test_malformed_partition_rejected(self, block, message):
        with pytest.raises(ValueError, match=message):
            mcv_postprocess(chorded_c6(), Partition(block), seed=0)

    def test_unbalanced_input_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        p = Partition.from_blocks(g, [0, 0, 0, 1])
        with pytest.raises(ValueError, match="balance"):
            mcv_postprocess(g, p, epsilon=0.0, seed=0)

    def test_deterministic(self):
        rng = random.Random(24)
        g = random_connected_graph(rng, n_lo=10, n_hi=14)
        p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
        a = mcv_postprocess(g, p, rounds=8, epsilon=0.03, seed=9)
        b = mcv_postprocess(g, p, rounds=8, epsilon=0.03, seed=9)
        assert a.block == b.block

    def test_seed_sign_and_size(self):
        # random.Random seeds with |seed| and takes seeds of any size; a
        # generator that rejects negative or wide seeds fails here.
        g = generate_scale_free(2000, 3, 5)
        p = partition_multilevel(g, PartitionConfig(rating="exp2", seed=5))
        out = mcv_postprocess(g, p, seed=3)
        assert mcv(g, out) < mcv(g, p)
        assert mcv_postprocess(g, p, seed=-3).block == out.block
        wide = mcv_postprocess(g, p, seed=2 ** 70)
        assert mcv(g, wide) <= mcv(g, p)
        assert is_balanced(g, wide, 0.03)

    def test_round_cost_linear_in_graph_size(self):
        # One round scans the boundary snapshot, the adjacency of every
        # moved vertex and that of every neighbour whose external degree
        # changes class; on these graphs that stays within 4 * (n + m).
        # test_round_cost_bound checks the general n + 26m on hub families.
        rng = random.Random(25)
        for _ in range(20):
            g = random_connected_graph(rng, n_lo=6, n_hi=14)
            p = Partition.from_blocks(g, random_balanced_blocks(g, rng))
            stats = {}
            mcv_postprocess(g, p, rounds=6, epsilon=0.03, seed=2, stats=stats)
            if stats["rounds"]:
                assert stats["max_round_touches"] <= 4 * (g.n + g.m)


class TestVisitOrder:
    def test_matches_scalar_rule(self):
        for k in (1, 2, 3, 7, 8, 9, 64, 1000, 5000):
            for seed in (0, 1, -4, 2 ** 70):
                a, b = random.Random(seed), random.Random(seed)
                assert _visit_order(a, k) == scalar_visit_order(b, k)
                assert a.getrandbits(64) == b.getrandbits(64)

    def test_index_breaks_ties_in_the_high_bits(self):
        # Keys equal above their low k.bit_length() bits, and descending
        # below them, are visited in snapshot order.
        class Fixed(random.Random):
            def getrandbits(self, bits):
                k = bits // 64
                return int.from_bytes(b"".join(
                    (2 ** 64 - 1 - i).to_bytes(8, "little")
                    for i in range(k)), "little")

        for k in (2, 3, 100, 1000):
            assert _visit_order(Fixed(0), k) == list(range(k))
            assert scalar_visit_order(Fixed(0), k) == list(range(k))

    def test_single_vertex(self):
        for seed in range(50):
            assert _visit_order(random.Random(seed), 1) == [0]

    def test_uniform_positions(self):
        # Over 20,000 seeds each of the 10 positions holds index 0 about
        # 2000 times (binomial sd ~42, so +-200 is ~4.7 sd).
        k = 10
        hits = [0] * k
        for seed in range(20_000):
            order = _visit_order(random.Random(seed), k)
            assert sorted(order) == list(range(k))
            hits[order.index(0)] += 1
        assert all(1800 <= h <= 2200 for h in hits), hits


def test_postprocess_never_loads_numpy_random():
    # numpy.random costs ~6 MB of resident memory on first import, and an
    # exp2 run does not need it otherwise.
    script = textwrap.dedent("""
        import sys
        from treepart import (PartitionConfig, generate_scale_free,
                              mcv_postprocess, partition_multilevel)
        g = generate_scale_free(2000, 4, 1)
        p = partition_multilevel(g, PartitionConfig(rating="exp2", seed=1))
        mcv_postprocess(g, p, seed=1)
        print("numpy.random._generator" in sys.modules)
    """)
    src = str(Path(treepart.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "False"


def lighter_block_start(g, order):
    """Each vertex, in the given order, into the lighter block."""
    block, weight = [0] * g.n, [0, 0]
    for v in order:
        b = int(weight[1] < weight[0])
        block[v] = b
        weight[b] += int(g.vertex_c[v])
    return Partition.from_blocks(g, block)


@st.composite
def balanced_starts(draw):
    """A connected graph with vertex weights 1-3, an epsilon, and a start
    that puts the vertices, in random order, into the lighter block."""
    n = draw(st.integers(2, 30))
    ids = draw(st.permutations(range(n)))
    edges = {tuple(sorted((ids[draw(st.integers(0, i - 1))], ids[i])))
             for i in range(1, n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {tuple(sorted(p)) for p in draw(st.lists(pair, max_size=60))
              if p[0] != p[1]}
    c = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    g = Graph.from_edges(n, sorted(edges), vertex_weights=c)
    epsilon = draw(st.sampled_from([0.0, 0.03, 0.25]))
    p = lighter_block_start(g, draw(st.permutations(range(n))))
    assume(is_balanced(g, p, epsilon))
    return g, p, epsilon


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(balanced_starts(), st.integers(0, 8), st.integers(0, 2 ** 32))
def test_postprocess_keeps_balance_and_never_raises_mcv(case, rounds, seed):
    g, p, epsilon = case
    before = copy_partition(p)
    out = mcv_postprocess(g, p, rounds=rounds, epsilon=epsilon, seed=seed)
    assert mcv(g, out) <= mcv(g, p)
    assert is_balanced(g, out, epsilon)
    assert p == before


def star(k):
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def wheel(k):
    spokes = [(0, i) for i in range(1, k + 1)]
    return Graph.from_edges(k + 1, spokes + [(i, i % k + 1)
                                             for i in range(1, k + 1)])


def k2k_path(k):
    """K(2,k) on the hubs 0, 1 and the leaves 2..k+1, plus the path
    2-3-...-(k+1) through the leaves."""
    edges = [(h, i) for h in (0, 1) for i in range(2, k + 2)]
    return Graph.from_edges(k + 2, edges + [(i, i + 1)
                                            for i in range(2, k + 1)])


def caterpillar(k):
    """Spine 0..k-1; spine vertex i carries i % 4 legs."""
    edges = [(i, i + 1) for i in range(k - 1)]
    legs = [i for i in range(k) for _ in range(i % 4)]
    edges += [(i, k + j) for j, i in enumerate(legs)]
    return Graph.from_edges(k + len(legs), edges)


def stars_of_stars(k):
    """Centre 0 joined to the hubs 1..k, each with k leaves of its own."""
    edges = [(0, h) for h in range(1, k + 1)]
    edges += [(h, k + 1 + (h - 1) * k + j)
              for h in range(1, k + 1) for j in range(k)]
    return Graph.from_edges(k + 1 + k * k, edges)


def strip(k):
    """8 x k grid, row-major."""
    edges = [(r * k + j, r * k + j + 1)
             for r in range(8) for j in range(k - 1)]
    edges += [(r * k + j, (r + 1) * k + j)
              for r in range(7) for j in range(k)]
    return Graph.from_edges(8 * k, edges)


FAMILIES = {f.__name__: f for f in (star, wheel, k2k_path, caterpillar,
                                    stars_of_stars, strip)}
HUB_FAMILIES = ["star", "wheel", "k2k_path", "stars_of_stars"]


def swapped_split(n, swaps, rng):
    """Vertices below ceil(n/2) in block 0, then `swaps` random exchanges
    of a block-0 and a block-1 vertex; hubs have low ids, so few swaps keep
    them nearly internal."""
    block = [0 if v < (n + 1) // 2 else 1 for v in range(n)]
    for _ in range(swaps if n > 1 else 0):
        a = rng.choice([v for v in range(n) if block[v] == 0])
        b = rng.choice([v for v in range(n) if block[v] == 1])
        block[a], block[b] = 1, 0
    return block


def minority(n, size, rng):
    """`size` random vertices in block 1, the rest in block 0: balanced
    only at epsilon 1.0, where it leaves a hub almost internal."""
    block = [0] * n
    for v in rng.sample(range(n), size):
        block[v] = 1
    return block


def accept_trail(refine, g, p, key=tuple, **kw):
    """Output, executed rounds and the (block, volumes, external degrees)
    state after every accepted move, each list passed through `key`."""
    trail = []
    stats = {}
    out = refine(g, p, stats=stats, on_accept=lambda block, vols, ext:
                 trail.append((key(block), vols, key(ext))), **kw)
    return out, stats["rounds"], trail


def assert_matches_oracle(g, p, key=tuple, **kw):
    got = accept_trail(mcv_postprocess, g, p, key, **kw)
    want = accept_trail(scalar_mcv_postprocess, g, p, key, **kw)
    assert got[0] == want[0]  # the block
    assert got[1] == want[1]
    assert got[2] == want[2]
    return got


class TestMatchesScalarOracle:
    """Blocks, executed rounds and every on_accept state equal those of
    the adjacency-scanning oracle."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.03, 1.0])
    def test_random_weighted_graphs(self, epsilon):
        rng = random.Random(f"oracle-{epsilon}")
        checked = 0
        for _ in range(200):
            h = random_connected_graph(rng, n_lo=2, n_hi=30,
                                       extra_frac=rng.choice([0.2, 0.6, 2]))
            g = Graph.from_edges(h.n, list(zip(h.edge_u, h.edge_v)),
                                 edge_weights=h.edge_w,
                                 vertex_weights=[rng.randint(1, 3)
                                                 for _ in range(h.n)])
            p = lighter_block_start(g, rng.sample(range(g.n), g.n))
            if not is_balanced(g, p, epsilon):
                continue
            assert_matches_oracle(g, p, rounds=rng.randint(0, 10),
                                  epsilon=epsilon, seed=rng.randrange(2 ** 32))
            checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("k", [3, 8, 20])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families(self, family, k):
        g = FAMILIES[family](k)
        rng = random.Random(f"{family}-{k}")
        for swaps in range(6):
            p = Partition.from_blocks(g, swapped_split(g.n, swaps, rng))
            for epsilon in (0.0, 0.03, 1.0):
                assert_matches_oracle(g, p, rounds=20, epsilon=epsilon,
                                      seed=rng.randrange(2 ** 32))
        p = Partition.from_blocks(g, minority(g.n, 2, rng))
        assert_matches_oracle(g, p, rounds=20, epsilon=1.0, seed=k)

    def test_tiny_and_edgeless_graphs(self):
        graphs = [Graph.from_edges(1, []), Graph.from_edges(2, []),
                  Graph.from_edges(2, [(0, 1)]),
                  Graph.from_edges(3, [(0, 1), (1, 2)]),
                  Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
                  Graph.from_edges(5, [])]
        for g in graphs:
            for code in range(2 ** g.n):
                p = Partition.from_blocks(g, [code >> v & 1
                                              for v in range(g.n)])
                for epsilon in (0.0, 0.03, 1.0):
                    if is_balanced(g, p, epsilon):
                        assert_matches_oracle(g, p, rounds=5,
                                              epsilon=epsilon, seed=code)

    def test_scale_free_multilevel_partition(self):
        g = generate_scale_free(10_000, 4, 0)
        p = partition_multilevel(g, PartitionConfig(rating="exp2", seed=1))
        _, rounds, trail = assert_matches_oracle(
            g, p, key=lambda xs: hash(tuple(xs)), rounds=20, epsilon=0.03,
            seed=1)
        assert rounds > 1 and len(trail) > 1000


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(balanced_starts(), st.integers(0, 8), st.integers(0, 2 ** 32))
def test_postprocess_matches_oracle(case, rounds, seed):
    g, p, epsilon = case
    assert_matches_oracle(g, p, rounds=rounds, epsilon=epsilon, seed=seed)


def assert_round_cost_bound(g, p, epsilon, seed):
    stats = {}
    mcv_postprocess(g, p, rounds=20, epsilon=epsilon, seed=seed, stats=stats)
    assert stats["max_round_touches"] <= g.n + 26 * g.m


@pytest.mark.parametrize("family", HUB_FAMILIES)
def test_round_cost_bound(family):
    """n + 26m per round: the snapshot, each mover's adjacency and, per
    class change of a neighbour's external degree (at most 12 a round for
    each vertex), that neighbour's adjacency."""
    for k in (3, 5, 12, 40, 150):
        g = FAMILIES[family](k)
        rng = random.Random(f"{family}-{k}")
        for swaps in range(8):
            p = Partition.from_blocks(g, swapped_split(g.n, swaps, rng))
            for epsilon in (0.0, 0.03, 1.0):
                assert_round_cost_bound(g, p, epsilon, rng.randrange(100))
        for size in range(1, min(6, g.n)):
            p = Partition.from_blocks(g, minority(g.n, size, rng))
            assert_round_cost_bound(g, p, 1.0, rng.randrange(100))
    rng = random.Random(26)
    for _ in range(100):
        g = random_connected_graph(rng, n_lo=2, n_hi=40,
                                   extra_frac=rng.choice([0.2, 0.6, 2]))
        p = Partition.from_blocks(g, swapped_split(g.n, rng.randrange(4), rng))
        assert_round_cost_bound(g, p, 0.03, rng.randrange(100))


@st.composite
def hub_starts(draw):
    """A hub family member with a swapped or minority start."""
    g = FAMILIES[draw(st.sampled_from(HUB_FAMILIES))](draw(st.integers(3, 25)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return g, swapped_split(g.n, draw(st.integers(0, 6)), rng), 0.03
    return g, minority(g.n, draw(st.integers(1, 3)), rng), 1.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(hub_starts(),
                 balanced_starts().map(lambda c: (c[0], c[1].block, c[2]))),
       st.integers(0, 2 ** 32))
def test_round_cost_bound_property(case, seed):
    g, block, epsilon = case
    assert_round_cost_bound(g, Partition.from_blocks(g, block), epsilon, seed)
