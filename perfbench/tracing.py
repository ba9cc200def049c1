"""Spans recorded around treepart's public functions, from outside the package.

A Tracer keeps spans in memory: name, start, end, parent span and seeded-run
id. `installed(tracer)` swaps traced wrappers in for the names
partition_multilevel calls in treepart.multilevel and for Graph.from_edges
and Partition.from_blocks, and puts the originals back on exit.
`call_sites(tracer)` gives traced versions of the functions the benchmark
calls itself. A span's self time is its duration minus the time its child
spans cover; the wrappers run one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import treepart as tp
from treepart import Graph, Partition, multilevel


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    run: int
    start: float
    end: float = 0.0
    # What the wrapper kept of the call (arguments, results), read after the
    # seeded run so that no counting happens inside a span.
    note: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = -1
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, parent, self.run, perf_counter()))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def run_spans(self, run: int) -> list[tuple[int, Span, float]]:
        """(index, span, self time) of each span of one seeded run."""
        idx = [i for i, s in enumerate(self.spans) if s.run == run]
        own = {i: self.spans[i].end - self.spans[i].start for i in idx}
        for i in idx:
            s = self.spans[i]
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return [(i, self.spans[i], own[i]) for i in idx]


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def traced(tracer: Tracer, fn, inject=None, note=None):
    """`fn` inside a span. `inject()` gives extra keyword arguments for the
    call; `note(args, kwargs, result)` is kept on the span."""
    name = _span_name(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if inject is not None:
            kwargs = {**inject(), **kwargs}
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if note is not None:
            tracer.spans[idx].note = note(args, kwargs, result)
        return result
    return wrapper


class AcceptCounter:
    """on_accept hook for mcv_postprocess that only counts."""

    def __init__(self):
        self.count = 0

    def __call__(self, block, volumes, external_degree):
        self.count += 1


# Names partition_multilevel (and compute_rating) call in treepart.multilevel,
# with what their wrappers pass in and keep.
MULTILEVEL_CALLS = {
    "check_connected": {},
    "compute_rating": {},
    "contrast": {"note": lambda a, k, r: a[1]},
    "minimum_spanning_tree": {},
    "root_and_label": {},
    "all_fundamental_conductances": {
        "inject": lambda: {"stats": {}},
        "note": lambda a, k, r: (a[0], a[1], k["stats"])},
    "cond_all_edges": {},
    "ex_cond": {},
    "expansion_star2": {},
    "algebraic_distance": {},
    "ex_alg": {},
    "greedy_matching": {"note": lambda a, k, r: (a[0].n, r)},
    "contract": {},
    "initial_bipartition": {"note": lambda a, k, r: a[0].n},
    "fm_refine": {},
    "is_balanced": {},
}


@contextmanager
def installed(tracer: Tracer):
    saved = []

    def swap(owner, name, new):
        saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    try:
        for name, how in MULTILEVEL_CALLS.items():
            fn = vars(multilevel).get(name)
            if fn is not None:
                swap(multilevel, name, traced(tracer, fn, **how))
        for cls, name in ((Graph, "from_edges"), (Partition, "from_blocks")):
            swap(cls, name,
                 classmethod(traced(tracer, vars(cls)[name].__func__)))
        yield
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


def call_sites(tracer: Tracer) -> SimpleNamespace:
    """The functions a seeded run calls, each inside its own span."""
    return SimpleNamespace(
        load_metis=traced(tracer, tp.load_metis,
                          note=lambda a, k, r: os.path.getsize(a[0])),
        partition_multilevel=traced(tracer, tp.partition_multilevel),
        edge_cut=traced(tracer, tp.edge_cut),
        mcv_postprocess=traced(
            tracer, tp.mcv_postprocess,
            inject=lambda: {"stats": {}, "on_accept": AcceptCounter()},
            note=lambda a, k, r: (k["stats"], k["on_accept"].count)),
        span=tracer.span,
        installed=lambda: installed(tracer),
    )


UNTRACED = SimpleNamespace(
    load_metis=tp.load_metis,
    partition_multilevel=tp.partition_multilevel,
    edge_cut=tp.edge_cut,
    mcv_postprocess=tp.mcv_postprocess,
    span=lambda name: nullcontext(),
    installed=nullcontext,
)


def tree_path_steps(g: Graph, tree: tp.RootedTree) -> tuple[int, int]:
    """(sum of tree-path lengths over non-tree edges, non-tree edge count).

    A path's length is the number of parent steps the LCA walk takes for
    the edge. LCAs come from binary lifting over the parent array.
    """
    parent = np.asarray(tree.parent, dtype=np.int64)
    depth = np.asarray(tree.depth, dtype=np.int64)
    in_tree = np.zeros(g.m, dtype=bool)
    pe = np.asarray(tree.parent_edge, dtype=np.int64)
    in_tree[pe[pe >= 0]] = True
    u = g.edge_u[~in_tree]
    v = g.edge_v[~in_tree]
    if u.size == 0:
        return 0, 0
    deeper = depth[u] >= depth[v]
    a, b = np.where(deeper, u, v), np.where(deeper, v, u)
    ups = [parent]
    for _ in range(1, max(1, int(depth.max()).bit_length())):
        ups.append(ups[-1][ups[-1]])
    lift = depth[a] - depth[b]
    for k, up in enumerate(ups):
        sel = (lift >> k) & 1 == 1
        a[sel] = up[a[sel]]
    for up in reversed(ups):
        ua, ub = up[a], up[b]
        differ = ua != ub
        a = np.where(differ, ua, a)
        b = np.where(differ, ub, b)
    anc = np.where(a == b, a, parent[a])
    steps = depth[u] + depth[v] - 2 * depth[anc]
    return int(steps.sum()), int(u.size)


# Per-layer metrics that are the summed self time of one span name.
SELF_TIME_METRICS = {
    "sampling.contrast_s": "sampling.contrast",
    "spantree.mst_s": "spantree.minimum_spanning_tree",
    "spantree.root_and_label_s": "spantree.root_and_label",
    "fundcut.conductances_s": "fundcut.all_fundamental_conductances",
    "rating.cond_all_edges_s": "rating.cond_all_edges",
    "rating.ex_cond_s": "rating.ex_cond",
    "rating.expansion_star2_s": "rating.expansion_star2",
    "multilevel.compute_rating_s": "multilevel.compute_rating",
    "multilevel.matching_s": "multilevel.greedy_matching",
    "multilevel.contract_s": "multilevel.contract",
    "multilevel.initial_s": "multilevel.initial_bipartition",
    "multilevel.fm_s": "multilevel.fm_refine",
    "multilevel.self_s": "multilevel.partition_multilevel",
    "partition.from_blocks_s": "partition.Partition.from_blocks",
    "graph.from_edges_s": "graph.Graph.from_edges",
    "graph.check_connected_s": "graph.check_connected",
    "mcv.postprocess_s": "mcv.mcv_postprocess",
    "metis_io.parse_s": "metis_io.load_metis",
}


def summarize_run(tracer: Tracer, run: int, scale: float) -> dict:
    """Per-layer values of one traced seeded run, plus the self time of
    each module layer under the `run` root span. Self times are multiplied
    by `scale`, the seeded run's factor to the reference speed.

    Drops the notes afterwards, so no graph or tree outlives its run.
    """
    spans = [(i, s, own * scale) for i, s, own in tracer.run_spans(run)]
    own_by_name: dict[str, float] = {}
    for _, s, own in spans:
        own_by_name[s.name] = own_by_name.get(s.name, 0.0) + own
    out = {metric: own_by_name.get(name, 0.0)
           for metric, name in SELF_TIME_METRICS.items()}

    trees = visits = steps = nontree = matched = level_n = blocks_calls = 0
    levels = coarsest = rounds = touches = accepted = nbytes = 0
    for _, s, _ in spans:
        if s.name == "sampling.contrast":
            trees += s.note
        elif s.name == "fundcut.all_fundamental_conductances":
            g, tree, stats = s.note
            visits += stats["adjacency_visits"]
            st, nt = tree_path_steps(g, tree)
            steps += st
            nontree += nt
        elif s.name == "multilevel.greedy_matching":
            n, mate = s.note
            level_n += n
            matched += int(np.count_nonzero(mate >= 0))
        elif s.name == "multilevel.compute_rating":
            levels += 1
        elif s.name == "multilevel.initial_bipartition":
            coarsest = s.note
        elif s.name == "partition.Partition.from_blocks":
            blocks_calls += 1
        elif s.name == "mcv.mcv_postprocess":
            stats, accepted = s.note
            rounds = stats.get("rounds", 0)
            touches = stats.get("max_round_touches", 0)
        elif s.name == "metis_io.load_metis":
            nbytes = s.note
        s.note = None
    out.update({
        "sampling.trees": trees,
        "sampling.s_per_tree": (out["sampling.contrast_s"] / trees
                                if trees else 0.0),
        "fundcut.adjacency_visits": visits,
        "fundcut.path_steps": steps,
        "fundcut.steps_per_nontree_edge": steps / nontree if nontree else 0.0,
        "multilevel.levels": levels,
        "multilevel.coarsest_n": coarsest,
        "multilevel.match_ratio": matched / level_n if level_n else 0.0,
        "partition.from_blocks_calls": blocks_calls,
        "mcv.rounds": rounds,
        "mcv.max_round_touches": touches,
        "mcv.accepted_moves": accepted,
        "metis_io.bytes": nbytes,
        "metis_io.mb_per_s": (nbytes / 1e6 / out["metis_io.parse_s"]
                              if out["metis_io.parse_s"] else 0.0),
    })

    # Self time per module layer under the seeded run's `run` root span;
    # these add up to the root's duration.
    root_of: dict[int, Span] = {}
    layers: dict[str, float] = {}
    for i, s, own in spans:
        root = s if s.parent < 0 else root_of[s.parent]
        root_of[i] = root
        if root.name == "run":
            layer = s.name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own
    return {"metrics": out, "layers": layers}


def median_metrics(summaries: list[dict], timed: set[str],
                   counts_from: int) -> dict:
    """Median per metric: `timed` ones over all summaries, the others
    (counts) over the first `counts_from`, so they repeat exactly whatever
    the run length."""
    out = {}
    for name in summaries[0]["metrics"]:
        use = summaries if name in timed else summaries[:counts_from]
        out[name] = statistics.median(s["metrics"][name] for s in use)
    return out
