"""Reader and writer for the METIS/Chaco adjacency format.

Header line is "n m [fmt]" where fmt is a flag pair: 1 = edge weights
present, 10 = vertex weights present, 11 = both. Vertex ids in the file are
1-based; comment lines start with '%'. Each undirected edge must appear in
both endpoints' adjacency lines with the same weight.

The input must be ASCII, and lines end only at '\n', as METIS reads them;
a '\r' before it is whitespace. Vertex weights, and their total, must be
below 2**53, so they are exact in float64 and in `balance_cap`.

Tokens are read with Python's int() and float(), so the token grammar is
Python's (minus digit-group underscores). `parse_metis` reads the vertex
lines in two passes: an array pass that only decides whether the input is
valid, and a scalar pass, run on rejected input only, that names the first
fault in file order. Faulty input need not be fast.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import NoReturn

import numpy as np

from .graph import WEIGHT_LIMIT, Graph


class MetisFormatError(ValueError):
    """Malformed METIS/Chaco input."""


def _read(kind, token: str):
    """kind(token) for kind int or float. Both also accept digit-group
    underscores ("1_0" is 10), which the format has not, so those fail."""
    try:
        if "_" not in token:
            return kind(token)
    except ValueError:
        pass
    name = "integer" if kind is int else "numeric"
    raise MetisFormatError(f"invalid {name} token {token!r}")


def _header(lines: list[str]) -> tuple[int, int, bool, bool]:
    """(n, m, has vertex weights, has edge weights) from the first line."""
    header = lines[0].split() if lines else []
    if not header:
        raise MetisFormatError("missing header line")
    if len(header) not in (2, 3):
        raise MetisFormatError(f"header must be 'n m [fmt]', got {header!r}")
    n, m_header = _read(int, header[0]), _read(int, header[1])
    if n < 1 or m_header < 0:
        raise MetisFormatError(f"header needs n >= 1 and m >= 0, got {header!r}")
    fmt = header[2] if len(header) == 3 else "0"
    if fmt not in ("0", "00", "1", "01", "10", "11"):
        raise MetisFormatError(f"unsupported fmt flag {fmt!r}")
    return n, m_header, fmt in ("10", "11"), fmt in ("1", "01", "11")


def _merge_pairs(src, dst, w, n: int):
    """(edges, weights) of the pairs u < v listed in the file, sorted, the
    weights of parallel entries summed in file order; None unless each
    ordered pair has a reverse with equal entry count and summed weight."""
    # The stable sort keeps file order within a pair; bincount then adds
    # each pair's weights one by one in that order.
    key = src * n + dst
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(new)
    pair_key = key[starts]
    pair_w = np.bincount(np.cumsum(new) - 1, weights=w[order],
                         minlength=starts.size)
    pair_cnt = np.diff(np.append(starts, len(key)))
    pair_u, pair_v = np.divmod(pair_key, n)

    # Pair keys are unique, so any sort of the reverse keys gives the same
    # permutation; on symmetric input it lists each pair's reverse in
    # pair_key order.
    reverse = pair_v * n + pair_u
    back = np.argsort(reverse)
    if not (np.array_equal(reverse[back], pair_key)
            and np.array_equal(pair_cnt[back], pair_cnt)
            and np.array_equal(pair_w[back], pair_w)):
        return None
    half = pair_u < pair_v
    return np.column_stack((pair_u[half], pair_v[half])), pair_w[half]


def _build(rows: list[list[str]], n: int, m: int, has_vweights: bool,
           has_eweights: bool) -> Graph | None:
    """The Graph of the split vertex lines `rows`, or None when any check
    fails. Each token kind is converted in one pass; each check is a mask.
    """
    lens = np.fromiter(map(len, rows), np.int64, n)
    pos = 1 if has_vweights else 0
    step = 2 if has_eweights else 1
    if np.any((lens < pos) | ((lens - pos) % step != 0)):
        return None
    src = np.repeat(np.arange(n, dtype=np.int64), (lens - pos) // step)
    if src.size != 2 * m:
        return None
    if step == 1 and pos == 0:
        id_tokens = chain.from_iterable(rows)
    else:
        id_tokens = chain.from_iterable(
            map(itemgetter(slice(pos, None, step)), rows))
    try:
        ids = np.fromiter(map(int, id_tokens), np.int64, src.size)
        if has_eweights:
            w = np.fromiter(map(float, chain.from_iterable(
                map(itemgetter(slice(pos + 1, None, 2)), rows))),
                np.float64, src.size)
        else:
            w = np.ones(src.size)
        cw = np.ones(n) if not has_vweights else np.fromiter(
            map(float, map(itemgetter(0), rows)), np.float64, n)
    except (ValueError, OverflowError):  # OverflowError: id beyond int64
        return None
    dst = ids - 1
    if not (np.all((ids >= 1) & (ids <= n) & (dst != src))
            and np.all((w > 0) & (w < math.inf))):
        return None
    if not np.all((cw > 0) & (np.floor(cw) == cw) & (cw < WEIGHT_LIMIT)):
        return None
    merged = _merge_pairs(src, dst, w, n)
    if merged is None:
        return None
    try:
        return Graph.from_edges(n, merged[0], edge_weights=merged[1],
                                vertex_weights=cw.astype(np.int64))
    except ValueError:  # the weight-overflow or the 2**53 total rule
        return None


def _raise_first_fault(rows: list[list[str]], n: int, m: int,
                       has_vweights: bool, has_eweights: bool) -> NoReturn:
    """Raise MetisFormatError for the first fault in file order, reading
    `rows` one line and one entry at a time."""
    pos = 1 if has_vweights else 0
    step = 2 if has_eweights else 1
    total = 0
    pairs: dict[tuple[int, int], list[float]] = {}  # 1-based (u, v): weights
    for u, tokens in enumerate(rows, 1):
        if has_vweights:
            if not tokens:
                raise MetisFormatError(f"vertex {u}: missing vertex weight")
            cw = _read(float, tokens[0])
            if not (cw > 0 and cw.is_integer()):
                raise MetisFormatError(
                    f"vertex {u}: vertex weight must be a positive integer")
            if cw >= WEIGHT_LIMIT:
                raise MetisFormatError(
                    f"vertex {u}: vertex weight must be below 2**53")
            total += int(cw)
        if (len(tokens) - pos) % step:
            raise MetisFormatError(f"vertex {u}: ragged adjacency line")
        for k in range(pos, len(tokens), step):
            v = _read(int, tokens[k])
            if not 1 <= v <= n:
                raise MetisFormatError(
                    f"vertex {u}: neighbor id {v} out of range")
            if v == u:
                raise MetisFormatError(f"vertex {u}: self-loop")
            w = _read(float, tokens[k + 1]) if has_eweights else 1.0
            if not 0 < w < math.inf:
                raise MetisFormatError(
                    f"vertex {u}: edge weight must be positive and finite")
            pairs.setdefault((u, v), []).append(w)
    if total >= WEIGHT_LIMIT:
        raise MetisFormatError("vertex weights sum to 2**53 or more")
    entries = sum(map(len, pairs.values()))
    if entries != 2 * m:
        raise MetisFormatError(
            f"header claims {m} edges but file lists {entries} "
            f"adjacency entries (expected {2 * m})")
    for (u, v), ws in pairs.items():
        back = pairs.get((v, u), [])
        if len(back) != len(ws) or sum(back) != sum(ws):  # in file order
            raise MetisFormatError(
                f"asymmetric adjacency between vertices {u} and {v}")
    # Every other rule holds, so Graph.from_edges rejected the weights.
    raise MetisFormatError("edge weights overflow: merged weights and "
                           "total volume must be finite")


def parse_metis(text: str | bytes) -> Graph:
    """Parse METIS adjacency text into a Graph.

    Absent weights default to 1. Parallel entries for the same vertex pair
    are merged by summing weights in file order. Raises MetisFormatError on
    non-ASCII input, asymmetric adjacency, non-integer or out-of-range ids,
    self-loops, vertex weights (or their total) of 2**53 or more, edge
    weight sums that overflow, non-blank lines after the n vertex lines,
    or a header/edge-count mismatch; with several faults, on the first in
    file order.

    Each vertex line is split once. `_build` checks all tokens at once and
    only decides; on input it rejects, or with '_' (always a bad token) in
    a vertex line, `_raise_first_fault` names the first fault.
    """
    if not text.isascii():
        raise MetisFormatError("input is not ASCII")
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "%" in text:
        lines = [ln for ln in lines if not ln.startswith("%")]
    n, m_header, has_vweights, has_eweights = _header(lines)
    body = lines[1:]
    if len(body) < n:
        raise MetisFormatError(f"expected {n} vertex lines, found {len(body)}")
    if any(ln.strip() for ln in body[n:]):
        raise MetisFormatError(f"more than the {n} vertex lines")

    rows = list(map(str.split, body[:n]))
    if "_" not in "\n".join(body[:n]):
        g = _build(rows, n, m_header, has_vweights, has_eweights)
        if g is not None:
            return g
    _raise_first_fault(rows, n, m_header, has_vweights, has_eweights)


def _fmt_weight(x: float) -> str:
    return str(int(x)) if x == int(x) else repr(x)


def serialize_metis(g: Graph) -> str:
    """Render a Graph in METIS adjacency format.

    Weight flags are emitted only when some weight differs from 1, so a
    parse/serialize round trip reproduces the graph exactly.
    """
    has_vw = bool(np.any(g.vertex_c != 1))
    has_ew = bool(np.any(g.edge_w != 1))
    fmt = {(False, False): "", (False, True): " 1",
           (True, False): " 10", (True, True): " 11"}[(has_vw, has_ew)]
    out = [f"{g.n} {g.m}{fmt}"]
    # Local lists, not the graph's cached mirrors: saving a graph must not
    # leave its adjacency cached as Python lists for the graph's lifetime.
    off, nbr = g.adj_off.tolist(), g.adj_nbr.tolist()
    w = g.edge_w[g.adj_eid].tolist()
    for u in range(g.n):
        parts = []
        if has_vw:
            parts.append(str(int(g.vertex_c[u])))
        for i in range(off[u], off[u + 1]):
            parts.append(str(nbr[i] + 1))
            if has_ew:
                parts.append(_fmt_weight(w[i]))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def load_metis(path) -> Graph:
    with open(path, "rb") as f:
        return parse_metis(f.read())


def save_metis(g: Graph, path) -> None:
    with open(path, "w") as f:
        f.write(serialize_metis(g))


def write_partition(blocks, path) -> None:
    """Write one 0-based block id per line; line i is the block of vertex i."""
    with open(path, "w") as f:
        for b in blocks:
            f.write(f"{b}\n")
