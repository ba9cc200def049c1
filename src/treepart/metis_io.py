"""Reader and writer for the METIS/Chaco adjacency format.

Header line is "n m [fmt]" where fmt is a flag pair: 1 = edge weights
present, 10 = vertex weights present, 11 = both. Vertex ids in the file are
1-based; comment lines start with '%'. Each undirected edge must appear in
both endpoints' adjacency lines with the same weight.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph


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


def parse_metis(text: str | bytes) -> Graph:
    """Parse METIS adjacency text into a Graph.

    Absent weights default to 1. Parallel entries for the same vertex pair
    are merged by summing weights. Raises MetisFormatError on asymmetric
    adjacency, non-integer or out-of-range ids, self-loops, non-blank lines
    after the n vertex lines, or a header/edge-count mismatch.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    lines = [ln for ln in text.splitlines() if not ln.startswith("%")]
    if not lines or not lines[0].split():
        raise MetisFormatError("missing header line")

    header = lines[0].split()
    if len(header) not in (2, 3):
        raise MetisFormatError(f"header must be 'n m [fmt]', got {header!r}")
    n, m_header = _read(int, header[0]), _read(int, header[1])
    if n < 1 or m_header < 0:
        raise MetisFormatError(f"header needs n >= 1 and m >= 0, got {header!r}")
    fmt = header[2] if len(header) == 3 else "0"
    if fmt not in ("0", "00", "1", "01", "10", "11"):
        raise MetisFormatError(f"unsupported fmt flag {fmt!r}")
    has_vweights = fmt in ("10", "11")
    has_eweights = fmt in ("1", "01", "11")

    body = lines[1:]
    if len(body) < n:
        raise MetisFormatError(f"expected {n} vertex lines, found {len(body)}")
    if any(ln.strip() for ln in body[n:]):
        raise MetisFormatError(f"more than the {n} vertex lines")

    vertex_c = np.ones(n, dtype=np.int64)
    # Directed view of the file: per ordered pair, summed weight and entry
    # count, so symmetry can be verified even with parallel entries.
    directed: dict[tuple[int, int], list[float]] = {}
    entries = 0
    for u in range(n):
        tokens = body[u].split()
        pos = 0
        if has_vweights:
            if not tokens:
                raise MetisFormatError(f"vertex {u + 1}: missing vertex weight")
            cw = _read(float, tokens[0])
            if cw <= 0 or not cw.is_integer():
                raise MetisFormatError(
                    f"vertex {u + 1}: vertex weight must be a positive integer")
            vertex_c[u] = int(cw)
            pos = 1
        step = 2 if has_eweights else 1
        if (len(tokens) - pos) % step:
            raise MetisFormatError(f"vertex {u + 1}: ragged adjacency line")
        while pos < len(tokens):
            t = _read(int, tokens[pos])
            if t < 1 or t > n:
                raise MetisFormatError(
                    f"vertex {u + 1}: neighbor id {t} out of range")
            v = t - 1
            if v == u:
                raise MetisFormatError(f"vertex {u + 1}: self-loop")
            w = _read(float, tokens[pos + 1]) if has_eweights else 1.0
            if not 0.0 < w < math.inf:
                raise MetisFormatError(
                    f"vertex {u + 1}: edge weight must be positive and finite")
            acc = directed.setdefault((u, v), [0.0, 0])
            acc[0] += w
            acc[1] += 1
            entries += 1
            pos += step

    if entries != 2 * m_header:
        raise MetisFormatError(
            f"header claims {m_header} edges but file lists {entries} "
            f"adjacency entries (expected {2 * m_header})")
    for (u, v), (w, cnt) in directed.items():
        back = directed.get((v, u))
        if back is None or back[1] != cnt or back[0] != w:
            raise MetisFormatError(
                f"asymmetric adjacency between vertices {u + 1} and {v + 1}")

    pairs = [(u, v) for (u, v) in directed if u < v]
    weights = [directed[p][0] for p in pairs]
    return Graph.from_edges(n, pairs, edge_weights=weights,
                            vertex_weights=vertex_c)


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
    off, nbr, w = g.adj_off_list, g.adj_nbr_list, g.adj_w_list
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
