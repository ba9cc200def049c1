"""Reader and writer for the METIS/Chaco adjacency format.

Header line is "n m [fmt]" where fmt is a flag pair: 1 = edge weights
present, 10 = vertex weights present, 11 = both. Vertex ids in the file are
1-based; comment lines start with '%'. Each undirected edge must appear in
both endpoints' adjacency lines with the same weight.

The input must be ASCII, and lines end only at '\n', as METIS reads them;
a '\r' before it is whitespace. Vertex weights, and their total, must be
below 2**53, so they are exact in float64 and in `balance_cap`.

`parse_metis` splits each line once and converts the tokens with Python's
own int() and float(), so the token grammar is Python's (minus digit-group
underscores). Every other step is an array pass over all adjacency
entries: range, self-loop and weight checks are boolean masks, and the
symmetry check reduces the stable-sorted directed keys u*n + v to one
(summed weight, count) per ordered pair and matches each pair with its
reverse.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import contains, itemgetter

import numpy as np

from .graph import Graph

# Vertex weights and their total must stay below this: float64 holds every
# integer below it, so weights read as floats and `balance_cap`'s
# ceil(total / 2) are exact, and the int64 total cannot wrap.
WEIGHT_LIMIT = 2 ** 53


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


def _convert(kind, tokens: list[str], underscores: bool):
    """(values, invalid): kind() of each token as an int64 or float64 array
    and the mask of tokens _read would reject. A token that fails, or an
    integer beyond int64, leaves a 0 in `values`."""
    dtype = np.int64 if kind is int else np.float64
    try:
        values = np.fromiter(map(kind, tokens), dtype, len(tokens))
        invalid = np.zeros(len(tokens), dtype=bool)
    except (ValueError, OverflowError):
        # Faulty input only: convert token by token to find the bad ones.
        values = np.zeros(len(tokens), dtype)
        invalid = np.zeros(len(tokens), dtype=bool)
        for i, tok in enumerate(tokens):
            try:
                values[i] = kind(tok)
            except ValueError:
                invalid[i] = True
            except OverflowError:
                pass
    if underscores:
        invalid |= np.fromiter(map(contains, tokens, repeat("_")), bool,
                               len(tokens))
    return values, invalid


def _first_fault(masks):
    """(index, check) of the first True over `masks`, ties going to the
    earlier mask; None when all are False."""
    hits = [(int(i[0]), check) for check, mask in enumerate(masks)
            if (i := np.flatnonzero(mask)[:1]).size]
    return min(hits, default=None)


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
    """(u, v, weight) per ordered pair (u, v) listed in the file, sorted by
    (u, v), the weights of its parallel entries summed in file order.

    Raises MetisFormatError unless each pair has a reverse with the same
    entry count and summed weight; it names the failing pair listed first.
    """
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
        back = np.searchsorted(pair_key, reverse)
        back[back == starts.size] = 0
        ok = ((pair_key[back] == reverse) & (pair_cnt[back] == pair_cnt)
              & (pair_w[back] == pair_w))
        bad = np.flatnonzero(~ok)
        i = bad[np.argmin(order[starts[bad]])]
        raise MetisFormatError(
            f"asymmetric adjacency between vertices {pair_u[i] + 1} and "
            f"{pair_v[i] + 1}")
    return pair_u, pair_v, pair_w


def parse_metis(text: str | bytes) -> Graph:
    """Parse METIS adjacency text into a Graph.

    Absent weights default to 1. Parallel entries for the same vertex pair
    are merged by summing weights in file order. Raises MetisFormatError on
    non-ASCII input, asymmetric adjacency, non-integer or out-of-range ids,
    self-loops, vertex weights (or their total) of 2**53 or more, edge
    weight sums that overflow, non-blank lines after the n vertex lines,
    or a header/edge-count mismatch; with several faults, on the first in
    file order.

    Each vertex line is split once, and the tokens of all lines are
    converted in one pass per kind (ids, edge weights, vertex weights).
    The per-line and per-entry checks are masks over those arrays.
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
    lens = np.fromiter(map(len, rows), np.int64, n)
    pos = 1 if has_vweights else 0
    step = 2 if has_eweights else 1
    underscores = "_" in text
    # Faults rank as (line, 0, check) for a vertex weight, (line, 1) for a
    # broken line and (line, 2, entry, check) for an adjacency entry; the
    # least is raised. The first line lacking its vertex weight or with an
    # odd id/weight count ends the pass over the entries.
    faults = []
    broken = np.flatnonzero((lens < pos) | ((lens - pos) % step != 0))
    stop = int(broken[0]) if broken.size else n
    if stop < n:
        what = ("missing vertex weight" if lens[stop] < pos
                else "ragged adjacency line")
        faults.append(((stop, 1), f"vertex {stop + 1}: {what}"))

    if has_vweights:
        vw_tokens = list(map(itemgetter(0), rows[:stop + (stop < n and
                                                         lens[stop] > 0)]))
        cw, invalid = _convert(float, vw_tokens, underscores)
        whole = (cw > 0) & np.isfinite(cw) & (np.floor(cw) == cw)
        fault = _first_fault((invalid, ~whole, cw >= WEIGHT_LIMIT))
        if fault is not None:
            u, check = fault
            faults.append(((u, 0, check), (
                f"invalid numeric token {vw_tokens[u]!r}",
                f"vertex {u + 1}: vertex weight must be a positive integer",
                f"vertex {u + 1}: vertex weight must be below 2**53",
            )[check]))

    src = np.repeat(np.arange(stop, dtype=np.int64),
                    (lens[:stop] - pos) // step)
    if step == 1 and pos == 0:
        id_tokens = list(chain.from_iterable(rows[:stop]))
    else:
        id_tokens = list(chain.from_iterable(
            map(itemgetter(slice(pos, None, step)), rows[:stop])))
    ids, invalid = _convert(int, id_tokens, underscores)
    masks = [invalid, (ids < 1) | (ids > n), ids - 1 == src]
    if has_eweights:
        w_tokens = list(chain.from_iterable(
            map(itemgetter(slice(pos + 1, None, 2)), rows[:stop])))
        w, invalid = _convert(float, w_tokens, underscores)
        masks += [invalid, ~((w > 0) & (w < math.inf))]
    else:
        w = np.ones(len(id_tokens))
    fault = _first_fault(masks)
    if fault is not None:
        k, check = fault
        u = int(src[k])
        if check == 0:
            msg = f"invalid integer token {id_tokens[k]!r}"
        elif check == 1:
            msg = (f"vertex {u + 1}: neighbor id {int(id_tokens[k])} "
                   "out of range")
        elif check == 2:
            msg = f"vertex {u + 1}: self-loop"
        elif check == 3:
            msg = f"invalid numeric token {w_tokens[k]!r}"
        else:
            msg = f"vertex {u + 1}: edge weight must be positive and finite"
        faults.append(((u, 2, k, check), msg))
    if faults:
        raise MetisFormatError(min(faults)[1])

    vertex_c = None
    if has_vweights:
        if math.fsum(cw.tolist()) >= WEIGHT_LIMIT:  # exact for integers
            raise MetisFormatError("vertex weights sum to 2**53 or more")
        vertex_c = cw.astype(np.int64)
    if len(ids) != 2 * m_header:
        raise MetisFormatError(
            f"header claims {m_header} edges but file lists {len(ids)} "
            f"adjacency entries (expected {2 * m_header})")

    u, v, w = _merge_pairs(src, ids - 1, w, n)
    half = u < v
    try:
        return Graph.from_edges(n, np.column_stack((u[half], v[half])),
                                edge_weights=w[half], vertex_weights=vertex_c)
    except ValueError as exc:  # all but the weight-overflow rule hold here
        raise MetisFormatError(str(exc)) from None


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
