"""The array-form METIS reader against the scalar oracle, plus the input
grammar, the weight bounds and the serialize/parse round trip."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treepart import (Graph, MetisFormatError, balance_cap, parse_metis,
                      serialize_metis)
from tests.conftest import (cut_corpus, interleaved_best,
                            random_connected_graph, scalar_parse_metis)
from tests.test_spantree import family_graph


def same_graph(a: Graph, b: Graph) -> bool:
    """Equal n and bit-identical edge and vertex arrays, dtypes included."""
    return a.n == b.n and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.edge_u, b.edge_u), (a.edge_v, b.edge_v),
                     (a.edge_w, b.edge_w), (a.vertex_c, b.vertex_c)))


def matches_oracle(text) -> bool:
    """Assert parse_metis does what the oracle does: the same graph or a
    MetisFormatError with the same message. True iff the text parsed."""
    try:
        want = scalar_parse_metis(text)
    except MetisFormatError as exc:
        with pytest.raises(MetisFormatError) as got:
            parse_metis(text)
        assert str(got.value) == str(exc), text
        return False
    assert same_graph(parse_metis(text), want), text
    return True


def adjacency_text(n, lines, fmt="", header_m=None, nl="\n"):
    """METIS text from per-vertex token lists (strings, already 1-based)."""
    m = sum(len(t) for t in lines) if header_m is None else header_m
    body = [" ".join(tokens) for tokens in lines]
    return nl.join([f"{n} {m}{fmt}"] + body) + nl


def random_multigraph_text(rng: random.Random, n: int, vweights: bool,
                           eweights: bool, parallel: int = 3) -> str:
    """Symmetric METIS text with parallel entries, neighbours in random
    order and the same per-pair weight order on both sides."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < 0.4]
    entries = [[] for _ in range(n)]  # (sort key, id token, weight token)
    for u, v in pairs:
        weights = [repr(rng.choice((0.1, 0.2, 0.3, 1.5, 7.0, 1e-3)))
                   for _ in range(rng.randint(1, parallel))]
        for a, b in ((u, v), (v, u)):
            keys = sorted(rng.random() for _ in weights)
            entries[a] += [(k, str(b + 1), w) for k, w in zip(keys, weights)]
    lines = []
    for u in range(n):
        tokens = [str(rng.randint(1, 9))] if vweights else []
        for _, t, w in sorted(entries[u]):
            tokens += [t, w] if eweights else [t]
        lines.append(tokens)
    fmt = {(False, False): "", (False, True): " 1", (True, False): " 10",
           (True, True): " 11"}[(vweights, eweights)]
    m = sum(len(e) for e in entries) // 2
    return adjacency_text(n, lines, fmt, header_m=m)


def weighted_graph(rng: random.Random, vweights: bool, eweights: bool):
    g = random_connected_graph(rng, n_lo=1, n_hi=15)
    edges = list(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    ew = [rng.choice((0.1, 0.25, 3.0, 1e-7, 123.456)) for _ in edges]
    vw = [rng.randint(1, 10 ** 6) for _ in range(g.n)]
    return Graph.from_edges(g.n, edges, ew if eweights else None,
                            vw if vweights else None)


def valid_texts():
    """Seeded corpus of well-formed METIS texts."""
    texts = [serialize_metis(g) for g, _ in cut_corpus()]
    rng = random.Random(505)
    for vweights in (False, True):
        for eweights in (False, True):
            for _ in range(40):
                texts.append(serialize_metis(
                    weighted_graph(rng, vweights, eweights)))
                texts.append(random_multigraph_text(
                    rng, rng.randint(1, 9), vweights, eweights))
    return texts


def test_criterion1_corpus_and_weighted_graphs_match_oracle():
    texts = valid_texts()
    assert all(matches_oracle(t) for t in texts)
    assert all(matches_oracle(t.encode("ascii")) for t in texts[::10])


@pytest.mark.parametrize("text", [
    "1 0\n\n", "1 0 10\n7\n", "2 1\n2\n1\n", "2 1 11\n3 2 0.5\n4 1 0.5\n",
    "3 0\n\n\n\n", "3 1\n\n3\n2\n", "3 3\n2 3\n1 3\n1 2\n",
    "% lead\n3 2\n% inside\n2\n1 3\n%\n2\n% tail\n",
    "3 2\r\n2\r\n1 3\r\n2\r\n", "3 2 1\r\n2 5\r\n1 5 3 7\r\n2 7",
    "4 1\n\n3\n2\n\n", "3 2\n  2  \n\t1\t3 \n2\n\n  \n",
    "3 2 10\n1 2\n\t5 1 3\n1 2\n",
])
def test_edge_cases_match_oracle(text):
    assert matches_oracle(text)


def test_parallel_entries_sum_in_file_order():
    # numpy's add.reduce (and reduceat) sums 8 or more float64s pairwise,
    # which rounds these ten weights differently from a left-to-right sum.
    ws = ["0.3", "0.5", "0.4", "0.6", "0.6", "0.2", "0.1", "0.8", "0.3",
          "0.3"]
    in_order = 0.0
    for w in ws:
        in_order += float(w)
    assert in_order != np.add.reduce(np.array(ws, dtype=float))
    line = [tok for w in ws for tok in ("2", w)]
    text = adjacency_text(2, [line, [t if t != "2" else "1" for t in line]],
                          " 1", header_m=len(ws))
    g = parse_metis(text)
    assert g.m == 1 and g.edge_w[0] == in_order
    assert matches_oracle(text)
    rng = random.Random(9)
    for _ in range(30):
        assert matches_oracle(random_multigraph_text(
            rng, rng.randint(2, 6), rng.random() < 0.5, True, parallel=12))


def mutate(rng: random.Random, text: str, kind: str) -> str:
    """`text` with one fault of `kind` at a random place."""
    lines = text.split("\n")[:-1]
    header = lines[0].split()
    n, m = int(header[0]), int(header[1])
    fmt = header[2] if len(header) == 3 else ""
    pos = 1 if fmt in ("10", "11") else 0
    step = 2 if fmt in ("1", "11") else 1
    rows = [ln.split() for ln in lines[1:]]
    full = [u for u in range(n) if len(rows[u]) > pos + step - 1]
    if not full and kind in ("drop", "weight", "id_zero", "id_high", "self",
                             "id_huge", "id_token"):
        kind = "header_m"

    def entry():
        u = rng.choice(full)
        return u, pos + step * rng.randrange((len(rows[u]) - pos) // step)

    if kind == "header_m":
        header[1] = str(m + rng.choice((-1, 1)))
    elif kind == "extra_line":
        rows.append(["1"])
    elif kind == "drop":
        u, i = entry()
        del rows[u][i:i + step]
    elif kind == "ragged":
        u = rng.randrange(n)
        rows[u].insert(rng.randint(pos, len(rows[u])), "1")
    elif kind == "vertex_weight":
        rows[rng.randrange(n)][0] = rng.choice(
            ("0", "-3", "1.5", "nan", "inf", "x", "1_0", "1e300"))
    elif kind == "weight":
        u, i = entry()
        rows[u][i + 1] = rng.choice(("-1", "0", "inf", "nan", "1_0", "w"))
    else:
        u, i = entry()
        rows[u][i] = {"id_zero": "0", "id_high": str(n + 1),
                      "self": str(u + 1),
                      "id_huge": "99999999999999999999999",
                      "id_token": rng.choice(("2.7", "nan", "0_2", "1e3"))
                      }[kind]
    return "\n".join([" ".join(header)] + [" ".join(r) for r in rows]) + "\n"


KINDS = ["header_m", "extra_line", "drop", "ragged", "id_zero", "id_high",
         "self", "id_huge", "id_token"]


def mutation_corpus(faults: int):
    rng = random.Random(f"mutations-{faults}")
    base = [t for t in valid_texts() if int(t.split()[1]) > 0]
    out = []
    for text in rng.sample(base, 250):
        fmt = text.split("\n")[0].split()[2:]
        kinds = KINDS + (["vertex_weight"] if fmt in (["10"], ["11"]) else [])
        kinds += ["weight"] if fmt in (["1"], ["11"]) else []
        for kind in kinds:
            text_k = text
            for _ in range(faults):
                text_k = mutate(rng, text_k, kind)
            out.append(text_k)
        mixed = text
        for _ in range(faults):
            mixed = mutate(rng, mixed, rng.choice(kinds))
        out.append(mixed)
    return out


def test_single_faults_raise_the_oracle_message():
    corpus = mutation_corpus(1)
    assert len(corpus) > 2000
    assert not any(matches_oracle(t) for t in corpus)


def test_first_of_several_faults_is_named():
    # Two or three faults of mixed kinds: the message names the first in
    # file order, as the one-entry-at-a-time oracle finds it.
    messages = set()
    for faults in (2, 3):
        for text in mutation_corpus(faults):
            matches_oracle(text)
            try:
                scalar_parse_metis(text)
            except MetisFormatError as exc:
                messages.add(re.sub(r"'.*'|\d+", "", str(exc)))
    assert len(messages) >= 8


@pytest.mark.parametrize("text, message", [
    ("2 1 10\nx 3\n1 1\n", "invalid numeric token 'x'"),
    ("2 1 11\nx 2 1 2\n1 2 1\n", "invalid numeric token 'x'"),
    ("2 1 11\n0 2 1 2\n1 2 1\n",
     "vertex 1: vertex weight must be a positive integer"),
    ("3 1 10\n1 3\n\n1 0\n", "vertex 2: missing vertex weight"),
    ("3 1 1\n2 -1\n\n1 1 1\n",
     "vertex 1: edge weight must be positive and finite"),
    ("2 1\n3 x\n1\n", "vertex 1: neighbor id 3 out of range"),
    ("2 1 1\n2 x 5 1\n1 1\n", "invalid numeric token 'x'"),
    ("2 1 1\n1 x\n2 1\n", "vertex 1: self-loop"),
    ("3 2\n2\n1 3 3\n2 9\n", "vertex 3: neighbor id 9 out of range"),
    ("3 9\n2\n1 3\n2 1_0\n", "invalid integer token '1_0'"),
    ("3 3 1\n2 2 2 2 3 4\n1 4\n1 2 1 2\n",
     "asymmetric adjacency between vertices 1 and 2"),
])
def test_first_fault_in_file_order(text, message):
    assert not matches_oracle(text)
    with pytest.raises(MetisFormatError, match=re.escape(message) + "$"):
        parse_metis(text)


def test_asymmetry_names_first_pair_in_file_order():
    # Neither listed pair has its reverse. (1, 3) comes first in the file,
    # (1, 2) first in key order.
    text = "3 1\n3 2\n\n\n"
    assert not matches_oracle(text)
    with pytest.raises(MetisFormatError, match="between vertices 1 and 3"):
        parse_metis(text)
    for text in ("2 2 1\n2 1 2 1\n1 2\n", "2 1 1\n2 0.1\n1 0.10000001\n",
                 "3 2\n2 2\n1\n\n", "4 3\n2 3 4\n1\n1\n4\n"):
        assert not matches_oracle(text)


def test_huge_neighbor_id_is_out_of_range():
    with pytest.raises(MetisFormatError,
                       match="neighbor id 99999999999999999999999 out of"):
        parse_metis("2 1\n99999999999999999999999\n1\n")
    assert not matches_oracle("2 1\n-99999999999999999999999\n1\n")


@pytest.mark.parametrize("text", [
    "1 0 10\n1e300\n",
    "2 1 10\n4611686018427387904 2\n4611686018427387904 1\n",
    "2 1 10\n9007199254740992 2\n1 1\n",
])
def test_vertex_weight_of_2_53_rejected(text):
    with pytest.raises(MetisFormatError, match=r"below 2\*\*53"):
        parse_metis(text)
    assert not matches_oracle(text)


def test_vertex_weight_total_of_2_53_rejected():
    half = 2 ** 52
    with pytest.raises(MetisFormatError, match=r"sum to 2\*\*53"):
        parse_metis(f"2 1 10\n{half} 2\n{half} 1\n")
    g = parse_metis(f"2 1 10\n{half} 2\n{half - 1} 1\n")
    assert int(g.vertex_c.sum()) == 2 ** 53 - 1
    assert balance_cap(g, 0.0) == half


@pytest.mark.parametrize("text", [
    "2 2 1\n2 1e308 2 1e308\n1 1e308 1 1e308\n",     # merged weight
    "3 2 1\n2 1e308\n1 1e308 3 1e308\n2 1e308\n",   # total volume
])
def test_edge_weight_overflow_rejected(text):
    with pytest.raises(MetisFormatError, match="edge weights overflow"):
        parse_metis(text)
    assert not matches_oracle(text)
    # Halved, the same files parse to finite weights.
    g = parse_metis(text.replace("1e308", "4e307"))
    assert matches_oracle(text.replace("1e308", "4e307"))
    assert np.isfinite(g.total_volume)


@pytest.mark.parametrize("text", [
    "2 1\n٢\n1\n",                  # Arabic-Indic digit two
    "3 2\n2 1 3\n2\n",              # line separator
    "2 1\n2\n1\n% café\n",
    b"2 1\n2\n1\n% caf\xc3\xa9\n",
    b"2 1\n\xff\n1\n",
])
def test_non_ascii_input_rejected(text):
    with pytest.raises(MetisFormatError, match="not ASCII"):
        parse_metis(text)


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_lines_end_only_at_newline(sep):
    # Split at sep as well, the first text would be the path 1-2-3. Read
    # by '\n' lines it has two vertex lines, and in the second one vertex
    # 1 lists itself.
    for text, match in ((f"3 2\n2{sep}1 3\n2\n", "expected 3 vertex lines"),
                        (f"3 2\n2{sep}1 3\n2\n2\n", "vertex 1: self-loop")):
        with pytest.raises(MetisFormatError, match=match):
            parse_metis(text)
        assert not matches_oracle(text)


def test_crlf_equals_lf_and_lone_cr_is_no_line_break():
    lf = parse_metis("3 2 1\n2 5\n1 5 3 7\n2 7\n")
    assert same_graph(parse_metis("3 2 1\r\n2 5\r\n1 5 3 7\r\n2 7\r\n"), lf)
    with pytest.raises(MetisFormatError, match="header must be"):
        parse_metis("3 2\r2\r1 3\r2\r")


@st.composite
def family_graphs(draw):
    """Paths, stars, cliques, ladders and paths with chords, with unit,
    integer or float edge weights and unit or heavy vertex weights."""
    family = draw(st.sampled_from(["path", "star", "clique", "ladder",
                                   "chords"]))
    n = draw(st.integers(1, 3) | st.integers(1, 24))
    if family == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "star":
        edges = [(0, i) for i in range(1, n)]
    elif family == "clique":
        n = min(n, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif family == "ladder":
        k = max(1, n // 2)
        n = 2 * k
        edges = ([(i, i + 1) for i in range(k - 1)]
                 + [(k + i, k + i + 1) for i in range(k - 1)]
                 + [(i, k + i) for i in range(k)])
    else:
        edges = [(i, i + 1) for i in range(n - 1)]
        if n > 2:
            pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            edges += [p for p in draw(st.lists(pair, max_size=2 * n))
                      if abs(p[0] - p[1]) > 1]
    weights = {
        "unit": st.just(1.0),
        "integer": st.integers(1, 10 ** 9).map(float),
        "float": st.floats(1e-300, 1e300, allow_nan=False,
                           allow_infinity=False),
    }[draw(st.sampled_from(["unit", "integer", "float"]))]
    ew = [draw(weights) for _ in edges]
    vw = None
    if draw(st.booleans()):
        vw = draw(st.lists(st.integers(1, 2 ** 53 // 32 - 1),
                           min_size=n, max_size=n))
    return Graph.from_edges(n, edges, ew, vw)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(family_graphs())
def test_parse_serialize_round_trip_property(g):
    text = serialize_metis(g)
    assert same_graph(parse_metis(text), g)
    assert same_graph(scalar_parse_metis(text), g)


@pytest.mark.parametrize("name", ["path", "star", "caterpillar"])
def test_parse_metis_scales_linearly(name):
    # The reader does a constant amount of array work per token, so
    # doubling n should about double its time; quadratic work would read
    # 4. The two sizes are timed interleaved, so a shift in machine speed
    # reaches both.
    rng = random.Random(name)
    texts = [serialize_metis(family_graph(name, n, rng))
             for n in (5 * 10 ** 4, 10 ** 5)]
    best = interleaved_best([lambda t=t: parse_metis(t) for t in texts], 5)
    assert best[1] / best[0] <= 3.0, best
