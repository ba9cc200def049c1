import random

import pytest

from treepart import (MetisFormatError, generate_scale_free, parse_metis,
                      save_metis, serialize_metis, write_partition)
from tests.conftest import random_connected_graph


def test_unweighted_path():
    g = parse_metis("3 2\n2\n1 3\n2\n")
    assert (g.n, g.m) == (3, 2)
    assert list(zip(g.edge_u, g.edge_v)) == [(0, 1), (1, 2)]
    assert list(g.edge_w) == [1.0, 1.0]
    assert list(g.vertex_c) == [1, 1, 1]


def test_edge_weighted_path():
    g = parse_metis("3 2 1\n2 5\n1 5 3 7\n2 7\n")
    assert list(g.edge_w) == [5.0, 7.0]


def test_asymmetric_adjacency_rejected():
    with pytest.raises(MetisFormatError, match="asymmetric"):
        parse_metis("3 2\n2\n1 3\n1\n")


def test_asymmetric_weight_rejected():
    with pytest.raises(MetisFormatError, match="asymmetric"):
        parse_metis("2 1 1\n2 5\n1 6\n")


def test_vertex_weights():
    g = parse_metis("2 1 10\n4 2\n6 1\n")
    assert list(g.vertex_c) == [4, 6]
    assert g.m == 1


def test_both_weights_and_comments():
    text = "% a comment\n2 1 11\n% another\n3 2 9\n5 1 9\n"
    g = parse_metis(text)
    assert list(g.vertex_c) == [3, 5]
    assert list(g.edge_w) == [9.0]


def test_bytes_input():
    g = parse_metis(b"2 1\n2\n1\n")
    assert g.m == 1


def test_neighbor_out_of_range():
    with pytest.raises(MetisFormatError, match="out of range"):
        parse_metis("2 1\n2\n3\n")


def test_self_loop_rejected():
    with pytest.raises(MetisFormatError, match="self-loop"):
        parse_metis("2 2\n1 2\n1\n")


def test_edge_count_mismatch():
    with pytest.raises(MetisFormatError, match="header claims"):
        parse_metis("3 3\n2\n1 3\n2\n")


def test_parallel_entries_merge():
    # Two parallel 1-2 edges listed on both sides; header counts them.
    g = parse_metis("2 2 1\n2 5 2 3\n1 3 1 5\n")
    assert g.m == 1
    assert g.edge_w[0] == 8.0


def test_round_trip_random_graphs():
    rng = random.Random(31)
    for _ in range(30):
        g = random_connected_graph(rng)
        h = parse_metis(serialize_metis(g))
        assert h.n == g.n and h.m == g.m
        assert list(h.vertex_c) == list(g.vertex_c)
        assert list(h.edge_u) == list(g.edge_u)
        assert list(h.edge_v) == list(g.edge_v)
        assert list(h.edge_w) == list(g.edge_w)


def test_saving_caches_nothing_on_the_graph(tmp_path):
    # The graph's list mirrors would live as long as the graph: about 6 MB
    # on generate_scale_free(10^4, 4), kept by any caller that saves a
    # graph and then goes on using it.
    graphs = [generate_scale_free(300, 3, 1),
              random_connected_graph(random.Random(5), 30, 40)]
    for g in graphs:
        before = dict(vars(g))
        serialize_metis(g)
        save_metis(g, tmp_path / "g.graph")
        assert vars(g).keys() == before.keys()
        assert all(vars(g)[k] is v for k, v in before.items())


def test_serialize_unit_weights_omits_flags(p3):
    assert serialize_metis(p3).splitlines()[0] == "3 2"


def test_write_partition(tmp_path):
    path = tmp_path / "out.part"
    write_partition([0, 1, 1, 0], path)
    assert path.read_text() == "0\n1\n1\n0\n"


@pytest.mark.parametrize("token", ["2.7", "2.0", "nan", "inf", "x"])
def test_non_integer_neighbor_id_rejected(token):
    with pytest.raises(MetisFormatError, match="invalid integer"):
        parse_metis(f"2 1\n{token}\n1\n")


def test_non_blank_line_after_vertex_lines_rejected():
    with pytest.raises(MetisFormatError, match="more than the 2"):
        parse_metis("2 1\n2\n1\n1\n")
    assert parse_metis("2 1\n2\n1\n\n   \n").m == 1


@pytest.mark.parametrize("header", ["a 1", "2 b", "2.0 1", "0 0", "-1 0",
                                    "2 -1"])
def test_invalid_header_rejected(header):
    with pytest.raises(MetisFormatError, match="header|invalid integer"):
        parse_metis(f"{header}\n2\n1\n")


@pytest.mark.parametrize("weight", ["nan", "inf", "0", "-1"])
def test_non_positive_or_non_finite_edge_weight_rejected(weight):
    with pytest.raises(MetisFormatError, match="edge weight"):
        parse_metis(f"2 1 1\n2 {weight}\n1 {weight}\n")


def test_underscore_in_neighbor_id_rejected():
    # int() would read "0_2" as 2, i.e. the edge {1, 2}.
    with pytest.raises(MetisFormatError, match="invalid integer"):
        parse_metis("2 1\n0_2\n1\n")


def test_underscore_in_weight_rejected():
    # float() would read "1_0" as 10.
    with pytest.raises(MetisFormatError, match="invalid numeric"):
        parse_metis("2 1 1\n2 1_0\n1 1_0\n")


@pytest.mark.parametrize("weight", ["nan", "inf", "1.5", "0"])
def test_invalid_vertex_weight_rejected(weight):
    with pytest.raises(MetisFormatError, match="vertex weight"):
        parse_metis(f"2 1 10\n{weight} 2\n1 1\n")
