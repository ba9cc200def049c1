"""Routing between the METIS reader's array pass and its scalar pass: '_'
outside the vertex lines stays legal, and a fault deep in a large file is
named as the one-entry-at-a-time oracle names it."""

import random

import pytest

from treepart import MetisFormatError, generate_scale_free, parse_metis
from treepart import serialize_metis
from tests.conftest import scalar_parse_metis
from tests.test_metis_parse import same_graph


def test_underscore_in_comment_parses():
    text = "% my_graph\n2 1\n2\n1\n"
    assert same_graph(parse_metis(text), scalar_parse_metis(text))


@pytest.fixture(scope="module")
def sf_lines():
    return serialize_metis(generate_scale_free(10_000, 4, 1)).split("\n")


@pytest.mark.parametrize("fault", ["self-loop", "out of range"])
def test_fault_near_end_of_large_file(sf_lines, fault):
    rng = random.Random(fault)
    lines = list(sf_lines)
    n = int(lines[0].split()[0])
    i = rng.randrange(len(lines) - 101, len(lines) - 1)  # last 100 vertices
    tokens = lines[i].split()
    tokens[rng.randrange(len(tokens))] = str(i if fault == "self-loop"
                                              else n + 1)
    lines[i] = " ".join(tokens)
    text = "\n".join(lines)
    with pytest.raises(MetisFormatError) as want:
        scalar_parse_metis(text)
    assert fault in str(want.value)
    with pytest.raises(MetisFormatError) as got:
        parse_metis(text)
    assert str(got.value) == str(want.value)
