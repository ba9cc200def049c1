import hashlib
import re
from pathlib import Path

import pytest

from treepart import PartitionConfig, generate_scale_free, save_metis
from treepart.cli import build_parser, main
from treepart.mcv import MCV_ROUNDS


def write_graph(tmp_path, name="g.graph", n=100, seed=3):
    g = generate_scale_free(n, 3, seed)
    path = tmp_path / name
    save_metis(g, path)
    return str(path)


def test_parser_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["--graph", "g.graph"])
    cfg = PartitionConfig()
    assert (args.trees, args.epsilon, args.coarsest_size) \
        == (cfg.trees, cfg.epsilon, cfg.coarsest_size)
    assert args.mcv_rounds == MCV_ROUNDS


def test_basic_invocation(tmp_path, capsys):
    path = write_graph(tmp_path)
    csv_path = tmp_path / "out.csv"
    rc = main(["--graph", path, "--runs", "2", "--trees", "5",
               "--coarsest-size", "25", "--seed", "4",
               "--output", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "GEOMEAN" in out
    assert csv_path.exists()
    assert csv_path.read_text().splitlines()[0].startswith("graph,config")


def test_no_timing_byte_identical(tmp_path):
    path = write_graph(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["--graph", path, "--runs", "2", "--trees", "5", "--seed", "9",
            "--coarsest-size", "25", "--no-timing"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_partition_out_single_combo(tmp_path):
    path = write_graph(tmp_path, n=60)
    part = tmp_path / "best.part"
    rc = main(["--graph", path, "--runs", "2", "--trees", "5",
               "--coarsest-size", "25", "--partition-out", str(part)])
    assert rc == 0
    lines = part.read_text().splitlines()
    assert len(lines) == 60
    assert set(lines) == {"0", "1"}


def test_partition_out_multiple_combos(tmp_path):
    path = write_graph(tmp_path, n=60)
    part = tmp_path / "best.part"
    rc = main(["--graph", path, "--rating", "excond", "--rating", "exp2",
               "--runs", "1", "--trees", "5", "--coarsest-size", "25",
               "--partition-out", str(part)])
    assert rc == 0
    assert (tmp_path / "best.part.g.excond5").exists()
    assert (tmp_path / "best.part.g.exp2").exists()


def test_negative_seed_runs(tmp_path, capsys):
    # Seeds go to random.Random, which takes any int; a generator that
    # rejects negative seeds fails here.
    path = write_graph(tmp_path)
    rc = main(["--graph", path, "--runs", "2", "--trees", "5",
               "--coarsest-size", "25", "--seed", "-5", "--no-timing"])
    assert rc == 0
    assert "GEOMEAN" in capsys.readouterr().out


def test_seeded_output_pinned(tmp_path):
    # Acceptance criterion 8's invocation. minCut and avgCut are measured
    # before postprocessing; minMCV, avgMCV and the partition digest also
    # depend on postprocessing's seeded visiting order. A change that moves
    # any of them changes seeded output.
    g = generate_scale_free(1500, 3, 77)
    gpath = tmp_path / "det.graph"
    save_metis(g, gpath)
    csv_path = tmp_path / "det.csv"
    part_path = tmp_path / "det.part"
    rc = main(["--graph", str(gpath), "--runs", "3", "--trees", "8",
               "--seed", "11", "--no-timing", "--output", str(csv_path),
               "--partition-out", str(part_path)])
    assert rc == 0
    assert csv_path.read_text() == (
        "graph,config,minMCV,avgMCV,minCut,avgCut,avgTime,q_minMCV,"
        "q_avgMCV,q_minCut,q_avgCut,q_avgTime\n"
        "det,excond8,465,467.333333333,1022,1057.33333333,,1,1,1,1,\n"
        "GEOMEAN,excond8,,,,,,1,1,1,1,\n")
    assert hashlib.sha256(part_path.read_bytes()).hexdigest() == (
        "6eb545a8474a981ad621eecb4dfe9bfd618f172eb2d2b320032d0f8196d3060a")


def test_duplicate_graph_names_fail(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = write_graph(tmp_path / "a", name="x.graph", n=40)
    b = write_graph(tmp_path / "b", name="x.graph", n=40)
    rc = main(["--graph", a, "--graph", b, "--runs", "1"])
    assert rc == 1
    assert "duplicate graph names: x" in capsys.readouterr().err


def test_missing_graph_fails(tmp_path, capsys):
    rc = main(["--graph", str(tmp_path / "nope.graph"), "--runs", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_malformed_graph_fails(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("3 2\n2\n1 3\n1\n")
    rc = main(["--graph", str(bad), "--runs", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "asymmetric" in err


def test_no_postprocessing_flag(tmp_path):
    path = write_graph(tmp_path)
    rc = main(["--graph", path, "--runs", "1", "--trees", "5",
               "--coarsest-size", "25", "--no-postprocessing"])
    assert rc == 0


@pytest.mark.parametrize("flags, message", [
    (["--coarsest-size", "0", "--no-postprocessing"],
     "coarsest_size must be integers in [2, inf)"),
    (["--coarsest-size", "1"], "coarsest_size must be integers in [2, inf)"),
    (["--epsilon", "nan"], "epsilon must be >= 0"),
    (["--epsilon", "-1"], "epsilon must be >= 0"),
    (["--trees", "0"], "trees must be integers in [1, inf)"),
    (["--mcv-rounds", "-3"], "mcv_rounds must be integers in [0, inf)"),
    (["--jobs", "-2"], "jobs must be integers in [1, inf)"),
])
def test_degenerate_config_fails(tmp_path, capsys, flags, message):
    path = write_graph(tmp_path, n=40)
    rc = main(["--graph", path, "--runs", "1", *flags])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


def test_no_postprocessing_is_mcv_rounds_zero(tmp_path):
    path = write_graph(tmp_path)
    args = ["--graph", path, "--runs", "2", "--trees", "5", "--seed", "9",
            "--coarsest-size", "25", "--no-timing"]
    skip, zero = tmp_path / "skip.csv", tmp_path / "zero.csv"
    assert main(args + ["--no-postprocessing", "--output", str(skip)]) == 0
    assert main(args + ["--mcv-rounds", "0", "--output", str(zero)]) == 0
    assert skip.read_bytes() == zero.read_bytes()
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--graph", path, "--no-postprocessing",
                                   "--mcv-rounds", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_cell_does_not_abort_the_grid(tmp_path, capsys, jobs):
    heavy = tmp_path / "heavy.graph"
    heavy.write_text("3 2 10\n100 2\n1 1 3\n1 2\n")  # vertex 0 tops the cap
    fine = write_graph(tmp_path, name="fine.graph")
    args = ["--graph", str(heavy), "--graph", fine, "--runs", "2",
            "--trees", "5", "--coarsest-size", "25", "--jobs", jobs]
    assert main(args) == 1
    captured = capsys.readouterr()
    rows = [line.split()[:2] for line in captured.out.splitlines()[2:]]
    assert rows == [["fine", "excond5"], ["GEOMEAN", "excond5"],
                    ["heavy", "ERROR:"]]
    assert "error: heavy: excond5: input partition violates the balance " \
           "constraint" in captured.err
    # --mcv-rounds 0 skips the balance check of postprocessing, as
    # --no-postprocessing does.
    for flag in (["--mcv-rounds", "0"], ["--no-postprocessing"]):
        assert main(args + flag) == 0
        rows = [line.split()[0]
                for line in capsys.readouterr().out.splitlines()[2:]]
        assert rows == ["heavy", "fine", "GEOMEAN"]


def test_readme_cli_section_matches_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    options = {opt for action in build_parser()._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert documented == options - {"--help"}
