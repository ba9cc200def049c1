import math

import pytest

from treepart import (PartitionConfig, config_label, emit_csv, emit_table,
                      generate_scale_free, geometric_mean, run_experiment,
                      save_metis)


def make_report(tmp_path, graphs=1, ratings=("excond",), runs=3, seed=5,
                n=120):
    paths = []
    for i in range(graphs):
        g = generate_scale_free(n, 3, 100 + i)
        path = tmp_path / f"g{i}.graph"
        save_metis(g, path)
        paths.append(str(path))
    configs = [PartitionConfig(rating=r, trees=6, coarsest_size=30)
               for r in ratings]
    return run_experiment(paths, configs, runs, seed)


def test_geometric_mean_basics():
    assert geometric_mean([0.5, 2.0]) == pytest.approx(1.0)
    assert geometric_mean([4.0]) == pytest.approx(4.0)
    assert math.isnan(geometric_mean([]))
    vals = [0.7, 1.3, 0.9, 2.4]
    expect = math.exp(sum(math.log(v) for v in vals) / len(vals))
    assert abs(geometric_mean(vals) - expect) < 1e-12


def test_min_avg_aggregation(tmp_path):
    report = make_report(tmp_path, runs=3)
    s = report.stats[0]
    mcvs = [r.mcv for r in report.records]
    assert s.values["minMCV"] == min(mcvs)
    assert s.values["avgMCV"] == pytest.approx(sum(mcvs) / len(mcvs))
    assert s.values["minCut"] <= s.values["avgCut"]


def test_reference_quotients_are_one(tmp_path):
    report = make_report(tmp_path, graphs=2)
    for s in report.stats:
        q = report.quotients[(s.graph, s.config)]
        for ind in ("minMCV", "avgMCV", "minCut", "avgCut"):
            assert q[ind] == pytest.approx(1.0)
    gm = report.geo_means[report.reference]
    assert gm["avgMCV"] == pytest.approx(1.0)


def test_two_ratings_sorted_rows(tmp_path):
    report = make_report(tmp_path, graphs=2, ratings=("excond", "exp2"))
    keys = [(s.graph, s.config) for s in report.stats]
    assert keys == [("g0", "excond6"), ("g0", "exp2"),
                    ("g1", "excond6"), ("g1", "exp2")]
    assert report.reference == "excond6"


def test_config_label():
    assert config_label(PartitionConfig(rating="excond", trees=20)) == "excond20"
    assert config_label(PartitionConfig(rating="exalg")) == "exalg"
    assert config_label(PartitionConfig(rating="exp2")) == "exp2"


def test_csv_deterministic_without_timing(tmp_path):
    a = emit_csv(make_report(tmp_path, graphs=2, runs=2), timing=False)
    b = emit_csv(make_report(tmp_path, graphs=2, runs=2), timing=False)
    assert a == b
    assert a.splitlines()[0] == ("graph,config,minMCV,avgMCV,minCut,avgCut,"
                                 "avgTime,q_minMCV,q_avgMCV,q_minCut,"
                                 "q_avgCut,q_avgTime")


def test_csv_reemission_identical(tmp_path):
    report = make_report(tmp_path)
    assert emit_csv(report, timing=False) == emit_csv(report, timing=False)


def test_empty_graph_list_gives_header_only():
    report = run_experiment([], [PartitionConfig()], 1, 0)
    text = emit_csv(report)
    assert len(text.splitlines()) == 1


def test_single_combo_single_row(tmp_path):
    report = make_report(tmp_path)
    lines = emit_csv(report, timing=False).splitlines()
    assert len(lines) == 3  # header + data row + geomean row
    assert lines[1].startswith("g0,excond6,")
    assert lines[2].startswith("GEOMEAN,excond6,")


def test_disconnected_graph_reported(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("4 2\n2\n1\n4\n3\n")  # two disjoint edges
    report = run_experiment([str(bad)], [PartitionConfig()], 1, 0)
    assert report.errors and "connected" in report.errors[0][1]
    assert not report.stats
    assert "ERROR" in emit_table(report)


def test_duplicate_graph_names_rejected(tmp_path):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "x.graph")
        save_metis(generate_scale_free(40, 2, 1), paths[-1])
    with pytest.raises(ValueError, match="duplicate graph names: x"):
        run_experiment([str(p) for p in paths], [PartitionConfig()], 1, 0)


def test_duplicate_config_labels_rejected(tmp_path):
    path = tmp_path / "x.graph"
    save_metis(generate_scale_free(40, 2, 1), path)
    configs = [PartitionConfig(rating="exp2", epsilon=0.03),
               PartitionConfig(rating="exp2", epsilon=0.5)]
    with pytest.raises(ValueError, match="duplicate config labels: exp2"):
        run_experiment([str(path)], configs, 1, 0)


def test_best_blocks_are_recorded(tmp_path):
    report = make_report(tmp_path)
    blocks = report.best_blocks[("g0", "excond6")]
    assert len(blocks) == 120
    assert set(blocks) == {0, 1}


def test_parallel_jobs_match_serial(tmp_path):
    serial = make_report(tmp_path, graphs=2, runs=2)
    g0 = tmp_path / "g0.graph"
    g1 = tmp_path / "g1.graph"
    configs = [PartitionConfig(rating="excond", trees=6, coarsest_size=30)]
    parallel = run_experiment([str(g0), str(g1)], configs, 2, 5, jobs=2)
    assert emit_csv(serial, timing=False) == emit_csv(parallel, timing=False)


HEAVY = "3 2 10\n100 2\n1 1 3\n1 2\n"  # vertex 0 outweighs the balance cap


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_cell_reported_while_others_finish(tmp_path, jobs):
    heavy = tmp_path / "heavy.graph"
    heavy.write_text(HEAVY)
    fine = tmp_path / "fine.graph"
    save_metis(generate_scale_free(120, 3, 100), fine)
    cfg = PartitionConfig(trees=6, coarsest_size=30)
    report = run_experiment([str(heavy), str(fine)], [cfg], 2, 5, jobs=jobs)
    assert [(s.graph, s.config) for s in report.stats] == [("fine", "excond6")]
    assert list(report.best_blocks) == [("fine", "excond6")]
    assert {r.graph for r in report.records} == {"fine"}
    assert report.errors == [
        ("heavy", "excond6: input partition violates the balance constraint")]
    assert emit_csv(report, timing=False) == emit_csv(
        run_experiment([str(fine)], [cfg], 2, 5), timing=False)
    # Without postprocessing nothing checks the balance, so the heavy
    # graph gets its row.
    report = run_experiment([str(heavy), str(fine)], [cfg], 2, 5,
                            mcv_rounds=0, jobs=jobs)
    assert [s.graph for s in report.stats] == ["heavy", "fine"]
    assert report.errors == []


def test_errors_list_load_faults_then_cells_in_grid_order(tmp_path):
    paths = []
    for name, text in (("h1", HEAVY), ("bad", "3 2\n2\n1 3\n1\n"),
                       ("h2", HEAVY), ("split", "4 2\n2\n1\n4\n3\n")):
        paths.append(tmp_path / f"{name}.graph")
        paths[-1].write_text(text)
    paths.insert(2, tmp_path / "missing.graph")
    configs = [PartitionConfig(rating="exp2"), PartitionConfig(trees=4)]
    report = run_experiment([str(p) for p in paths], configs, 1, 0)
    assert not report.stats and not report.best_blocks
    assert [name for name, _ in report.errors[:2]] == ["bad", "missing"]
    assert "asymmetric" in report.errors[0][1]
    assert "No such file" in report.errors[1][1]
    assert report.errors[2:] == [
        (name, f"{label}: {message}")
        for name, message in (
            ("h1", "input partition violates the balance constraint"),
            ("h2", "input partition violates the balance constraint"),
            ("split", "input graph must be connected"))
        for label in ("exp2", "excond4")]
