"""Tests for the cluster-bench command line interface."""

import argparse
import io
import itertools
import math
import os
import re
import sys

import numpy as np
import pytest

from noisycluster import cli, clusters, oneway, phasenoise, states
from noisycluster.cli import CNOT_INPUT, ResultTable, main, run_experiment
from noisycluster.entanglement import pair_scan_grid
from noisycluster.phasenoise import PhaseDistribution, dephasing_fidelity, overlap_scan


# README's example graph: a 3-site chain with one flipped correlation sign and a noisy edge
README_GRAPH = "site 1\nsite 2\nsite 3\nedge 1 2\nedge 2 3 0.25\nkappa 2 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(*argv):
    """The parsed arguments of a command line, as ``main`` hands them to ``run_experiment``."""
    return cli.build_parser().parse_args([str(arg) for arg in argv])


def options(params):
    """``{"n": 5}`` as the command-line options ``--n 5``."""
    return itertools.chain.from_iterable((f"--{key}", value) for key, value in params.items())


def grid_arg(grid):
    """The ``--grid`` text whose ``np.linspace`` is the evenly spaced ``grid``."""
    return f"{float(grid[0])!r}:{float(grid[-1])!r}:{len(grid)}"


def data_rows(out, header):
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == header
    return [l.split(",") for l in lines[1:]]


# --- exit codes --------------------------------------------------------------


def test_exit_zero_for_help_and_version(capsys):
    for flag in ("--help", "--version"):
        code, out, _ = run_cli(capsys, flag)
        assert code == 0
        assert out


def test_exit_one_for_usage_errors(capsys):
    # missing command, malformed grid, unknown command, missing required flag
    for argv in ((), ("fig-noise", "--grid", "abc"), ("frobnicate",), ("stabilizer-check",)):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert "usage" in err or "error" in err
    # non-finite grid endpoints: rejected before numpy can warn about them
    for argv in (("fig-noise", "--grid", "0:inf:2"), ("fig-cnot", "--grid", "0:nan:2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert "grid endpoints must be finite" in err
        assert "Warning" not in err and "Traceback" not in err + out


def test_exit_two_for_runtime_errors(tmp_path, capsys):
    bad_graph = tmp_path / "bad.graph"
    bad_graph.write_text("site 1\nnonsense here\n")
    nan_graph = tmp_path / "nan.graph"
    nan_graph.write_text("site 1\nsite 2\nedge 1 2 nan\n")
    kappa_graph = tmp_path / "kappa.graph"
    kappa_graph.write_text("site 1\nsite 2\nedge 1 2\nkappa 5 1\n")
    twice_graph = tmp_path / "twice.graph"
    twice_graph.write_text("site 1\nsite 2\nedge 1 2 0.1\nedge 2 1 0.3\n")
    cases = (
        ("stabilizer-check", "--graph", str(tmp_path / "missing.graph")),
        ("stabilizer-check", "--graph", str(bad_graph)),
        ("stabilizer-check", "--graph", str(nan_graph)),
        ("stabilizer-check", "--graph", str(kappa_graph)),
        ("stabilizer-check", "--graph", str(twice_graph)),
        ("fig-dephasing", "--gamma", "nan"),
        ("wire-scan", "--sigma", "nan", "--sizes", "3"),
        # draws overflow to inf; math.cos used to fail with a bare "math domain error"
        ("wire-scan", "--sigma", "1e308", "--samples", "2"),
        ("fig-cnot", "--samples", "1"),
        # draws overflow to inf; they used to print nan rows with a RuntimeWarning
        ("fig-cnot", "--samples", "3", "--grid", "0:1e308:2"),
        ("fig-dephasing", "--nmax", "2"),
        ("fig-noise", "--grid", "1:0:3"),
        ("concurrence-scan", "--n", "0"),
        ("concurrence-scan", "--n", "-3"),
    )
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("cluster-bench:")
        assert "Traceback" not in err + out


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    """A graph file with no sites, and a 100 x 100 grid."""
    path = tmp_path_factory.mktemp("graphs")
    (path / "empty.graph").write_text("# no sites\n")
    (path / "grid100x100.graph").write_text(clusters.format_graph(clusters.grid_graph(100, 100)))
    return path


@pytest.mark.parametrize(
    "code, argv",
    [
        (0, ("fig-dephasing", "--gamma", "inf")),
        (0, ("fig-dephasing", "--nmax", "3", "--gamma", "1e308")),
        (0, ("fig-noise", "--grid", "1e308:1.7e308:3")),
        (0, ("concurrence-scan", "--grid", "1e300:1e301:2")),
        (0, ("fig-cnot", "--samples", "2", "--grid", "0:0:1")),
        (0, ("wire-scan", "--sizes", "100000", "--samples", "2")),
        (0, ("wire-scan", "--samples", "2", "--sizes", "3", "--seed", "9" * 41)),
        (1, ("wire-scan", "--sizes", "")),
        (2, ("concurrence-scan", "--n", "1")),
        (2, ("wire-scan", "--sizes", "2,-1")),
        (2, ("stabilizer-check", "--graph", "{tmp}")),
        (2, ("stabilizer-check", "--graph", "{graphs}/empty.graph")),
        (0, ("stabilizer-check", "--graph", "{graphs}/grid100x100.graph")),
        (2, ("fig-noise", "--out", "{tmp}/missing/table.csv")),
    ],
)
def test_exit_codes_at_extreme_input(tmp_path, graph_files, capsys, code, argv):
    argv = (arg.format(tmp=tmp_path, graphs=graph_files) for arg in argv)
    got, out, err = run_cli(capsys, *argv)
    assert got == code, err
    assert "Traceback" not in err + out
    if code == 0:
        assert err == "" and out
    else:
        assert err.startswith("usage: " if code == 1 else "cluster-bench: ")


def test_overflowing_wire_draws_name_the_phase(capsys):
    code, out, err = run_cli(capsys, "wire-scan", "--sigma", "1e308", "--samples", "2")
    assert (code, out, err) == (2, "", "cluster-bench: edge phases must be finite\n")


@pytest.mark.parametrize("argv", [("fig-cnot", "--seed", "-1"), ("wire-scan", "--seed", "-5")])
def test_negative_seed_is_refused_before_any_draw(capsys, monkeypatch, argv):
    def no_draw(*args):
        raise AssertionError("the Monte Carlo ran")

    monkeypatch.setattr(cli, "gate_fidelity_mc", no_draw)
    monkeypatch.setattr(cli, "wire_fidelity_mc", no_draw)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "cluster-bench: seed must be >= 0\n")


@pytest.mark.parametrize("size", ["0", "-3", "1"])
def test_wire_scan_rejects_short_wires(capsys, size):
    code, out, err = run_cli(capsys, "wire-scan", "--sizes", size, "--samples", "2")
    assert code == 2
    assert err == "cluster-bench: wire needs at least 2 sites\n"
    assert "Traceback" not in err + out


def test_wire_scan_runs_a_5000_site_wire(capsys):
    code, out, err = run_cli(capsys, "wire-scan", "--sizes", "5000", "--samples", "2", "--no-meta")
    assert code == 0, err
    assert err == ""
    [row] = data_rows(out, "N,sigma,mean,stderr")
    assert row[0] == "5000"
    assert math.isfinite(float(row[2])) and 0.0 <= float(row[2]) <= 1.0


def test_cached_parser_keeps_no_state_between_runs(capsys):
    code, out, _ = run_cli(capsys, "concurrence-scan", "--n", "7", "--grid", "0.5:1:2", "--no-meta")
    assert code == 0
    assert {r[0] for r in data_rows(out, "N,sigma,i,j,concurrence,ppt_min_eig")} == {"7"}
    code, out, _ = run_cli(capsys, "concurrence-scan", "--no-meta")
    assert code == 0
    rows = data_rows(out, "N,sigma,i,j,concurrence,ppt_min_eig")
    assert {r[0] for r in rows} == {"5"}
    assert len(rows) == 10 * 10  # default grid of 10 sigmas, C(5, 2) pairs
    assert "# n: 5\n" in out


def test_one_table_declares_every_subcommand():
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    kinds = (
        "fig-noise", "fig-dephasing", "fig-cnot", "concurrence-scan", "wire-scan", "stabilizer-check"
    )
    assert tuple(cli._SUBCOMMANDS) == cli.EXPERIMENT_KINDS == tuple(sub.choices) == kinds


def test_benchmark_tracer_finds_every_name_it_wraps():
    # bench/spans.py patches functions where their callers look them up
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        import spans

        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            assert cli.overlap_avg is not phasenoise.overlap_avg  # wrapped
        finally:
            tracer.unpatch()
    finally:
        sys.path.remove(bench)
    assert cli.overlap_avg is phasenoise.overlap_avg


# --- output format -----------------------------------------------------------


def test_metadata_and_header_layout(capsys):
    code, out, _ = run_cli(capsys, "fig-dephasing", "--nmax", "3")
    assert code == 0
    lines = out.splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    assert any(l.startswith("# experiment: fig-dephasing") for l in meta)
    assert any(l.startswith("# version: noisycluster") for l in meta)
    assert any(l.startswith("# timestamp: ") for l in meta)
    header_idx = len(meta)
    assert lines[header_idx] == "family,N,gamma,fidelity"


def test_no_meta_drops_only_the_timestamp(capsys):
    _, with_stamp, _ = run_cli(capsys, "fig-dephasing", "--nmax", "3")
    _, without, _ = run_cli(capsys, "fig-dephasing", "--nmax", "3", "--no-meta")
    stamped = [l for l in with_stamp.splitlines() if l.startswith("# timestamp")]
    assert len(stamped) == 1
    assert [l for l in without.splitlines() if l.startswith("# timestamp")] == []
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("# timestamp")]
    assert strip(with_stamp) == strip(without)


def test_byte_identical_reruns(capsys):
    for argv in (
        ("wire-scan", "--samples", "10", "--sizes", "2,3", "--no-meta"),
        ("fig-noise", "--grid", "0:6.28:5", "--no-meta"),
    ):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert first


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "fig-dephasing", "--nmax", "3", "--no-meta", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.splitlines()[-1].startswith("square_cluster,3,")


def test_format_cell():
    # the three cell formats of the row templates, against the per-cell chain
    cells = [
        ("%d", True, "1"),
        ("%d", False, "0"),
        ("%d", np.int64(7), "7"),
        ("%.12g", 0.46627046160406, "0.466270461604"),
        ("%.12g", 1.0, "1"),
        ("%.12g", np.float64(0.46627046160406), "0.466270461604"),
        ("%d", 2**70, "1180591620717411303424"),
        ("%s", "ghz", "ghz"),
    ]
    for fmt, value, text in cells:
        assert written(ResultTable(columns=("a",), template=fmt + "\n", rows=[(value,)])) == (
            f"a\n{text}\n"
        )
        assert legacy_format_cell(value) == text
    fields = {f for _, _, template in cli._SUBCOMMANDS.values() for f in template[:-1].split(",")}
    assert fields == {"%d", "%.12g", "%s"}


def legacy_format_cell(value) -> str:
    """The per-cell isinstance chain the row templates replaced."""
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def legacy_rows(table):
    return "".join(",".join(legacy_format_cell(v) for v in row) + "\n" for row in table.rows)


def written(table):
    buf = io.StringIO()
    table.write(buf, with_timestamp=False)
    return buf.getvalue()


def test_row_templates_equal_the_per_cell_chain_on_a_hand_made_table():
    rows = [
        (np.float32(0.1), True, np.int32(-7), 3, "ghz"),
        (math.nan, False, np.int64(2**40), 2.5, "x,{0}"),
        (-0.0, True, 2**70, np.float64(1 / 3), ""),
        (math.inf, False, np.uint8(255), np.int16(-1), "{!r}"),
        (np.float16(-1e-5), 0, -(2**70), -math.inf, np.str_("w")),
    ]
    table = ResultTable(
        columns=("a", "b", "c", "d", "e"),
        template="%.12g,%d,%d,%.12g,%s\n",
        rows=rows,
        metadata={"k": "v"},
    )
    assert written(table) == "# k: v\na,b,c,d,e\n" + legacy_rows(table)
    assert legacy_rows(table).splitlines()[0] == "0.10000000149,1,-7,3,ghz"
    assert legacy_rows(table).splitlines()[2] == "-0,1,1180591620717411303424,0.333333333333,"


def test_long_tables_are_written_whole():
    rows = [(k, k / 7, "s" * (k % 3)) for k in range(2 * cli._WRITE_BLOCK + 5)]
    table = ResultTable(columns=("a", "b", "c"), template="%d,%.12g,%s\n", rows=rows)
    assert written(table) == "a,b,c\n" + legacy_rows(table)


def test_row_templates_equal_the_per_cell_chain_on_every_subcommand(tmp_path):
    graph = tmp_path / "chain.graph"
    graph.write_text("site 1\nsite 2\nsite 3\nedge 1 2\nedge 2 3\nkappa 2 1\n")
    # defaults, except fewer Monte Carlo samples: the row types are the same
    for kind in cli.EXPERIMENT_KINDS:
        table = run_experiment(parse(kind, *(a.format(graph=graph) for a in SMALL_ARGV[kind])))
        assert table.rows
        assert written(table).endswith("\n" + legacy_rows(table))


ONE_POINT = "0.5:0.5:1"


@pytest.mark.parametrize(
    "kind, params",
    [
        ("fig-cnot", {"samples": 2}),
        ("fig-cnot", {"samples": 2, "grid": ONE_POINT}),
        ("wire-scan", {"sizes": "2,3,7", "samples": 2}),
        ("concurrence-scan", {"n": 2}),
        ("concurrence-scan", {"grid": ONE_POINT}),
        ("fig-noise", {"grid": ONE_POINT}),
        ("fig-dephasing", {"nmax": 3}),
    ],
)
def test_row_templates_equal_the_per_cell_chain_off_the_defaults(kind, params):
    table = run_experiment(parse(kind, *options(params)))
    assert table.rows
    assert written(table).endswith("\n" + legacy_rows(table))


def test_row_template_of_a_failed_stabilizer_check(tmp_path):
    # README's graph: the noisy edge moves the eigenvalues of sites 2 and 3 off their signs
    graph = tmp_path / "chain.graph"
    graph.write_text(README_GRAPH)
    table = run_experiment(parse("stabilizer-check", "--graph", graph))
    assert written(table).endswith("\n" + legacy_rows(table))
    assert [row.rsplit(",", 1)[1] for row in legacy_rows(table).splitlines()] == ["1", "0", "0"]


def test_result_table_row_width_checked():
    with pytest.raises(ValueError):
        ResultTable(columns=("a", "b"), template="%d,%.12g\n", rows=[(1,)])
    # one bad row, too short or too long, at the end of a long table
    rows = [(k, k / 2) for k in range(10**4)]
    for bad in ((9999,), (9999, 1.0, 2.0)):
        rows[9999] = bad
        with pytest.raises(ValueError, match="^row width does not match columns$"):
            ResultTable(columns=("a", "b"), template="%d,%.12g\n", rows=rows)


def test_result_table_template_fields_match_columns():
    for template in ("", "%d\n", "%d,%.12g,%s\n"):
        with pytest.raises(ValueError, match="^row template does not match columns$"):
            ResultTable(columns=("a", "b"), template=template, rows=[])
    for _, columns, template in cli._SUBCOMMANDS.values():
        assert template.count("%") == len(columns) and template.endswith("\n")


@pytest.mark.parametrize(
    "template, rows",
    [
        ("%d,%.12g,%s\n", [(1, 0.5, "a"), (2, 1.5, "b")]),
        ("%d,%.12g,%s\n", [(1, 0.5, "a"), (2, 3, "b")]),  # an int in the float column
        ("%d\n", [(1,), (2,)]),  # one column: "%d\n" % [1] would fail
        ("%s\n", [("x",), ("y",)]),
    ],
    ids=[f"rows{k}" for k in range(4)],
)
def test_list_rows_and_tuple_rows_give_the_same_bytes(template, rows):
    columns = tuple("abc"[: len(rows[0])])
    as_tuples = written(ResultTable(columns=columns, template=template, rows=rows))
    assert as_tuples == ",".join(columns) + "\n" + legacy_rows(ResultTable(columns, template, rows))
    lists = [list(r) for r in rows]
    assert written(ResultTable(columns=columns, template=template, rows=lists)) == as_tuples


def test_special_floats_and_wide_ints_in_uniform_columns():
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, np.float16(-1e-5), np.float32(0.1),
              np.float64(1 / 3), 1e300, 5e-324]
    ints = [2**70, -(2**70), 0, True, False, np.int64(-7), np.uint64(2**64 - 1), np.int8(-128),
            np.uint8(255), 1]
    rows = list(zip(floats, ints, map(str, range(10))))
    table = ResultTable(columns=("f", "i", "s"), template="%.12g,%d,%s\n", rows=rows)
    assert written(table) == "f,i,s\n" + legacy_rows(table)
    assert legacy_rows(table).splitlines()[:7] == [
        "nan,1180591620717411303424,0",
        "inf,-1180591620717411303424,1",
        "-inf,0,2",
        "-0,1,3",
        "0,0,4",
        "-1.00135803223e-05,-7,5",
        "0.10000000149,18446744073709551615,6",
    ]


# --- experiment content ------------------------------------------------------


def test_fig_dephasing_rows(capsys):
    code, out, _ = run_cli(capsys, "fig-dephasing", "--nmax", "4", "--no-meta")
    assert code == 0
    rows = data_rows(out, "family,N,gamma,fidelity")
    assert len(rows) == 8
    assert [r[0] for r in rows] == (
        ["w"] * 2 + ["ghz"] * 2 + ["linear_cluster"] * 2 + ["square_cluster"] * 2
    )
    assert [r[1] for r in rows] == ["3", "4"] * 4
    by_key = {(r[0], r[1]): float(r[3]) for r in rows}
    assert by_key[("ghz", "3")] == pytest.approx(0.9151367974909663, abs=1e-12)
    assert by_key[("w", "3")] == pytest.approx(0.9222532272551671, abs=1e-12)
    for (family, n), value in by_key.items():
        assert value == pytest.approx(
            dephasing_fidelity(family, int(n), 0.062), abs=1e-12
        )


def test_fig_dephasing_largest_square(capsys):
    # a 32 x 32 square cluster has 1024 qubits, past a float's 2.0**1023
    code, out, err = run_cli(capsys, "fig-dephasing", "--nmax", "32", "--no-meta")
    assert code == 0, err
    rows = data_rows(out, "family,N,gamma,fidelity")
    assert len(rows) == 4 * 30
    g = math.exp(-0.062)
    closed = {
        "w": lambda n: (1.0 + (n - 1) * g**2) / n,
        "ghz": lambda n: 0.5 * (1.0 + g**n),
        "linear_cluster": lambda n: (0.5 * (1.0 + g)) ** n,
        "square_cluster": lambda n: (0.5 * (1.0 + g)) ** (n * n),
    }
    for family, n, gamma, value in rows:
        assert float(gamma) == 0.062
        assert float(value) == pytest.approx(closed[family](int(n)), rel=1e-11)


def test_exit_two_for_arithmetic_faults(capsys, monkeypatch):
    def overflow(params):
        raise OverflowError("math range error")

    _, columns, template = cli._SUBCOMMANDS["fig-noise"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "fig-noise", (overflow, columns, template))
    code, out, err = run_cli(capsys, "fig-noise")
    assert code == 2
    assert err.startswith("cluster-bench:")
    assert "Traceback" not in err + out


def test_fig_noise_spot_rows(capsys):
    code, out, _ = run_cli(capsys, "fig-noise", "--grid", "0:3.14159:3", "--no-meta")
    assert code == 0
    rows = data_rows(out, "N,lambda,fidelity_of_mean,mean_fidelity")
    assert len(rows) == 8 * 3  # N = 3..10 by 3 lambda points
    assert rows[0] == ["3", "0", "1", "1"]  # no spread, perfect overlap
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0
        assert float(row[3]) >= float(row[2]) - 1e-12  # Jensen gap


def test_concurrence_scan_shape(capsys):
    code, out, _ = run_cli(
        capsys, "concurrence-scan", "--n", "4", "--grid", "0.3:0.9:2", "--no-meta"
    )
    assert code == 0
    rows = data_rows(out, "N,sigma,i,j,concurrence,ppt_min_eig")
    assert len(rows) == 2 * 6  # two sigmas, C(4,2) pairs
    pairs = {(r[2], r[3]) for r in rows}
    assert pairs == {("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")}
    for r in rows:
        if (r[2], r[3]) in {("1", "3"), ("1", "4"), ("2", "4")}:
            assert float(r[4]) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("grid", [None, np.linspace(0.0, 6.3, 997)])
def test_fig_noise_rows_equal_overlap_scan_fields(grid):
    lambdas = np.linspace(0.0, 2.0 * math.pi, 64) if grid is None else grid
    dists = [PhaseDistribution.flat(float(lam)) for lam in lambdas]
    expect = [
        (n, dist.param, res.fidelity_of_mean, res.mean_fidelity)
        for n, results in zip(range(3, 11), overlap_scan(dists, range(3, 11)))
        for dist, res in zip(dists, results)
    ]
    argv = () if grid is None else ("--grid", grid_arg(grid))
    assert run_experiment(parse("fig-noise", *argv)).rows == expect


@pytest.mark.parametrize(
    "n, grid", [(2, None), (5, None), (10, None), (64, np.linspace(0.1, 3.0, 7))]
)
def test_concurrence_scan_rows_equal_pair_scan_grid_fields(n, grid):
    # n = 64 has 2016 pairs, each taking the values of one of ten class states per sigma
    sigmas = [float(s) for s in (np.linspace(0.1, 1.0, 10) if grid is None else grid)]
    scans = pair_scan_grid(n, [PhaseDistribution.gaussian(s) for s in sigmas])
    expect = [
        (n, sigma, *a.pair, a.concurrence, a.ppt_min_eig)
        for sigma, scan in zip(sigmas, scans)
        for a in scan
    ]
    argv = ("--n", n) if grid is None else ("--n", n, "--grid", grid_arg(grid))
    assert run_experiment(parse("concurrence-scan", *argv)).rows == expect


@pytest.mark.parametrize("argv", [("--n", "100000"), ("--n", "5", "--grid", "0:1:100001")])
def test_concurrence_scan_refuses_oversized_tables_up_front(capsys, monkeypatch, argv):
    def no_scan(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(cli, "_pair_grid", no_scan)
    code, out, err = run_cli(capsys, "concurrence-scan", *argv)
    assert code == 2
    assert err.startswith("cluster-bench: concurrence-scan of ") and "rows" in err
    assert out == "" and "Traceback" not in err


def test_concurrence_scan_row_limit_is_inclusive(monkeypatch):
    seen = []

    def empty_scan(n, dists):
        seen.append(len(dists))
        return [], [], []

    monkeypatch.setattr(cli, "_pair_grid", empty_scan)
    # 10 pairs of a 5-site chain
    steps = cli._MAX_SCAN_ROWS // 10
    assert cli._run_concurrence_scan(parse("concurrence-scan", "--grid", f"0:1:{steps}")) == []
    with pytest.raises(ValueError, match="rows"):
        cli._run_concurrence_scan(parse("concurrence-scan", "--grid", f"0:1:{steps + 1}"))
    assert seen == [cli._MAX_SCAN_ROWS // 10]
    # --n 400 on the default grid, which runs, stays under the limit
    assert 400 * 399 // 2 * 10 <= cli._MAX_SCAN_ROWS


def test_fig_noise_refuses_oversized_tables_up_front(capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "_overlap_rows", no_sweep)
    # 8 chain sizes per grid point: one point more than 10**6 rows allow
    code, out, err = run_cli(capsys, "fig-noise", "--grid", "0:1:125001")
    assert code == 2
    assert err.startswith("cluster-bench: fig-noise on 125001 grid points") and "rows" in err
    assert out == "" and "Traceback" not in err


def test_fig_noise_row_limit_is_inclusive(capsys, monkeypatch):
    seen = []

    def empty_sweep(dists, sizes):
        seen.append((len(dists), len(sizes)))
        return []

    monkeypatch.setattr(cli, "_overlap_rows", empty_sweep)
    code, out, err = run_cli(capsys, "fig-noise", "--grid", "0:1:125000", "--no-meta")
    assert (code, err) == (0, "") and out.endswith("N,lambda,fidelity_of_mean,mean_fidelity\n")
    assert seen == [(125000, 8)] and 8 * 125000 == cli._MAX_SCAN_ROWS
    with pytest.raises(ValueError, match="rows"):
        cli._run_fig_noise(parse("fig-noise", "--grid", "0:1:125001"))
    assert len(seen) == 1


@pytest.mark.parametrize("command", ["fig-noise", "fig-cnot", "concurrence-scan"])
def test_grid_step_count_is_refused_before_the_grid_is_built(capsys, monkeypatch, command):
    def no_linspace(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "linspace", no_linspace)
    for steps in ("1000000000", str(cli._MAX_SCAN_ROWS + 1)):
        code, out, err = run_cli(capsys, command, "--grid", f"0:1:{steps}")
        assert code == 1, steps
        assert f"grid of {steps} steps exceeds the {cli._MAX_SCAN_ROWS}-row table limit" in err
        assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("command", ["fig-noise", "fig-cnot", "concurrence-scan"])
@pytest.mark.parametrize("steps", ["0", "-3"])
def test_grid_of_no_steps_is_a_usage_error(capsys, monkeypatch, command, steps):
    def no_linspace(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(np, "linspace", no_linspace)
    code, out, err = run_cli(capsys, command, "--grid", f"0:1:{steps}")
    assert code == 1 and out == ""
    assert err.endswith(f"error: argument --grid: grid needs at least 1 step, got '0:1:{steps}'\n")


def test_grid_step_limit_is_inclusive(monkeypatch):
    seen = []
    monkeypatch.setattr(np, "linspace", lambda start, stop, steps: seen.append(steps) or "grid")
    assert cli._parse_grid(f"0:1:{cli._MAX_SCAN_ROWS}") == "grid"
    assert seen == [cli._MAX_SCAN_ROWS]


def test_fig_dephasing_refuses_oversized_tables_up_front(capsys, monkeypatch):
    def no_fidelity(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(cli, "dephasing_fidelity", no_fidelity)
    # 4 families per N: nmax 250002 gives exactly 10**6 rows
    for nmax in ("250003", "100000000"):
        code, out, err = run_cli(capsys, "fig-dephasing", "--nmax", nmax)
        assert code == 2, nmax
        assert err == (
            f"cluster-bench: fig-dephasing to nmax {nmax} exceeds {cli._MAX_SCAN_ROWS} rows"
            " (4 families x N)\n"
        )
        assert out == ""


def test_fig_dephasing_row_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(cli, "_MAX_SCAN_ROWS", 12)
    assert len(cli._run_fig_dephasing(parse("fig-dephasing", "--nmax", 5))) == 12
    with pytest.raises(ValueError, match="exceeds 12 rows"):
        cli._run_fig_dephasing(parse("fig-dephasing", "--nmax", 6))


@pytest.mark.parametrize("command", ["wire-scan", "fig-cnot"])
@pytest.mark.parametrize("samples", ["1000001", "100000000000000"])
def test_monte_carlo_refuses_too_many_samples_before_any_draw(
    capsys, monkeypatch, command, samples
):
    def no_draw(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(cli, "wire_fidelity_mc", no_draw)
    monkeypatch.setattr(cli, "gate_fidelity_mc", no_draw)
    code, out, err = run_cli(capsys, command, "--samples", samples)
    assert (code, out) == (2, "")
    assert err == f"cluster-bench: Monte Carlo takes at most {cli._MAX_SAMPLES} samples\n"


def test_monte_carlo_sample_limit_is_inclusive(capsys, monkeypatch):
    seen = []

    def stats(n, qubit, dist, samples, seed):
        seen.append(samples)
        return oneway.SampleStats(1.0, 0.0, samples, seed)

    monkeypatch.setattr(cli, "wire_fidelity_mc", stats)
    code, out, err = run_cli(
        capsys, "wire-scan", "--samples", str(cli._MAX_SAMPLES), "--sizes", "3"
    )
    assert (code, err) == (0, "") and seen == [10**6] == [cli._MAX_SAMPLES]


NUMPY_MEMORY_MESSAGE = "Unable to allocate 745. TiB for an array"


@pytest.mark.parametrize(
    "error, message",
    [(MemoryError(NUMPY_MEMORY_MESSAGE), NUMPY_MEMORY_MESSAGE), (MemoryError(), "out of memory")],
)
def test_exit_two_for_memory_errors(capsys, monkeypatch, error, message):
    def allocate(params):
        raise error

    _, columns, template = cli._SUBCOMMANDS["wire-scan"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "wire-scan", (allocate, columns, template))
    code, out, err = run_cli(capsys, "wire-scan")
    assert (code, out, err) == (2, "", f"cluster-bench: {message}\n")


def test_concurrence_scan_at_an_overflowing_sigma(capsys):
    # (k * sigma) ** 2 overflows a float here; the characteristic values are exactly 0
    code, out, err = run_cli(capsys, "concurrence-scan", "--n", "3", "--grid", "0:1e300:3")
    assert (code, err) == (0, "")
    rows = data_rows(out, "N,sigma,i,j,concurrence,ppt_min_eig")
    _, concurrences, ppt = cli._pair_grid(3, [PhaseDistribution.gaussian(100.0)])
    for sigma in ("5e+299", "1e+300"):
        got = [r[4:] for r in rows if r[1] == sigma]
        assert got == [[f"{c:.12g}", f"{p:.12g}"] for c, p in zip(concurrences, ppt)]


def test_fig_cnot_schema(capsys):
    code, out, _ = run_cli(
        capsys, "fig-cnot", "--samples", "2", "--grid", "0.5:1:2", "--no-meta"
    )
    assert code == 0
    rows = data_rows(out, "config,sigma,mean,stderr,n_samples")
    assert [r[0] for r in rows] == ["cnot4"] * 2 + ["cnot15"] * 2 + ["cnot16_bridged"] * 2
    for r in rows:
        assert r[4] == "2"
        assert 0.0 <= float(r[2]) <= 1.0


def test_stabilizer_check_with_kappa(tmp_path, capsys):
    graph = tmp_path / "chain.graph"
    graph.write_text(
        "# three-site chain, one flipped correlation label\n"
        "site 1\nsite 2\nsite 3\n"
        "edge 1 2\nedge 2 3\n"
        "kappa 2 1\n"
    )
    code, out, _ = run_cli(capsys, "stabilizer-check", "--graph", str(graph), "--no-meta")
    assert code == 0
    rows = data_rows(out, "site,eigenvalue,expected,ok")
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert [r[2] for r in rows] == ["1", "-1", "1"]
    assert all(r[3] == "1" for r in rows)


def test_stabilizer_check_runs_past_the_dense_register_cap(tmp_path, capsys):
    # 25 sites: one more than the dense register (states.MAX_PURE_QUBITS) holds
    grid = clusters.grid_graph(5, 5)
    grid = clusters.ClusterGraph(grid.sites, grid.edges, {s: s % 2 for s in grid.sites}, {})
    graph = tmp_path / "grid5x5.graph"
    graph.write_text(clusters.format_graph(grid))
    code, out, err = run_cli(capsys, "stabilizer-check", "--graph", str(graph), "--no-meta")
    assert code == 0, err
    rows = data_rows(out, "site,eigenvalue,expected,ok")
    assert [r[0] for r in rows] == [str(s) for s in grid.sites]
    signs = ["-1" if s % 2 else "1" for s in grid.sites]
    assert [r[1] for r in rows] == [r[2] for r in rows] == signs
    assert all(r[3] == "1" for r in rows)


def test_stabilizer_check_ok_cells_follow_the_library_tolerance(tmp_path, capsys, monkeypatch):
    # README's graph: sites 2 and 3 sit 0.0155 off their signs, through the noisy edge
    graph = tmp_path / "chain.graph"
    graph.write_text(README_GRAPH)
    for atol, cells, passed in ((1e-8, ["1", "0", "0"], False), (0.1, ["1", "1", "1"], True)):
        monkeypatch.setattr(clusters, "STABILIZER_ATOL", atol)
        code, out, _ = run_cli(capsys, "stabilizer-check", "--graph", str(graph), "--no-meta")
        assert code == 0
        assert [r[3] for r in data_rows(out, "site,eigenvalue,expected,ok")] == cells
        assert clusters._cluster_stabilizers(clusters.load_graph(str(graph))).passed is passed


# each subcommand at its defaults, with fewer Monte Carlo samples
SMALL_ARGV = {
    "fig-noise": (),
    "fig-dephasing": (),
    "fig-cnot": ("--samples", "20"),
    "concurrence-scan": (),
    "wire-scan": ("--samples", "20"),
    "stabilizer-check": ("--graph", "{graph}"),
}


@pytest.mark.parametrize("kind", cli.EXPERIMENT_KINDS)
def test_no_subcommand_builds_a_state_vector(tmp_path, capsys, monkeypatch, kind):
    def dense(*args, **kwargs):
        raise AssertionError("the dense engine ran")

    for module in (clusters, oneway):
        monkeypatch.setattr(module, "build_cluster", dense)
    for module in (states, clusters):
        monkeypatch.setattr(module, "init_register", dense)
    # README's graph: a flipped sign and a noisy edge
    graph = tmp_path / "chain.graph"
    graph.write_text(README_GRAPH)
    argv = [arg.format(graph=graph) for arg in SMALL_ARGV[kind]]
    code, out, err = run_cli(capsys, kind, *argv, "--no-meta")
    assert code == 0, err
    assert err == "" and out


# the options whose defaults --help shows, each declared once on its option
SHOWN_DEFAULTS = {
    "fig-noise": ["--grid"],
    "fig-dephasing": ["--gamma", "--nmax"],
    "fig-cnot": ["--seed", "--samples", "--grid"],
    "concurrence-scan": ["--n", "--grid"],
    "wire-scan": ["--seed", "--samples", "--sigma", "--sizes"],
    "stabilizer-check": [],
}


@pytest.mark.parametrize("kind", cli.EXPERIMENT_KINDS)
def test_defaults_written_out_as_help_shows_them_change_nothing(
    tmp_path, capsys, monkeypatch, kind
):
    calls = []

    def draws(first, *args):  # the Monte Carlo's arguments, recorded instead of drawn
        calls.append((getattr(first, "name", first), *args[-3:]))
        return oneway.SampleStats(args[-3].param, 0.0, args[-2], args[-1])

    monkeypatch.setattr(cli, "gate_fidelity_mc", draws)
    monkeypatch.setattr(cli, "wire_fidelity_mc", draws)
    # README's graph, for the one required option
    graph = tmp_path / "chain.graph"
    graph.write_text(README_GRAPH)
    required = ("--graph", str(graph)) if kind == "stabilizer-check" else ()
    code, text, _ = run_cli(capsys, kind, "--help")
    assert code == 0
    help_text = " ".join(text.split())  # argparse wraps at the terminal width
    shown = re.findall(r"(--[a-z-]+) [A-Z]+ (?:(?!--)[^()])*\(default: ([^)]*)\)", help_text)
    assert [option for option, _ in shown] == SHOWN_DEFAULTS[kind]
    code, bare, err = run_cli(capsys, kind, *required, "--no-meta")
    assert (code, err) == (0, "")
    bare_calls, calls[:] = calls[:], []
    code, written_out, err = run_cli(
        capsys, kind, *required, *itertools.chain.from_iterable(shown), "--no-meta"
    )
    assert (code, err) == (0, "")
    assert written_out == bare and calls == bare_calls
    assert len(calls) == {"fig-cnot": 30, "wire-scan": 5}.get(kind, 0)


@pytest.mark.parametrize(
    "kind", ["fig-noise", "fig-dephasing", "concurrence-scan", "stabilizer-check"]
)
def test_exact_subcommands_take_no_seed(tmp_path, capsys, kind):
    graph = tmp_path / "chain.graph"
    graph.write_text("site 1\nsite 2\nedge 1 2\n")
    required = ("--graph", str(graph)) if kind == "stabilizer-check" else ()
    code, out, err = run_cli(capsys, kind, *required, "--seed", "42")
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: cluster-bench {kind} [-h] ")
    assert err.endswith(f"\ncluster-bench {kind}: error: unrecognized arguments: --seed 42\n")
    assert "Traceback" not in err


def test_an_option_of_another_subcommand_is_a_usage_error_of_this_one(capsys):
    code, out, err = run_cli(capsys, "wire-scan", "--nmax", "3")
    assert (code, out) == (1, "")
    assert err.startswith("usage: cluster-bench wire-scan [-h] ")
    assert err.endswith("\ncluster-bench wire-scan: error: unrecognized arguments: --nmax 3\n")
    # an unknown option before the subcommand is still the top-level parser's
    code, out, err = run_cli(capsys, "--no-meta", "fig-noise")
    assert (code, out) == (1, "")
    assert err.startswith("usage: cluster-bench [-h] [--version] command ...\n")
    assert err.endswith("\ncluster-bench: error: unrecognized arguments: --no-meta\n")


# --- python-level entry points -----------------------------------------------


def test_experiment_spec_validation():
    # the checks of the parsed arguments that argparse's types leave to run_experiment
    with pytest.raises(ValueError, match="^grid must be strictly increasing$"):
        run_experiment(parse("fig-noise", "--grid", "1:0.5:2"))
    with pytest.raises(ValueError, match="^Monte Carlo needs at least 2 samples$"):
        run_experiment(parse("fig-cnot", "--samples", 1))


def test_run_experiment_metadata_passthrough():
    table = run_experiment(parse("fig-dephasing", "--gamma", 0.1, "--nmax", 3))
    assert table.metadata["experiment"] == "fig-dephasing"
    assert table.metadata["gamma"] == "0.1"
    assert table.metadata["nmax"] == "3"
    assert "seed" not in table.metadata  # nothing is drawn
    table = run_experiment(parse("wire-scan", "--seed", 7, "--samples", 2, "--sizes", 2))
    assert (table.metadata["seed"], table.metadata["samples"]) == ("7", "2")
    buffer = io.StringIO()
    table.write(buffer, with_timestamp=False)
    assert buffer.getvalue().count("\n") == len(table.rows) + len(table.metadata) + 1


def test_cnot_input_is_normalized():
    assert abs(CNOT_INPUT.amp0) ** 2 + abs(CNOT_INPUT.amp1) ** 2 == pytest.approx(1.0)
    assert CNOT_INPUT.amp0 == 0.5
    assert CNOT_INPUT.amp1 == pytest.approx(math.sqrt(0.75))
