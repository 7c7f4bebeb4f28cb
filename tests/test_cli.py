"""Tests for the cluster-bench command line interface."""

import io
import math
import os
import sys

import numpy as np
import pytest

from noisycluster import cli, phasenoise
from noisycluster.cli import (
    CNOT_INPUT,
    ExperimentError,
    ExperimentSpec,
    ResultTable,
    _format_cell,
    main,
    run_experiment,
)
from noisycluster.phasenoise import dephasing_fidelity


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    cases = (
        ("stabilizer-check", "--graph", str(tmp_path / "missing.graph")),
        ("stabilizer-check", "--graph", str(bad_graph)),
        ("stabilizer-check", "--graph", str(nan_graph)),
        ("fig-dephasing", "--gamma", "nan"),
        ("wire-scan", "--sigma", "nan", "--sizes", "3"),
        ("fig-cnot", "--samples", "1"),
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


@pytest.mark.parametrize("size", ["0", "-3"])
def test_wire_scan_rejects_short_wires(capsys, size):
    code, out, err = run_cli(capsys, "wire-scan", "--sizes", size, "--samples", "2")
    assert code == 2
    assert err == "cluster-bench: wire needs at least 2 sites\n"
    assert "Traceback" not in err + out


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
    assert _format_cell(True) == "1"
    assert _format_cell(False) == "0"
    assert _format_cell(np.int64(7)) == "7"
    assert _format_cell(0.46627046160406) == "0.466270461604"
    assert _format_cell(1.0) == "1"
    assert _format_cell(np.float64(0.46627046160406)) == "0.466270461604"
    assert _format_cell(2**70) == "1180591620717411303424"
    assert _format_cell("ghz") == "ghz"


def test_result_table_row_width_checked():
    with pytest.raises(ValueError):
        ResultTable(columns=("a", "b"), rows=[(1,)])


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

    monkeypatch.setitem(cli._RUNNERS, "fig-noise", overflow)
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


# --- python-level entry points -----------------------------------------------


def test_experiment_spec_validation():
    with pytest.raises(ExperimentError):
        ExperimentSpec(kind="nope", params={})
    with pytest.raises(ExperimentError):
        ExperimentSpec(kind="fig-noise", params={"grid": np.array([])})
    with pytest.raises(ExperimentError):
        ExperimentSpec(kind="fig-noise", params={"grid": np.array([1.0, 0.5])})
    with pytest.raises(ExperimentError):
        ExperimentSpec(kind="fig-cnot", params={"samples": 1})


def test_run_experiment_metadata_passthrough():
    table = run_experiment(
        ExperimentSpec(kind="fig-dephasing", params={"gamma": 0.1, "nmax": 3, "seed": 7})
    )
    assert table.metadata["experiment"] == "fig-dephasing"
    assert table.metadata["gamma"] == "0.1"
    assert table.metadata["nmax"] == "3"
    assert table.metadata["seed"] == "7"
    buffer = io.StringIO()
    table.write(buffer, with_timestamp=False)
    assert buffer.getvalue().count("\n") == len(table.rows) + len(table.metadata) + 1


def test_cnot_input_is_normalized():
    assert abs(CNOT_INPUT.amp0) ** 2 + abs(CNOT_INPUT.amp1) ** 2 == pytest.approx(1.0)
    assert CNOT_INPUT.amp0 == 0.5
    assert CNOT_INPUT.amp1 == pytest.approx(math.sqrt(0.75))
