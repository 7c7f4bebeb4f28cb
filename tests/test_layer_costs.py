"""Smoke tests of tools/layer_costs.py: one per-layer pass into a temporary file and its
speed calibration."""

import importlib.util
import json
import os
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "layer_costs.py"


def load_tool(monkeypatch):
    # the tool pins BLAS threads in os.environ at import; keep that inside the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    spec = importlib.util.spec_from_file_location("layer_costs", TOOL)
    layer_costs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_costs)
    return layer_costs


def test_layer_pass_writes_every_piece(tmp_path, monkeypatch):
    layer_costs = load_tool(monkeypatch)
    out = tmp_path / "bench.json"
    assert layer_costs.main([str(out), "--repeat", "1", "--budget", "0", "--layers-only"]) == 0
    record = json.loads(out.read_text())
    assert record["env"]["nproc"] >= 1 and record["env"]["numpy"]
    assert set(record["env"]["threads"]) == set(layer_costs.THREAD_VARS)
    assert set(record) == {"env", "settings", "layers", "calibration"}  # no process pass
    assert set(record["layers"]) == {
        "build_cluster",
        "measure",
        "mc_sample.cnot4",
        "mc_sample.cnot15",
        "mc_sample.cnot16_bridged",
        "wire_sample",
        "seeded_row",
        "overlap_avg",
        "averaged_pair_state",
        "concurrence",
        "_pair_grid",
        "_pair_grid.n64",
        "_pair_grid.n400",
        "pair_scan_grid",
        "_overlap_rows",
        "overlap_scan",
        "write.fig_noise",
        "write.concurrence_scan_n10",
        "chain_exact_round",
    }
    for name, entry in record["layers"].items():
        assert entry["ms"] > 0 and entry["loops"] == 1 and entry["repeat"] == 1, name
    calibration = record["calibration"]
    assert set(calibration) == {"ref_s", "before_s", "after_s", "calls"}
    assert calibration["ref_s"] == layer_costs.bench_run().CALIBRATION_REF_S
    assert calibration["calls"] == layer_costs.CALIBRATION_CALLS
    assert calibration["before_s"] > 0 and calibration["after_s"] > 0


def test_calibration_keeps_the_recorded_thread_variables(tmp_path, monkeypatch):
    # bench/run.py sets every BLAS thread variable to 1 when it loads
    layer_costs = load_tool(monkeypatch)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    out = tmp_path / "bench.json"
    assert layer_costs.main([str(out), "--repeat", "1", "--budget", "0", "--layers-only"]) == 0
    assert json.loads(out.read_text())["env"]["threads"]["OMP_NUM_THREADS"] == "3"
    assert os.environ["OMP_NUM_THREADS"] == "3"
