"""Layer-by-layer and whole-process costs of noisycluster, as one JSON file.

    python3 tools/layer_costs.py BENCH_<n>.json [--repeat 5] [--budget 0.2] [--layers-only]

The per-layer pass times one call of each engine piece in this process: each
piece is called once to warm up, then ``--repeat`` times in a loop of as many
calls as fit in ``--budget`` seconds; the median and minimum per-call times are
recorded. The Monte Carlo pieces, and ``seeded_row``, the seed stream alone,
are reported per sample, from calls of ``MC_SAMPLES`` samples; ``seeded_call``
is one whole call of the stream for two rows of width 15, the seed cost of a
two-sample ``wire_fidelity_mc`` call as the benchmark's ``wire-long`` makes. The
``chain_exact_round`` piece runs the benchmark's own chain-exact commands
(``ChainExact.commands`` in ``bench/workloads.py``). The process pass runs each
``cluster-bench`` subcommand at its defaults, and ``stabilizer-check`` on a
4 x 5 grid as well (``--no-meta``, output discarded), ``--repeat`` times in a
fresh interpreter and records its wall and CPU time. The file also records the
CPU count, the numpy and BLAS versions and the BLAS thread variables, as the
benchmark's ``environment()`` (``bench/run.py``) reports them, and the median
of ``CALIBRATION_CALLS`` calls of the benchmark's ``calibration_s``
(``bench/run.py``) just before and just after the layer pass, with its
reference time ``CALIBRATION_REF_S``: the layer times of two files compare only
as far as these agree. Only the standard library and the package's own
dependencies are used; a piece the imported package does not have is recorded
as null.
"""

from __future__ import annotations

import os

# one BLAS thread unless the caller chose otherwise, set before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import collections
import contextlib
import importlib.util
import io
import json
import math
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402  (bench/workloads.py: the benchmark's rounds)

from noisycluster import cli, clusters, entanglement, oneway, phasenoise, states  # noqa: E402

MC_SAMPLES = 200
CALIBRATION_CALLS = 5
CLI_CALL = "import sys; from noisycluster.cli import main; sys.exit(main(sys.argv[1:]))"
# graph files for the process pass: README's example graph (3-site chain, one flipped
# correlation sign, one noisy edge), and a 4 x 5 grid, whose 20 sites would fill a
# 2^20-amplitude register on the dense engine
GRAPHS = {
    "readme": "site 1\nsite 2\nsite 3\nedge 1 2\nedge 2 3 0.25\nkappa 2 1\n",
    "grid4x5": clusters.format_graph(clusters.grid_graph(4, 5)),
}
# each process entry's key and its cluster-bench argv
PROCESSES = {
    "fig-noise": ("fig-noise",),
    "fig-dephasing": ("fig-dephasing",),
    "fig-cnot": ("fig-cnot",),
    "concurrence-scan": ("concurrence-scan",),
    "wire-scan": ("wire-scan",),
    "stabilizer-check": ("stabilizer-check", "--graph", "{readme}"),
    "stabilizer-check.grid4x5": ("stabilizer-check", "--graph", "{grid4x5}"),
}


def pieces() -> dict:
    """name -> (what, calls per timed call, zero-argument callable or None)."""
    dist = phasenoise.PhaseDistribution
    gauss, flat = dist.gaussian(0.5), dist.flat(1.0)
    sigmas = [dist.gaussian(s) for s in np.linspace(0.1, 1.0, 10)]
    lambdas = [dist.flat(x) for x in np.linspace(0.0, 2.0 * math.pi, 64)]
    chain = clusters.chain_graph(12)
    register = clusters.build_cluster(chain)
    x_basis = states.MeasurementBasis("planar", 0.0)
    rho = entanglement.averaged_pair_state(10, gauss, (3, 7))
    out = {
        "build_cluster": ("12-site chain", 1, lambda: clusters.build_cluster(chain)),
        "measure": ("X on site 1 of a 12-site chain, forced 0", 1,
                    lambda: states.measure(register, 1, x_basis, force=0)),
    }
    for config in oneway.gate_configs():
        inputs = {site: cli.CNOT_INPUT for site in config.input_sites}
        out[f"mc_sample.{config.name}"] = (
            "gate_fidelity_mc, Gaussian 0.5, per sample", MC_SAMPLES,
            lambda c=config, i=inputs: oneway.gate_fidelity_mc(c, i, gauss, MC_SAMPLES, 42),
        )
    out["wire_sample"] = (
        "wire_fidelity_mc, 10 sites, Gaussian 0.5, per sample", MC_SAMPLES,
        lambda: oneway.wire_fidelity_mc(10, states.InputQubit.plus(), gauss, MC_SAMPLES, 42),
    )
    seeded_rows = getattr(phasenoise, "_seeded_rows", None)
    out["seeded_row"] = (
        "phasenoise._seeded_rows, Gaussian 0.5, width 19, per row", MC_SAMPLES,
        seeded_rows
        and (lambda: collections.deque(seeded_rows(gauss, 19, MC_SAMPLES, 42), maxlen=0)),
    )
    out["seeded_call"] = (
        "phasenoise._seeded_rows, Gaussian 0.5, two rows of width 15, per call", 1,
        seeded_rows and (lambda: collections.deque(seeded_rows(gauss, 15, 2, 42), maxlen=0)),
    )
    out["overlap_avg"] = ("flat 1.0, 10 sites", 1, lambda: phasenoise.overlap_avg(flat, 10))
    out["averaged_pair_state"] = ("10 sites, pair (3, 7), Gaussian 0.5", 1,
                                  lambda: entanglement.averaged_pair_state(10, gauss, (3, 7)))
    out["concurrence"] = ("that pair state", 1, lambda: entanglement.concurrence(rho))
    # the two CLI tables, as arrays and as public result objects
    pair_grid = getattr(entanglement, "_pair_grid", None)
    out["_pair_grid"] = ("10 sites, the 10-sigma concurrence-scan grid", 1,
                         pair_grid and (lambda: pair_grid(10, sigmas)))
    out["pair_scan_grid"] = ("the same, as PairAnalysis objects", 1,
                             lambda: entanglement.pair_scan_grid(10, sigmas))
    for n in (64, 400):
        out[f"_pair_grid.n{n}"] = (
            f"{n} sites, the 10-sigma grid: {n * (n - 1) // 2 * 10:,} pair values "
            "from 100 class states on a 6-site chain", 1,
            pair_grid and (lambda n=n: pair_grid(n, sigmas)))
    overlap_rows = getattr(phasenoise, "_overlap_rows", None)
    out["_overlap_rows"] = ("the fig-noise table: 64 widths, sizes 3..10", 1,
                            overlap_rows and (lambda: overlap_rows(lambdas, range(3, 11))))
    out["overlap_scan"] = ("the same, as OverlapResult objects", 1,
                           lambda: phasenoise.overlap_scan(lambdas, range(3, 11)))
    # the CSV writer on two CLI tables, written into memory
    for name, argv in (("write.fig_noise", ["fig-noise"]),
                       ("write.concurrence_scan_n10", ["concurrence-scan", "--n", "10"])):
        table = cli.run_experiment(cli.build_parser().parse_args(argv))
        out[name] = (f"ResultTable.write of the {argv[0]} table ({len(table.rows)} rows)", 1,
                     lambda t=table: t.write(io.StringIO(), with_timestamp=False))
    out["chain_exact_round"] = ("the five chain-exact argvs through cli.main, into memory", 1,
                                chain_exact_round)
    return out


def chain_exact_round() -> None:
    for argv in workloads.ChainExact.commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--no-meta"])
        if code != 0:
            raise RuntimeError(f"cluster-bench {' '.join(argv)} exited {code}")


def time_call(fn, per_call: int, repeat: int, budget: float) -> dict:
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    loops = max(1, int(budget / first)) if first > 0 else 1
    runs = []
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        runs.append((time.perf_counter() - start) * 1e3 / (loops * per_call))
    return {"ms": statistics.median(runs), "min_ms": min(runs), "loops": loops, "repeat": repeat}


def bench_run():
    """``bench/run.py`` as a module. Loading it pins the BLAS thread variables; they are
    put back as they were, so the file records the threads this process runs with."""
    saved = {var: os.environ[var] for var in THREAD_VARS}
    path = os.path.join(ROOT, "bench", "run.py")
    spec = importlib.util.spec_from_file_location("bench_run", path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        os.environ.update(saved)
    return module


def calibration_s(run) -> float:
    return statistics.median(run.calibration_s() for _ in range(CALIBRATION_CALLS))


def timed(piece: tuple, repeat: int, budget: float) -> dict:
    """A piece's entry: what it is and, if the package has it, its per-call times."""
    what, per_call, fn = piece
    entry = {"what": what, "ms": None}
    if fn is not None:
        entry.update(time_call(fn, per_call, repeat, budget))
    return entry


def layer_pass(repeat: int, budget: float) -> dict:
    return {name: timed(piece, repeat, budget) for name, piece in pieces().items()}


def process_pass(repeat: int) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, f"{name}.graph") for name in GRAPHS}
        for name, text in GRAPHS.items():
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        # interpreter start-up and the package import alone, then each subcommand
        commands = {"import": [sys.executable, "-c", "import noisycluster.cli"]}
        for name, argv in PROCESSES.items():
            argv = [a.format(**paths) for a in argv]
            argv += ["--no-meta", "--out", os.devnull]
            commands[name] = [sys.executable, "-c", CLI_CALL, *argv]
        for name, cmd in commands.items():
            walls, cpus = [], []
            for _ in range(repeat):
                cpu0, start = workloads.children_cpu_s(), time.perf_counter()
                subprocess.run(cmd, env=env, check=True)
                walls.append(time.perf_counter() - start)
                cpus.append(workloads.children_cpu_s() - cpu0)
            out[name] = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                         "wall_s_runs": walls}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per entry (default 5)")
    parser.add_argument("--budget", type=float, default=0.2,
                        help="seconds per timed run of a layer (default 0.2)")
    parser.add_argument("--layers-only", action="store_true", help="skip the process pass")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    run = bench_run()
    record = {
        "env": run.environment(),  # after bench_run has put the thread variables back
        "settings": {"repeat": args.repeat, "budget_s": args.budget, "mc_samples": MC_SAMPLES},
    }
    before = calibration_s(run)
    record["layers"] = layer_pass(args.repeat, args.budget)
    record["calibration"] = {
        "ref_s": run.CALIBRATION_REF_S,
        "before_s": before,
        "after_s": calibration_s(run),
        "calls": CALIBRATION_CALLS,
    }
    if not args.layers_only:
        record["processes"] = process_pass(args.repeat)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
