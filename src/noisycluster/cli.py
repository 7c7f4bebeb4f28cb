"""Command-line experiment runner emitting the analysis tables as CSV.

Each subcommand builds an ``ExperimentSpec``, runs it through
``run_experiment`` and writes a ``ResultTable``: ``#``-prefixed metadata
lines, a column header, then comma-separated rows with floats at 12
significant digits. With a fixed seed the output is byte-identical across
runs; the only non-deterministic line, the timestamp, is dropped under
``--no-meta``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Mapping, Sequence, TextIO

import numpy as np

from . import __version__
from .clusters import _twisted_cluster, load_graph, verify_stabilizers
from .entanglement import pair_scan
from .oneway import gate_configs, gate_fidelity_mc, wire_fidelity_mc
# overlap_avg is unused here; bench/spans.py looks it up on this module to trace it
from .phasenoise import PhaseDistribution, dephasing_fidelity, overlap_avg, overlap_scan  # noqa: F401
from .states import InputQubit

EXPERIMENT_KINDS = (
    "fig-noise",
    "fig-dephasing",
    "fig-cnot",
    "concurrence-scan",
    "wire-scan",
    "stabilizer-check",
)

# Fig 2(c) input amplitudes: control and target both a = 0.5, b = sqrt(0.75)
CNOT_INPUT = InputQubit(0.5, math.sqrt(0.75))

_SCHEMAS = {
    "fig-noise": ("N", "lambda", "fidelity_of_mean", "mean_fidelity"),
    "fig-dephasing": ("family", "N", "gamma", "fidelity"),
    "fig-cnot": ("config", "sigma", "mean", "stderr", "n_samples"),
    "concurrence-scan": ("N", "sigma", "i", "j", "concurrence", "ppt_min_eig"),
    "wire-scan": ("N", "sigma", "mean", "stderr"),
    "stabilizer-check": ("site", "eigenvalue", "expected", "ok"),
}


class ExperimentError(RuntimeError):
    """Invalid experiment parameters or a failure while running one."""


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: Mapping[str, Any]
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ExperimentError(f"unknown experiment kind {self.kind!r}")
        grid = self.params.get("grid")
        if grid is not None:
            if len(grid) == 0:
                raise ExperimentError("grid must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ExperimentError("grid must be strictly increasing")
        samples = self.params.get("samples")
        if samples is not None and samples < 2:
            raise ExperimentError("Monte Carlo needs at least 2 samples")


@dataclass
class ResultTable:
    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match columns")

    def write(self, out: TextIO, with_timestamp: bool = True) -> None:
        for key, value in self.metadata.items():
            out.write(f"# {key}: {value}\n")
        if with_timestamp:
            stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
            out.write(f"# timestamp: {stamp}\n")
        out.write(",".join(self.columns) + "\n")
        for row in self.rows:
            out.write(",".join(_format_cell(v) for v in row) + "\n")


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):  # most cells; bool is not a float
        return f"{float(value):.12g}"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# --- experiment implementations ---------------------------------------------


def _run_fig_noise(params: Mapping[str, Any]) -> list[tuple]:
    grid = params.get("grid")
    if grid is None:
        grid = np.linspace(0.0, 2.0 * math.pi, 64)
    dists = [PhaseDistribution.flat(float(lam)) for lam in grid]
    return [
        (n, dist.param, res.fidelity_of_mean, res.mean_fidelity)
        for n, results in zip(range(3, 11), overlap_scan(dists, range(3, 11)))
        for dist, res in zip(dists, results)
    ]


def _run_fig_dephasing(params: Mapping[str, Any]) -> list[tuple]:
    gamma = float(params.get("gamma", 0.062))
    nmax = int(params.get("nmax", 25))
    if nmax < 3:
        raise ExperimentError("nmax must be >= 3")
    rows = []
    for family in ("w", "ghz", "linear_cluster", "square_cluster"):
        for n in range(3, nmax + 1):
            rows.append((family, n, gamma, dephasing_fidelity(family, n, gamma)))
    return rows


def _run_fig_cnot(params: Mapping[str, Any]) -> list[tuple]:
    grid = params.get("grid")
    if grid is None:
        grid = np.linspace(0.1, 1.0, 10)
    samples = int(params.get("samples", 2000))
    seed = int(params.get("seed", 42))
    rows = []
    for config in gate_configs():
        inputs = {site: CNOT_INPUT for site in config.input_sites}
        for sigma in grid:
            stats = gate_fidelity_mc(
                config, inputs, PhaseDistribution.gaussian(float(sigma)), samples, seed
            )
            rows.append((config.name, float(sigma), stats.mean, stats.stderr, stats.n_samples))
    return rows


def _run_concurrence_scan(params: Mapping[str, Any]) -> list[tuple]:
    n = int(params.get("n", 5))
    grid = params.get("grid")
    if grid is None:
        grid = np.linspace(0.1, 1.0, 10)
    rows = []
    for sigma in grid:
        for analysis in pair_scan(n, PhaseDistribution.gaussian(float(sigma))):
            i, j = analysis.pair
            rows.append((n, float(sigma), i, j, analysis.concurrence, analysis.ppt_min_eig))
    return rows


def _run_wire_scan(params: Mapping[str, Any]) -> list[tuple]:
    sizes = params.get("sizes", (2, 4, 6, 8, 10))
    sigma = float(params.get("sigma", 0.5))
    samples = int(params.get("samples", 2000))
    seed = int(params.get("seed", 42))
    dist = PhaseDistribution.gaussian(sigma)
    rows = []
    for n in sizes:
        stats = wire_fidelity_mc(int(n), InputQubit.plus(), dist, samples, seed)
        rows.append((int(n), sigma, stats.mean, stats.stderr))
    return rows


def _run_stabilizer_check(params: Mapping[str, Any]) -> list[tuple]:
    path = params.get("graph")
    if not path:
        raise ExperimentError("stabilizer-check requires a graph file")
    graph = load_graph(path)
    # the cluster with the declared kappa labels: a sigma_z flips the site's eigenvalue
    report = verify_stabilizers(_twisted_cluster(graph), graph)
    rows = []
    for site in graph.sites:
        expected = (-1.0) ** graph.kappa[site]
        eig = report.eigenvalues[site]
        rows.append((site, eig, expected, abs(eig - expected) <= 1e-8))
    return rows


_RUNNERS = {
    "fig-noise": _run_fig_noise,
    "fig-dephasing": _run_fig_dephasing,
    "fig-cnot": _run_fig_cnot,
    "concurrence-scan": _run_concurrence_scan,
    "wire-scan": _run_wire_scan,
    "stabilizer-check": _run_stabilizer_check,
}


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    rows = _RUNNERS[spec.kind](spec.params)
    meta = {"experiment": spec.kind, "version": f"noisycluster {__version__}"}
    for key in ("seed", "samples", "gamma", "sigma", "n", "nmax", "graph"):
        if key in spec.params:
            meta[key] = str(spec.params[key])
    return ResultTable(columns=_SCHEMAS[spec.kind], rows=rows, metadata=meta)


# --- argument handling -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; the contract here is 1."""

    def error(self, message: str) -> None:  # noqa: D401
        self.print_usage(sys.stderr)
        raise SystemExit_(1, f"{self.prog}: error: {message}")


class SystemExit_(SystemExit):
    def __init__(self, code: int, message: str | None = None):
        super().__init__(code)
        self.message = message


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, steps = text.split(":")
        start, stop = float(start), float(stop)
        if math.isfinite(start) and math.isfinite(stop):
            return np.linspace(start, stop, int(steps))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be start:stop:steps, got {text!r}"
        ) from exc
    raise argparse.ArgumentTypeError(f"grid endpoints must be finite, got {text!r}")


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("sizes must be comma-separated ints") from exc
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cluster-bench", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(p: argparse.ArgumentParser, samples: bool = False) -> None:
        p.add_argument("--seed", type=int, default=42, help="master RNG seed (default 42)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--no-meta",
            action="store_true",
            help="omit the timestamp metadata line for byte-stable output",
        )
        if samples:
            p.add_argument(
                "--samples", type=int, default=2000, help="Monte Carlo samples (default 2000)"
            )

    p = sub.add_parser("fig-noise", help="flat-noise chain overlap curves")
    common(p)
    p.add_argument("--grid", type=_parse_grid, default=None, help="lambda grid start:stop:steps")

    p = sub.add_parser("fig-dephasing", help="dephasing fidelity families")
    common(p)
    p.add_argument("--gamma", type=float, default=0.062, help="dephasing rate (default 0.062)")
    p.add_argument("--nmax", type=int, default=25, help="largest N (default 25)")

    p = sub.add_parser("fig-cnot", help="CNOT mean fidelity vs Gaussian sigma")
    common(p, samples=True)
    p.add_argument("--grid", type=_parse_grid, default=None, help="sigma grid start:stop:steps")

    p = sub.add_parser("concurrence-scan", help="pair entanglement of averaged chains")
    common(p)
    p.add_argument("--n", type=int, default=5, help="chain length (default 5)")
    p.add_argument("--grid", type=_parse_grid, default=None, help="sigma grid start:stop:steps")

    p = sub.add_parser("wire-scan", help="transfer fidelity vs wire length")
    common(p, samples=True)
    p.add_argument("--sigma", type=float, default=0.5, help="Gaussian sigma (default 0.5)")
    p.add_argument(
        "--sizes", type=_parse_sizes, default=(2, 4, 6, 8, 10), help="comma-separated wire sizes"
    )

    p = sub.add_parser("stabilizer-check", help="verify correlation eigenvalues of a graph file")
    common(p)
    p.add_argument("--graph", required=True, help="graph description file")

    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    params: dict[str, Any] = {"seed": args.seed}
    for key in ("grid", "gamma", "nmax", "samples", "n", "sigma", "sizes", "graph"):
        if hasattr(args, key) and getattr(args, key) is not None:
            params[key] = getattr(args, key)
    return ExperimentSpec(kind=args.command, params=params, output_path=args.out)


_cached_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _cached_parser().parse_args(argv)
    except SystemExit_ as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code if isinstance(exc.code, int) else 1
    except SystemExit as exc:
        # --help / --version exit through here with code 0
        return exc.code if isinstance(exc.code, int) else 0
    try:
        spec = _spec_from_args(args)
        table = run_experiment(spec)
        if spec.output_path:
            with open(spec.output_path, "w", encoding="utf-8") as fh:
                table.write(fh, with_timestamp=not args.no_meta)
        else:
            table.write(sys.stdout, with_timestamp=not args.no_meta)
    except (ExperimentError, OSError, ValueError, ArithmeticError) as exc:
        print(f"cluster-bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
