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
import itertools
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Mapping, NoReturn, Sequence, TextIO

import numpy as np

from . import __version__
from .clusters import _cluster_stabilizers, load_graph
from .entanglement import _pair_grid
# pair_scan is unused here; bench/spans.py looks it up on this module to trace it
from .entanglement import pair_scan  # noqa: F401
from .oneway import gate_configs, gate_fidelity_mc, wire_fidelity_mc
from .phasenoise import PhaseDistribution, _overlap_rows, dephasing_fidelity
# overlap_avg is unused here; bench/spans.py looks it up on this module to trace it
from .phasenoise import overlap_avg  # noqa: F401
from .states import InputQubit

# Fig 2(c) input amplitudes: control and target both a = 0.5, b = sqrt(0.75)
CNOT_INPUT = InputQubit(0.5, math.sqrt(0.75))

# rows per joined write: a long table is never held a second time as one string
_WRITE_BLOCK = 4096

# largest fig-noise, fig-dephasing or concurrence-scan table, refused before the
# sweep: --n 400 on the default 10-point grid (798,000 rows) still runs
_MAX_SCAN_ROWS = 10**6

# most Monte Carlo samples per call of fig-cnot or wire-scan, refused before any draw
_MAX_SAMPLES = 10**6


class ExperimentError(RuntimeError):
    """Invalid experiment parameters or a failure while running one."""


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: Mapping[str, Any]

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ExperimentError(f"unknown experiment kind {self.kind!r}")
        grid = self.params.get("grid")
        if grid is not None:
            if len(grid) == 0:
                raise ExperimentError("grid must be non-empty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ExperimentError("grid must be strictly increasing")
        if self.kind in ("fig-cnot", "wire-scan") and self.params.get("seed", 0) < 0:
            raise ExperimentError("seed must be >= 0")
        samples = self.params.get("samples")
        if samples is not None and samples < 2:
            raise ExperimentError("Monte Carlo needs at least 2 samples")
        if samples is not None and samples > _MAX_SAMPLES:
            raise ExperimentError(f"Monte Carlo takes at most {_MAX_SAMPLES} samples")


@dataclass
class ResultTable:
    """CSV rows under a header; ``template`` formats one row, one ``%`` field per column."""

    columns: tuple[str, ...]
    template: str
    rows: list[tuple]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.template.count("%") != len(self.columns):
            raise ValueError("row template does not match columns")
        if set(map(len, self.rows)) - {len(self.columns)}:
            raise ValueError("row width does not match columns")

    def write(self, out: TextIO, with_timestamp: bool = True) -> None:
        """Metadata, header, then rows in blocks of ``_WRITE_BLOCK``: each block is the
        row template repeated once per row, filled from the block's cells in one ``%``."""
        lines = [f"# {key}: {value}\n" for key, value in self.metadata.items()]
        if with_timestamp:
            stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
            lines.append(f"# timestamp: {stamp}\n")
        lines.append(",".join(self.columns) + "\n")
        out.write("".join(lines))
        for start in range(0, len(self.rows), _WRITE_BLOCK):
            block = self.rows[start : start + _WRITE_BLOCK]
            out.write((self.template * len(block)) % tuple(itertools.chain.from_iterable(block)))


# --- experiment implementations ---------------------------------------------


def _run_fig_noise(params: Mapping[str, Any]) -> list[tuple]:
    grid = params.get("grid")
    if grid is None:
        grid = np.linspace(0.0, 2.0 * math.pi, 64)
    sizes = range(3, 11)
    if len(sizes) * len(grid) > _MAX_SCAN_ROWS:
        raise ExperimentError(
            f"fig-noise on {len(grid)} grid points exceeds {_MAX_SCAN_ROWS} rows "
            f"({len(sizes)} chain sizes x grid points)"
        )
    dists = [PhaseDistribution.flat(float(lam)) for lam in grid]
    lambdas, rows = [dist.param for dist in dists], []
    for n, (_, fidelity_of_mean, mean_fidelity) in zip(sizes, _overlap_rows(dists, sizes)):
        rows += zip(itertools.repeat(n), lambdas, fidelity_of_mean.tolist(), mean_fidelity.tolist())
    return rows


def _run_fig_dephasing(params: Mapping[str, Any]) -> list[tuple]:
    gamma = float(params.get("gamma", 0.062))
    nmax = int(params.get("nmax", 25))
    if nmax < 3:
        raise ExperimentError("nmax must be >= 3")
    families = ("w", "ghz", "linear_cluster", "square_cluster")
    if len(families) * (nmax - 2) > _MAX_SCAN_ROWS:
        raise ExperimentError(
            f"fig-dephasing to nmax {nmax} exceeds {_MAX_SCAN_ROWS} rows "
            f"({len(families)} families x N)"
        )
    sizes = range(3, nmax + 1)
    return [(fam, n, gamma, dephasing_fidelity(fam, n, gamma)) for fam in families for n in sizes]


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
    if max(n, 0) * max(n - 1, 0) // 2 * len(grid) > _MAX_SCAN_ROWS:
        raise ExperimentError(
            f"concurrence-scan of {n} sites on {len(grid)} grid points exceeds "
            f"{_MAX_SCAN_ROWS} rows (pairs x grid points)"
        )
    sigmas = [float(sigma) for sigma in grid]
    pairs, concurrences, ppt = _pair_grid(n, [PhaseDistribution.gaussian(s) for s in sigmas])
    sigma_column = itertools.chain.from_iterable(itertools.repeat(s, len(pairs)) for s in sigmas)
    firsts, seconds = itertools.cycle(i for i, _ in pairs), itertools.cycle(j for _, j in pairs)
    return list(zip(itertools.repeat(n), sigma_column, firsts, seconds, concurrences, ppt))


def _run_wire_scan(params: Mapping[str, Any]) -> list[tuple]:
    sizes = params.get("sizes", (2, 4, 6, 8, 10))
    sigma = float(params.get("sigma", 0.5))
    samples = int(params.get("samples", 2000))
    seed = int(params.get("seed", 42))
    dist = PhaseDistribution.gaussian(sigma)
    stats = [wire_fidelity_mc(int(n), InputQubit.plus(), dist, samples, seed) for n in sizes]
    return [(int(n), sigma, s.mean, s.stderr) for n, s in zip(sizes, stats)]


def _run_stabilizer_check(params: Mapping[str, Any]) -> list[tuple]:
    path = params.get("graph")
    if not path:
        raise ExperimentError("stabilizer-check requires a graph file")
    graph = load_graph(path)
    # the cluster with the declared kappa labels: a sigma_z flips the site's eigenvalue
    report = _cluster_stabilizers(graph)
    rows = []
    for site in graph.sites:
        expected = (-1.0) ** graph.kappa[site]
        eig = report.eigenvalues[site]
        rows.append((site, eig, expected, abs(eig - expected) <= 1e-8))
    return rows


# each subcommand's runner, columns and printf row template: floats at 12 significant
# digits, ints and bools as integers (bools as 1 and 0), strings as they are
_SUBCOMMANDS = {
    "fig-noise": (
        _run_fig_noise,
        ("N", "lambda", "fidelity_of_mean", "mean_fidelity"),
        "%d,%.12g,%.12g,%.12g\n",
    ),
    "fig-dephasing": (
        _run_fig_dephasing,
        ("family", "N", "gamma", "fidelity"),
        "%s,%d,%.12g,%.12g\n",
    ),
    "fig-cnot": (
        _run_fig_cnot,
        ("config", "sigma", "mean", "stderr", "n_samples"),
        "%s,%.12g,%.12g,%.12g,%d\n",
    ),
    "concurrence-scan": (
        _run_concurrence_scan,
        ("N", "sigma", "i", "j", "concurrence", "ppt_min_eig"),
        "%d,%.12g,%d,%d,%.12g,%.12g\n",
    ),
    "wire-scan": (_run_wire_scan, ("N", "sigma", "mean", "stderr"), "%d,%.12g,%.12g,%.12g\n"),
    "stabilizer-check": (
        _run_stabilizer_check,
        ("site", "eigenvalue", "expected", "ok"),
        "%d,%.12g,%.12g,%d\n",
    ),
}

EXPERIMENT_KINDS = tuple(_SUBCOMMANDS)


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    runner, columns, template = _SUBCOMMANDS[spec.kind]
    rows = runner(spec.params)
    meta = {"experiment": spec.kind, "version": f"noisycluster {__version__}"}
    for key in ("seed", "samples", "gamma", "sigma", "n", "nmax", "graph"):
        if key in spec.params:
            meta[key] = str(spec.params[key])
    return ResultTable(columns=columns, template=template, rows=rows, metadata=meta)


# --- argument handling -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; the contract here is 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, steps = text.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
        if steps < 1:
            raise argparse.ArgumentTypeError(f"grid needs at least 1 step, got {text!r}")
        if steps > _MAX_SCAN_ROWS:
            # every table has at least one row per grid point: refuse before allocating
            raise argparse.ArgumentTypeError(
                f"grid of {steps} steps exceeds the {_MAX_SCAN_ROWS}-row table limit"
            )
        if math.isfinite(start) and math.isfinite(stop):
            return np.linspace(start, stop, steps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:steps, got {text!r}") from exc
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
                "--samples",
                type=int,
                default=2000,
                help=f"Monte Carlo samples, 2 to {_MAX_SAMPLES} (default 2000)",
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
    return ExperimentSpec(kind=args.command, params=params)


_cached_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _cached_parser().parse_args(argv)
    except SystemExit as exc:
        # usage errors exit here with code 1 (_Parser.error), --help and --version with 0
        return exc.code if isinstance(exc.code, int) else 0
    try:
        table = run_experiment(_spec_from_args(args))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                table.write(fh, with_timestamp=not args.no_meta)
        else:
            table.write(sys.stdout, with_timestamp=not args.no_meta)
    except (ExperimentError, OSError, ValueError, ArithmeticError) as exc:
        print(f"cluster-bench: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the allocation; a bare one says nothing
        print(f"cluster-bench: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
