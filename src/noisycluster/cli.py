"""Command-line experiment runner emitting the analysis tables as CSV.

Each subcommand's options, defaults included, are declared once in
``build_parser``; ``run_experiment`` takes the parsed arguments and returns a
``ResultTable``: ``#``-prefixed metadata lines, a column header, then
comma-separated rows with floats at 12 significant digits. With a fixed seed
the output is byte-identical across runs; the only non-deterministic line, the
timestamp, is dropped under ``--no-meta``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import NoReturn, Sequence, TextIO

import numpy as np

from . import __version__
from .clusters import _cluster_stabilizers, _stabilizer_ok, load_graph
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


def _check_scan_rows(rows: int, what: str, why: str) -> None:
    """Refuse, before its sweep, a table of more than ``_MAX_SCAN_ROWS`` rows (read per call)."""
    if rows > _MAX_SCAN_ROWS:
        raise ValueError(f"{what} exceeds {_MAX_SCAN_ROWS} rows ({why})")


def _run_fig_noise(args: argparse.Namespace) -> list[tuple]:
    sizes = range(3, 11)
    _check_scan_rows(
        len(sizes) * len(args.grid), f"fig-noise on {len(args.grid)} grid points",
        f"{len(sizes)} chain sizes x grid points",
    )
    dists = [PhaseDistribution.flat(float(lam)) for lam in args.grid]
    lambdas, rows = [dist.param for dist in dists], []
    for n, (_, fidelity_of_mean, mean_fidelity) in zip(sizes, _overlap_rows(dists, sizes)):
        rows += zip(itertools.repeat(n), lambdas, fidelity_of_mean.tolist(), mean_fidelity.tolist())
    return rows


def _run_fig_dephasing(args: argparse.Namespace) -> list[tuple]:
    if args.nmax < 3:
        raise ValueError("nmax must be >= 3")
    families = ("w", "ghz", "linear_cluster", "square_cluster")
    _check_scan_rows(
        len(families) * (args.nmax - 2), f"fig-dephasing to nmax {args.nmax}",
        f"{len(families)} families x N",
    )
    sizes, gamma = range(3, args.nmax + 1), args.gamma
    return [(fam, n, gamma, dephasing_fidelity(fam, n, gamma)) for fam in families for n in sizes]


def _run_fig_cnot(args: argparse.Namespace) -> list[tuple]:
    rows = []
    for config in gate_configs():
        inputs = {site: CNOT_INPUT for site in config.input_sites}
        for sigma in args.grid:
            dist = PhaseDistribution.gaussian(float(sigma))
            stats = gate_fidelity_mc(config, inputs, dist, args.samples, args.seed)
            rows.append((config.name, float(sigma), stats.mean, stats.stderr, stats.n_samples))
    return rows


def _run_concurrence_scan(args: argparse.Namespace) -> list[tuple]:
    n, grid = args.n, args.grid
    _check_scan_rows(
        max(n, 0) * max(n - 1, 0) // 2 * len(grid),
        f"concurrence-scan of {n} sites on {len(grid)} grid points", "pairs x grid points",
    )
    sigmas = [float(sigma) for sigma in grid]
    pairs, concurrences, ppt = _pair_grid(n, [PhaseDistribution.gaussian(s) for s in sigmas])
    sigma_column = itertools.chain.from_iterable(itertools.repeat(s, len(pairs)) for s in sigmas)
    firsts, seconds = itertools.cycle(i for i, _ in pairs), itertools.cycle(j for _, j in pairs)
    return list(zip(itertools.repeat(n), sigma_column, firsts, seconds, concurrences, ppt))


def _run_wire_scan(args: argparse.Namespace) -> list[tuple]:
    dist = PhaseDistribution.gaussian(args.sigma)
    stats = [
        wire_fidelity_mc(n, InputQubit.plus(), dist, args.samples, args.seed) for n in args.sizes
    ]
    return [(n, args.sigma, s.mean, s.stderr) for n, s in zip(args.sizes, stats)]


def _run_stabilizer_check(args: argparse.Namespace) -> list[tuple]:
    graph = load_graph(args.graph)
    # the cluster with the declared kappa labels: a sigma_z flips the site's eigenvalue
    report = _cluster_stabilizers(graph)
    rows = []
    for site in graph.sites:
        expected = (-1.0) ** graph.kappa[site]
        eig = report.eigenvalues[site]
        rows.append((site, eig, expected, _stabilizer_ok(eig, expected)))
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


def run_experiment(args: argparse.Namespace) -> ResultTable:
    """The table of ``args.command`` from its parsed arguments (``build_parser``)."""
    given = vars(args)
    if "grid" in given and np.any(args.grid[1:] <= args.grid[:-1]):
        raise ValueError("grid must be strictly increasing")
    if "seed" in given and args.seed < 0:
        raise ValueError("seed must be >= 0")
    if "samples" in given and args.samples < 2:
        raise ValueError("Monte Carlo needs at least 2 samples")
    if "samples" in given and args.samples > _MAX_SAMPLES:
        raise ValueError(f"Monte Carlo takes at most {_MAX_SAMPLES} samples")
    runner, columns, template = _SUBCOMMANDS[args.command]
    rows = runner(args)
    meta = {"experiment": args.command, "version": f"noisycluster {__version__}"}
    for key in ("seed", "samples", "gamma", "sigma", "n", "nmax", "graph"):
        if key in given:
            meta[key] = str(given[key])
    return ResultTable(columns=columns, template=template, rows=rows, metadata=meta)


# --- argument handling -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; the contract here is 1. Each parser
    refuses what it does not take, so a subcommand's error shows its own usage line."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


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
    """Every subcommand's options: the one place each default is declared (string
    defaults go through the option's ``type``, as a command-line value does)."""
    parser = _Parser(prog="cluster-bench", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def command(name: str, summary: str, draws: bool = False) -> argparse.ArgumentParser:
        # --seed and --samples only where the runner draws; the usage line lists --seed first
        p = sub.add_parser(name, help=summary)
        if draws:
            p.add_argument(
                "--seed", type=int, default=42, help="master RNG seed (default: %(default)s)"
            )
        p.add_argument("--out", help="output path instead of stdout")
        p.add_argument(
            "--no-meta",
            action="store_true",
            help="omit the timestamp metadata line for byte-stable output",
        )
        if draws:
            p.add_argument(
                "--samples",
                type=int,
                default=2000,
                help=f"Monte Carlo samples, 2 to {_MAX_SAMPLES} (default: %(default)s)",
            )
        return p

    def grid(p: argparse.ArgumentParser, name: str, default: str) -> None:
        p.add_argument(
            "--grid",
            type=_parse_grid,
            default=default,
            help=f"{name} grid start:stop:steps (default: %(default)s)",
        )

    p = command("fig-noise", "flat-noise chain overlap curves")
    grid(p, "lambda", f"0:{2 * math.pi!r}:64")

    p = command("fig-dephasing", "dephasing fidelity families")
    p.add_argument(
        "--gamma", type=float, default=0.062, help="dephasing rate (default: %(default)s)"
    )
    p.add_argument("--nmax", type=int, default=25, help="largest N (default: %(default)s)")

    p = command("fig-cnot", "CNOT mean fidelity vs Gaussian sigma", draws=True)
    grid(p, "sigma", "0.1:1:10")

    p = command("concurrence-scan", "pair entanglement of averaged chains")
    p.add_argument("--n", type=int, default=5, help="chain length (default: %(default)s)")
    grid(p, "sigma", "0.1:1:10")

    p = command("wire-scan", "transfer fidelity vs wire length", draws=True)
    p.add_argument(
        "--sigma", type=float, default=0.5, help="Gaussian sigma (default: %(default)s)"
    )
    p.add_argument(
        "--sizes",
        type=_parse_sizes,
        default="2,4,6,8,10",
        help="comma-separated wire sizes (default: %(default)s)",
    )

    p = command("stabilizer-check", "verify correlation eigenvalues of a graph file")
    p.add_argument("--graph", required=True, help="graph description file")

    return parser


_cached_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _cached_parser().parse_args(argv)
    except SystemExit as exc:
        # usage errors exit here with code 1 (_Parser.error), --help and --version with 0
        return exc.code if isinstance(exc.code, int) else 0
    try:
        table = run_experiment(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                table.write(fh, with_timestamp=not args.no_meta)
        else:
            table.write(sys.stdout, with_timestamp=not args.no_meta)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"cluster-bench: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the allocation; a bare one says nothing
        print(f"cluster-bench: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
