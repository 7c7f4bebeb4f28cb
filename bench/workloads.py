"""The benchmark's workloads: what one round runs, and how its outputs are checked.

A round is a fixed list of operations; every run attempts whole rounds, so
the share of failed operations is the same in every run. ``round`` returns
the items it completed, the operations it attempted and failed, and a
record that ``check`` later compares with the reference computations in
``oracles``. Calls into the package go through module attributes
(``oneway.gate_fidelity_mc``, ``cli.main``), the names a traced run wraps.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import random
import resource
import time

import numpy as np

import oracles
from noisycluster import cli, oneway
from noisycluster.phasenoise import PhaseDistribution
from noisycluster.states import InputQubit


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def derived_seed(*parts: int) -> int:
    """A master seed for one operation, fixed by the run seed and its place."""
    return int(np.random.SeedSequence([p % 2**32 for p in parts]).generate_state(1)[0])


class Round:
    def __init__(self):
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.records: list = []
        self.failures: list[str] = []
        self.excluded_s = 0.0  # time of traced-only work, kept out of the overhead figure
        # set by the timing loop in run.py; the warm-up round keeps these
        self.wall: float | None = None
        self.cpu: float | None = None
        self.speed: float | None = None


class Workload:
    """Defaults: no lazy set-up, nothing to check before timing."""

    serial_check = False  # traced cnot-mc runs re-drive every sample serially

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        pass

    def precheck(self) -> list[str]:
        return []


class CnotMC(Workload):
    """``gate_fidelity_mc`` on the three CNOT patterns over a Gaussian sigma grid."""

    name = "cnot-mc"
    sigmas = (0.25, 0.5, 1.0)
    # fig-cnot passes 2000 samples per call; at 512 the pool's start and stop
    # are still about 1% of a round (0.3% at 2000), and a round stays near 5 s
    samples = 512
    # serial re-checks: samples per sigma-0 call and per spot-checked call
    check_samples = 128

    def setup(self) -> None:
        self.configs = oneway.gate_configs()

    def _inputs(self, config):
        return {site: cli.CNOT_INPUT for site in config.input_sites}

    def round(self, r: int, tracer=None) -> Round:
        """One call per configuration; round r takes the r-th sigma of the grid, cyclically."""
        out = Round()
        sigma = self.sigmas[r % len(self.sigmas)]
        dist = PhaseDistribution.gaussian(sigma)
        for ci, config in enumerate(self.configs):
            inputs = self._inputs(config)
            master = derived_seed(self.seed, r, ci)
            cpu0 = children_cpu_s()
            stats = oneway.gate_fidelity_mc(config, inputs, dist, self.samples, master)
            if tracer is not None:
                tracer.child_cpu_s += children_cpu_s() - cpu0
            out.attempted += 1
            out.items += self.samples
            serial = self._serial(config, inputs, dist, master, out) if self.serial_check else None
            out.records.append((ci, sigma, master, stats.mean, stats.stderr, serial))
        return out

    def _serial(self, config, inputs, dist, master, out: Round) -> float:
        """The same samples through the public per-sample call, in this process."""
        t0 = time.perf_counter()
        values = np.empty(self.samples)
        edges = config.graph.edges
        for k in range(self.samples):
            rng = np.random.default_rng(np.random.SeedSequence(master, spawn_key=(k,)))
            thetas = {e: dist.sample(rng) for e in edges}
            values[k] = oneway.gate_fidelity_once(config, inputs, thetas)
        out.excluded_s += time.perf_counter() - t0
        return float(values.sum() / self.samples)

    @functools.cached_property
    def _oracles(self) -> list[tuple[oracles.PatternOracle, np.ndarray]]:
        return [self._build_oracle(c) for c in self.configs]

    def _build_oracle(self, config) -> tuple[oracles.PatternOracle, np.ndarray]:
        bras = {s: oracles.planar_bra(b.alpha) for s, b in config.pattern.steps}
        if config.name == "cnot4":
            # chain pattern: all-zero branch decodes to the identity, outputs
            # in the Hadamard frame, logical CNOT controlled by the second input
            unitary = np.kron(oracles.HADAMARD, oracles.HADAMARD)
            gate = oracles.cnot(control=1, target=0)
        else:
            # squashed-I: all-zero branch leaves sigma_z on the control output
            unitary = np.kron(oracles.PAULI_Z, np.eye(2))
            gate = oracles.cnot(control=0, target=1)
        oracle = oracles.PatternOracle(
            config.graph.sites, config.graph.edges, bras, config.pattern.outputs, unitary
        )
        if config.name == "cnot16_bridged":
            oracle = oracles.bridge_oracle(oracle, config.input_sites, gate, (8, 12))
        probes = oracles.probe_fidelities(oracle, config.input_sites, gate)
        if np.any(np.abs(probes - 1.0) > 1e-12):
            raise AssertionError(f"reference contraction of {config.name} is not exact")
        return oracle, gate

    def _reference(self, ci: int, sigma: float, master: int) -> tuple[np.ndarray, np.ndarray]:
        """The theta draws of one call, one row per sample, and the reference fidelities."""
        oracle, gate = self._oracles[ci]
        amp = cli.CNOT_INPUT.as_array()
        ins = {s: amp for s in self.configs[ci].input_sites}
        thetas = oracles.theta_draws(master, self.samples, len(oracle.edges), sigma)
        return thetas, oracle.fidelities(ins, gate @ np.kron(amp, amp), thetas)

    def precheck(self) -> list[str]:
        """Noise-free runs must give fidelity 1 on every configuration."""
        errors = []
        for config in self.configs:
            stats = oneway.gate_fidelity_mc(
                config, self._inputs(config), PhaseDistribution.gaussian(0.0),
                self.check_samples, derived_seed(self.seed, 10**6),
            )
            if abs(stats.mean - 1.0) > 1e-12:
                errors.append(f"{config.name}: sigma=0 mean fidelity {stats.mean!r} != 1")
        return errors

    def check(self, records) -> list[str]:
        errors = []
        for ci, sigma, master, mean, stderr, serial in records:
            name = self.configs[ci].name
            ref = self._reference(ci, sigma, master)[1].mean()
            if abs(ref - mean) > 1e-9:
                errors.append(f"{name} sigma={sigma}: mean {mean!r} vs reference {ref!r}")
            if serial is not None and abs(serial - mean) > 1e-12:
                errors.append(f"{name} sigma={sigma}: pooled mean {mean!r} vs serial {serial!r}")
        # per-sample agreement on seed-chosen samples of one seed-chosen
        # operation of each configuration
        pick = random.Random(self.seed)
        for ci, config in enumerate(self.configs):
            _, sigma, master = pick.choice([r[:3] for r in records if r[0] == ci])
            thetas, ref = self._reference(ci, sigma, master)
            for k in sorted(pick.sample(range(self.samples), self.check_samples)):
                got = oneway.gate_fidelity_once(
                    config, self._inputs(config), dict(zip(config.graph.edges, thetas[k]))
                )
                if abs(got - ref[k]) > 1e-9:
                    errors.append(f"{config.name} sample {k}: {got!r} vs reference {ref[k]!r}")
                    break
        return errors


class WireLong(Workload):
    """``wire_fidelity_mc`` along chains of 12 to 20 sites, serial."""

    name = "wire-long"
    lengths = (12, 14, 16, 18, 20)
    samples = 2
    sigma = 0.5

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed % 2**32)
        amp = rng.normal(size=2) + 1j * rng.normal(size=2)
        amp /= np.linalg.norm(amp)
        self.input = InputQubit(complex(amp[0]), complex(amp[1]))

    def setup(self) -> None:
        # a noise-free transfer per length derives and caches its correction
        for n in self.lengths:
            oneway.wire_transfer(n, self.input)

    def round(self, r: int, tracer=None) -> Round:
        out = Round()
        dist = PhaseDistribution.gaussian(self.sigma)
        for i, n in enumerate(self.lengths):
            master = derived_seed(self.seed, r, i)
            stats = oneway.wire_fidelity_mc(n, self.input, dist, self.samples, master)
            out.attempted += 1
            out.items += self.samples
            out.records.append((n, master, stats.mean, stats.stderr))
        return out

    def check(self, records) -> list[str]:
        errors = []
        amp = self.input.as_array()
        for n, master, mean, stderr in records:
            ref = oracles.wire_fidelities(
                amp, oracles.theta_draws(master, self.samples, n - 1, self.sigma)
            )
            ref_se = ref.std(ddof=1) / math.sqrt(self.samples)
            if abs(ref.mean() - mean) > 1e-12 or abs(ref_se - stderr) > 1e-12:
                errors.append(
                    f"wire n={n}: mean {mean!r} +- {stderr!r} vs reference {ref.mean()!r} +- {ref_se!r}"
                )
        return errors


class ChainExact(Workload):
    """The exact-figure subcommands run in process through ``cli.main``."""

    name = "chain-exact"
    commands = (
        ("fig-noise",),
        ("fig-dephasing",),
        ("concurrence-scan",),
        ("concurrence-scan", "--n", "10"),
        ("fig-dephasing", "--nmax", "32"),
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self.first: dict = {}

    def round(self, r: int, tracer=None) -> Round:
        out = Round()
        for argv in self.commands:
            buf = io.StringIO()
            out.attempted += 1
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(argv) + ["--no-meta"])
            except Exception as exc:  # the run goes on; the failure is counted
                out.failed += 1
                out.failures.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
                continue
            text = buf.getvalue()
            if tracer is not None:
                tracer.csv_bytes += len(text.encode())
            if code != 0:
                out.failed += 1
                out.failures.append(f"{' '.join(argv)}: exit code {code}")
                continue
            rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
            out.items += len(rows)
            # outputs are deterministic: keep the first, compare the rest to it
            if argv not in self.first:
                self.first[argv] = text
                out.records.append((argv, text))
            elif text != self.first[argv]:
                out.records.append((argv, text))
        return out

    def check(self, records) -> list[str]:
        errors = []
        for argv, text in records:
            if text != self.first[argv]:
                errors.append(f"{' '.join(argv)}: output differs between rounds")
                continue
            lines = [line for line in text.splitlines() if not line.startswith("#")]
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            if argv[0] == "fig-noise":
                errors += self._check_noise(rows)
            elif argv[0] == "fig-dephasing":
                nmax = int(argv[2]) if len(argv) > 2 else 25
                errors += self._check_dephasing(rows, nmax)
            else:
                n = int(argv[2]) if len(argv) > 2 else 5
                errors += self._check_concurrence(rows, n)
        return errors

    @staticmethod
    def _check_noise(rows) -> list[str]:
        grid = np.linspace(0.0, 2.0 * math.pi, 64)
        expect = [(n, lam) for n in range(3, 11) for lam in grid]
        got = [(int(r["N"]), float(r["lambda"])) for r in rows]
        if len(got) != len(expect) or any(
            a != n or abs(b - lam) > 1e-11 for (a, b), (n, lam) in zip(got, expect)
        ):
            return ["fig-noise: rows do not cover N = 3..10 on the default grid"]
        errors = []
        c1 = np.array([oracles.flat_char(lam, 1) for lam in grid])
        for i, n in enumerate(range(3, 11)):
            block = rows[64 * i: 64 * (i + 1)]
            for name, ref in zip(("fidelity_of_mean", "mean_fidelity"), oracles.chain_overlaps(n, c1)):
                got = np.array([float(r[name]) for r in block])
                bad = np.abs(got - ref) > 1e-10 * np.abs(ref) + 1e-15
                if bad.any():
                    k = int(np.argmax(bad))
                    errors.append(f"fig-noise N={n} lambda={grid[k]}: {name} {got[k]!r} vs {ref[k]!r}")
        return errors

    @staticmethod
    def _check_dephasing(rows, nmax) -> list[str]:
        expect = [
            (fam, n)
            for fam in ("w", "ghz", "linear_cluster", "square_cluster")
            for n in range(3, nmax + 1)
        ]
        if [(r["family"], int(r["N"])) for r in rows] != expect:
            return [f"fig-dephasing nmax={nmax}: rows do not cover the four families"]
        errors = []
        for r in rows:
            ref = oracles.dephasing_closed_form(r["family"], int(r["N"]), float(r["gamma"]))
            if abs(float(r["fidelity"]) - ref) > 1e-11 * ref:
                errors.append(f"fig-dephasing {r}: closed form {ref!r}")
        return errors

    @staticmethod
    def _check_concurrence(rows, n) -> list[str]:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        grid = np.linspace(0.1, 1.0, 10)
        expect = [(s, p) for s in grid for p in pairs]
        got = [(float(r["sigma"]), (int(r["i"]), int(r["j"]))) for r in rows]
        if len(got) != len(expect) or any(
            abs(a - s) > 1e-11 or b != p for (a, b), (s, p) in zip(got, expect)
        ):
            return [f"concurrence-scan n={n}: rows do not cover every pair on the grid"]
        errors = []
        for r in rows:
            got_c, got_m = float(r["concurrence"]), float(r["ppt_min_eig"])
            if (got_c > 1e-9) != (got_m < -1e-9):
                errors.append(f"concurrence-scan n={n} {r}: concurrence and PPT disagree")
            sigma, i, j = float(r["sigma"]), int(r["i"]), int(r["j"])
            rho = oracles.chain_pair_state(n, lambda k: oracles.gaussian_char(sigma, k), i, j)
            c, m = oracles.wootters_concurrence(rho), oracles.partial_transpose_min(rho)
            if abs(got_c - c) > 1e-6 or abs(got_m - m) > 1e-10:
                errors.append(f"concurrence-scan n={n} {r}: reference ({c}, {m})")
        return errors


WORKLOADS = {w.name: w for w in (CnotMC, ChainExact, WireLong)}
