"""Overlap of noisy linear clusters with their ideal counterpart.

Every entangling gate in a chain may deviate from the controlled-Z by a
phase theta (|11> picks up -e^{i theta}). The overlap with the ideal
cluster is

    f_N = 2^-N * sum_z prod_j e^{i theta_j z_j z_{j+1}}

which collapses to a product of 2x2 transfer matrices. Averages over a
phase distribution come in two flavors: |E f|^2 (the fidelity of the mean
state, a 2x2 transfer matrix with the mean phase factor) and E |f|^2 (the
mean fidelity, a 4x4 transfer matrix over bit pairs). ``overlap_scan`` reads
every N off one prefix sweep; per-edge factors 1/2 and 1/4 keep any N finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

RANGE_ATOL = 1e-9


@dataclass(frozen=True)
class PhaseDistribution:
    """Distribution of the per-gate phase deviation.

    ``flat(width)`` is uniform on [-width/2, width/2], ``gaussian(sigma)``
    is centered normal, ``fixed(theta)`` is deterministic.
    """

    kind: str
    param: float

    def __post_init__(self) -> None:
        if self.kind not in ("flat", "gaussian", "fixed"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not math.isfinite(self.param):
            raise ValueError(f"{self.kind} parameter must be finite")
        if self.kind == "flat" and self.param < 0.0:
            raise ValueError("flat width must be >= 0")
        if self.kind == "gaussian" and self.param < 0.0:
            raise ValueError("gaussian sigma must be >= 0")

    @classmethod
    def flat(cls, width: float) -> "PhaseDistribution":
        return cls("flat", float(width))

    @classmethod
    def gaussian(cls, sigma: float) -> "PhaseDistribution":
        return cls("gaussian", float(sigma))

    @classmethod
    def fixed(cls, theta: float) -> "PhaseDistribution":
        return cls("fixed", float(theta))

    def char_value(self, k: int) -> complex:
        """E[e^{i k theta}]."""
        if k == 0:
            return 1.0 + 0.0j
        if self.kind == "flat":
            x = 0.5 * k * self.param
            return complex(1.0 if x == 0.0 else math.sin(x) / x)
        if self.kind == "gaussian":
            return complex(math.exp(-0.5 * (k * self.param) ** 2))
        return complex(np.exp(1j * k * self.param))

    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        """One draw, or an array equal to ``size`` single draws in turn."""
        if self.kind == "flat":
            draw = rng.uniform(-0.5 * self.param, 0.5 * self.param, size)
        elif self.kind == "gaussian":
            draw = rng.normal(0.0, self.param, size)
        else:
            draw = np.full(() if size is None else size, self.param)
        return float(draw) if size is None else draw


def _seeded_rows(
    dist: PhaseDistribution, width: int, n_samples: int, master_seed: int
) -> Iterator[np.ndarray]:
    """The stream every Monte Carlo estimate reads: row k is ``width`` draws from a generator
    seeded by (master_seed, spawn_key=(k,)), made only when asked for."""
    for k in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(k,)))
        yield dist.sample(rng, width)


@dataclass(frozen=True)
class OverlapResult:
    """Averaged overlap of an N-site noisy chain with the ideal cluster."""

    mean_overlap: complex
    fidelity_of_mean: float
    mean_fidelity: float

    def __post_init__(self) -> None:
        for name in ("fidelity_of_mean", "mean_fidelity"):
            v = getattr(self, name)
            if not -RANGE_ATOL <= v <= 1.0 + RANGE_ATOL:
                raise ValueError(f"{name} = {v} outside [0, 1]")
        if self.mean_fidelity < self.fidelity_of_mean - RANGE_ATOL:
            raise ValueError("mean fidelity below fidelity of the mean")


def overlap_exact(thetas: Sequence[float]) -> complex:
    """f_N for explicit per-edge deviations (chain of len(thetas)+1 sites)."""
    n = len(thetas) + 1
    if n < 2:
        raise ValueError("need at least one edge")
    u = np.ones(2, dtype=complex)
    v = u.copy()
    for t in thetas:
        m = np.array([[1.0, 1.0], [1.0, np.exp(1j * t)]], dtype=complex)
        v = m.T @ v  # left-to-right product u^T M_1 ... M_j
    return complex(u @ v) / 2.0**n


# Bit pairs (z, z') at index 2z + z'. From (p, q) to (r, s) an edge contributes
# char(pr - qs); the doubled chain density matrix adds the sign (-1)^{pr+qs}.
_Z, _Z2 = np.array([[0, 0], [0, 1], [1, 0], [1, 1]]).T
_PAIR_CHAR_INDEX = np.outer(_Z, _Z) - np.outer(_Z2, _Z2) + 1
PAIR_SIGN = (-1.0) ** (np.outer(_Z, _Z) + np.outer(_Z2, _Z2))


def pair_transfer(dist: PhaseDistribution) -> np.ndarray:
    """4x4 transfer matrix for E|f|^2 over bit pairs (z, z')."""
    return np.array([dist.char_value(k) for k in (-1, 0, 1)])[_PAIR_CHAR_INDEX]


def overlap_scan(
    dists: Sequence[PhaseDistribution], sizes: Sequence[int]
) -> list[list[OverlapResult]]:
    """Both phase averages for every chain size (outer) and distribution
    (inner), with i.i.d. edge deviations, from one prefix sweep."""
    if any(n < 2 for n in sizes):
        raise ValueError("chain needs at least 2 sites")
    char = np.array([[d.char_value(k) for k in (-1, 0, 1)] for d in dists]).reshape(-1, 3)
    step2, step4 = 0.5 * char[:, [[1, 1], [1, 2]]], 0.25 * char[:, _PAIR_CHAR_INDEX]
    v2, v4 = np.full((len(char), 2), 0.5 + 0j), np.full((len(char), 4), 0.25 + 0j)  # 1 site
    results = {}
    for n in range(2, max(sizes, default=1) + 1):
        # multiply and sum, not matmul: BLAS rounds a row differently by batch size
        v2 = (v2[:, :, None] * step2).sum(axis=1)
        v4 = (v4[:, :, None] * step4).sum(axis=1)
        if n in sizes:
            mean_fid = v4.sum(axis=1)
            if (worst := np.abs(mean_fid.imag).max(initial=0.0)) > 1e-10:
                raise ValueError(f"mean fidelity has imaginary part {worst:.3e}")
            pairs = zip(v2.sum(axis=1).tolist(), mean_fid.tolist())
            results[n] = [OverlapResult(f, abs(f) ** 2, g.real) for f, g in pairs]
    return [results[n] for n in sizes]


def overlap_avg(dist: PhaseDistribution, n: int) -> OverlapResult:
    """Both phase averages for an n-site chain with i.i.d. edge deviations."""
    return overlap_scan([dist], [n])[0][0]


# --- closed-form dephasing fidelities ---------------------------------------

DEPHASING_FAMILIES = ("single_plus", "ghz", "w", "linear_cluster", "square_cluster")


def dephasing_fidelity(family: str, n: int, gamma: float) -> float:
    """Fidelity of an n-qubit state after per-qubit dephasing of strength gamma.

    Families: ``single_plus`` (n = 1), ``ghz`` and ``w`` (n >= 3),
    ``linear_cluster`` (n >= 2 sites), ``square_cluster`` (n >= 1 is the grid
    side, n*n qubits). The cluster forms are binomial sums
    2^-N sum_h C(N, h) e^{-gamma h}, which close to ((1 + e^-gamma)/2)^N; the
    closed form is evaluated (the tests check it against the sum).

    Note: at gamma = 0.062 a 25-site linear cluster gives 0.4662704616,
    which is the value used in tests (a figure caption quoting 0.5 for
    these parameters is inconsistent with the formula).
    """
    if not gamma >= 0.0:  # NaN fails too; gamma = inf is full dephasing
        raise ValueError("gamma must be >= 0")
    g = math.exp(-gamma)
    if family == "single_plus":
        if n != 1:
            raise ValueError("single_plus is a one-qubit family")
        return 0.5 * (1.0 + g)
    if family == "ghz":
        if n < 3:
            raise ValueError("ghz family needs n >= 3")
        return 0.5 * (1.0 + g**n)
    if family == "w":
        if n < 3:
            raise ValueError("w family needs n >= 3")
        return (1.0 + (n - 1) * g**2) / n
    if family in ("linear_cluster", "square_cluster"):
        if family == "linear_cluster":
            if n < 2:
                raise ValueError("linear cluster needs n >= 2")
            size = n
        else:
            if n < 1:
                raise ValueError("square cluster side must be >= 1")
            size = n * n
        return (0.5 * (1.0 + g)) ** size
    raise ValueError(f"unknown family {family!r}; pick one of {DEPHASING_FAMILIES}")
