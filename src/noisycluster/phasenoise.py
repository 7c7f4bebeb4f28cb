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

import functools
import math
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .states import _check_gamma

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
            x = k * self.param
            # exp(-x**2 / 2) is exactly 0.0 from |x| ~ 38.6 on; past 40, x**2 may overflow
            return 0j if abs(x) > 40.0 else complex(math.exp(-0.5 * x**2))
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


# NumPy's SeedSequence hashing (uint32 words) and PCG64's 128-bit LCG multiplier
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# generate_state's hash constants INIT_B * MULT_B**i, i = 0..8
_STATE_HASH = tuple(_INIT_B * pow(_MULT_B, i, 2**32) & _MASK32 for i in range(9))
# held from "set state" to "draw" on the shared generator, never across a yield
_GEN_LOCK = threading.Lock()


@functools.cache
def _shared_generator() -> tuple[np.random.PCG64, np.random.Generator]:
    """One PCG64 and its Generator per process, reseeded for every row. Made on first use:
    numpy loads ``numpy.random`` lazily, and a process that draws nothing skips its ~6 MB."""
    bit_gen = np.random.PCG64(0)
    return bit_gen, np.random.Generator(bit_gen)


def _row_state(pool: Sequence[int], hash_const: int, k: int) -> tuple[int, int]:
    """PCG64's (state, inc) when seeded by ``SeedSequence(master, spawn_key=(k,))``, from
    ``SeedSequence(master).pool`` and the hash constant after the master's words."""
    mixer = list(pool)
    while True:  # mix_entropy over k's 32-bit words, least significant first
        word = k & _MASK32
        for i in range(4):
            value = word ^ hash_const  # hashmix
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const & _MASK32
            value = (_MIX_MULT_L * mixer[i] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
            mixer[i] = value ^ value >> 16  # mix
        k >>= 32
        if not k:
            break
    # generate_state(4, uint64): word i is mixer[i % 4] hashed with h[i] and h[i + 1]
    m0, m1, m2, m3 = mixer
    h0, h1, h2, h3, h4, h5, h6, h7, h8 = _STATE_HASH
    w0, w1 = (m0 ^ h0) * h1 & _MASK32, (m1 ^ h1) * h2 & _MASK32
    w2, w3 = (m2 ^ h2) * h3 & _MASK32, (m3 ^ h3) * h4 & _MASK32
    w4, w5 = (m0 ^ h4) * h5 & _MASK32, (m1 ^ h5) * h6 & _MASK32
    w6, w7 = (m2 ^ h6) * h7 & _MASK32, (m3 ^ h7) * h8 & _MASK32
    # uint64 j is w[2j] | w[2j + 1] << 32; pcg64_set_seed reads uint64s (0, 1), then (2, 3),
    # as (high, low) halves of initstate and initseq
    initstate = (w1 ^ w1 >> 16) << 96 | (w0 ^ w0 >> 16) << 64 | (w3 ^ w3 >> 16) << 32 \
        | w2 ^ w2 >> 16
    initseq = (w5 ^ w5 >> 16) << 96 | (w4 ^ w4 >> 16) << 64 | (w7 ^ w7 >> 16) << 32 \
        | w6 ^ w6 >> 16
    inc = initseq << 1 & _MASK128 | 1  # PCG64's srandom step
    return ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc


def _seeded_rows(
    dist: PhaseDistribution, width: int, n_samples: int, master_seed: int
) -> Iterator[np.ndarray]:
    """The stream every Monte Carlo estimate reads: row k is ``width`` draws from
    ``default_rng(SeedSequence(master_seed, spawn_key=(k,)))``, made only when asked for.

    That generator is not built: ``SeedSequence(master_seed)`` is built once per call, and
    row k's PCG64 state is derived from its pool by ``_row_state`` (NumPy's hashing and
    PCG64's seeding step on Python ints), then set on one shared generator to draw the row.
    The tests hold every row equal to NumPy's own construction."""
    seq = np.random.SeedSequence(master_seed)  # refuses a negative seed, as NumPy does
    pool, n_words = seq.pool.tolist(), math.ceil(int(seq.entropy).bit_length() / 32)
    # mix_entropy has run 16 hashmix steps on the first four words and 4 on each later one
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, n_words - 4), 2**32) & _MASK32
    bit_gen, gen = _shared_generator()
    for k in range(n_samples):
        state, inc = _row_state(pool, hash_const, k)
        with _GEN_LOCK:
            bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
            row = dist.sample(gen, width)
        yield row


@dataclass(frozen=True)
class OverlapResult:
    """Averaged overlap of an N-site noisy chain with the ideal cluster."""

    mean_overlap: complex
    fidelity_of_mean: float
    mean_fidelity: float

    def __post_init__(self) -> None:
        _check_overlap_range(self.fidelity_of_mean, self.mean_fidelity)


def _check_overlap_range(fidelity_of_mean, mean_fidelity) -> None:
    """The range rule of one ``OverlapResult``, or of equal-length arrays of them: both
    fidelities in [0, 1] and the mean fidelity not below the fidelity of the mean, each
    to ``RANGE_ATOL``. The first bad entry raises its message; NaN fails."""
    fid, mean, lo, hi = fidelity_of_mean, mean_fidelity, -RANGE_ATOL, 1.0 + RANGE_ATOL
    ok = (fid >= lo) & (fid <= hi) & (mean >= lo) & (mean <= hi) & (mean >= fid - RANGE_ATOL)
    if ok is True or np.all(ok):  # one result's floats give a bool, and skip numpy
        return
    k = np.argmin(ok)
    for name, v in (("fidelity_of_mean", fid), ("mean_fidelity", mean)):
        if not lo <= (v := np.ravel(v)[k].item()) <= hi:
            raise ValueError(f"{name} = {v} outside [0, 1]")
    raise ValueError("mean fidelity below fidelity of the mean")


# Bit pairs (z, z') at index 2z + z'. From (p, q) to (r, s) an edge contributes
# char(k), k = pr - qs; the doubled chain density matrix adds the sign (-1)^{pr+qs},
# which is (-1)^k: its gate phase is -e^{i theta}.
_Z, _Z2 = np.array([[0, 0], [0, 1], [1, 0], [1, 1]]).T
_PAIR_CHAR_INDEX = np.outer(_Z, _Z) - np.outer(_Z2, _Z2) + 1


def _char_rows(dists: Sequence[PhaseDistribution]) -> np.ndarray:
    """Rows (E[e^{-i theta}], 1, E[e^{i theta}]), one per distribution."""
    return np.array([[d.char_value(k) for k in (-1, 0, 1)] for d in dists]).reshape(-1, 3)


def _edge_tables(char: np.ndarray, kind: str) -> np.ndarray:
    """Edge table per characteristic row (E[e^{-i theta}], 1, E[e^{i theta}]) of ``char``:
    2x2 over z ("overlap"), 4x4 over (z, z') ("pair"), or that signed for the doubled chain.
    The layout is fancy indexing's, not C order; matmul rounds and runs differently on each."""
    if kind == "overlap":
        return char[..., [[1, 1], [1, 2]]]
    return (char * (-1, 1, -1) if kind == "doubled" else char)[..., _PAIR_CHAR_INDEX]


def _check_finite_phases(thetas) -> None:
    """Refuse non-finite edge phases; ``from None`` hides the wire kernel's error, if any."""
    if not np.isfinite(thetas).all():  # np.exp would warn and turn the phase into NaN
        raise ValueError("edge phases must be finite") from None


def overlap_exact(thetas: Sequence[float]) -> complex:
    """f_N for explicit per-edge deviations (chain of len(thetas)+1 sites)."""
    n = len(thetas) + 1
    if n < 2:
        raise ValueError("need at least one edge")
    _check_finite_phases(thetas)
    char = np.exp(1j * np.multiply.outer(thetas, (-1, 0, 1)))
    u, v = np.ones(2, dtype=complex), np.full(2, 0.5 + 0j)  # 1/2 per site: no 2**-n to overflow
    for m in np.ascontiguousarray(0.5 * _edge_tables(char, "overlap")):
        v = m.T @ v  # left-to-right product u^T M_1 ... M_j
    return complex(u @ v)


def _overlap_rows(
    dists: Sequence[PhaseDistribution], sizes: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``overlap_scan`` as arrays: per size, the mean overlaps, fidelities of the mean and
    mean fidelities over ``dists``, range-checked as a whole by ``OverlapResult``'s rule,
    so the CLI builds no result object."""
    if any(n < 2 for n in sizes):
        raise ValueError("chain needs at least 2 sites")
    char = _char_rows(dists)
    step2, step4 = 0.5 * _edge_tables(char, "overlap"), 0.25 * _edge_tables(char, "pair")
    v2, v4 = np.full((len(char), 2), 0.5 + 0j), np.full((len(char), 4), 0.25 + 0j)  # 1 site
    results = {}
    for n in range(2, max(sizes, default=1) + 1):
        # multiply and sum, not matmul: BLAS rounds a row differently by batch size
        v2 = (v2[:, :, None] * step2).sum(axis=1)
        v4 = (v4[:, :, None] * step4).sum(axis=1)
        if n in sizes:
            overlap, mean_fid = v2.sum(axis=1), v4.sum(axis=1)
            fid, mean = np.abs(overlap) ** 2, mean_fid.real
            _check_overlap_range(fid, mean)
            if not (imag := np.abs(mean_fid.imag)).max(initial=0.0) <= 1e-10:  # NaN fails too
                raise ValueError(f"mean fidelity has imaginary part {imag.max():.3e}")
            results[n] = overlap, fid, mean
    return [results[n] for n in sizes]


def overlap_scan(
    dists: Sequence[PhaseDistribution], sizes: Sequence[int]
) -> list[list[OverlapResult]]:
    """Both phase averages for every chain size (outer) and distribution
    (inner), with i.i.d. edge deviations, from one prefix sweep."""
    rows = _overlap_rows(dists, sizes)
    return [[OverlapResult(*v) for v in zip(*(a.tolist() for a in row))] for row in rows]


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
    _check_gamma(gamma)
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
    if family == "linear_cluster":
        if n < 2:
            raise ValueError("linear cluster needs n >= 2")
        return (0.5 * (1.0 + g)) ** n
    if family == "square_cluster":
        if n < 1:
            raise ValueError("square cluster side must be >= 1")
        return (0.5 * (1.0 + g)) ** (n * n)
    raise ValueError(f"unknown family {family!r}; pick one of {DEPHASING_FAMILIES}")
