"""Dense state-vector and density-matrix engine.

Conventions used throughout the package:

* qubits are numbered 1..N, qubit 1 is the most significant bit of the
  amplitude index (state ``|q1 q2 ... qN>`` lives at index
  ``sum(q_j << (N - j))``),
* measuring a qubit removes it from the register and shifts the higher
  numbered qubits down by one,
* all operations are pure functions returning new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

NORM_ATOL = 1e-9
HERMITIAN_ATOL = 1e-9
PSD_ATOL = 1e-8
FORCE_PROB_ATOL = 1e-12

MAX_PURE_QUBITS = 24
MAX_DENSE_QUBITS = 12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
IDENTITY_2 = np.eye(2, dtype=complex)


def phase_z(phi: float) -> np.ndarray:
    """diag(1, e^{i phi}) single-qubit phase gate."""
    if not math.isfinite(phi):
        raise ValueError(f"phase angle phi = {phi} must be finite")
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]], dtype=complex)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class InputQubit:
    """Normalized single-qubit input, amplitudes on |0> and |1>."""

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        norm = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if not abs(norm - 1.0) <= NORM_ATOL:  # NaN fails too
            raise ValueError(f"input qubit not normalized: |amp|^2 = {norm}")

    def as_array(self) -> np.ndarray:
        return np.array([self.amp0, self.amp1], dtype=complex)

    @classmethod
    def zero(cls) -> "InputQubit":
        return cls(1.0, 0.0)

    @classmethod
    def one(cls) -> "InputQubit":
        return cls(0.0, 1.0)

    @classmethod
    def plus(cls) -> "InputQubit":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s)

    @classmethod
    def minus(cls) -> "InputQubit":
        s = 1.0 / math.sqrt(2.0)
        return cls(s, -s)


@dataclass(frozen=True, eq=False)
class PureState:
    """State vector on ``num_qubits`` qubits.

    ``num_qubits == 0`` is the scalar left after the last qubit of a
    register has been measured.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        n = self.num_qubits
        if not 0 <= n <= MAX_PURE_QUBITS:
            raise ValueError(f"num_qubits {n} outside [0, {MAX_PURE_QUBITS}]")
        amps = _readonly(self.amplitudes)
        if amps.shape != (1 << n,):
            raise ValueError(f"amplitude length {amps.shape} != 2^{n}")
        norm = float(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise ValueError(f"state not normalized: |amp|^2 = {norm}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on ``num_qubits``."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        n = self.num_qubits
        if not 1 <= n <= MAX_DENSE_QUBITS:
            raise ValueError(f"num_qubits {n} outside [1, {MAX_DENSE_QUBITS}]")
        rho = _readonly(self.entries)
        d = 1 << n
        if rho.shape != (d, d):
            raise ValueError(f"shape {rho.shape} != ({d}, {d})")
        check_density(rho)
        object.__setattr__(self, "entries", rho)


def check_density(rho: np.ndarray) -> None:
    """Raise ValueError unless every matrix of the ``(..., d, d)`` stack is
    Hermitian, unit-trace and positive semidefinite; NaN fails every test."""
    _check_hermitian_unit_trace(rho)
    _check_psd(np.linalg.eigvalsh(rho)[..., 0])


def _check_hermitian_unit_trace(rho: np.ndarray) -> None:
    """The part of ``check_density`` to run before any eigensolver sees ``rho``."""
    if not np.max(np.abs(rho - np.swapaxes(rho, -1, -2).conj())) <= HERMITIAN_ATOL:
        raise ValueError("density matrix not hermitian")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    if not np.max(np.abs(tr - 1.0)) <= NORM_ATOL:
        raise ValueError(f"trace {tr} != 1")


def _check_psd(lowest: np.ndarray) -> None:
    """The rest of ``check_density``, given each matrix's lowest eigenvalue."""
    if not np.min(lowest) >= -PSD_ATOL:
        raise ValueError("density matrix has a significantly negative eigenvalue")


@dataclass(frozen=True)
class DephasingChannel:
    """Independent per-qubit dephasing of strength gamma >= 0."""

    gamma: float

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)


def _check_gamma(gamma: float) -> None:
    if not gamma >= 0.0:  # NaN fails too; gamma = inf is full dephasing
        raise ValueError("gamma must be >= 0")


@dataclass(frozen=True)
class MeasurementBasis:
    """Single-qubit measurement basis.

    ``planar(alpha)`` measures onto (|0> +- e^{i alpha}|1>)/sqrt(2); outcome 0
    is the plus eigenvector. X is planar(0), Y is planar(pi/2); Z measures the
    computational basis with outcome 0 on |0>.
    """

    axis: str
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.axis not in ("planar", "z"):
            raise ValueError(f"unknown measurement axis {self.axis!r}")
        if self.axis == "planar" and not math.isfinite(self.alpha):
            raise ValueError(f"planar measurement angle alpha = {self.alpha} must be finite")
        # canonicalize the azimuthal angle into (-pi, pi]
        a = math.pi - (math.pi - self.alpha) % (2.0 * math.pi)
        object.__setattr__(self, "alpha", 0.0 if self.axis == "z" else a)

    @classmethod
    def planar(cls, alpha: float) -> "MeasurementBasis":
        return cls("planar", alpha)

    @classmethod
    def x(cls) -> "MeasurementBasis":
        return cls("planar", 0.0)

    @classmethod
    def y(cls) -> "MeasurementBasis":
        return cls("planar", math.pi / 2.0)

    @classmethod
    def z(cls) -> "MeasurementBasis":
        return cls("z", 0.0)


class MeasurementResult(NamedTuple):
    outcome: int
    probability: float
    state: PureState


def init_register(qubits: Sequence[InputQubit]) -> PureState:
    """Product state of the given qubits, qubit 1 first (most significant)."""
    if not qubits:
        raise ValueError("register needs at least one qubit")
    if len(qubits) > MAX_PURE_QUBITS:
        raise ValueError(f"register larger than {MAX_PURE_QUBITS} qubits")
    amps = qubits[0].as_array()
    for q in qubits[1:]:
        amps = np.kron(amps, q.as_array())
    return PureState(len(qubits), amps)


def _check_qubit(n: int, qubit: int) -> None:
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} outside register of {n}")


def apply_local(state: PureState, qubit: int, gate: np.ndarray) -> PureState:
    """Apply a 2x2 gate to one qubit."""
    n = state.num_qubits
    _check_qubit(n, qubit)
    g = np.asarray(gate, dtype=complex)
    if g.shape != (2, 2):
        raise ValueError("gate must be 2x2")
    pre, post = 1 << (qubit - 1), 1 << (n - qubit)
    v = state.amplitudes.reshape(pre, 2, post)
    out = np.empty_like(v)
    out[:, 0, :] = g[0, 0] * v[:, 0, :] + g[0, 1] * v[:, 1, :]
    out[:, 1, :] = g[1, 0] * v[:, 0, :] + g[1, 1] * v[:, 1, :]
    return PureState(n, out.reshape(-1))


def apply_cphase(state: PureState, qubit_a: int, qubit_b: int, theta: float = 0.0) -> PureState:
    """Entangling gate |11> -> -e^{i theta}|11>.

    theta = 0 is the ideal controlled-Z; theta = pi degrades the gate to the
    identity.
    """
    n = state.num_qubits
    _check_qubit(n, qubit_a)
    _check_qubit(n, qubit_b)
    if qubit_a == qubit_b:
        raise ValueError("cphase needs two distinct qubits")
    if not math.isfinite(theta):
        raise ValueError(f"cphase deviation theta = {theta} must be finite")
    a, b = sorted((qubit_a, qubit_b))
    pre = 1 << (a - 1)
    mid = 1 << (b - a - 1)
    post = 1 << (n - b)
    v = state.amplitudes.reshape(pre, 2, mid, 2, post).copy()
    v[:, 1, :, 1, :] *= -np.exp(1j * theta)
    return PureState(n, v.reshape(-1))


def _born_outcome(rng: np.random.Generator, p0: float) -> int:
    """One draw, 0 with probability ``p0``; it never lands below ``FORCE_PROB_ATOL``."""
    outcome = 0 if rng.random() < p0 else 1
    if (p0, 1.0 - p0)[outcome] < FORCE_PROB_ATOL:
        outcome ^= 1
    return outcome


def measure(
    state: PureState,
    qubit: int,
    basis: MeasurementBasis,
    *,
    force: int | None = None,
    rng: np.random.Generator | None = None,
) -> MeasurementResult:
    """Projective measurement; the measured qubit is removed from the register.

    Exactly one of ``force`` (demand an outcome) and ``rng`` (one Born draw)
    must be given. Forcing an outcome of probability below 1e-12 is an error; a
    draw that falls on one takes the other outcome.
    """
    n = state.num_qubits
    _check_qubit(n, qubit)
    if (force is None) == (rng is None):
        raise ValueError("pass exactly one of force= and rng=")
    if force is not None and force not in (0, 1):
        raise ValueError("forced outcome must be 0 or 1")

    pre, post = 1 << (qubit - 1), 1 << (n - qubit)
    v = state.amplitudes.reshape(pre, 2, post)
    s = 1.0 / math.sqrt(2.0)
    if basis.axis == "z":
        comp0 = v[:, 0, :]
        comp1 = v[:, 1, :]
    else:
        w = np.exp(-1j * basis.alpha)
        comp0 = (v[:, 0, :] + w * v[:, 1, :]) * s
        comp1 = (v[:, 0, :] - w * v[:, 1, :]) * s

    p0 = float(np.vdot(comp0, comp0).real)
    p0 = min(max(p0, 0.0), 1.0)
    outcome = _born_outcome(rng, p0) if force is None else force
    prob = p0 if outcome == 0 else 1.0 - p0
    if prob < FORCE_PROB_ATOL:
        raise ValueError(f"outcome {outcome} has probability {prob:.3e}, cannot realize")
    picked = comp0 if outcome == 0 else comp1
    picked = picked.reshape(-1) / math.sqrt(prob)
    return MeasurementResult(outcome, prob, PureState(n - 1, picked))


def overlap(state_a: PureState, state_b: PureState) -> complex:
    """<a|b> inner product."""
    if state_a.num_qubits != state_b.num_qubits:
        raise ValueError("register sizes differ")
    return complex(np.vdot(state_a.amplitudes, state_b.amplitudes))


def fidelity_pure_pure(state_a: PureState, state_b: PureState) -> float:
    return abs(overlap(state_a, state_b)) ** 2


def pure_to_density(state: PureState) -> DensityMatrix:
    if state.num_qubits < 1:
        raise ValueError("empty register has no density matrix")
    psi = state.amplitudes
    return DensityMatrix(state.num_qubits, np.outer(psi, psi.conj()))


def partial_trace(state: PureState | DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix over ``keep``, in the given qubit order."""
    n = state.num_qubits
    keep = list(keep)
    if not keep:
        raise ValueError("keep must name at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError("keep has repeated qubits")
    for q in keep:
        _check_qubit(n, q)
    if len(keep) > MAX_DENSE_QUBITS:
        raise ValueError(f"cannot keep more than {MAX_DENSE_QUBITS} qubits dense")
    k = len(keep)
    traced = [q for q in range(1, n + 1) if q not in keep]

    if isinstance(state, PureState):
        psi = state.amplitudes.reshape((2,) * n)
        perm = [q - 1 for q in keep] + [q - 1 for q in traced]
        m = np.transpose(psi, perm).reshape(1 << k, 1 << (n - k))
        return DensityMatrix(k, m @ m.conj().T)

    rho = state.entries.reshape((2,) * (2 * n))
    row = [q - 1 for q in keep] + [q - 1 for q in traced]
    col = [n + i for i in row]
    arr = np.transpose(rho, row + col)
    arr = arr.reshape(1 << k, 1 << (n - k), 1 << k, 1 << (n - k))
    return DensityMatrix(k, np.einsum("axbx->ab", arr))


def _hamming_matrix(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    x = idx[:, None] ^ idx[None, :]
    h = np.zeros_like(x)
    for b in range(n):
        h += (x >> b) & 1
    return h


def dephase(rho: DensityMatrix, channel: DephasingChannel) -> DensityMatrix:
    """Damp each coherence by e^{-gamma * hamming(z, z')}."""
    n = rho.num_qubits
    factor = np.exp(-channel.gamma * _hamming_matrix(n))
    return DensityMatrix(n, rho.entries * factor)


def dephasing_kraus(gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-qubit Kraus pair {sqrt(p) I, sqrt(1-p) Z}, p = (1 + e^-gamma)/2."""
    _check_gamma(gamma)
    p = 0.5 * (1.0 + math.exp(-gamma))
    return math.sqrt(p) * IDENTITY_2, math.sqrt(1.0 - p) * PAULI_Z


def fidelity_pure_mixed(phi: PureState, rho: DensityMatrix) -> float:
    """<phi| rho |phi>."""
    if phi.num_qubits != rho.num_qubits:
        raise ValueError("register sizes differ")
    val = complex(phi.amplitudes.conj() @ rho.entries @ phi.amplitudes)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"fidelity has imaginary part {val.imag:.3e}")
    f = val.real
    if not -NORM_ATOL <= f <= 1.0 + NORM_ATOL:
        raise ValueError(f"fidelity {f} outside [0, 1]")
    return min(max(f, 0.0), 1.0)
