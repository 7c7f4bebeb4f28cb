"""Two-qubit entanglement analytics for noisy chain clusters.

The phase-averaged reduced state of any site pair has closed-form entries:
averaging the chain's density matrix over independent edge deviations turns
each edge factor into a characteristic value, and the trace over the other
sites is a pinned 4-state transfer-matrix contraction. Entanglement is
quantified by the Wootters concurrence and cross-checked by the partial
transpose criterion (equivalent for two qubits).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .phasenoise import PhaseDistribution
from .states import DensityMatrix, PAULI_Y

ENTANGLEMENT_TOL = 1e-9
RANK_CUTOFF = 1e-14


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    For any factorization rho = F F^dag the Wootters spectrum equals the
    singular values of F^T (Y kron Y) F.  Taking singular values directly
    avoids the sqrt of near-zero eigenvalues, which would amplify rounding
    noise from 1e-16 to 1e-8.
    """
    if rho.num_qubits != 2:
        raise ValueError("concurrence is defined for two qubits")
    yy = np.kron(PAULI_Y, PAULI_Y).real
    w, v = np.linalg.eigh(rho.entries)
    w = np.clip(w, 0.0, None)
    # Roundoff-scale eigenvalues are exact zeros of a rank-deficient state.
    # Keeping them would inject sqrt(eps)-sized values into the spectrum.
    w[w < RANK_CUTOFF] = 0.0
    factor = v * np.sqrt(w)
    alphas = np.linalg.svd(factor.T @ yy @ factor, compute_uv=False)
    return float(max(0.0, alphas[0] - alphas[1] - alphas[2] - alphas[3]))


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue of the partial transpose over the second qubit.

    Negative (below -1e-9) if and only if the state is entangled; the
    spectrum is the same whichever qubit is transposed.
    """
    if rho.num_qubits != 2:
        raise ValueError("partial transpose check is defined for two qubits")
    r = rho.entries.reshape(2, 2, 2, 2)
    pt = np.transpose(r, (0, 3, 2, 1)).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt)[0])


@dataclass(frozen=True)
class PairAnalysis:
    """Entanglement summary for one site pair of a chain."""

    pair: tuple[int, int]
    concurrence: float
    ppt_min_eig: float

    @property
    def entangled(self) -> bool:
        return self.ppt_min_eig < -ENTANGLEMENT_TOL


def averaged_pair_state(
    n: int, dist: PhaseDistribution, pair: tuple[int, int]
) -> DensityMatrix:
    """Exact phase-averaged reduced state of two sites of an n-site chain.

    Entry ((a, b), (a', b')) is 2^-n times the sum over the traced bit
    assignments of prod_j (-1)^{z_j z_{j+1} + z'_j z'_{j+1}}
    char(z_j z_{j+1} - z'_j z'_{j+1}); evaluated by walking the chain with a
    4-state (z, z') vector, pinning positions i and j and forcing z = z' on
    traced positions.
    """
    if n < 2 or n > 16:
        raise ValueError("chain size must be in [2, 16]")
    i, j = pair
    if not (1 <= i < j <= n):
        raise ValueError(f"pair {pair} must satisfy 1 <= i < j <= {n}")
    return _pinned_pair_state(n, [_doubled_transfer(dist)] * (n - 1), pair)


def _doubled_transfer(dist: PhaseDistribution) -> np.ndarray:
    """Edge transfer matrix over (z_k, z_k') -> (z_{k+1}, z_{k+1}')."""
    t = np.empty((4, 4), dtype=complex)
    for p, q, r, s in itertools.product((0, 1), repeat=4):
        sign = (-1.0) ** (p * r + q * s)
        t[2 * p + q, 2 * r + s] = sign * dist.char_value(p * r - q * s)
    return t


def _pinned_pair_state(
    n: int, transfers: Sequence[np.ndarray], pair: tuple[int, int]
) -> DensityMatrix:
    """Pair state from a (z, z') walk, one transfer per edge, z = z' off the pair."""
    i, j = pair
    traced_mask = np.array([1.0, 0.0, 0.0, 1.0])
    rho = np.empty((4, 4), dtype=complex)
    for a, b, a2, b2 in itertools.product((0, 1), repeat=4):
        masks = [traced_mask] * n
        masks[i - 1] = np.eye(4)[2 * a + a2]
        masks[j - 1] = np.eye(4)[2 * b + b2]
        v = masks[0].astype(complex)
        for t, mask in zip(transfers, masks[1:]):
            v = (t.T @ v) * mask
        rho[2 * a + b, 2 * a2 + b2] = v.sum() / 2.0**n
    return DensityMatrix(2, rho)


def pair_scan(n: int, dist: PhaseDistribution) -> list[PairAnalysis]:
    """Analyze every site pair of an n-site chain, lexicographic order."""
    if n > 10:
        raise ValueError("pair scans are capped at 10 sites")
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rho = averaged_pair_state(n, dist, (i, j))
            out.append(
                PairAnalysis((i, j), concurrence(rho), ppt_min_eigenvalue(rho))
            )
    return out


def sampled_mean_concurrence(
    n: int,
    dist: PhaseDistribution,
    pair: tuple[int, int],
    n_samples: int,
    seed: int,
) -> float:
    """Monte Carlo estimate of E[C(rho(theta))].

    This is the average concurrence of the per-realization reduced states,
    as opposed to ``concurrence(averaged_pair_state(...))``, the concurrence
    of the averaged state; the two differ in general.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    total = 0.0
    for k in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        # the reduced pair state of one noisy chain realization
        transfers = [
            _doubled_transfer(PhaseDistribution.fixed(t)) for t in dist.sample(rng, n - 1)
        ]
        total += concurrence(_pinned_pair_state(n, transfers, pair))
    return total / n_samples
