"""Two-qubit entanglement analytics for noisy chain clusters.

Averaging a chain's density matrix over independent edge deviations turns
each edge factor into a characteristic value, so the reduced state of a site
pair is a contraction of 4x4 transfer matrices over bit pairs (z, z'), z = z'
on the traced sites. Its environments are built once per chain, so all pairs
take O(n) numpy calls, at any chain length. Entanglement is quantified by the
Wootters concurrence and cross-checked by the partial transpose criterion
(equivalent for two qubits), both evaluated on stacks of states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .phasenoise import PAIR_SIGN, PhaseDistribution, _PAIR_CHAR_INDEX, _seeded_rows, pair_transfer
from .states import DensityMatrix, PAULI_Y, check_density

ENTANGLEMENT_TOL = 1e-9
RANK_CUTOFF = 1e-14

_YY = np.kron(PAULI_Y, PAULI_Y).real
_TRACED = np.array([1.0, 0.0, 0.0, 1.0])  # z = z' on a traced site


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    For any factorization rho = F F^dag the Wootters spectrum equals the
    singular values of F^T (Y kron Y) F.  Taking singular values directly
    avoids the sqrt of near-zero eigenvalues, which would amplify rounding
    noise from 1e-16 to 1e-8.
    """
    if rho.num_qubits != 2:
        raise ValueError("concurrence is defined for two qubits")
    return float(_concurrences(rho.entries[None])[0])


def _concurrences(rhos: np.ndarray) -> np.ndarray:
    """Concurrence of each matrix of a (P, 4, 4) stack."""
    w, v = np.linalg.eigh(rhos)
    w = np.clip(w, 0.0, None)
    # Roundoff-scale eigenvalues are exact zeros of a rank-deficient state.
    # Keeping them would inject sqrt(eps)-sized values into the spectrum.
    w[w < RANK_CUTOFF] = 0.0
    factor = v * np.sqrt(w)[:, None, :]
    alphas = np.linalg.svd(factor.transpose(0, 2, 1) @ _YY @ factor, compute_uv=False)
    return np.maximum(0.0, alphas[:, 0] - alphas[:, 1] - alphas[:, 2] - alphas[:, 3])


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue of the partial transpose over the second qubit.

    Negative (below -1e-9) if and only if the state is entangled; the
    spectrum is the same whichever qubit is transposed.
    """
    if rho.num_qubits != 2:
        raise ValueError("partial transpose check is defined for two qubits")
    return float(_ppt_min_eigenvalues(rho.entries[None])[0])


def _ppt_min_eigenvalues(rhos: np.ndarray) -> np.ndarray:
    """Smallest partial-transpose eigenvalue of each matrix of a (P, 4, 4) stack."""
    pt = rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    return np.linalg.eigvalsh(pt)[:, 0]


@dataclass(frozen=True)
class PairAnalysis:
    """Entanglement summary for one site pair of a chain."""

    pair: tuple[int, int]
    concurrence: float
    ppt_min_eig: float

    @property
    def entangled(self) -> bool:
        return self.ppt_min_eig < -ENTANGLEMENT_TOL


def _check_pair(n: int, pair: tuple[int, int]) -> None:
    if n < 2:
        raise ValueError(f"chain size {n} must be at least 2")
    i, j = pair
    if not (1 <= i < j <= n):
        raise ValueError(f"pair {pair} must satisfy 1 <= i < j <= {n}")


def averaged_pair_state(
    n: int, dist: PhaseDistribution, pair: tuple[int, int]
) -> DensityMatrix:
    """Exact phase-averaged reduced state of two sites of an n-site chain.

    Entry ((a, b), (a', b')) is 2^-n times the sum over the traced bit
    assignments of prod_j (-1)^{z_j z_{j+1} + z'_j z'_{j+1}}
    char(z_j z_{j+1} - z'_j z'_{j+1}), with z = z' on the traced sites.
    """
    _check_pair(n, pair)
    return DensityMatrix(2, _pair_states(n, [_doubled_transfer(dist)] * (n - 1), [pair])[0])


def _doubled_transfer(dist: PhaseDistribution) -> np.ndarray:
    """Edge transfer matrix over (z_k, z_k') -> (z_{k+1}, z_{k+1}')."""
    return pair_transfer(dist) * PAIR_SIGN


def _pair_states(
    n: int, transfers: Sequence[np.ndarray], pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Reduced states of ``pairs`` of an n-site chain, one transfer per edge.

    Pair (i, j) is left[i] middle(i, j) right[j] over [(z_i, z_i'), (z_j, z_j')]:
    left[i] sums the traced sites before i, right[j] those after j, and
    middle(i, j) = T_i D T_{i+1} ... D T_{j-1} with D = diag(1, 0, 0, 1).
    """
    # a factor 1/2 per edge and one at site 1 give 2^-n without forming 2.0**n
    t = 0.5 * np.asarray(transfers)
    left, right = [np.full(4, 0.5 + 0j)], [np.ones(4, dtype=complex)]
    for k in range(n - 1):
        left.append((left[-1] * _TRACED) @ t[k])
        right.append(t[n - 2 - k] @ (_TRACED * right[-1]))
    first, second = np.array(pairs).T - 1
    gaps, lo = second - first, first.min()
    middle = t[lo : first.max() + 1]  # middle[s] spans sites lo + s .. lo + s + gap
    out = np.empty((len(pairs), 4, 4), dtype=complex)
    for gap in range(1, gaps.max() + 1):
        out[gaps == gap] = middle[first[gaps == gap] - lo]
        middle = middle[: n - 1 - lo - gap]  # the start sites with a next edge
        middle = (middle * _TRACED) @ t[lo + gap : lo + gap + len(middle)]
    states = np.array(left)[first, :, None] * out * np.array(right[::-1])[second, None, :]
    # [(a, a'), (b, b')] -> [(a, b), (a', b')]
    return states.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)


def pair_scan(n: int, dist: PhaseDistribution) -> list[PairAnalysis]:
    """Analyze every site pair of an n-site chain, lexicographic order."""
    _check_pair(n, (1, 2))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    states = _pair_states(n, [_doubled_transfer(dist)] * (n - 1), pairs)
    check_density(states)
    return [
        PairAnalysis(pair, float(c), float(e))
        for pair, c, e in zip(pairs, _concurrences(states), _ppt_min_eigenvalues(states))
    ]


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
    of the averaged state; the two differ in general. Sample k reads its edge
    phases from row k of ``phasenoise._seeded_rows``.
    """
    _check_pair(n, pair)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    total = 0.0
    for row in _seeded_rows(dist, n - 1, n_samples, seed):
        char = np.exp(1j * np.multiply.outer(row, (-1, 0, 1)))  # e^{i k theta}, k = -1, 0, 1
        transfers = char[:, _PAIR_CHAR_INDEX] * PAIR_SIGN
        total += concurrence(DensityMatrix(2, _pair_states(n, transfers, [pair])[0]))
    return total / n_samples
