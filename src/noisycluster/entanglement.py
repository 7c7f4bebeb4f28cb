"""Two-qubit entanglement analytics for noisy chain clusters.

Averaging a chain's density matrix over independent edge deviations turns
each edge factor into a characteristic value, so the reduced state of a site
pair is a contraction of 4x4 transfer matrices over bit pairs (z, z'), z = z'
on the traced sites. Its environments are built once per chain, so all pairs
take O(n) numpy calls, at any chain length. On a uniform chain a pair state
depends only on the pair's class (first site an end, second site an end,
separation 1, 2 or more), and all ten classes occur on six sites, so the
averaged states are read off a chain of at most six sites, whatever n is.
Entanglement is quantified by the Wootters concurrence and cross-checked by
the partial transpose criterion (equivalent for two qubits), both evaluated
on stacks of states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .phasenoise import (
    PhaseDistribution, _char_rows, _check_finite_phases, _edge_tables, _seeded_rows
)
from .states import DensityMatrix, PAULI_Y, _check_hermitian_unit_trace, _check_psd

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
    return float(_concurrences(*np.linalg.eigh(rho.entries[None]))[0])


def _concurrences(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Concurrence of each matrix of a (P, 4, 4) stack, given its ``np.linalg.eigh``."""
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
    It is read off the pair's class representative, so it costs O(1) in n.
    """
    _check_pair(n, pair)
    m, reps, (k,) = _pair_classes(n, [pair])
    chain = np.broadcast_to(_edge_tables(_char_rows([dist]), "doubled"), (1, m - 1, 4, 4))
    return DensityMatrix(2, _pair_states(m, chain, [reps[k]])[0, 0])


def _pair_classes(
    n: int, pairs: Sequence[tuple[int, int]]
) -> tuple[int, list[tuple[int, int]], list[int]]:
    """Class representatives of the ``pairs`` of an n-site uniform chain.

    Classes follow the locality of graph-state stabilizers (Hein, Eisert & Briegel 2004).
    Pair (i, j) is in class (i == 1, j == n, min(j - i, 3)). Returns m = min(n, 6),
    one representative pair on the m-site chain per class that occurs there (all ten
    classes for n >= 6), and the index of each pair's representative. On a uniform
    chain every traced site passes on z = z' entries of exactly 1/2 from the left and
    exactly 1 from the right, and the middle product times D is the same from
    separation 2 on, so a pair state equals its representative's bit for bit.
    """
    m = min(n, 6)
    reps: dict[tuple[bool, bool, int], tuple[int, int]] = {}
    for i, j in itertools.combinations(range(1, m + 1), 2):
        reps.setdefault((i == 1, j == m, min(j - i, 3)), (i, j))
    ids = {key: k for k, key in enumerate(reps)}
    return m, list(reps.values()), [ids[i == 1, j == n, min(j - i, 3)] for i, j in pairs]


def _pair_states(
    n: int, transfers: np.typing.ArrayLike, pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Reduced states of ``pairs`` of n-site chains, one transfer per edge.

    ``transfers`` is ``(S, n - 1, 4, 4)``, one row per chain; the result is
    ``(S, P, 4, 4)``, and a chain's states do not depend on the other chains.
    Pair (i, j) is left[i] middle(i, j) right[j] over [(z_i, z_i'), (z_j, z_j')]:
    left[i] sums the traced sites before i, right[j] those after j, and
    middle(i, j) = T_i D T_{i+1} ... D T_{j-1} with D = diag(1, 0, 0, 1).
    """
    # a factor 1/2 per edge and one at site 1 give 2^-n without forming 2.0**n
    t = 0.5 * np.asarray(transfers)
    chains = len(t)
    # (S, 1, 4) rows and (S, 4, 1) columns: each chain's matmul keeps the
    # vector-matrix shape of a single chain, and with it the same bits
    left = [np.full((chains, 1, 4), 0.5 + 0j)]
    right = [np.ones((chains, 4, 1), dtype=complex)]
    for k in range(n - 1):
        left.append((left[-1] * _TRACED) @ t[:, k])
        right.append(t[:, n - 2 - k] @ (_TRACED[:, None] * right[-1]))
    first, second = np.array(pairs).T - 1
    gaps, lo = second - first, first.min()
    middle = t[:, lo : first.max() + 1]  # middle[:, s] spans sites lo + s .. lo + s + gap
    out = np.empty((chains, len(pairs), 4, 4), dtype=complex)
    for gap in range(1, gaps.max() + 1):
        out[:, gaps == gap] = middle[:, first[gaps == gap] - lo]
        middle = middle[:, : n - 1 - lo - gap]  # the start sites with a next edge
        middle = (middle * _TRACED) @ t[:, lo + gap : lo + gap + middle.shape[1]]
    lefts = np.stack(left, axis=1).reshape(chains, n, 4)[:, first, :, None]
    rights = np.stack(right[::-1], axis=1).reshape(chains, n, 4)[:, second, None, :]
    states = lefts * out * rights
    # [(a, a'), (b, b')] -> [(a, b), (a', b')]
    states = states.reshape(chains, -1, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return states.reshape(chains, -1, 4, 4)


# matrices per batched analysis: a chain has at most ten class states, so a block
# holds 409 distributions
_GRID_BLOCK = 4096


def _pair_grid(n: int, dists: Sequence[PhaseDistribution]) -> tuple[list, list, list]:
    """The pairs of an n-site chain, lexicographic, and flat concurrence and PPT lists over
    (distribution, pair).

    Only the class representatives of ``_pair_classes`` are contracted, on a chain of at
    most six sites, and every pair takes its representative's values, so the cost of the
    physics does not grow with n. A block of whole distributions, at most ``_GRID_BLOCK``
    representative states, is checked and scored with one ``eigh``, which feeds both the
    positive-semidefinite guard and the concurrence.
    """
    _check_pair(n, (1, 2))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    m, reps, index = _pair_classes(n, pairs)
    per_block = max(1, _GRID_BLOCK // len(reps))
    concurrences, ppt = [], []
    for s in range(0, len(dists), per_block):
        table = np.ascontiguousarray(_edge_tables(_char_rows(dists[s : s + per_block]), "doubled"))
        block = np.broadcast_to(table[:, None], (len(table), m - 1, 4, 4))
        states = _pair_states(m, block, reps).reshape(-1, 4, 4)
        _check_hermitian_unit_trace(states)  # before LAPACK: NaN must not reach eigh
        w, v = np.linalg.eigh(states)
        _check_psd(w[:, 0])
        c, p = _concurrences(w, v).tolist(), _ppt_min_eigenvalues(states).tolist()
        # one distribution at a time, in pair order; pairs of one class share one float
        # object, not just one value: less memory per row
        for row in range(0, len(c), len(reps)):
            concurrences += map(c[row : row + len(reps)].__getitem__, index)
            ppt += map(p[row : row + len(reps)].__getitem__, index)
    return pairs, concurrences, ppt


def pair_scan_grid(n: int, dists: Sequence[PhaseDistribution]) -> list[list[PairAnalysis]]:
    """``pair_scan`` of an n-site chain for each distribution of ``dists``.

    Entry k equals ``pair_scan(n, dists[k])`` bit for bit.
    """
    pairs, concurrences, ppt = _pair_grid(n, dists)
    values = zip(concurrences, ppt)
    return [[PairAnalysis(pair, *next(values)) for pair in pairs] for _ in dists]


def pair_scan(n: int, dist: PhaseDistribution) -> list[PairAnalysis]:
    """Analyze every site pair of an n-site chain, lexicographic order."""
    return pair_scan_grid(n, [dist])[0]


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
    phases from row k of ``phasenoise._seeded_rows``, which must be finite.
    """
    _check_pair(n, pair)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    total = 0.0
    for row in _seeded_rows(dist, n - 1, n_samples, seed):
        _check_finite_phases(row)
        transfers = _edge_tables(np.exp(1j * np.multiply.outer(row, (-1, 0, 1))), "doubled")
        total += concurrence(DensityMatrix(2, _pair_states(n, transfers[None], [pair])[0, 0]))
    return total / n_samples
