"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports ``noisycluster``. Each function recomputes a result by
a route the package does not take: tensor contractions over site bits in
place of the dense state vector, 2x2 transfer products in place of
teleportation runs, and plain sums over bit strings in place of transfer
matrices and closed forms.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def theta_draws(master_seed: int, n_samples: int, n_edges: int, sigma: float) -> np.ndarray:
    """Gaussian edge phases of the documented per-sample stream.

    Sample k uses ``default_rng(SeedSequence(master_seed, spawn_key=(k,)))``
    and draws one phase per edge, edges in ascending order.
    """
    out = np.empty((n_samples, n_edges))
    for k in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(k,)))
        for e in range(n_edges):
            out[k, e] = rng.normal(0.0, sigma)
    return out


def edge_tensors(thetas: np.ndarray) -> np.ndarray:
    """Batched noisy entangling-gate tensors [[1, 1], [1, -e^{i theta}]]."""
    t = np.ones(thetas.shape + (2, 2), dtype=complex)
    t[..., 1, 1] = -np.exp(1j * thetas)
    return t


def planar_bra(alpha: float) -> np.ndarray:
    """<m_0| of the planar basis (|0> + e^{i alpha}|1>)/sqrt(2)."""
    return np.array([1.0, np.exp(-1j * alpha)]) / math.sqrt(2.0)


def cnot(control: int, target: int) -> np.ndarray:
    """4x4 CNOT, logical positions 0 and 1, position 0 the high bit."""
    m = np.zeros((4, 4), dtype=complex)
    for z in range(4):
        bits = [z >> 1, z & 1]
        bits[target] ^= bits[control]
        m[2 * bits[0] + bits[1], z] = 1.0
    return m


class PatternOracle:
    """Postselected all-zero branch of a measurement pattern as a tensor network.

    Every site contributes a 2-vector over its computational bit: its input
    (or |+>) times the bra of its measurement, or just the input on an open
    output leg. Every edge contributes the noisy gate tensor. Contracting
    over the measured bits leaves the unnormalised two-qubit output, which
    ``output_unitary`` decodes into the logical frame.
    """

    def __init__(self, sites, edges, bras, outputs, output_unitary):
        self.sites = tuple(sites)
        self.edges = tuple(sorted(edges))
        self.bras = dict(bras)
        self.outputs = tuple(outputs)
        self.output_unitary = output_unitary
        letters = dict(zip(self.sites, "abcdefghijklmnopqrstuvwxy"))
        terms = [letters[s] for s in self.sites]
        terms += ["z" + letters[a] + letters[b] for a, b in self.edges]
        out = "z" + "".join(letters[s] for s in self.outputs)
        self.subscripts = ",".join(terms) + "->" + out

    def with_bra_phases(self, phases) -> "PatternOracle":
        """Copy whose bras on the given sites carry extra diag(1, p) factors."""
        bras = dict(self.bras)
        for site, p in phases.items():
            bras[site] = bras[site] * np.array([1.0, p])
        return PatternOracle(self.sites, self.edges, bras, self.outputs, self.output_unitary)

    def fidelities(self, inputs, ideal, thetas: np.ndarray) -> np.ndarray:
        """|<ideal|decoded output>|^2 per row of ``thetas`` (one phase per edge)."""
        vectors = []
        for s in self.sites:
            v = np.asarray(inputs.get(s, PLUS), dtype=complex)
            if s in self.bras:
                v = v * self.bras[s]
            vectors.append(v)
        psi = np.einsum(self.subscripts, *vectors, *np.moveaxis(edge_tensors(thetas), 1, 0),
                        optimize="greedy")
        psi = psi.reshape(len(thetas), 4) @ self.output_unitary.T
        norm = np.einsum("bi,bi->b", psi.conj(), psi).real
        return np.abs(psi @ ideal.conj()) ** 2 / norm


PROBE_AMPLITUDES = (
    (1.0, 0.0),
    (0.0, 1.0),
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    (0.6, 0.8j),
)


def probe_fidelities(oracle: PatternOracle, input_sites, gate) -> np.ndarray:
    """Noise-free fidelities on all pairs of probe inputs."""
    zero = np.zeros((1, len(oracle.edges)))
    out = []
    for a, b in itertools.product(PROBE_AMPLITUDES, repeat=2):
        ins = {input_sites[0]: np.array(a), input_sites[1]: np.array(b)}
        ideal = gate @ np.kron(ins[input_sites[0]], ins[input_sites[1]])
        out.append(oracle.fidelities(ins, ideal, zero)[0])
    return np.array(out)


def bridge_oracle(oracle: PatternOracle, input_sites, gate, sites) -> PatternOracle:
    """Resolve the phase gates a Y-measured bridge leaves on its neighbours.

    Tries diag(1, p) with p in {1, i, -1, -i} on each named site and keeps
    the first pair that makes the noise-free pattern exact on every probe.
    """
    for ps in itertools.product((1.0, 1.0j, -1.0, -1.0j), repeat=len(sites)):
        cand = oracle.with_bra_phases(dict(zip(sites, ps)))
        if np.all(np.abs(probe_fidelities(cand, input_sites, gate) - 1.0) < 1e-12):
            return cand
    raise ValueError("no diagonal phase correction restores the pattern")


def wire_fidelities(amp: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Postselected teleportation along a chain, one row of phases per sample.

    Each X-measured site maps the travelling qubit by [[1, 1], [1, -e^{i theta}]]/2;
    the product for ideal gates is undone before comparing with the input.
    """
    n_samples, n_edges = thetas.shape
    steps = edge_tensors(thetas) / 2.0
    psi = np.broadcast_to(amp, (n_samples, 2)).astype(complex)
    for j in range(n_edges):
        psi = np.einsum("bij,bj->bi", steps[:, j], psi)
    ideal = np.linalg.matrix_power(edge_tensors(np.zeros(1))[0] / 2.0, n_edges)
    psi = np.linalg.solve(ideal, psi.T).T
    norm = np.einsum("bi,bi->b", psi.conj(), psi).real
    return np.abs(psi @ amp.conj()) ** 2 / norm


# --- chain analytics by brute force over bit strings --------------------------


def _bits(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return (idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1


def flat_char(width: float, k: int) -> float:
    """E[e^{i k theta}] for theta uniform on [-width/2, width/2]."""
    return float(np.sinc(k * width / (2.0 * math.pi)))


def gaussian_char(sigma: float, k: int) -> float:
    return math.exp(-0.5 * (k * sigma) ** 2)


@functools.lru_cache(maxsize=None)
def _edge_histograms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Over all bit strings z (and pairs z, z') of an n-site chain, how many
    have k edges with z_j z_j+1 = 1, and how many pairs have u edges that
    are 1 only in z and d edges that are 1 only in z'."""
    z = _bits(n)
    p = z[:, :-1] * z[:, 1:]
    ones = np.bincount(p.sum(axis=1), minlength=n)
    up = p @ (1 - p).T
    down = (1 - p) @ p.T
    pairs = np.bincount((up * n + down).ravel(), minlength=n * n).reshape(n, n)
    return ones, pairs


def chain_overlaps(n: int, c1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|E f|^2, E|f|^2) of an n-site chain for each value c1 = E[e^{i theta}].

    f = 2^-n sum_z prod_j e^{i theta_j z_j z_j+1}, so E f and E|f|^2 are sums
    over bit strings of powers of c1 and of its conjugate E[e^{-i theta}].
    """
    ones, pairs = _edge_histograms(n)
    powers = np.asarray(c1, dtype=complex)[:, None] ** np.arange(n)[None, :]
    mean_f = powers @ ones / 2.0**n
    mean_f2 = np.einsum("ud,lu,ld->l", pairs, powers, powers.conj()) / 4.0**n
    return np.abs(mean_f) ** 2, mean_f2.real


def chain_pair_state(n: int, char, i: int, j: int) -> np.ndarray:
    """Phase-averaged reduced state of chain sites i < j (1-based), 4x4.

    rho[(a,b),(a',b')] = 2^-n sum over the other bits (shared by ket and bra)
    of prod_edges (-1)^(p + p') char(p - p'), p = z_k z_k+1 on the ket side.
    """
    rest = [k for k in range(n) if k not in (i - 1, j - 1)]
    zr = _bits(n - 2)
    rho = np.empty((4, 4), dtype=complex)
    for a, b, a2, b2 in itertools.product((0, 1), repeat=4):
        ket = np.empty((len(zr), n), dtype=int)
        bra = np.empty_like(ket)
        ket[:, rest] = zr
        bra[:, rest] = zr
        ket[:, i - 1], ket[:, j - 1] = a, b
        bra[:, i - 1], bra[:, j - 1] = a2, b2
        p = ket[:, :-1] * ket[:, 1:]
        q = bra[:, :-1] * bra[:, 1:]
        w = np.ones(len(zr), dtype=complex)
        for e in range(n - 1):
            for k in (-1, 1):
                w = np.where(p[:, e] - q[:, e] == k, w * char(k), w)
            w = np.where((p[:, e] + q[:, e]) % 2 == 1, -w, w)
        rho[2 * a + b, 2 * a2 + b2] = w.sum() / 2.0**n
    return rho


def wootters_concurrence(rho: np.ndarray) -> float:
    """max(0, l1 - l2 - l3 - l4), l the square roots of the spectrum of rho rho~."""
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    tilde = yy @ rho.conj() @ yy
    lam = np.sqrt(np.clip(np.sort(np.linalg.eigvals(rho @ tilde).real)[::-1], 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def partial_transpose_min(rho: np.ndarray) -> float:
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt)[0])


def dephasing_closed_form(family: str, n: int, gamma: float) -> float:
    g = math.exp(-gamma)
    if family == "w":
        return (1.0 + (n - 1) * g**2) / n
    if family == "ghz":
        return 0.5 * (1.0 + g**n)
    if family == "linear_cluster":
        return (0.5 * (1.0 + g)) ** n
    if family == "square_cluster":
        return (0.5 * (1.0 + g)) ** (n * n)
    raise ValueError(f"no closed form for {family!r}")
