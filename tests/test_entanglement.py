"""Concurrence, partial transpose and phase-averaged pair states.

The averaged reduced states are cross-checked against the dense engine:
build a noisy chain realization, partial-trace, average over samples.
"""

import itertools
import math

import numpy as np
import pytest

from noisycluster.clusters import build_cluster, chain_graph
from noisycluster.entanglement import (
    PairAnalysis,
    _doubled_transfer,
    _pair_states,
    averaged_pair_state,
    concurrence,
    pair_scan,
    ppt_min_eigenvalue,
    sampled_mean_concurrence,
)
from noisycluster.phasenoise import PhaseDistribution, pair_transfer
from noisycluster.states import DensityMatrix, PureState, partial_trace, pure_to_density

SEED = 777


def bell_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return pure_to_density(PureState(2, v))


def werner(w):
    return DensityMatrix(2, w * bell_density().entries + (1.0 - w) * np.eye(4) / 4.0)


def random_two_qubit_density(rng, rank):
    rho = np.zeros((4, 4), dtype=complex)
    weights = rng.dirichlet(np.ones(rank))
    for p in weights:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho += p * np.outer(v, v.conj())
    return DensityMatrix(2, rho)


def char_table(dist, signed):
    """The edge transfer entry by entry: char(pr - qs), times (-1)^{pr+qs} if signed."""
    t = np.empty((4, 4), dtype=complex)
    for p, q, r, s in itertools.product((0, 1), repeat=4):
        sign = (-1.0) ** (p * r + q * s) if signed else 1.0
        t[2 * p + q, 2 * r + s] = sign * dist.char_value(p * r - q * s)
    return t


def walk_pair_state(n, transfers, pair):
    """Reference pair state: one (z, z') walk along the chain per matrix entry,
    pinning the pair's bits and forcing z = z' on every other site."""
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
    return rho


# --- concurrence and partial transpose ---


def test_concurrence_bell_and_product():
    assert concurrence(bell_density()) == pytest.approx(1.0, abs=1e-10)
    product = pure_to_density(PureState(2, np.array([1.0, 0, 0, 0], dtype=complex)))
    assert concurrence(product) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_pure_state_formula():
    # C = 2 |ad - bc| for amplitudes (a, b, c, d)
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        expect = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
        assert concurrence(pure_to_density(PureState(2, v))) == pytest.approx(
            expect, abs=1e-9
        )


def test_werner_state_closed_forms():
    for w in np.linspace(0.0, 1.0, 11):
        rho = werner(float(w))
        assert concurrence(rho) == pytest.approx(max(0.0, (3.0 * w - 1.0) / 2.0), abs=1e-9)
        assert ppt_min_eigenvalue(rho) == pytest.approx((1.0 - 3.0 * w) / 4.0, abs=1e-9)


def test_ppt_bell():
    assert ppt_min_eigenvalue(bell_density()) == pytest.approx(-0.5, abs=1e-10)


def test_ppt_and_concurrence_agree_on_entanglement():
    # for two qubits both criteria are necessary and sufficient
    rng = np.random.default_rng(SEED + 1)
    checked = 0
    for _ in range(40):
        rho = random_two_qubit_density(rng, int(rng.integers(1, 5)))
        c = concurrence(rho)
        e = ppt_min_eigenvalue(rho)
        if c > 1e-7 or e < -1e-7:  # skip numerically borderline states
            assert (c > 1e-7) == (e < -1e-7)
            checked += 1
    assert checked > 10


def test_two_qubit_guards():
    one = DensityMatrix(1, np.eye(2) / 2.0)
    with pytest.raises(ValueError, match="two qubits"):
        concurrence(one)
    with pytest.raises(ValueError, match="two qubits"):
        ppt_min_eigenvalue(one)


# --- averaged pair states ---


def test_averaged_pair_state_fixed_matches_dense_trace():
    # a point distribution reduces the average to one noisy realization
    for n in (3, 4, 6):
        for theta in (0.0, 0.8, 2.5):
            g = chain_graph(n, [theta] * (n - 1))
            state = build_cluster(g)
            for pair in ((1, 2), (1, n), (2, n - 1) if n > 3 else (2, 3)):
                expect = partial_trace(state, pair).entries
                got = averaged_pair_state(n, PhaseDistribution.fixed(theta), pair)
                np.testing.assert_allclose(got.entries, expect, atol=1e-10)


def test_averaged_pair_state_matches_sampled_average():
    n, pair = 4, (2, 4)
    dist = PhaseDistribution.gaussian(0.6)
    rng = np.random.default_rng(SEED + 2)
    acc = np.zeros((4, 4), dtype=complex)
    n_samples = 3000
    for _ in range(n_samples):
        thetas = [dist.sample(rng) for _ in range(n - 1)]
        state = build_cluster(chain_graph(n, thetas))
        acc += partial_trace(state, pair).entries
    acc /= n_samples
    exact = averaged_pair_state(n, dist, pair).entries
    # entrywise Monte Carlo tolerance, generous at 3000 samples
    assert np.max(np.abs(acc - exact)) < 0.05


def test_averaged_pair_state_ideal_chain_pairs_unentangled():
    ideal = PhaseDistribution.fixed(0.0)
    for n in (3, 5):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                rho = averaged_pair_state(n, ideal, (i, j))
                assert concurrence(rho) <= 1e-9
                assert ppt_min_eigenvalue(rho) >= -1e-9


def test_averaged_pair_state_guards():
    d = PhaseDistribution.gaussian(0.5)
    with pytest.raises(ValueError, match="chain size"):
        averaged_pair_state(1, d, (1, 2))
    with pytest.raises(ValueError, match="pair"):
        averaged_pair_state(5, d, (3, 3))
    with pytest.raises(ValueError, match="pair"):
        averaged_pair_state(5, d, (2, 6))


def test_nearest_neighbor_symmetry():
    for n in (4, 6):
        for sigma in (0.4, 1.0):
            d = PhaseDistribution.gaussian(sigma)
            first = concurrence(averaged_pair_state(n, d, (1, 2)))
            last = concurrence(averaged_pair_state(n, d, (n - 1, n)))
            assert first == pytest.approx(last, abs=1e-10)


def test_pair_scan_shape_and_consistency():
    n = 4
    scans = pair_scan(n, PhaseDistribution.gaussian(0.5))
    assert [a.pair for a in scans] == [
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]
    for a in scans:
        assert isinstance(a, PairAnalysis)
        assert a.entangled == (a.ppt_min_eig < -1e-9)
        rho = averaged_pair_state(n, PhaseDistribution.gaussian(0.5), a.pair)
        assert a.concurrence == pytest.approx(concurrence(rho), abs=1e-12)


@pytest.mark.parametrize("n", [11, 17, 40])
def test_long_chains_match_the_walk(n):
    d = PhaseDistribution.gaussian(0.5)
    transfers = [char_table(d, signed=True)] * (n - 1)
    scan = {a.pair: a for a in pair_scan(n, d)}
    assert len(scan) == n * (n - 1) // 2
    for pair in ((1, 2), (1, n), (n // 2, n // 2 + 1), (3, n - 2), (n - 1, n)):
        expect = DensityMatrix(2, walk_pair_state(n, transfers, pair))
        np.testing.assert_allclose(averaged_pair_state(n, d, pair).entries, expect.entries, atol=1e-12)
        assert scan[pair].concurrence == pytest.approx(concurrence(expect), abs=1e-12)
        assert scan[pair].ppt_min_eig == pytest.approx(ppt_min_eigenvalue(expect), abs=1e-12)


def test_pair_scan_rejects_short_chains():
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="chain size"):
            pair_scan(n, PhaseDistribution.gaussian(0.5))


# --- the environment contraction ---


def test_transfer_tables_match_char_values():
    dists = [PhaseDistribution.flat(w) for w in (0.0, 1.3, 5.0)]
    dists += [PhaseDistribution.gaussian(s) for s in (0.0, 0.4, 2.0)]
    dists += [PhaseDistribution.fixed(t) for t in (0.0, 0.7, -2.9, math.pi)]
    for d in dists:
        assert np.array_equal(pair_transfer(d), char_table(d, signed=False))
        assert np.array_equal(_doubled_transfer(d), char_table(d, signed=True))


def test_pair_states_match_the_walk_per_edge():
    # random complex transfers, not symmetric as the physical ones are, so a
    # transposed leg or a swapped environment would show
    rng = np.random.default_rng(SEED + 3)
    for n in (2, 3, 7, 12):
        transfers = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(n - 1)]
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        got = _pair_states(n, transfers, pairs)
        for k, pair in enumerate(pairs):
            np.testing.assert_allclose(got[k], walk_pair_state(n, transfers, pair), atol=1e-12)
            assert np.array_equal(_pair_states(n, transfers, [pair])[0], got[k])


def test_pair_scan_equals_single_pair_analysis():
    n = 10
    for sigma in np.linspace(0.1, 1.0, 10):  # the concurrence-scan grid
        d = PhaseDistribution.gaussian(float(sigma))
        for a in pair_scan(n, d):
            rho = averaged_pair_state(n, d, a.pair)
            assert a.concurrence == concurrence(rho)
            assert a.ppt_min_eig == ppt_min_eigenvalue(rho)


# --- sampled concurrence ---


def test_sampled_mean_concurrence_deterministic():
    d = PhaseDistribution.gaussian(0.7)
    a = sampled_mean_concurrence(4, d, (1, 2), 25, seed=5)
    b = sampled_mean_concurrence(4, d, (1, 2), 25, seed=5)
    assert a == b
    c = sampled_mean_concurrence(4, d, (1, 2), 25, seed=6)
    assert a != c


def test_sampled_mean_concurrence_fixed_dist():
    # every draw is the same realization, so the mean equals the averaged case
    d = PhaseDistribution.fixed(1.2)
    got = sampled_mean_concurrence(4, d, (1, 2), 3, seed=1)
    expect = concurrence(averaged_pair_state(4, d, (1, 2)))
    assert got == pytest.approx(expect, abs=1e-12)


def test_sampled_mean_concurrence_equals_per_edge_transfers_bit_for_bit():
    """One expression per sample against n - 1 fixed-distribution transfers."""
    for n, pair, dist in [
        (4, (1, 2), PhaseDistribution.gaussian(0.3)),
        (6, (2, 5), PhaseDistribution.flat(2.0 * math.pi)),
        (5, (1, 5), PhaseDistribution.gaussian(1e6)),
        (3, (1, 3), PhaseDistribution.fixed(-0.0)),
        (3, (1, 2), PhaseDistribution.fixed(math.pi)),
    ]:
        total = 0.0
        for k in range(12):
            rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(k,)))
            transfers = [
                _doubled_transfer(PhaseDistribution.fixed(t)) for t in dist.sample(rng, n - 1)
            ]
            total += concurrence(DensityMatrix(2, _pair_states(n, transfers, [pair])[0]))
        assert sampled_mean_concurrence(n, dist, pair, 12, seed=9) == total / 12


def test_sampled_mean_concurrence_guard():
    d = PhaseDistribution.gaussian(0.5)
    with pytest.raises(ValueError, match="at least one sample"):
        sampled_mean_concurrence(4, d, (1, 2), 0, seed=1)
    with pytest.raises(ValueError, match="pair"):
        sampled_mean_concurrence(4, d, (0, 2), 5, seed=1)


# values of the per-entry walk the pair states were computed by before the
# environment contraction
SAMPLED_MEANS = [
    ((4, PhaseDistribution.gaussian(0.7), (1, 2), 25, 5), 0.2928328562661886),
    ((8, PhaseDistribution.gaussian(1.0), (3, 4), 20, 42), 0.03793238790484198),
    ((7, PhaseDistribution.gaussian(0.6), (1, 2), 12, 1), 0.1890466104254226),
    ((5, PhaseDistribution.flat(2.0), (2, 3), 30, 3), 0.0011721295555484248),
    ((3, PhaseDistribution.flat(4.0), (1, 3), 15, 9), 2.55351295663786e-16),
    ((10, PhaseDistribution.gaussian(0.3), (5, 6), 10, 7), 0.0),
]


@pytest.mark.parametrize("args, expect", SAMPLED_MEANS)
def test_sampled_mean_concurrence_pinned(args, expect):
    assert sampled_mean_concurrence(*args) == pytest.approx(expect, rel=1e-13, abs=1e-16)
