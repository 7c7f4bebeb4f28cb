"""Transfer-matrix overlaps and closed-form dephasing fidelities.

Oracles: direct 2^N bitstring sums, the dense state engine, and Monte Carlo
sampling of the phase distributions.
"""

import math

import numpy as np
import pytest

from noisycluster.clusters import build_cluster, chain_graph, grid_graph
from noisycluster.phasenoise import (
    DEPHASING_FAMILIES,
    OverlapResult,
    PhaseDistribution,
    dephasing_fidelity,
    overlap_avg,
    overlap_exact,
)
from noisycluster.states import (
    DephasingChannel,
    PureState,
    dephase,
    fidelity_pure_mixed,
    overlap,
    pure_to_density,
)

SEED = 90210

# frozen spot values, reproduced by the dense-simulation oracle below
GHZ3_DEPHASED = 0.9151367974909663
W3_DEPHASED = 0.9222532272551671
LIN25_DEPHASED = 0.4662704616040621


def overlap_direct_sum(thetas):
    """2^N-term bitstring sum, the oracle overlap_exact must reproduce."""
    n = len(thetas) + 1
    total = 0.0 + 0.0j
    for z in range(1 << n):
        bits = [(z >> (n - 1 - j)) & 1 for j in range(n)]
        phase = sum(t * bits[j] * bits[j + 1] for j, t in enumerate(thetas))
        total += np.exp(1j * phase)
    return total / 2.0**n


def ghz_state(n):
    v = np.zeros(1 << n, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return PureState(n, v)


def w_state(n):
    v = np.zeros(1 << n, dtype=complex)
    for j in range(n):
        v[1 << j] = 1.0 / math.sqrt(n)
    return PureState(n, v)


# --- phase distributions ---


def test_char_value_fixed():
    d = PhaseDistribution.fixed(0.7)
    for k in (-2, -1, 0, 1, 3):
        assert d.char_value(k) == pytest.approx(np.exp(1j * k * 0.7))


def test_char_value_flat():
    d = PhaseDistribution.flat(2.0)
    for k in (1, 2, 5):
        assert d.char_value(k) == pytest.approx(math.sin(k) / k)
    assert d.char_value(0) == 1.0
    assert PhaseDistribution.flat(0.0).char_value(3) == 1.0


def test_char_value_gaussian():
    d = PhaseDistribution.gaussian(0.5)
    for k in (1, 2, 4):
        assert d.char_value(k) == pytest.approx(math.exp(-0.5 * (0.5 * k) ** 2))


@pytest.mark.parametrize(
    "dist",
    [
        PhaseDistribution.flat(2.5),
        PhaseDistribution.gaussian(0.8),
        PhaseDistribution.fixed(-1.1),
    ],
)
def test_char_value_matches_sampling(dist):
    rng = np.random.default_rng(SEED)
    draws = np.array([dist.sample(rng) for _ in range(20000)])
    for k in (1, 2):
        est = np.exp(1j * k * draws).mean()
        assert abs(est - dist.char_value(k)) < 4.0 / math.sqrt(len(draws))


@pytest.mark.parametrize(
    "dist",
    [
        PhaseDistribution.flat(2.5),
        PhaseDistribution.gaussian(0.8),
        PhaseDistribution.fixed(-1.1),
    ],
)
def test_sample_array_equals_successive_draws(dist):
    # the Monte Carlo drivers draw each sample's phases as one array; the
    # documented stream is one draw per edge in turn
    batched, single = np.random.default_rng(SEED), np.random.default_rng(SEED)
    for _ in range(50):
        draws = dist.sample(batched, 7)
        assert draws.shape == (7,)
        assert draws.tolist() == [dist.sample(single) for _ in range(7)]
    assert isinstance(dist.sample(single), float)


def test_distribution_validation():
    with pytest.raises(ValueError, match="unknown distribution"):
        PhaseDistribution("triangular", 1.0)
    with pytest.raises(ValueError, match="width"):
        PhaseDistribution.flat(-1.0)
    with pytest.raises(ValueError, match="sigma"):
        PhaseDistribution.gaussian(-0.5)


# --- exact overlaps ---


def test_overlap_exact_matches_direct_sum():
    rng = np.random.default_rng(SEED + 1)
    for n in range(2, 9):
        thetas = rng.uniform(-math.pi, math.pi, size=n - 1)
        assert overlap_exact(thetas) == pytest.approx(
            overlap_direct_sum(thetas), abs=1e-12
        )


def test_overlap_exact_matches_state_engine():
    # <ideal cluster | noisy cluster> computed with dense vectors
    rng = np.random.default_rng(SEED + 2)
    for n in (3, 5, 6):
        thetas = list(rng.uniform(-math.pi, math.pi, size=n - 1))
        ideal = build_cluster(chain_graph(n))
        noisy = build_cluster(chain_graph(n, thetas))
        assert overlap_exact(thetas) == pytest.approx(
            complex(overlap(ideal, noisy)), abs=1e-12
        )


def test_overlap_exact_single_edge_closed_form():
    for t in (0.0, 0.4, math.pi):
        assert overlap_exact([t]) == pytest.approx((3.0 + np.exp(1j * t)) / 4.0)


def test_overlap_exact_zero_noise():
    assert overlap_exact([0.0] * 5) == pytest.approx(1.0)


def test_overlap_exact_needs_an_edge():
    with pytest.raises(ValueError, match="at least one edge"):
        overlap_exact([])


# --- averaged overlaps ---


def test_overlap_avg_fixed_dist_is_deterministic():
    # a point distribution keeps the state pure: both averages coincide
    for n in (2, 4, 7):
        res = overlap_avg(PhaseDistribution.fixed(0.9), n)
        f = abs(overlap_exact([0.9] * (n - 1))) ** 2
        assert res.fidelity_of_mean == pytest.approx(f, abs=1e-12)
        assert res.mean_fidelity == pytest.approx(f, abs=1e-12)


def test_overlap_avg_zero_noise():
    res = overlap_avg(PhaseDistribution.flat(0.0), 6)
    assert res.fidelity_of_mean == pytest.approx(1.0, abs=1e-14)
    assert res.mean_fidelity == pytest.approx(1.0, abs=1e-14)


def test_overlap_avg_two_site_closed_form():
    lam = 1.7
    res = overlap_avg(PhaseDistribution.flat(lam), 2)
    m1 = math.sin(lam / 2.0) / (lam / 2.0)
    assert res.mean_overlap == pytest.approx((3.0 + m1) / 4.0)


@pytest.mark.parametrize(
    "dist",
    [PhaseDistribution.flat(2.0), PhaseDistribution.gaussian(0.7)],
)
def test_overlap_avg_matches_monte_carlo(dist):
    n = 5
    rng = np.random.default_rng(SEED + 3)
    fids = np.empty(4000)
    means = np.empty(4000, dtype=complex)
    for k in range(len(fids)):
        thetas = [dist.sample(rng) for _ in range(n - 1)]
        f = overlap_exact(thetas)
        means[k] = f
        fids[k] = abs(f) ** 2
    res = overlap_avg(dist, n)
    se_fid = fids.std(ddof=1) / math.sqrt(len(fids))
    assert abs(res.mean_fidelity - fids.mean()) < 4.0 * se_fid
    se_re = means.real.std(ddof=1) / math.sqrt(len(means))
    assert abs(res.mean_overlap.real - means.real.mean()) < 4.0 * se_re


def test_mean_fidelity_dominates_fidelity_of_mean():
    for lam in (0.5, 1.5, 3.0, 6.0):
        for n in (2, 5, 9):
            res = overlap_avg(PhaseDistribution.flat(lam), n)
            assert res.mean_fidelity >= res.fidelity_of_mean - 1e-12


def test_overlap_avg_needs_two_sites():
    with pytest.raises(ValueError, match="at least 2"):
        overlap_avg(PhaseDistribution.flat(1.0), 1)


def test_overlap_result_validation():
    with pytest.raises(ValueError, match="outside"):
        OverlapResult(0.0, 1.5, 1.6)
    with pytest.raises(ValueError, match="below"):
        OverlapResult(0.0, 0.9, 0.2)


# --- dephasing fidelities ---


def test_dephasing_single_plus():
    assert dephasing_fidelity("single_plus", 1, 0.4) == pytest.approx(
        0.5 * (1.0 + math.exp(-0.4))
    )


@pytest.mark.parametrize("gamma", [0.01, 0.062, 0.3])
@pytest.mark.parametrize("n", [3, 4])
def test_dephasing_matches_dense_simulation(gamma, n):
    channel = DephasingChannel(gamma)
    cases = [
        ("ghz", ghz_state(n)),
        ("w", w_state(n)),
        ("linear_cluster", build_cluster(chain_graph(n))),
    ]
    for family, state in cases:
        rho = dephase(pure_to_density(state), channel)
        brute = fidelity_pure_mixed(state, rho)
        assert dephasing_fidelity(family, n, gamma) == pytest.approx(brute, abs=1e-12)


def test_dephasing_square_matches_dense_simulation():
    state = build_cluster(grid_graph(2, 2))
    rho = dephase(pure_to_density(state), DephasingChannel(0.3))
    brute = fidelity_pure_mixed(state, rho)
    assert dephasing_fidelity("square_cluster", 2, 0.3) == pytest.approx(brute, abs=1e-12)


def test_dephasing_spot_values():
    assert dephasing_fidelity("ghz", 3, 0.062) == pytest.approx(GHZ3_DEPHASED, abs=1e-12)
    assert dephasing_fidelity("w", 3, 0.062) == pytest.approx(W3_DEPHASED, abs=1e-12)
    assert dephasing_fidelity("linear_cluster", 25, 0.062) == pytest.approx(
        LIN25_DEPHASED, abs=1e-12
    )


def binomial_dephasing(size, gamma):
    """2^-N sum_h C(N, h) e^{-gamma h}, each term in logs so none overflows."""
    log_norm = math.lgamma(size + 1) - size * math.log(2.0)
    return math.fsum(
        math.exp(log_norm - math.lgamma(h + 1) - math.lgamma(size - h + 1) - gamma * h)
        for h in range(size + 1)
    )


@pytest.mark.parametrize("gamma", [0.0, 0.062, 0.3, 2.0])
def test_cluster_dephasing_matches_binomial_sum(gamma):
    # up to 32 x 32 squares, where 2.0**N and C(N, h) overflow a float
    for n in range(2, 33):
        assert dephasing_fidelity("linear_cluster", n, gamma) == pytest.approx(
            binomial_dephasing(n, gamma), rel=1e-10
        )
    for side in range(1, 33):
        assert dephasing_fidelity("square_cluster", side, gamma) == pytest.approx(
            binomial_dephasing(side * side, gamma), rel=1e-10
        )


def test_dephasing_square_is_linear_at_squared_size():
    for side in (2, 3, 5):
        assert dephasing_fidelity("square_cluster", side, 0.11) == pytest.approx(
            dephasing_fidelity("linear_cluster", side * side, 0.11), abs=1e-14
        )


def test_dephasing_limits():
    assert dephasing_fidelity("ghz", 4, 0.0) == 1.0
    assert dephasing_fidelity("w", 5, 0.0) == 1.0
    assert dephasing_fidelity("linear_cluster", 6, 0.0) == 1.0
    big = 50.0
    assert dephasing_fidelity("ghz", 4, big) == pytest.approx(0.5)
    assert dephasing_fidelity("w", 5, big) == pytest.approx(0.2)
    assert dephasing_fidelity("linear_cluster", 6, big) == pytest.approx(2.0**-6)


def test_dephasing_monotone_in_gamma_and_size():
    gammas = np.linspace(0.0, 1.0, 6)
    for family in ("ghz", "w", "linear_cluster"):
        vals = [dephasing_fidelity(family, 5, g) for g in gammas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    for family in ("ghz", "w", "linear_cluster", "square_cluster"):
        vals = [dephasing_fidelity(family, n, 0.2) for n in range(3, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dephasing_domain_errors():
    with pytest.raises(ValueError, match="unknown family"):
        dephasing_fidelity("ring", 4, 0.1)
    with pytest.raises(ValueError, match="one-qubit"):
        dephasing_fidelity("single_plus", 2, 0.1)
    with pytest.raises(ValueError, match="n >= 3"):
        dephasing_fidelity("ghz", 2, 0.1)
    with pytest.raises(ValueError, match="n >= 3"):
        dephasing_fidelity("w", 1, 0.1)
    with pytest.raises(ValueError, match="n >= 2"):
        dephasing_fidelity("linear_cluster", 1, 0.1)
    with pytest.raises(ValueError, match="side"):
        dephasing_fidelity("square_cluster", 0, 0.1)
    with pytest.raises(ValueError, match="gamma"):
        dephasing_fidelity("ghz", 3, -0.1)
    assert set(DEPHASING_FAMILIES) == {
        "single_plus",
        "ghz",
        "w",
        "linear_cluster",
        "square_cluster",
    }
