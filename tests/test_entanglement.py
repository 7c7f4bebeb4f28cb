"""Concurrence, partial transpose and phase-averaged pair states.

The averaged reduced states are cross-checked against the dense engine:
build a noisy chain realization, partial-trace, average over samples.
"""

import itertools
import math

import numpy as np
import pytest

from noisycluster import entanglement
from noisycluster.clusters import build_cluster, chain_graph
from noisycluster.entanglement import (
    _GRID_BLOCK,
    PairAnalysis,
    _pair_classes,
    _pair_grid,
    _pair_states,
    averaged_pair_state,
    concurrence,
    pair_scan,
    pair_scan_grid,
    ppt_min_eigenvalue,
    sampled_mean_concurrence,
)
from noisycluster.phasenoise import PhaseDistribution, _char_rows, _edge_tables
from noisycluster.states import (
    DensityMatrix,
    PureState,
    _check_hermitian_unit_trace,
    _check_psd,
    partial_trace,
    pure_to_density,
)

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
        value = dist.char_value(p * r - q * s)  # unsigned: no product, so -0.0 stays
        t[2 * p + q, 2 * r + s] = (-1.0) ** (p * r + q * s) * value if signed else value
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
    # the phasenoise builder's tables, one row per distribution, against the entry loop
    dists = [PhaseDistribution.flat(w) for w in (0.0, 2.0 * math.pi, 4.0 * math.pi, 1e6)]
    dists += [PhaseDistribution.gaussian(s) for s in (0.0, 0.5, 40.0, 1e3)]
    dists += [PhaseDistribution.fixed(t) for t in (0.0, -0.0, math.pi, 0.3)]
    char = _char_rows(dists)
    assert char.shape == (len(dists), 3)
    for kind, signed in (("pair", False), ("doubled", True)):
        tables = _edge_tables(char, kind)
        assert tables.shape == (len(dists), 4, 4)
        for d, table in zip(dists, tables):
            assert table.tobytes() == char_table(d, signed).tobytes(), (kind, d)
            assert _edge_tables(_char_rows([d]), kind)[0].tobytes() == table.tobytes()


def test_pair_states_on_a_broadcast_view_equal_the_list_form():
    # uniform chains pass one table per chain, broadcast read-only along the chain
    dists = [PhaseDistribution.gaussian(0.5), PhaseDistribution.flat(2.5)]
    dists += [PhaseDistribution.fixed(2.0), PhaseDistribution.gaussian(0.0)]
    raw = _edge_tables(_char_rows(dists), "doubled")
    for m, tables in itertools.product(range(2, 7), (raw, np.ascontiguousarray(raw))):
        view = np.broadcast_to(tables[:, None], (len(dists), m - 1, 4, 4))
        assert not view.flags.writeable
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        listed = [[char_table(d, signed=True)] * (m - 1) for d in dists]
        assert _pair_states(m, view, pairs).tobytes() == _pair_states(m, listed, pairs).tobytes()


def test_pair_states_match_the_walk_per_edge():
    # random complex transfers, not symmetric as the physical ones are, so a
    # transposed leg or a swapped environment would show
    rng = np.random.default_rng(SEED + 3)
    for n in (2, 3, 7, 12):
        # three chains in one call: a chain's states must not depend on its neighbours
        transfers = rng.normal(size=(3, n - 1, 4, 4)) + 1j * rng.normal(size=(3, n - 1, 4, 4))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        got = _pair_states(n, transfers, pairs)
        assert got.shape == (3, len(pairs), 4, 4)
        for s, chain in enumerate(transfers):
            for k, pair in enumerate(pairs):
                np.testing.assert_allclose(got[s, k], walk_pair_state(n, chain, pair), atol=1e-12)
                assert np.array_equal(_pair_states(n, chain[None], [pair])[0, 0], got[s, k])


def test_pair_scan_equals_single_pair_analysis():
    n = 10
    for sigma in np.linspace(0.1, 1.0, 10):  # the concurrence-scan grid
        d = PhaseDistribution.gaussian(float(sigma))
        for a in pair_scan(n, d):
            rho = averaged_pair_state(n, d, a.pair)
            assert a.concurrence == concurrence(rho)
            assert a.ppt_min_eig == ppt_min_eigenvalue(rho)


CLI_GRID = np.linspace(0.1, 1.0, 10)  # the concurrence-scan default


@pytest.mark.parametrize("n", [2, 3, 5, 10, 40])
def test_pair_scan_grid_equals_per_sigma_pair_scan(n):
    dists = [PhaseDistribution.gaussian(float(sigma)) for sigma in CLI_GRID]
    assert pair_scan_grid(n, dists) == [pair_scan(n, d) for d in dists]


def test_pair_scan_grid_across_a_block_boundary(monkeypatch):
    n = 64
    dists = [PhaseDistribution.gaussian(s) for s in (0.1, 0.4, 0.7)]
    dists += [PhaseDistribution.flat(2.5), PhaseDistribution.fixed(0.3)]
    expect = [pair_scan(n, d) for d in dists]
    # ten class states per chain: a block holds two distributions and five take three blocks
    monkeypatch.setattr(entanglement, "_GRID_BLOCK", 20)
    assert pair_scan_grid(n, dists) == expect


def _recording_pair_states(monkeypatch):
    """Record (chain length, pairs, states) of every ``_pair_states`` call."""
    calls = []

    def recording(n, transfers, pairs):
        states = _pair_states(n, transfers, pairs)
        calls.append((n, list(pairs), states.shape[0] * states.shape[1]))
        return states

    monkeypatch.setattr(entanglement, "_pair_states", recording)
    return calls


@pytest.mark.parametrize(
    "n, n_dists, blocks",
    [(10, 10, [100]), (64, 5, [50]), (100, 3, [30])],
)
def test_pair_scan_grid_block_sizes(monkeypatch, n, n_dists, blocks):
    # only the ten class representatives are contracted, on a six-site chain
    calls = _recording_pair_states(monkeypatch)
    pair_scan_grid(n, [PhaseDistribution.gaussian(s) for s in CLI_GRID[:n_dists]])
    assert [size for _, _, size in calls] == blocks
    assert all((m, len(reps)) == (6, 10) for m, reps, _ in calls)


@pytest.mark.parametrize(
    "n, grid_block, blocks",
    [(10, 25, [20] * 5), (3, 7, [6] * 5), (3, 9, [9, 9, 9, 3]), (64, 9, [10] * 10)],
)
def test_pair_scan_grid_block_sizes_with_a_small_block(monkeypatch, n, grid_block, blocks):
    # a block holds whole distributions, at least one, and each block is diagonalized once
    dists = [PhaseDistribution.gaussian(s) for s in CLI_GRID]
    expect = pair_scan_grid(n, dists)
    monkeypatch.setattr(entanglement, "_GRID_BLOCK", grid_block)
    calls = _recording_pair_states(monkeypatch)
    eigensolvers = _counting_linalg(monkeypatch)
    assert pair_scan_grid(n, dists) == expect
    assert [size for _, _, size in calls] == blocks
    assert eigensolvers == {"eigh": len(blocks), "svd": len(blocks), "eigvalsh": len(blocks)}


def test_pair_scan_grid_edges():
    assert pair_scan_grid(5, []) == []
    for n in (1, 0, -3):
        for dists in ([], [PhaseDistribution.gaussian(0.5)]):
            with pytest.raises(ValueError, match="chain size"):
                pair_scan_grid(n, dists)


def _with_one_state_replaced(monkeypatch, replacement):
    """Make the pair_scan_grid path see ``replacement`` as the state of pair (1, 2)."""

    def patched(n, transfers, pairs):
        states = _pair_states(n, transfers, pairs)
        states[0, 0] = replacement
        return states

    monkeypatch.setattr(entanglement, "_pair_states", patched)


def _counting_linalg(monkeypatch, weight=lambda stack: 1):
    """Sum ``weight`` of each stack passed to the three eigensolvers, per solver."""
    calls = {}
    for name in ("eigh", "eigvalsh", "svd"):

        def counted(a, *args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + weight(a)
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_pair_scan_grid_rejects_a_negative_eigenvalue(monkeypatch):
    # Hermitian and unit-trace, with one eigenvalue of -0.3
    _with_one_state_replaced(monkeypatch, np.diag([0.6, 0.6, 0.1, -0.3]).astype(complex))
    with pytest.raises(ValueError, match="significantly negative eigenvalue"):
        pair_scan_grid(4, [PhaseDistribution.gaussian(s) for s in (0.2, 0.5)])


@pytest.mark.parametrize(
    "bad, message",
    [(np.full((4, 4), np.nan), "not hermitian"), (0.5 * np.eye(4), "trace")],
)
def test_pair_scan_grid_checks_before_any_eigensolver(monkeypatch, bad, message):
    # a NaN must fail the Hermitian test with its message, never reach LAPACK
    _with_one_state_replaced(monkeypatch, bad)
    calls = _counting_linalg(monkeypatch)
    with pytest.raises(ValueError, match=message):
        pair_scan_grid(4, [PhaseDistribution.gaussian(0.5)])
    assert calls == {}


@pytest.mark.parametrize("n, n_dists, blocks", [(10, 10, 1), (64, 5, 1)])
def test_pair_scan_grid_diagonalizes_each_block_once(monkeypatch, n, n_dists, blocks):
    # one eigh feeds the positive-semidefinite guard and the concurrence;
    # eigvalsh is the partial-transpose check
    calls = _counting_linalg(monkeypatch)
    pair_scan_grid(n, [PhaseDistribution.gaussian(s) for s in CLI_GRID[:n_dists]])
    assert calls == {"eigh": blocks, "svd": blocks, "eigvalsh": blocks}


# --- one analysis per distinct pair state ---


def pair_grid_per_state(n, dists):
    """Oracle: every pair state of the whole n-site chain contracted and analysed, equal
    or not, in blocks of at most ``_GRID_BLOCK`` states (one distribution at least)."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    per_block = max(1, _GRID_BLOCK // len(pairs))
    concurrences, ppt = [], []
    for start in range(0, len(dists), per_block):
        block = [[char_table(d, signed=True)] * (n - 1) for d in dists[start : start + per_block]]
        states = _pair_states(n, block, pairs).reshape(-1, 4, 4)
        _check_hermitian_unit_trace(states)
        w, v = np.linalg.eigh(states)
        _check_psd(w[:, 0])
        concurrences += entanglement._concurrences(w, v).tolist()
        ppt += entanglement._ppt_min_eigenvalues(states).tolist()
    return pairs, concurrences, ppt


GRIDS = (
    [PhaseDistribution.gaussian(float(sigma)) for sigma in CLI_GRID],
    [PhaseDistribution.flat(w) for w in (0.0, 1.3, 2.5, 5.0, 2.0 * math.pi)],
    # fixed phases far from 0 entangle many pairs, so a misplaced concurrence shows
    [PhaseDistribution.fixed(t) for t in (0.0, -0.0, 0.3, 2.0, math.pi, -2.9)],
)
# one distribution of each kind: the oracle analyses 79,800 states per distribution at n = 400
KINDS = [PhaseDistribution.gaussian(0.5), PhaseDistribution.flat(2.5), PhaseDistribution.fixed(2.0)]


def same_bits(got, expect):
    """Equal pair lists, and concurrence and PPT lists equal bit for bit (-0.0 is not 0.0)."""
    floats = [np.array(v, dtype=float).tobytes() for v in got[1:] + expect[1:]]
    return got[0] == expect[0] and floats[:2] == floats[2:]


@pytest.mark.parametrize("n", [*range(2, 41), 64, 150, 400])
def test_pair_grid_equals_the_per_state_analysis(n):
    # every pair takes its class representative's values, at any chain length
    for dists in GRIDS if n <= 64 else [KINDS]:
        assert same_bits(_pair_grid(n, dists), pair_grid_per_state(n, dists))


def test_pair_grid_equals_the_per_state_analysis_across_a_block_boundary(monkeypatch):
    dists = [PhaseDistribution.gaussian(s) for s in (0.1, 0.4, 0.7)]
    dists += [PhaseDistribution.flat(2.5), PhaseDistribution.fixed(0.3)]
    dists += [PhaseDistribution.fixed(2.0), PhaseDistribution.fixed(math.pi)]
    expect = pair_grid_per_state(64, dists)  # the oracle takes four blocks
    assert len(set(expect[1])) > 10  # distinct concurrences
    assert same_bits(_pair_grid(64, dists), expect)
    monkeypatch.setattr(entanglement, "_GRID_BLOCK", 25)  # two distributions per block
    assert same_bits(_pair_grid(64, dists), expect)


def test_pair_classes_place_every_pair_on_a_short_chain():
    for n in range(2, 30):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        m, reps, index = _pair_classes(n, pairs)
        assert m == min(n, 6) and len(reps) == {2: 1, 3: 3, 4: 6, 5: 9}.get(n, 10)
        assert sorted(set(index)) == list(range(len(reps)))  # no representative unused
        for (i, j), k in zip(pairs, index):
            a, b = reps[k]
            assert 1 <= a < b <= m
            assert (a == 1, b == m, min(b - a, 3)) == (i == 1, j == n, min(j - i, 3))


def full_chain_bits(n, dist, pairs):
    states = _pair_states(n, [[char_table(dist, signed=True)] * (n - 1)], pairs)[0]
    return [s.tobytes() for s in states]


def test_averaged_pair_state_equals_the_full_chain_state():
    # every pair of every chain up to 40 sites, the distribution kinds in turn
    for n in range(2, 41):
        dist = KINDS[n % 3]
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        got = [averaged_pair_state(n, dist, pair).entries.tobytes() for pair in pairs]
        assert got == full_chain_bits(n, dist, pairs), n


@pytest.mark.parametrize(
    "n, pair, rep", [(3, (1, 3), (1, 3)), (400, (200, 300), (2, 5)), (10**4, (1, 2), (1, 2))]
)
def test_averaged_pair_state_contracts_one_pair_of_at_most_six_sites(monkeypatch, n, pair, rep):
    calls = _recording_pair_states(monkeypatch)
    averaged_pair_state(n, PhaseDistribution.gaussian(0.5), pair)
    assert calls == [(min(n, 6), [rep], 1)]


def test_averaged_pair_state_equals_the_full_chain_state_at_400_sites():
    n = 400
    rng = np.random.default_rng(SEED + 4)
    pairs = [(1, 2), (1, 3), (1, 4), (1, n), (2, n), (n - 2, n), (n - 1, n), (2, 3), (3, 5)]
    pairs += [tuple(sorted(map(int, rng.choice(n, 2, replace=False) + 1))) for _ in range(40)]
    for dist in KINDS:
        got = [averaged_pair_state(n, dist, pair).entries.tobytes() for pair in pairs]
        assert got == full_chain_bits(n, dist, pairs)


@pytest.mark.parametrize("n, states", [(5, 90), (10, 100)])
def test_pair_grid_analyses_each_class_state_once(monkeypatch, n, states):
    # a uniform chain's pair state depends only on the pair's neighbourhood: nine
    # classes at n = 5 and ten from n = 6 on, per distribution, whatever n is
    matrices = _counting_linalg(monkeypatch, len)
    pairs, _, _ = _pair_grid(n, [PhaseDistribution.gaussian(float(s)) for s in CLI_GRID])
    assert len(pairs) * len(CLI_GRID) > states
    assert matrices == {"eigh": states, "svd": states, "eigvalsh": states}


# grids on which class states repeat: equal across classes (sigma 0, a wide Gaussian or
# flat width, a fixed phase of 0 or a multiple of 2 pi) or across distributions
DEGENERATE_GRIDS = (
    [PhaseDistribution.gaussian(s) for s in (0.0, 0.0, 5.0, 40.0, 50.0, 1000.0, 1000.0)],
    [PhaseDistribution.gaussian(float(s)) for s in np.linspace(0.0, 1.0, 11)],
    [PhaseDistribution.flat(w) for w in (0.0, 2.0 * math.pi, 4.0 * math.pi, 1e6, 1e6)],
    [PhaseDistribution.fixed(t) for t in (0.0, -0.0, 2.0 * math.pi, math.pi, math.pi, 0.3)],
)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 12])
def test_pair_grid_on_degenerate_grids_equals_the_per_state_analysis(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for dists in DEGENERATE_GRIDS:
        states = [averaged_pair_state(n, d, pair) for d in dists for pair in pairs]
        got_pairs, concurrences, ppt = _pair_grid(n, dists)
        assert got_pairs == pairs
        assert concurrences == [concurrence(rho) for rho in states]
        assert ppt == [ppt_min_eigenvalue(rho) for rho in states]


def test_pair_grid_rejects_a_nan_state_before_any_solver(monkeypatch):
    stack = np.array([np.eye(4) / 4, np.full((4, 4), np.nan), np.eye(4) / 4], dtype=complex)
    monkeypatch.setattr(entanglement, "_pair_states", lambda n, t, pairs: stack[:, None].copy())
    calls = _counting_linalg(monkeypatch)
    with pytest.raises(ValueError, match="not hermitian"):
        _pair_grid(2, [PhaseDistribution.gaussian(0.5)] * 3)
    assert calls == {}


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
                char_table(PhaseDistribution.fixed(t), signed=True) for t in dist.sample(rng, n - 1)
            ]
            total += concurrence(DensityMatrix(2, _pair_states(n, [transfers], [pair])[0, 0]))
        assert sampled_mean_concurrence(n, dist, pair, 12, seed=9) == total / 12


def test_sampled_mean_concurrence_guard():
    d = PhaseDistribution.gaussian(0.5)
    with pytest.raises(ValueError, match="at least one sample"):
        sampled_mean_concurrence(4, d, (1, 2), 0, seed=1)
    with pytest.raises(ValueError, match="pair"):
        sampled_mean_concurrence(4, d, (0, 2), 5, seed=1)


def test_sampled_mean_concurrence_refuses_non_finite_draws():
    # most draws overflow to inf; the row is refused before np.exp would turn it to NaN
    with pytest.raises(ValueError, match="^edge phases must be finite$"):
        sampled_mean_concurrence(8, PhaseDistribution.gaussian(1e308), (1, 2), 50, 3)


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
