"""Transfer-matrix overlaps and closed-form dephasing fidelities.

Oracles: direct 2^N bitstring sums, the dense state engine, and Monte Carlo
sampling of the phase distributions.
"""

import io
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from noisycluster import cli, phasenoise
from noisycluster.clusters import build_cluster, chain_graph, grid_graph
from noisycluster.phasenoise import (
    DEPHASING_FAMILIES,
    OverlapResult,
    PhaseDistribution,
    _char_rows,
    _edge_tables,
    _overlap_rows,
    _seeded_rows,
    dephasing_fidelity,
    overlap_avg,
    overlap_exact,
    overlap_scan,
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
    "sigma",
    [0.0, 0.5, 19.3, 38.0, 38.6, 38.61, 39.0, 40.0, math.nextafter(40.0, 41.0), 41.0, 1e150],
)
def test_char_value_gaussian_keeps_its_bits_past_the_cutoff(sigma):
    # exp(-x**2 / 2) is exactly 0.0 long before |x| = 40, where the value becomes 0j
    d = PhaseDistribution.gaussian(sigma)
    for k in (-2, -1, 1, 2):
        assert repr(d.char_value(k)) == repr(complex(math.exp(-0.5 * (k * sigma) ** 2)))


@pytest.mark.parametrize("sigma", [1e155, 1e300, 1.7976931348623157e308])
def test_char_value_gaussian_does_not_overflow(sigma):
    # (k * sigma) ** 2 raises OverflowError here
    with pytest.raises(OverflowError):
        sigma**2
    d = PhaseDistribution.gaussian(sigma)
    assert [repr(d.char_value(k)) for k in (-2, -1, 0, 1, 2)] == ["0j", "0j", "(1+0j)", "0j", "0j"]
    wide = _char_rows([d, PhaseDistribution.gaussian(100.0)])
    assert np.array_equal(*_edge_tables(wide, "pair"))


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


@pytest.mark.parametrize("param", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make", [PhaseDistribution.flat, PhaseDistribution.gaussian, PhaseDistribution.fixed]
)
def test_distribution_rejects_non_finite(make, param):
    with pytest.raises(ValueError, match="finite"):
        make(param)


@pytest.mark.parametrize("dist", [
    PhaseDistribution.flat(1.3), PhaseDistribution.gaussian(0.4), PhaseDistribution.fixed(-0.7),
])
def test_seeded_rows_equal_the_per_sample_loop(dist):
    for seed, width, n_samples in [(0, 1, 5), (42, 14, 30), (2**40 + 3, 999, 4)]:
        rows = list(_seeded_rows(dist, width, n_samples, seed))
        assert len(rows) == n_samples
        for k, row in enumerate(rows):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
            expect = dist.sample(rng, width)
            assert row.dtype == expect.dtype and row.shape == (width,)
            assert (row == expect).all()
    # rows are made one at a time, when asked for
    stream = _seeded_rows(dist, 3, 10**15, 5)
    assert (next(stream) == list(_seeded_rows(dist, 3, 1, 5))[0]).all()


# Master seeds at the edges of SeedSequence's 32-bit words and past its 128-bit pool.
RECORDED_SEEDS = (0, 2**32 - 1, 2**32 + 7, 2**64 - 1, 2**127 + 5, 2**130 + 3)
# Recorded with numpy 2.4.6: per master seed, the (first, last) draw of rows 0 and 1 of
# width 19, for flat(1.3) and gaussian(0.4). A width-1 row is that first draw alone.
SEEDED_ROW_ENDS = {
    "flat": [
        ((0.5758188187477432, -0.0733757005564889), (0.23035591406763245, -0.23732741268596175)),
        ((-0.5639254349076342, 0.0438449411591727), (-0.2011302786557822, -0.3164963545704209)),
        ((0.17650793539813436, -0.27101239394346816), (-0.6337322997430892, 0.2231801790444019)),
        ((-0.02880190385721526, -0.2833142458885362), (0.16458611370401777, 0.40824604237065076)),
        ((-0.37678426771696627, -0.5060938662852117), (0.5583629810493252, 0.37886866386466245)),
        ((-0.3207767245050511, -0.3798372684494178), (-0.20300906461030632, -0.12081918609825593)),
    ],
    "gaussian": [
        ((0.5774763818792502, 0.33534160747838665), (0.32203578894969426, -0.21996738531270366)),
        ((-0.36692497295362614, -0.12996092015632743), (-0.19272519825368103, -0.04558417527642129)),
        ((-0.031066591358947755, 0.12328583584443623), (-0.04507386149800527, -0.1118840427461983)),
        ((0.8905308999688333, -0.022086204924334746), (-0.007126030057907722, -0.17101152090320837)),
        ((0.8578975208243804, -0.2810355049026323), (-0.13476765190186016, 0.39369257040308453)),
        ((-0.025227077181511005, -0.7669882537109401), (0.35099753728143823, 0.1473628414593708)),
    ],
}
STREAM_DISTS = [
    PhaseDistribution.flat(1.3), PhaseDistribution.gaussian(0.4), PhaseDistribution.fixed(-0.7),
]


@pytest.mark.parametrize("width", [1, 19])
@pytest.mark.parametrize("dist", STREAM_DISTS)
def test_seeded_rows_keep_their_recorded_values(dist, width):
    # every seeded output reads this stream: a NumPy change to SeedSequence or to the
    # generators shows here rather than as silently moved figures
    fixed = [((dist.param, dist.param),) * 2] * len(RECORDED_SEEDS)
    for seed, ends in zip(RECORDED_SEEDS, SEEDED_ROW_ENDS.get(dist.kind, fixed), strict=True):
        for row, (first, last) in zip(_seeded_rows(dist, width, 2, seed), ends, strict=True):
            assert row.shape == (width,)
            assert repr(row[0].item()) == repr(first), (seed, row)
            assert repr(row[-1].item()) == repr(first if width == 1 else last), (seed, row)


@pytest.mark.parametrize("dist", STREAM_DISTS)
def test_seeded_rows_refuse_a_negative_master_seed(dist):
    for seed in (-1, -(2**130)):
        with pytest.raises(ValueError, match="non-negative"):  # NumPy's SeedSequence
            next(_seeded_rows(dist, 3, 1, seed))


@pytest.mark.parametrize(
    "master", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**127 + 5, 2**128, 2**130 + 3, 7**60]
)
def test_row_state_is_numpys_seeding(master):
    # spawn keys of one and of two 32-bit words, without drawing 2**32 rows
    pool = np.random.SeedSequence(master).pool.tolist()
    # the master's 32-bit words took 16 hashmix steps for the first four and 4 per later one
    steps = 16 + 4 * max(0, math.ceil(master.bit_length() / 32) - 4)
    hash_const = phasenoise._INIT_A * pow(phasenoise._MULT_A, steps, 2**32) % 2**32
    for k in (0, 1, 2**32 - 1, 2**32, 2**40 + 3):
        expect = np.random.PCG64(np.random.SeedSequence(master, spawn_key=(k,))).state["state"]
        state, inc = phasenoise._row_state(pool, hash_const, k)
        assert (state, inc) == (expect["state"], expect["inc"]), (master, k)


def test_seeded_rows_interleaved_equal_one_after_the_other():
    # every stream reseeds the one shared generator per row
    streams = [(PhaseDistribution.flat(1.3), 7), (PhaseDistribution.gaussian(0.4), 2**64 - 1)]
    zipped = list(zip(*(_seeded_rows(dist, 15, 50, seed) for dist, seed in streams)))
    for j, (dist, seed) in enumerate(streams):
        serial = list(_seeded_rows(dist, 15, 50, seed))
        assert all((row[j] == expect).all() for row, expect in zip(zipped, serial, strict=True))


def test_seeded_rows_from_threads_equal_the_serial_draws():
    dist, masters = PhaseDistribution.gaussian(0.4), (3, 2**32, 2**130 + 3, 42)

    def draw(master):
        return np.array(list(_seeded_rows(dist, 15, 200, master)))

    serial, interval = [draw(m) for m in masters], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # let the threads switch inside a row, not only between calls
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(draw, masters, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for got, expect in zip(threaded, serial, strict=True):
        assert np.array_equal(got, expect)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("edge", [0, 3])
def test_overlap_exact_refuses_non_finite_phases(bad, edge):
    # checked before np.exp, which would warn on inf and return NaN for either
    thetas = [0.1] * 4
    thetas[edge] = bad
    with pytest.raises(ValueError, match="^edge phases must be finite$"):
        overlap_exact(thetas)


def overlap_exact_per_edge(thetas):
    """The per-edge loop overlap_exact ran before its tables came from the phasenoise
    builder: one 2x2 matrix built per phase."""
    u = np.ones(2, dtype=complex)
    v = u.copy()
    for t in thetas:
        m = np.array([[1.0, 1.0], [1.0, np.exp(1j * t)]], dtype=complex)
        v = m.T @ v
    return complex(u @ v) / 2.0 ** (len(thetas) + 1)


def test_overlap_exact_equals_the_per_edge_loop_bit_for_bit():
    rng = np.random.default_rng(SEED + 5)
    for n in range(2, 41):
        for scale in (0.05, 1.0, 30.0):
            thetas = rng.normal(0.0, scale, size=n - 1)
            for given in (thetas, thetas.tolist()):
                assert repr(overlap_exact(given)) == repr(overlap_exact_per_edge(given)), n
    assert repr(overlap_exact([-0.0, math.pi])) == repr(overlap_exact_per_edge([-0.0, math.pi]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1024, 1025, 5000])
def test_overlap_exact_at_any_length(n):
    # 2.0**1024 overflows: site 1 and each edge carry their own factor 1/2
    for theta in (0.0, 0.1, 0.5):
        want = overlap_avg(PhaseDistribution.fixed(theta), n).mean_overlap
        assert overlap_exact([theta] * (n - 1)) == pytest.approx(want, rel=1e-12)


def test_overlap_tables_match_char_values():
    dists = [PhaseDistribution.flat(2.0), PhaseDistribution.gaussian(0.5)]
    dists += [PhaseDistribution.fixed(0.3)]
    for d, table in zip(dists, _edge_tables(_char_rows(dists), "overlap")):
        assert table.tolist() == [[1.0, 1.0], [1.0, d.char_value(1)]]


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


# --- the prefix sweep against the matrix-power formula ---


def overlap_avg_matrix_power(dist, n):
    """The two matrix powers overlap_avg once evaluated, normalised at the end."""
    m = np.array([[1.0, 1.0], [1.0, dist.char_value(1)]], dtype=complex)
    u2, u4 = np.ones(2), np.ones(4)
    mean_overlap = complex(u2 @ np.linalg.matrix_power(m, n - 1) @ u2) / 2.0**n
    pair = _edge_tables(_char_rows([dist]), "pair")[0]
    mean_fid = complex(u4 @ np.linalg.matrix_power(pair, n - 1) @ u4) / 4.0**n
    return OverlapResult(mean_overlap, abs(mean_overlap) ** 2, mean_fid.real)


SCAN_DISTS = [
    PhaseDistribution.flat(0.0),
    PhaseDistribution.flat(0.7),
    PhaseDistribution.flat(3.0),
    PhaseDistribution.gaussian(0.3),
    PhaseDistribution.gaussian(1.2),
    PhaseDistribution.fixed(0.9),
    PhaseDistribution.fixed(2.5),
]


def test_overlap_scan_matches_matrix_power_oracle():
    sizes = range(2, 41)
    table = overlap_scan(SCAN_DISTS, sizes)
    assert len(table) == len(sizes)
    for n, results in zip(sizes, table):
        assert len(results) == len(SCAN_DISTS)
        for dist, got in zip(SCAN_DISTS, results):
            want = overlap_avg_matrix_power(dist, n)
            assert got.mean_overlap == pytest.approx(want.mean_overlap, rel=1e-13), (dist, n)
            assert got.fidelity_of_mean == pytest.approx(want.fidelity_of_mean, rel=1e-13)
            assert got.mean_fidelity == pytest.approx(want.mean_fidelity, rel=1e-13)


def test_overlap_scan_entries_equal_overlap_avg():
    sizes = [7, 2, 12, 7]  # any order, repeats allowed
    for n, results in zip(sizes, overlap_scan(SCAN_DISTS, sizes)):
        assert results == [overlap_avg(dist, n) for dist in SCAN_DISTS]


def test_overlap_scan_edge_cases():
    assert overlap_scan([], [3, 4]) == [[], []]
    assert overlap_scan(SCAN_DISTS, []) == []
    with pytest.raises(ValueError, match="at least 2"):
        overlap_scan(SCAN_DISTS, [5, 1])


def test_overlap_rows_are_the_overlap_scan_fields():
    sizes = [7, 2, 12, 7]
    rows = _overlap_rows(SCAN_DISTS, sizes)
    assert [list(zip(*(column.tolist() for column in row))) for row in rows] == [
        [(r.mean_overlap, r.fidelity_of_mean, r.mean_fidelity) for r in results]
        for results in overlap_scan(SCAN_DISTS, sizes)
    ]
    assert all(len(row) == 3 and all(len(c) == len(SCAN_DISTS) for c in row) for row in rows)
    assert [[len(c) for c in row] for row in _overlap_rows([], [3, 4])] == [[0] * 3] * 2
    assert _overlap_rows(SCAN_DISTS, []) == []
    with pytest.raises(ValueError, match="at least 2"):
        _overlap_rows(SCAN_DISTS, [5, 1])


class CharStub:
    """All the sweep reads of a distribution: its characteristic values, here given. The
    mean overlap reads E e^{i theta}; the mean fidelity reads E e^{-i theta} as well."""

    def __init__(self, plus, minus=None):
        self.char = {-1: complex(plus if minus is None else minus), 0: 1.0 + 0.0j, 1: complex(plus)}

    def char_value(self, k):
        return self.char[k]


@pytest.mark.parametrize("at", [0, 3, len(SCAN_DISTS)])
@pytest.mark.parametrize(
    "stub, message",
    [
        (CharStub(math.nan), "fidelity_of_mean = nan outside"),
        (CharStub(1.1), r"fidelity_of_mean = 1\.\d+ outside"),
        (CharStub(1.0, minus=1.1), r"mean_fidelity = 1\.\d+ outside"),
        (CharStub(1.0, minus=0.5), "mean fidelity below fidelity of the mean"),
        # E e^{-i theta} not the conjugate of E e^{i theta}: the mean fidelity is not real
        (CharStub(0.5, minus=0.5 + 0.2j), "mean fidelity has imaginary part 5.625e-02"),
    ],
)
def test_overlap_rows_check_every_row(at, stub, message):
    # one bad distribution anywhere in the grid fails the sweep, with OverlapResult's message
    # when a value is out of range
    dists = SCAN_DISTS[:at] + [stub] + SCAN_DISTS[at:]
    for scan in (_overlap_rows, overlap_scan):
        with pytest.raises(ValueError, match=message):
            scan(dists, [3, 9])


def test_overlap_rows_report_the_first_bad_row():
    # a row over 1 before a NaN row: the message names the first
    dists = [SCAN_DISTS[0], CharStub(1.5), SCAN_DISTS[1], CharStub(math.nan)]
    with pytest.raises(ValueError, match=r"fidelity_of_mean = \d[\d.]* outside"):
        _overlap_rows(dists, [4])
    with pytest.raises(ValueError, match="fidelity_of_mean = nan outside"):
        _overlap_rows(dists[2:], [4])


def test_fig_noise_rows_are_the_overlap_scan_fields():
    for grid in (None, np.linspace(0.0, 50.0, 997)):
        lambdas = np.linspace(0.0, 2.0 * math.pi, 64) if grid is None else grid
        dists = [PhaseDistribution.flat(float(lam)) for lam in lambdas]
        expect = [
            (n, dist.param, r.fidelity_of_mean, r.mean_fidelity)
            for n, results in zip(range(3, 11), overlap_scan(dists, range(3, 11)))
            for dist, r in zip(dists, results)
        ]
        argv = ["fig-noise"] if grid is None else ["fig-noise", "--grid", "0:50:997"]
        rows = cli._run_fig_noise(cli.build_parser().parse_args(argv))
        assert rows == expect
        assert {tuple(map(type, row)) for row in rows} == {(int, float, float, float)}


def test_overlap_rows_range_check_every_row(monkeypatch):
    # with the band [0.5, 0.5] every value fails, so each path must raise
    monkeypatch.setattr(phasenoise, "RANGE_ATOL", -0.5)
    for scan in (_overlap_rows, overlap_scan):
        with pytest.raises(ValueError, match="fidelity_of_mean = .* outside"):
            scan(SCAN_DISTS, [3, 9])


def test_overlap_avg_at_500_sites_matches_matrix_power():
    for dist in (PhaseDistribution.flat(0.05), PhaseDistribution.gaussian(0.02)):
        got, want = overlap_avg(dist, 500), overlap_avg_matrix_power(dist, 500)
        assert got.fidelity_of_mean == pytest.approx(want.fidelity_of_mean, rel=1e-12)
        assert got.mean_fidelity == pytest.approx(want.mean_fidelity, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [512, 1024, 5000])
def test_overlap_avg_at_any_length(n):
    # 4.0**512 overflows: each edge carries its own share of the normalisation
    for dist in (
        PhaseDistribution.flat(0.0),
        PhaseDistribution.flat(0.05),
        PhaseDistribution.gaussian(1.0),
    ):
        res = overlap_avg(dist, n)
        for value in (res.fidelity_of_mean, res.mean_fidelity):
            assert math.isfinite(value) and 0.0 <= value <= 1.0
    assert overlap_avg(PhaseDistribution.flat(0.0), n).mean_fidelity == pytest.approx(1.0)


def test_fig_noise_table_matches_matrix_power_oracle():
    grid = np.linspace(0.0, 2.0 * math.pi, 64)
    oracle = [
        (n, float(lam), res.fidelity_of_mean, res.mean_fidelity)
        for n in range(3, 11)
        for lam in grid
        for res in [overlap_avg_matrix_power(PhaseDistribution.flat(float(lam)), n)]
    ]
    table = cli.run_experiment(cli.build_parser().parse_args(["fig-noise"]))
    expect, got = io.StringIO(), io.StringIO()
    cli.ResultTable(table.columns, table.template, oracle).write(expect, with_timestamp=False)
    cli.ResultTable(table.columns, table.template, table.rows).write(got, with_timestamp=False)
    assert got.getvalue() == expect.getvalue()


def test_overlap_result_validation():
    with pytest.raises(ValueError, match="outside"):
        OverlapResult(0.0, 1.5, 1.6)
    with pytest.raises(ValueError, match="below"):
        OverlapResult(0.0, 0.9, 0.2)
    # the messages the table path raises through its first bad entry
    for fidelity_of_mean, mean_fidelity, message in (
        (1.5, 1.6, "fidelity_of_mean = 1.5 outside"),
        (0.5, -0.1, "mean_fidelity = -0.1 outside"),
        (math.nan, 0.5, "fidelity_of_mean = nan outside"),
        (0.9, 0.2, "below"),
    ):
        with pytest.raises(ValueError, match=message):
            OverlapResult(0.0, fidelity_of_mean, mean_fidelity)


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


def test_dephasing_gamma_guard():
    for gamma in (-0.1, math.nan):
        with pytest.raises(ValueError, match=">= 0"):
            dephasing_fidelity("ghz", 3, gamma)
    # gamma = inf is the fully dephased limit
    assert dephasing_fidelity("ghz", 3, math.inf) == 0.5
    assert dephasing_fidelity("linear_cluster", 3, math.inf) == 0.125


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
