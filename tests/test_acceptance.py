"""End-to-end acceptance checks.

Each test evaluates one numbered criterion, prints a single PASS/FAIL line
(collected again in the terminal summary) and then asserts. Expected values
come from closed forms, brute-force oracles or frozen constants that were
derived independently before being pinned.
"""

import itertools
import math
import time

import numpy as np
from conftest import record

from noisycluster.clusters import (
    build_cluster,
    chain_graph,
    grid_graph,
    remove_x,
    verify_stabilizers,
)
from noisycluster.entanglement import (
    averaged_pair_state,
    concurrence,
    pair_scan,
    ppt_min_eigenvalue,
)
from noisycluster.oneway import (
    cnot_matrix,
    config_cnot4,
    config_cnot15,
    config_cnot16_bridged,
    gate_fidelity_mc,
    gate_fidelity_once,
    run_gate,
    wire_fidelity_mc,
    wire_transfer,
)
from noisycluster.phasenoise import (
    PhaseDistribution,
    dephasing_fidelity,
    overlap_avg,
    overlap_exact,
)
from noisycluster.cli import CNOT_INPUT, main
from noisycluster.states import (
    DephasingChannel,
    HADAMARD,
    IDENTITY_2,
    InputQubit,
    MeasurementBasis,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    dephase,
    fidelity_pure_mixed,
    measure,
    partial_trace,
    pure_to_density,
)

GAMMA = 0.062
LIN25_AT_GAMMA = 0.4662704616040621  # closed form, cross-checked by dense sums


def check(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    record(line)
    print(line)
    assert ok, line


def ghz_vector(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return v


def w_vector(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    for k in range(n):
        v[1 << k] = 1.0 / math.sqrt(n)
    return v


def dense_dephased_fidelity(state: PureState, gamma: float) -> float:
    return fidelity_pure_mixed(
        state, dephase(pure_to_density(state), DephasingChannel(gamma))
    )


PROBE_PAIRS = (
    (InputQubit.zero(), InputQubit.zero()),
    (InputQubit.zero(), InputQubit.one()),
    (InputQubit.one(), InputQubit.zero()),
    (InputQubit.one(), InputQubit.one()),
)


def test_criterion_01_closed_forms_match_dense_simulation():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (0.01, GAMMA, 0.3):
        for n in range(3, 9):
            references = {
                "ghz": PureState(n, ghz_vector(n)),
                "w": PureState(n, w_vector(n)),
                "linear_cluster": build_cluster(chain_graph(n)),
            }
            for family, state in references.items():
                dev = abs(
                    dephasing_fidelity(family, n, gamma)
                    - dense_dephased_fidelity(state, gamma)
                )
                worst = max(worst, dev)
        for side in (2, 3):
            state = build_cluster(grid_graph(side, side))
            dev = abs(
                dephasing_fidelity("square_cluster", side, gamma)
                - dense_dephased_fidelity(state, gamma)
            )
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    check(
        1,
        worst < 1e-10 and elapsed < 10.0,
        f"dephasing closed forms match dense simulation, max dev {worst:.2e} "
        f"(GHZ/W/linear N=3..8, square sides 2-3, three rates) in {elapsed:.1f}s",
    )


def test_criterion_02_family_ordering_and_spot_value():
    families = ("w", "ghz", "linear_cluster", "square_cluster")
    ordered = True
    for n in range(3, 26):
        w, ghz, lin, sq = (dephasing_fidelity(f, n, GAMMA) for f in families)
        ordered = ordered and (w > ghz > lin > sq)
    lin25 = dephasing_fidelity("linear_cluster", 25, GAMMA)
    spot_ok = abs(lin25 - LIN25_AT_GAMMA) < 1e-12 and abs(lin25 - 0.46633) < 1e-3
    check(
        2,
        ordered and spot_ok,
        f"W > GHZ > linear > square at Gamma={GAMMA} for N=3..25; "
        f"linear N=25 = {lin25:.12f} (a quoted 0.46633 matches Gamma=0.06199, "
        f"not {GAMMA}; the formula value is asserted)",
    )


def test_criterion_03_transfer_matrix_vs_brute_force_and_mc():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for k in range(100):
        n = 2 + k % 13  # chain sizes 2..14
        thetas = rng.uniform(-math.pi, math.pi, size=n - 1)
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        direct = np.exp(1j * ((bits[:, :-1] * bits[:, 1:]) @ thetas)).sum() / 2**n
        worst = max(worst, abs(overlap_exact(thetas) - direct))

    n = 6
    mc_ok = True
    mc_note = []
    cases = [PhaseDistribution.flat(lam) for lam in (0.5, 1.0, 2.0, 3.0, 5.0)]
    cases += [PhaseDistribution.gaussian(s) for s in (0.1, 0.3, 0.5, 0.8, 1.2)]
    for dist in cases:
        exact = overlap_avg(dist, n).mean_fidelity
        samples = np.empty(10_000)
        for i in range(len(samples)):
            thetas = [dist.sample(rng) for _ in range(n - 1)]
            samples[i] = abs(overlap_exact(thetas)) ** 2
        stderr = samples.std(ddof=1) / math.sqrt(len(samples))
        pull = abs(samples.mean() - exact) / stderr if stderr else 0.0
        mc_ok = mc_ok and pull <= 4.0
        mc_note.append(f"{pull:.1f}")
    elapsed = time.perf_counter() - t0
    check(
        3,
        worst < 1e-10 and mc_ok and elapsed < 30.0,
        f"transfer matrix = direct 2^N sum (max dev {worst:.2e}, N<=14); "
        f"mean fidelity within 4 stderr of 10^4-sample MC "
        f"(pulls {','.join(mc_note)}) in {elapsed:.1f}s",
    )


def test_criterion_04_noise_curves_monotone():
    lams = np.linspace(0.0, 2.0 * math.pi, 64)
    curves = {
        n: np.array(
            [overlap_avg(PhaseDistribution.flat(lam), n).fidelity_of_mean for lam in lams]
        )
        for n in range(3, 11)
    }
    at_zero_ok = all(abs(c[0] - 1.0) < 1e-12 for c in curves.values())
    lam_ok = all(np.all(np.diff(c) < 0.0) for c in curves.values())
    n_ok = all(
        np.all(curves[n][1:] > curves[n + 1][1:]) for n in range(3, 10)
    )
    check(
        4,
        at_zero_ok and lam_ok and n_ok,
        "averaged-overlap fidelity is 1 at lambda=0, strictly decreasing in "
        "lambda and in N (N=3..10, 64-point grid)",
    )


def test_criterion_05_zero_noise_gate_correctness():
    t0 = time.perf_counter()
    worst = 1.0
    cfg4 = config_cnot4()
    # logical order on cnot4 is (site 1, site 3) = (target, control)
    probes4 = PROBE_PAIRS + ((InputQubit.zero(), InputQubit.plus()),)
    for s1, s3 in itertools.product((0, 1), repeat=2):
        for in1, in3 in probes4:
            run = run_gate(cfg4, {1: in1, 3: in3}, outcomes=(s1, s3))
            ideal = cfg4.ideal_gate @ np.kron(in1.as_array(), in3.as_array())
            worst = min(worst, abs(np.vdot(ideal, run.state.amplitudes)) ** 2)
    for cfg in (config_cnot15(), config_cnot16_bridged()):
        # logical order is (site 1, site 9) = (control, target)
        for in1, in9 in PROBE_PAIRS + ((InputQubit.plus(), InputQubit.zero()),):
            run = run_gate(cfg, {1: in1, 9: in9})
            ideal = cfg.ideal_gate @ np.kron(in1.as_array(), in9.as_array())
            worst = min(worst, abs(np.vdot(ideal, run.state.amplitudes)) ** 2)
    elapsed = time.perf_counter() - t0
    check(
        5,
        worst > 1.0 - 1e-10 and elapsed < 5.0,
        f"cnot4 (all four branches) and postselected cnot15/cnot16_bridged "
        f"reproduce CNOT on basis and superposition probes, min fidelity "
        f"{worst:.12f}; cnot4 decodes X^s1 x X^(s1 xor s3) in the Hadamard "
        f"frame, squashed-I all-zero branch decodes sigma_z on the control "
        f"output ({elapsed:.1f}s)",
    )


def test_criterion_06_noisy_cnot_ordering():
    t0 = time.perf_counter()
    grid = np.linspace(0.1, 1.0, 10)
    results = {}
    for cfg in (config_cnot4(), config_cnot15(), config_cnot16_bridged()):
        inputs = {site: CNOT_INPUT for site in cfg.input_sites}
        results[cfg.name] = [
            gate_fidelity_mc(cfg, inputs, PhaseDistribution.gaussian(float(s)), 2000, 42)
            for s in grid
        ]
    elapsed = time.perf_counter() - t0

    print("sigma   cnot4             cnot15            cnot16_bridged    gap(15-16)/se")
    sep_4_15 = sep_15_16 = True
    for i, sigma in enumerate(grid):
        a, b, c = (results[k][i] for k in ("cnot4", "cnot15", "cnot16_bridged"))
        se_ab = math.hypot(a.stderr, b.stderr)
        se_bc = math.hypot(b.stderr, c.stderr)
        sep_4_15 &= a.mean - b.mean >= 4.0 * se_ab
        sep_15_16 &= b.mean - c.mean >= 4.0 * se_bc
        print(
            f"{sigma:.1f}   {a.mean:.4f}+-{a.stderr:.4f}   "
            f"{b.mean:.4f}+-{b.stderr:.4f}   {c.mean:.4f}+-{c.stderr:.4f}   "
            f"{(b.mean - c.mean) / se_bc:+.1f}"
        )
    decreasing = all(
        all(curve[i + 1].mean < curve[i].mean for i in range(len(grid) - 1))
        for curve in results.values()
    )
    ok = sep_4_15 and sep_15_16 and decreasing and elapsed < 300.0
    check(
        6,
        ok,
        "noisy-gate ordering cnot4 > cnot15 > cnot16_bridged by 4 stderr at "
        f"every sigma ({elapsed:.0f}s): cnot4 > cnot15 holds "
        f"({'yes' if sep_4_15 else 'no'}) but the cnot15-cnot16 gap shrinks "
        f"to statistical zero as sigma grows ({'yes' if sep_15_16 else 'no'}); "
        "postselecting the extra bridge measurement filters heavy phase noise, "
        "so no protocol that is exact at zero noise keeps cnot16 strictly "
        "below cnot15 at high sigma (see the per-sigma table in this test's "
        "output)",
    )


def test_criterion_07_entanglement_structure():
    # (i) ideal chains carry no bipartite pair entanglement
    ideal_ok = True
    for n in range(3, 9):
        state = build_cluster(chain_graph(n))
        for pair in itertools.combinations(range(1, n + 1), 2):
            ideal_ok &= concurrence(partial_trace(state, pair)) <= 1e-9

    # (ii) fixed-theta 3-chains, pair (1,2) after tracing qubit 3:
    # theta1 on edge (1,2), theta2 on edge (2,3)
    def pair_state(theta1, theta2):
        state = build_cluster(chain_graph(3, [theta1, theta2]))
        return partial_trace(state, (1, 2))

    npt_ok = True
    for theta1 in (0.0, math.pi / 2):
        for theta2 in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            npt_ok &= ppt_min_eigenvalue(pair_state(theta1, theta2)) < -1e-9
    sep_ok = True
    for theta1 in (0.0, math.pi / 2, math.pi):
        sep_ok &= ppt_min_eigenvalue(pair_state(theta1, 0.0)) >= -1e-9
    for theta2 in (math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi):
        sep_ok &= ppt_min_eigenvalue(pair_state(math.pi, theta2)) >= -1e-9
    pure_at_pi = concurrence(pair_state(0.0, math.pi))

    # (iii) averaged chains: only nearest neighbors, mirror-symmetric ends
    avg_ok = True
    mirror_dev = 0.0
    for n in range(4, 9):
        dist = PhaseDistribution.gaussian(0.3)
        for analysis in pair_scan(n, dist):
            i, j = analysis.pair
            if j - i > 1:
                avg_ok &= analysis.concurrence <= 1e-9
        first = concurrence(averaged_pair_state(n, dist, (1, 2)))
        last = concurrence(averaged_pair_state(n, dist, (n - 1, n)))
        mirror_dev = max(mirror_dev, abs(first - last))
    mirror_ok = mirror_dev < 1e-10

    # (iv) strong noise keeps only the extremal pairs of a 5-chain
    strong = PhaseDistribution.gaussian(1.0)
    bridging = [
        concurrence(averaged_pair_state(5, strong, p)) for p in ((2, 3), (3, 4))
    ]
    extremal = [
        concurrence(averaged_pair_state(5, strong, p)) for p in ((1, 2), (4, 5))
    ]
    strong_ok = all(c <= 1e-9 for c in bridging) and all(c > 0.1 for c in extremal)

    check(
        7,
        ideal_ok and npt_ok and sep_ok and mirror_ok and strong_ok,
        "ideal chains separable pairwise; fixed-theta 3-chain NPT at six "
        "interior theta2 points and separable at theta2=0, along theta1=pi "
        "and at (pi,pi) (theta2=pi alone leaves a pure pair, concurrence "
        f"{pure_at_pi:.3f} at theta1=0, so no-entanglement-at-pi holds when "
        "every phase is pi); Gaussian(0.3) averages are nearest-neighbor "
        f"only with end symmetry |C12 - C(N-1)N| <= {mirror_dev:.1e}; at "
        f"sigma=1, N=5 bridging pairs vanish while extremal pairs stay at "
        f"{extremal[0]:.3f}",
    )


def test_criterion_08_chain_reduction_bookkeeping():
    all_ok = True
    for s3, s4 in itertools.product((0, 1), repeat=2):
        graph = chain_graph(5)
        state = build_cluster(graph)
        first = remove_x(state, graph, 3, force=s3)
        second = remove_x(first.state, first.graph, 4, force=s4)
        kappa_ok = second.graph.sites == (1, 2, 5) and second.graph.kappa == {
            1: 0,
            2: s4,
            5: s3,
        }
        report = verify_stabilizers(second.state, second.graph)
        all_ok &= kappa_ok and report.passed
    check(
        8,
        all_ok,
        "removing sites 3 then 4 of a 5-chain leaves the 3-site cluster with "
        "kappa = (0, s4, s3) for all four outcome combinations, confirmed by "
        "the correlation-operator eigenvalues",
    )


def test_criterion_09_wire_degradation():
    sizes = (2, 4, 6, 8, 10)
    dist = PhaseDistribution.gaussian(0.5)
    plus = InputQubit.plus()

    # per-sample fidelities on the exact stream wire_fidelity_mc consumes:
    # sample k of every size shares its leading theta draws, so consecutive
    # sizes are compared with common random numbers and the separation is
    # gauged by the paired-difference stderr
    def sample_fidelities(n: int) -> np.ndarray:
        vals = np.empty(2000)
        for k in range(len(vals)):
            rng = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(k,)))
            thetas = [dist.sample(rng) for _ in range(n - 1)]
            vals[k] = wire_transfer(n, plus, thetas)[1]
        return vals

    values = {n: sample_fidelities(n) for n in sizes}
    stats = [wire_fidelity_mc(n, plus, dist, 2000, 42) for n in sizes]
    assert stats[2].mean == values[6].mean()  # manual stream matches the API

    decreasing = all(
        nxt.mean < prev.mean for prev, nxt in zip(stats, stats[1:])
    )
    ok = decreasing
    pulls = []
    for a, b in zip(sizes, sizes[1:]):
        diff = values[a] - values[b]
        pull = diff.mean() / (diff.std(ddof=1) / math.sqrt(len(diff)))
        pulls.append(f"{pull:.0f}")
        ok &= pull >= 4.0
    means = ", ".join(f"{s.mean:.4f}" for s in stats)
    check(
        9,
        ok,
        f"mean transfer fidelity over N=2,4,6,8,10 at Gaussian(0.5): {means}; "
        f"strictly decreasing, consecutive paired separations "
        f"{', '.join(pulls)} stderr",
    )


def test_criterion_10_determinism_and_rederived_constants(tmp_path, capsys):
    # byte-identical CLI reruns
    cli_ok = True
    for name, argv in {
        "wire": ["wire-scan", "--samples", "10", "--sizes", "2,3", "--no-meta"],
        "noise": ["fig-noise", "--grid", "0:6.28:5", "--no-meta"],
    }.items():
        paths = [tmp_path / f"{name}_{i}.csv" for i in (1, 2)]
        for path in paths:
            assert main(argv + ["--out", str(path)]) == 0
        cli_ok &= paths[0].read_bytes() == paths[1].read_bytes()
    capsys.readouterr()

    # Monte Carlo reruns are identical, and the batched contraction agrees
    # with one gate_fidelity_once per sample of the same stream
    cfg = config_cnot4()
    inputs = {1: InputQubit.plus(), 3: InputQubit.plus()}
    dist = PhaseDistribution.gaussian(0.6)
    first = gate_fidelity_mc(cfg, inputs, dist, 64, 123)
    rerun_ok = first == gate_fidelity_mc(cfg, inputs, dist, 64, 123)
    once = []
    for k in range(64):
        rng = np.random.default_rng(np.random.SeedSequence(123, spawn_key=(k,)))
        thetas = {e: dist.sample(rng) for e in cfg.graph.edges}
        once.append(gate_fidelity_once(cfg, inputs, thetas))
    once_ok = abs(first.mean - np.mean(once)) <= 1e-12

    # pinned constants re-derived by brute force:
    # (a) cnot4 decoding by exhaustive Pauli search per outcome branch
    paulis = {"I": IDENTITY_2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    frame = np.kron(HADAMARD, HADAMARD)
    ideal_gate = cnot_matrix(control=2, target=1)
    decode_ok = True
    for s1, s3 in itertools.product((0, 1), repeat=2):
        valid = None
        for in1, in3 in PROBE_PAIRS + (
            (InputQubit.plus(), InputQubit.zero()),
            (InputQubit.plus(), InputQubit.plus()),
        ):
            state = build_cluster(chain_graph(4), {1: in1, 3: in3})
            _, _, state = measure(state, 1, MeasurementBasis.x(), force=s1)
            _, _, state = measure(state, 2, MeasurementBasis.x(), force=s3)
            ideal = ideal_gate @ np.kron(in1.as_array(), in3.as_array())
            good = {
                (n1, n2)
                for (n1, m1), (n2, m2) in itertools.product(paulis.items(), repeat=2)
                if abs(
                    abs(np.vdot(ideal, frame @ np.kron(m1, m2) @ state.amplitudes))
                    - 1.0
                )
                < 1e-9
            }
            valid = good if valid is None else valid & good
        decode_ok &= ("X" if s1 else "I", "X" if s1 ^ s3 else "I") in valid

    # (b) frozen dephasing spot values against dense simulation
    ghz3 = dense_dephased_fidelity(PureState(3, ghz_vector(3)), GAMMA)
    w3 = dense_dephased_fidelity(PureState(3, w_vector(3)), GAMMA)
    frozen_ok = (
        abs(ghz3 - 0.9151367974909663) < 1e-12
        and abs(w3 - 0.9222532272551671) < 1e-12
        and abs(dephasing_fidelity("linear_cluster", 25, GAMMA) - LIN25_AT_GAMMA)
        < 1e-12
    )

    # (c) postselected squashed-I branch probability from the state engine
    run = run_gate(
        config_cnot15(), {1: InputQubit.plus(), 9: InputQubit.plus()}
    )
    prob_ok = abs(run.probability - 2.0**-13) < 1e-15

    # (d) single-edge wire fidelity against the hand-derived closed form
    wire_ok = all(
        abs(
            wire_transfer(2, InputQubit.plus(), [t])[1]
            - 2.0 / (3.0 - math.cos(t))
        )
        < 1e-12
        for t in np.linspace(0.0, 2.0 * math.pi, 9)
    )

    check(
        10,
        cli_ok and rerun_ok and once_ok and decode_ok and frozen_ok and prob_ok and wire_ok,
        "CLI reruns byte-identical; Monte Carlo reruns identical and the batched "
        "mean within 1e-12 of a per-sample gate_fidelity_once loop; "
        "pinned constants reproduced by brute force (cnot4 decoding via "
        "exhaustive Pauli search, dephasing spot values via dense simulation, "
        "squashed-I branch probability 2^-13, single-edge wire closed form)",
    )
