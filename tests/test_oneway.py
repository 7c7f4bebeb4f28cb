"""Tests for measurement-based gate patterns, wires and their Monte Carlo."""

import dataclasses
import functools
import importlib.util
import itertools
import math
import pathlib

import numpy as np
import pytest

from noisycluster import clusters, oneway, states
from noisycluster.clusters import build_cluster, chain_graph, ClusterGraph, derive_local_correction
from noisycluster.oneway import (
    GateConfig,
    MeasurementPattern,
    cnot_matrix,
    config_cnot4,
    config_cnot15,
    config_cnot16_bridged,
    gate_configs,
    gate_fidelity_mc,
    gate_fidelity_once,
    run_gate,
    single_qubit_gate,
    wire_fidelity_mc,
    wire_transfer,
)
from noisycluster.phasenoise import PhaseDistribution, _seeded_rows
from noisycluster.states import (
    DensityMatrix,
    FORCE_PROB_ATOL,
    HADAMARD,
    InputQubit,
    MeasurementBasis,
    PAULI_X,
    PureState,
    measure,
    phase_z,
)

SEED = 61507


def random_input(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return InputQubit(v[0], v[1])


PROBES = (
    (InputQubit.zero(), InputQubit.zero()),
    (InputQubit.zero(), InputQubit.one()),
    (InputQubit.one(), InputQubit.zero()),
    (InputQubit.one(), InputQubit.one()),
    (InputQubit.plus(), InputQubit.zero()),
    (InputQubit.plus(), InputQubit.plus()),
)


def gate_fidelity(config, in1, in2, run):
    ideal = config.ideal_gate @ np.kron(in1.as_array(), in2.as_array())
    return abs(np.vdot(ideal, run.state.amplitudes)) ** 2


# --- cnot_matrix -------------------------------------------------------------


def test_cnot_matrix_truth_tables():
    c12 = cnot_matrix(control=1, target=2)
    # qubit 1 is the MSB: |10> flips to |11>
    expect12 = np.zeros((4, 4))
    expect12[0b00, 0b00] = expect12[0b01, 0b01] = 1.0
    expect12[0b11, 0b10] = expect12[0b10, 0b11] = 1.0
    np.testing.assert_allclose(c12, expect12, atol=1e-15)

    c21 = cnot_matrix(control=2, target=1)
    expect21 = np.zeros((4, 4))
    expect21[0b00, 0b00] = expect21[0b10, 0b10] = 1.0
    expect21[0b11, 0b01] = expect21[0b01, 0b11] = 1.0
    np.testing.assert_allclose(c21, expect21, atol=1e-15)


def test_cnot_matrix_involution():
    for control, target in ((1, 2), (2, 1)):
        m = cnot_matrix(control=control, target=target)
        np.testing.assert_allclose(m @ m, np.eye(4), atol=1e-15)


def test_cnot_matrix_rejects_bad_positions():
    with pytest.raises(ValueError):
        cnot_matrix(control=1, target=1)
    with pytest.raises(ValueError):
        cnot_matrix(control=2, target=3)


# --- cnot4 -------------------------------------------------------------------


def test_cnot4_wiring():
    cfg = config_cnot4()
    assert cfg.input_sites == (1, 3)
    assert cfg.pattern.outputs == (2, 4)
    assert cfg.pattern.measured_sites() == (1, 3)
    assert not cfg.pattern.postselect_only
    assert cfg.graph.sites == (1, 2, 3, 4)
    np.testing.assert_allclose(cfg.ideal_gate, cnot_matrix(control=2, target=1))


def test_cnot4_all_branches_decode():
    cfg = config_cnot4()
    rng = np.random.default_rng(SEED)
    for s1 in (0, 1):
        for s3 in (0, 1):
            for in1, in2 in PROBES + ((random_input(rng), random_input(rng)),):
                run = run_gate(cfg, {1: in1, 3: in2}, outcomes=(s1, s3))
                assert run.outcomes == (s1, s3)
                assert gate_fidelity(cfg, in1, in2, run) == pytest.approx(
                    1.0, abs=1e-10
                )


def test_cnot4_branch_probabilities_uniform():
    cfg = config_cnot4()
    inputs = {1: InputQubit.plus(), 3: InputQubit.zero()}
    probs = [
        run_gate(cfg, inputs, outcomes=(s1, s3)).probability
        for s1 in (0, 1)
        for s3 in (0, 1)
    ]
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_cnot4_sampled_outcomes_reproducible():
    cfg = config_cnot4()
    inputs = {1: InputQubit.plus(), 3: InputQubit.plus()}
    runs = [
        run_gate(cfg, inputs, outcomes="sample", rng=np.random.default_rng(SEED))
        for _ in range(2)
    ]
    assert runs[0].outcomes == runs[1].outcomes
    np.testing.assert_allclose(
        runs[0].state.amplitudes, runs[1].state.amplitudes, atol=1e-15
    )


def test_run_gate_input_and_mode_guards():
    cfg = config_cnot4()
    good = {1: InputQubit.zero(), 3: InputQubit.zero()}
    with pytest.raises(ValueError):
        run_gate(cfg, {1: InputQubit.zero()})
    with pytest.raises(ValueError):
        run_gate(cfg, {2: InputQubit.zero(), 4: InputQubit.zero()})
    with pytest.raises(ValueError):
        run_gate(cfg, good, outcomes="sample")
    with pytest.raises(ValueError):
        run_gate(cfg, good, outcomes="typo")
    with pytest.raises(ValueError):
        run_gate(cfg, good, outcomes=(0,))


def test_run_gate_theta_edge_handling():
    cfg = config_cnot4()
    inputs = {1: InputQubit.plus(), 3: InputQubit.zero()}
    with pytest.raises(ValueError):
        run_gate(cfg, inputs, thetas={(1, 3): 0.3})
    # edge keys are unordered
    a = run_gate(cfg, inputs, thetas={(2, 1): 0.7})
    b = run_gate(cfg, inputs, thetas={(1, 2): 0.7})
    np.testing.assert_allclose(a.state.amplitudes, b.state.amplitudes, atol=1e-15)


# --- squashed-I patterns -----------------------------------------------------


def test_cnot15_zero_noise_truth_table():
    cfg = config_cnot15()
    for in1, in2 in PROBES:
        run = run_gate(cfg, {1: in1, 9: in2})
        assert gate_fidelity(cfg, in1, in2, run) == pytest.approx(1.0, abs=1e-10)


def test_cnot15_branch_probability():
    cfg = config_cnot15()
    run = run_gate(cfg, {1: InputQubit.plus(), 9: InputQubit.plus()})
    assert run.probability == pytest.approx(2.0**-13, rel=1e-10)


def test_cnot15_rejects_unlisted_branch():
    cfg = config_cnot15()
    outcomes = (1,) + (0,) * 12
    with pytest.raises(ValueError, match="postselect-only"):
        run_gate(cfg, {1: InputQubit.plus(), 9: InputQubit.zero()}, outcomes=outcomes)


def test_cnot16_bridge_corrections():
    cfg = config_cnot16_bridged()
    assert cfg.pattern.steps[0][0] == 16
    assert (8, 12) not in cfg.graph.edges
    assert (8, 16) in cfg.graph.edges and (12, 16) in cfg.graph.edges
    # contracting the bridge in the Y basis costs S^dagger on each neighbor, folded
    # into their bases: planar(pi) on 8 (Y in cnot15) and Y on 12 (X in cnot15)
    bases = dict(cfg.pattern.steps)
    assert {bases[s].axis for s in (16, 8, 12)} == {"planar"}
    assert [bases[s].alpha for s in (16, 8, 12)] == [math.pi / 2, math.pi, math.pi / 2]
    # every other step is cnot15's, in cnot15's order
    plain = config_cnot15().pattern.steps
    assert cfg.pattern.measured_sites()[1:] == tuple(s for s, _ in plain)
    assert [(s, b) for s, b in cfg.pattern.steps[1:] if s not in (8, 12)] == [
        (s, b) for s, b in plain if s not in (8, 12)
    ]


def test_cnot16_zero_noise_truth_table():
    cfg = config_cnot16_bridged()
    for in1, in2 in PROBES:
        run = run_gate(cfg, {1: in1, 9: in2})
        assert gate_fidelity(cfg, in1, in2, run) == pytest.approx(1.0, abs=1e-10)


def test_postselect_only_follows_the_decoding_table():
    assert [cfg.pattern.postselect_only for cfg in gate_configs()] == [False, True, True]
    steps = ((1, MeasurementBasis.x()), (2, MeasurementBasis.y()))
    full = {(a, b): ((a, b),) for a in (0, 1) for b in (0, 1)}
    assert not MeasurementPattern(steps, (3,), full).postselect_only
    del full[1, 1]
    assert MeasurementPattern(steps, (3,), full).postselect_only
    # no longer a constructor field that could contradict the table
    with pytest.raises(TypeError):
        MeasurementPattern(steps, (3,), full, postselect_only=False)


def test_gate_configs_listing():
    names = [cfg.name for cfg in gate_configs()]
    assert names == ["cnot4", "cnot15", "cnot16_bridged"]


def test_cnot16_bridge_correction_rederivation():
    # Y-measuring the bridge of the dense 16-site cluster and searching the
    # Clifford pairs on sites 8 and 12 against the dense 15-site squashed-I
    # cluster finds the words that the bridged pattern folds into its bases
    cfg = config_cnot16_bridged()
    base = config_cnot15().graph
    _, _, post = measure(
        build_cluster(cfg.graph), cfg.graph.position(16), MeasurementBasis.y(), force=0
    )
    expect = derive_local_correction(
        post, build_cluster(base), [base.position(8), base.position(12)]
    )
    assert expect.names == ("SSS", "SSS")
    # the folded bases carry exactly those words: bra_16(site) = bra_15(site) SSS
    bras, plain = cfg._zero_branch[0], config_cnot15()._zero_branch[0]
    for site, matrix in zip((8, 12), expect.matrices):
        np.testing.assert_allclose(bras[site], plain[site] @ matrix, rtol=0, atol=1e-15)
    assert all((bras[s] == plain[s]).all() for s in plain if s not in (8, 12))


def test_cnot16_bridged_setup_runs_no_dense_engine(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense engine called")

    for name in ("build_cluster", "measure", "derive_local_correction", "run_gate"):
        monkeypatch.setattr(oneway, name, dense)
    config_cnot16_bridged.cache_clear()
    try:
        cfg = config_cnot16_bridged()
    finally:
        config_cnot16_bridged.cache_clear()
    bases = dict(cfg.pattern.steps)
    assert [bases[s].alpha for s in (16, 8, 12)] == [math.pi / 2, math.pi, math.pi / 2]


@pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
def test_cnot16_bridged_matches_the_dense_run_with_corrections(noisy):
    # the folded bases against the run they replace: Y-measure the bridge with
    # outcome 0, apply SSS to sites 8 and 12 by hand, then run cnot15's steps
    cfg, plain = config_cnot16_bridged(), config_cnot15()
    sss = dict(clusters.clifford_group_1q())["SSS"]
    rng = np.random.default_rng(SEED)
    thetas = {e: rng.normal(0.0, 0.4) for e in cfg.graph.edges} if noisy else {}
    for in1, in2 in PROBES:
        inputs = {1: in1, 9: in2}
        state = build_cluster(dataclasses.replace(cfg.graph, edge_theta=thetas), inputs)
        live = list(cfg.graph.sites)
        _, probability, state = measure(state, live.index(16) + 1, MeasurementBasis.y(), force=0)
        live.remove(16)
        for site in (8, 12):
            state = states.apply_local(state, live.index(site) + 1, sss)
        for site, basis in plain.pattern.steps:
            _, p, state = measure(state, live.index(site) + 1, basis, force=0)
            probability *= p
            live.remove(site)
        assert tuple(live) == plain.pattern.outputs
        decoding = plain.pattern.decoding[(0,) * len(plain.pattern.steps)]
        for idx, ((x_exp, z_exp), frame) in enumerate(zip(decoding, plain.output_frame)):
            local = frame @ np.linalg.matrix_power(states.PAULI_Z, z_exp)
            local = local @ np.linalg.matrix_power(PAULI_X, x_exp)
            state = states.apply_local(state, idx + 1, local)
        run = run_gate(cfg, inputs, thetas)
        np.testing.assert_allclose(run.state.amplitudes, state.amplitudes, rtol=0, atol=1e-12)
        assert run.probability == pytest.approx(probability, rel=0, abs=1e-12)


def _cnot4_measuring(*sites):
    """cnot4's pattern X-measuring ``sites``, with an all-zero decoding entry."""
    pattern = config_cnot4().pattern
    steps = tuple((site, MeasurementBasis.x()) for site in sites)
    return MeasurementPattern(steps, pattern.outputs, {(0,) * len(steps): ((0, 0), (0, 0))})


def _cnot4_decoding(edit):
    """cnot4's pattern with each decoding entry replaced by ``edit(key, pairs)``."""
    pattern = config_cnot4().pattern
    decoding = {key: edit(key, pairs) for key, pairs in pattern.decoding.items()}
    return dataclasses.replace(pattern, decoding=decoding)


@pytest.mark.parametrize(
    "change, message",
    [
        pytest.param(
            {"pattern": _cnot4_measuring(1, 3, 99)},
            "^measured sites must be distinct graph sites$",
            id="step-on-a-non-site",
        ),
        pytest.param(
            {"pattern": _cnot4_measuring(1, 3, 1)},
            "^measured sites must be distinct graph sites$",
            id="site-measured-twice",
        ),
        pytest.param(
            {"input_sites": (1, 99)},
            "^input sites must be distinct graph sites$",
            id="input-on-a-non-site",
        ),
        pytest.param(
            {"input_sites": (1, 1)},
            "^input sites must be distinct graph sites$",
            id="input-given-twice",
        ),
        pytest.param(
            {"output_frame": (HADAMARD,)},
            "^need one output and one output frame per input site$",
            id="one-entry-output-frame",
        ),
        pytest.param(
            {"pattern": _cnot4_measuring(1, 2)},
            "^pattern does not reduce the register to the outputs$",
            id="outputs-not-the-unmeasured-sites",
        ),
        pytest.param(
            {"ideal_gate": np.eye(2)},
            "^ideal gate must be 4 x 4 for 2 inputs$",
            id="ideal-gate-of-the-wrong-size",
        ),
        pytest.param(
            {"pattern": _cnot4_decoding(lambda key, pairs: pairs[:1])},
            r"^decoding table entry \(0, 0\) needs one pair per output$",
            id="every-decoding-entry-one-pair",
        ),
        pytest.param(
            {"pattern": _cnot4_decoding(lambda key, pairs: pairs + ((0, 0),) * (key == (1, 0)))},
            r"^decoding table entry \(1, 0\) needs one pair per output$",
            id="one-decoding-entry-three-pairs",
        ),
    ],
)
def test_malformed_gate_config_is_refused_at_construction(change, message):
    # refused once, where the config is built: an evaluator given one of these would
    # fail in its own way (KeyError, list.index, a numpy shape error) or return a wrong number
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(config_cnot4(), name="malformed", **change)


# --- X/Y pattern search (tools/xy_search.py) -------------------------------
#
# The search that found the frozen squashed-I pattern lives outside the
# package. A division by a zero-probability branch must fail, not warn.

_spec = importlib.util.spec_from_file_location(
    "xy_search", pathlib.Path(__file__).resolve().parent.parent / "tools" / "xy_search.py"
)
xy_search = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(xy_search)
derive_xy_pattern = xy_search.derive_xy_pattern
PatternSearchError = xy_search.PatternSearchError

search_test = pytest.mark.filterwarnings("error")


def dense_xy_pattern(graph, input_sites, outputs, ideal_gate, output_frame):
    """The dense search derive_xy_pattern once ran: every candidate, every
    probe, one forced measure per site. The oracle for the batched search."""
    measured = tuple(s for s in graph.sites if s not in outputs)
    pauli_names = list(itertools.product("IXYZ", repeat=2))
    frame_mat = np.kron(output_frame[0], output_frame[1])
    decoders = {
        names: frame_mat @ np.kron(*(xy_search.PAULI_BY_NAME[n] for n in names))
        for names in pauli_names
    }
    ideal_outs = []
    clusters = []
    for in1, in2 in PROBES:
        ideal_outs.append(ideal_gate @ np.kron(in1.as_array(), in2.as_array()))
        clusters.append(build_cluster(graph, {input_sites[0]: in1, input_sites[1]: in2}))
    for labels in itertools.product("XY", repeat=len(measured)):
        bases = [xy_search.basis(lab) for lab in labels]
        surviving = pauli_names
        for ideal, state in zip(ideal_outs, clusters):
            live = list(graph.sites)
            try:
                for site, basis in zip(measured, bases):
                    pos = live.index(site) + 1
                    _, _, state = measure(state, pos, basis, force=0)
                    live.pop(pos - 1)
            except ValueError:
                break
            assert tuple(live) == tuple(outputs)
            surviving = [
                names
                for names in surviving
                if abs(abs(np.vdot(ideal, decoders[names] @ state.amplitudes)) - 1.0)
                <= xy_search.MATCH_ATOL
            ]
            if not surviving:
                break
        else:
            p1, p2 = surviving[0]
            return MeasurementPattern(
                steps=tuple(zip(measured, bases)),
                outputs=tuple(outputs),
                decoding={
                    (0,) * len(measured): (
                        xy_search.PAULI_EXPONENTS[p1],
                        xy_search.PAULI_EXPONENTS[p2],
                    )
                },
            )
    raise PatternSearchError("no X/Y measurement pattern realizes the gate")


def bridged_wires(a, b, i):
    """Wires 1..a and a+1..a+b joined through a bridge site on the i-th site
    of each; inputs on the wire heads, outputs on the wire tails."""
    wires = (tuple(range(1, a + 1)), tuple(range(a + 1, a + b + 1)))
    bridge = a + b + 1
    edges = [(w[k], w[k + 1]) for w in wires for k in range(len(w) - 1)]
    edges += [(wires[0][i], bridge), (wires[1][i], bridge)]
    graph = ClusterGraph(wires[0] + wires[1] + (bridge,), tuple(edges), {}, {})
    return graph, (1, a + 1), (a, a + b)


_S = np.diag([1.0, 1j])
_CZ = np.diag([1.0, 1.0, 1.0, -1.0])
SEARCH_GATES = {
    "I": np.eye(4),
    "cnot12": cnot_matrix(control=1, target=2),
    "cnot21": cnot_matrix(control=2, target=1),
    "cz": _CZ,
    "hh": np.kron(HADAMARD, HADAMARD),
    "sh": np.kron(_S, HADAMARD),
    "cz.hi": _CZ @ np.kron(HADAMARD, np.eye(2)),
    # complex: real probes cannot tell the Y bra from its conjugate otherwise
    "si.cz": np.kron(_S, np.eye(2)) @ _CZ,
}
SEARCH_FRAMES = {
    "ii": (np.eye(2), np.eye(2)),
    "hh": (HADAMARD, HADAMARD),
    "hi": (HADAMARD, np.eye(2)),
    "ih": (np.eye(2), HADAMARD),
}
SEARCH_GRAPHS = [(a, b, i) for a in (2, 3) for b in (2, 3) for i in range(min(a, b))]


def search_result(search, *args):
    try:
        pattern = search(*args)
    except PatternSearchError:
        return None
    return pattern.steps, dict(pattern.decoding)


@search_test
@pytest.mark.parametrize("frame", SEARCH_FRAMES)
@pytest.mark.parametrize("gate", SEARCH_GATES)
@pytest.mark.parametrize("a, b, i", SEARCH_GRAPHS)
def test_derive_xy_pattern_matches_dense_search(a, b, i, gate, frame):
    graph, inputs, outputs = bridged_wires(a, b, i)
    args = (graph, inputs, outputs, SEARCH_GATES[gate], SEARCH_FRAMES[frame])
    assert search_result(derive_xy_pattern, *args) == search_result(dense_xy_pattern, *args)


@search_test
def test_search_cases_include_patterns():
    # the comparison above is not vacuous: bridged at the tails, both CNOT
    # directions and CZ, with and without S, are found
    graph, inputs, outputs = bridged_wires(3, 3, 2)
    found = {
        (gate, frame)
        for gate, frame in itertools.product(SEARCH_GATES, SEARCH_FRAMES)
        if search_result(
            derive_xy_pattern, graph, inputs, outputs, SEARCH_GATES[gate], SEARCH_FRAMES[frame]
        )
        is not None
    }
    assert found == {
        ("cnot12", "ih"), ("cnot21", "hi"), ("cz", "ii"), ("cz.hi", "ii"), ("si.cz", "ii")
    }


@search_test
def test_derive_xy_pattern_builds_each_probe_once(monkeypatch):
    built = []
    build = xy_search.build_cluster
    monkeypatch.setattr(xy_search, "build_cluster", lambda *a: built.append(a) or build(*a))
    monkeypatch.setattr(states, "measure", None)
    monkeypatch.setattr(oneway, "measure", None)
    graph, inputs, outputs = bridged_wires(3, 3, 2)
    derive_xy_pattern(graph, inputs, outputs, SEARCH_GATES["cz"])
    assert len(built) == len(PROBES)


@search_test
def test_squashed_i_pattern_rederivation():
    # exhaustive X/Y search over the 13 measured sites reproduces the
    # frozen assignment and its all-zero decoding
    cfg = config_cnot15()
    found = derive_xy_pattern(
        cfg.graph,
        cfg.input_sites,
        cfg.pattern.outputs,
        cfg.ideal_gate,
        cfg.output_frame,
    )
    assert found.steps == cfg.pattern.steps
    assert dict(found.decoding) == dict(cfg.pattern.decoding)
    assert found.postselect_only


@search_test
def test_derive_xy_pattern_four_site_chain():
    pattern = derive_xy_pattern(
        chain_graph(4),
        (1, 3),
        (2, 4),
        cnot_matrix(control=2, target=1),
        (HADAMARD, HADAMARD),
    )
    assert pattern.measured_sites() == (1, 3)
    alphas = [basis.alpha for _, basis in pattern.steps]
    assert alphas == [0.0, 0.0]
    assert dict(pattern.decoding) == {(0, 0): ((0, 0), (0, 0))}


@search_test
def test_derive_xy_pattern_disconnected_wires():
    graph = ClusterGraph((1, 2, 3, 4), ((1, 2), (3, 4)), {}, {})
    with pytest.raises(PatternSearchError):
        derive_xy_pattern(graph, (1, 3), (2, 4), cnot_matrix(control=1, target=2))


@search_test
def test_derive_xy_pattern_search_cap():
    with pytest.raises(ValueError):
        derive_xy_pattern(
            chain_graph(17), (1, 3), (16, 17), cnot_matrix(control=1, target=2)
        )


# --- wires -------------------------------------------------------------------


def test_wire_zero_noise_is_perfect():
    rng = np.random.default_rng(SEED)
    for n in range(2, 7):
        state, fid = wire_transfer(n, random_input(rng))
        assert fid == pytest.approx(1.0, abs=1e-10)
        assert state.num_qubits == 1


def test_wire_all_forced_branches():
    rng = np.random.default_rng(SEED + 1)
    q = random_input(rng)
    for s1 in (0, 1):
        for s2 in (0, 1):
            _, fid = wire_transfer(3, q, outcomes=(s1, s2))
            assert fid == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("route", ["run_gate", "wire_transfer"])
def test_fractional_forced_outcomes_are_refused(route):
    # refused as states.measure refuses force=0.4, not truncated to a bit by int()
    inputs = {1: InputQubit.plus(), 3: InputQubit.zero()}
    if route == "run_gate":
        def amplitudes(outcomes):
            return run_gate(config_cnot4(), inputs, outcomes=outcomes).state.amplitudes
    else:
        def amplitudes(outcomes):
            return wire_transfer(3, InputQubit.plus(), outcomes=outcomes)[0].amplitudes
    for bad in ((1.7, 0), (0.6, 1.2), (0, "1"), (0, float("nan"))):
        with pytest.raises(ValueError, match="^forced outcome must be 0 or 1$"):
            amplitudes(bad)
    for same in ((True, 0), (np.int64(1), 0), (1.0, 0.0)):
        assert np.array_equal(amplitudes(same), amplitudes((1, 0)))


def test_wire_single_edge_closed_form():
    # plus input, one noisy edge: fidelity 2 / (3 - cos theta)
    for theta in np.linspace(0.0, 2.0 * math.pi, 17):
        _, fid = wire_transfer(2, InputQubit.plus(), [theta])
        assert fid == pytest.approx(2.0 / (3.0 - math.cos(theta)), abs=1e-12)


def test_wire_sampling_reproducible():
    q = InputQubit.plus()
    fids = [
        wire_transfer(4, q, [0.3, 0.9, 1.4], outcomes="sample",
                      rng=np.random.default_rng(SEED))[1]
        for _ in range(2)
    ]
    assert fids[0] == fids[1]


def test_wire_guards():
    q = InputQubit.plus()
    with pytest.raises(ValueError):
        wire_transfer(1, q)
    with pytest.raises(ValueError):
        wire_transfer(3, q, [0.1])
    with pytest.raises(ValueError):
        wire_transfer(3, q, outcomes=(0,))
    with pytest.raises(ValueError):
        wire_transfer(3, q, outcomes="sample")
    with pytest.raises(ValueError):
        wire_transfer(3, q, outcomes="typo")


# --- the scalar wire kernel against the route it replaced ---------------------


def reference_wire_steps(qubit, thetas, forced, rng):
    """The wire step as it ran before the scalar kernel: both branch vectors
    formed every step, the 2-vector returned as an array."""
    v0, v1 = complex(qubit.amp0), complex(qubit.amp1)
    realized = []
    for k, theta in enumerate(thetas):
        phase = complex(math.cos(theta), math.sin(theta))
        w0 = (0.5 * (v0 + v1), 0.5 * (v0 - phase * v1))
        w1 = (0.5 * (v0 - v1), 0.5 * (v0 + phase * v1))
        p0 = (abs(w0[0]) ** 2 + abs(w0[1]) ** 2) / (abs(v0) ** 2 + abs(v1) ** 2)
        p0 = min(max(p0, 0.0), 1.0)
        out = (0 if rng.random() < p0 else 1) if forced is None else forced[k]
        prob = p0 if out == 0 else 1.0 - p0
        if prob < FORCE_PROB_ATOL:
            raise ValueError(f"outcome {out} has probability {prob:.3e}, cannot realize")
        v0, v1 = (w / math.sqrt(prob) for w in (w0 if out == 0 else w1))
        realized.append(out)
    return np.array([v0, v1]), tuple(realized)


def reference_wire(n, qubit, thetas, forced=None, rng=None):
    """Steps, a PureState, LocalCorrection.apply and np.vdot: the old route."""
    actual, realized = reference_wire_steps(qubit, list(thetas), forced, rng)
    state = oneway._wire_correction(n, realized).apply(PureState(1, actual))
    return realized, state.amplitudes, float(abs(np.vdot(qubit.as_array(), state.amplitudes)) ** 2)


def kernel_wire(n, qubit, thetas, outcomes, rng, monkeypatch):
    """wire_transfer with the outcomes it realized, read off the correction lookup."""
    realized = []
    derive = oneway._wire_correction
    monkeypatch.setattr(
        oneway, "_wire_correction", lambda n, outs: realized.append(outs) or derive(n, outs)
    )
    state, fid = wire_transfer(n, qubit, thetas, outcomes=outcomes, rng=rng)
    monkeypatch.setattr(oneway, "_wire_correction", derive)
    return realized.pop(), state.amplitudes, fid


def phase_draws(rng, kind, count):
    if kind == "gaussian":
        return PhaseDistribution.gaussian(rng.uniform(0.1, 2.0)).sample(rng, count)
    return PhaseDistribution.flat(rng.uniform(0.5, 2.0 * math.pi)).sample(rng, count)


@pytest.mark.parametrize("n", range(2, 21))
def test_wire_kernel_equals_reference_route(n, monkeypatch):
    rng = np.random.default_rng(SEED + 100 + n)
    for kind in ("gaussian", "flat"):
        for _ in range(8):
            q = random_input(rng)
            thetas = phase_draws(rng, kind, n - 1)
            got = kernel_wire(n, q, thetas, "zero", None, monkeypatch)
            ref = reference_wire(n, q, thetas, (0,) * (n - 1))
            assert got[0] == ref[0]
            assert (got[1] == ref[1]).all()
            assert got[2] == ref[2]


@pytest.mark.parametrize("n", range(2, 7))
def test_wire_kernel_equals_reference_route_on_every_forced_branch(n, monkeypatch):
    rng = np.random.default_rng(SEED + 200 + n)
    for outcomes in itertools.product((0, 1), repeat=n - 1):
        q = random_input(rng)
        thetas = phase_draws(rng, "gaussian", n - 1)
        got = kernel_wire(n, q, thetas, outcomes, None, monkeypatch)
        ref = reference_wire(n, q, thetas, outcomes)
        assert got[0] == ref[0] == outcomes
        assert (got[1] == ref[1]).all()
        assert got[2] == ref[2]


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 20])
def test_wire_kernel_equals_reference_route_under_born_sampling(n, monkeypatch):
    rng = np.random.default_rng(SEED + 300 + n)
    for seed in range(24):
        q = random_input(rng)
        thetas = phase_draws(rng, "flat", n - 1)
        kernel_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = kernel_wire(n, q, thetas, "sample", kernel_rng, monkeypatch)
        ref = reference_wire(n, q, thetas, None, ref_rng)
        assert got[0] == ref[0]
        assert (got[1] == ref[1]).all()
        assert got[2] == ref[2]
        assert kernel_rng.random() == ref_rng.random()  # the same number of draws


@pytest.mark.parametrize("n", [2, 3, 12, 20])
def test_wire_fidelity_mc_equals_reference_route(n):
    rng = np.random.default_rng(SEED + 400 + n)
    for samples in range(2, 7):
        q = random_input(rng)
        dist = PhaseDistribution.gaussian(rng.uniform(0.1, 2.0))
        master = int(rng.integers(2**31))
        values = np.empty(samples)
        for k in range(samples):
            draw = np.random.default_rng(np.random.SeedSequence(master, spawn_key=(k,)))
            values[k] = reference_wire(n, q, dist.sample(draw, n - 1), (0,) * (n - 1))[2]
        stats = wire_fidelity_mc(n, q, dist, samples, master)
        assert stats.mean == float(values.sum() / samples)
        assert stats.stderr == float(np.std(values, ddof=1) / math.sqrt(samples))


PROBABILITY_MESSAGE = r"^outcome {} has probability \d\.\d{{3}}e[+-]\d\d, cannot realize$"


def test_wire_kernel_probability_guards_keep_their_messages():
    # theta = pi switches the edge off: |+> never gives outcome 1, |-> never outcome 0
    with pytest.raises(ValueError, match=PROBABILITY_MESSAGE.format(1)):
        wire_transfer(2, InputQubit.plus(), [math.pi], outcomes=(1,))
    with pytest.raises(ValueError, match=PROBABILITY_MESSAGE.format(0)):
        wire_fidelity_mc(2, InputQubit.minus(), PhaseDistribution.fixed(math.pi), 2, SEED)


def test_wire_kernel_norm_guard_keeps_its_message():
    q = object.__new__(InputQubit)  # bypasses the constructor's own norm check
    object.__setattr__(q, "amp0", 1.0)
    object.__setattr__(q, "amp1", 1e-3)
    with pytest.raises(ValueError, match=r"^state not normalized: \|amp\|\^2 = "):
        wire_transfer(3, q, [0.2, 0.4])
    with pytest.raises(ValueError, match=r"^state not normalized: \|amp\|\^2 = "):
        wire_fidelity_mc(3, q, PhaseDistribution.gaussian(0.5), 2, SEED)


class FixedDraw:
    """A stand-in rng: every ``random()`` returns ``u``; the calls are counted."""

    def __init__(self, u):
        self.u, self.draws = u, 0

    def random(self):
        self.draws += 1
        return self.u


# an edge phase that nearly switches the edge off: X-measuring |+> (|->) across it
# gives outcome 1 (0) with probability (1 - cos(pi - theta)) / 4 = 1e-13, too rare to realize
NEAR_OFF = math.pi - math.acos(1.0 - 4e-13)


@pytest.mark.parametrize("rare", [0, 1])
@pytest.mark.parametrize("route", ["measure", "run_gate", "wire_transfer"])
def test_born_sampling_never_draws_an_unrealizable_outcome(route, rare, monkeypatch):
    """A draw that falls on the rare outcome takes the other one, still with one
    ``rng.random()`` per measured site; forcing the rare outcome still raises."""
    qubit = InputQubit.minus() if rare == 0 else InputQubit.plus()
    draw = FixedDraw(0.0 if rare == 0 else math.nextafter(1.0, 0.0))
    if route == "measure":
        state = build_cluster(chain_graph(2, [NEAR_OFF]), {1: qubit})
        outcomes = (measure(state, 1, MeasurementBasis.x(), rng=draw).outcome,)
        force = functools.partial(measure, state, 1, MeasurementBasis.x(), force=rare)
    elif route == "run_gate":
        config, thetas = config_cnot4(), {(1, 2): NEAR_OFF}
        inputs = {1: qubit, 3: InputQubit.plus()}
        outcomes = run_gate(config, inputs, thetas, outcomes="sample", rng=draw).outcomes
        force = functools.partial(run_gate, config, inputs, thetas, outcomes=(rare, 0))
    else:
        outcomes = kernel_wire(2, qubit, [NEAR_OFF], "sample", draw, monkeypatch)[0]
        force = functools.partial(wire_transfer, 2, qubit, [NEAR_OFF], outcomes=(rare,))
    assert outcomes[0] == 1 - rare
    assert draw.draws == len(outcomes)
    with pytest.raises(ValueError, match=PROBABILITY_MESSAGE.format(rare)):
        force()


def refuse_search_and_count_states(monkeypatch):
    """Make any Clifford search fail, and log apply_local and PureState calls."""
    def refuse(*args, **kwargs):
        raise AssertionError("a wire reached derive_local_correction")

    monkeypatch.setattr(oneway, "derive_local_correction", refuse)
    monkeypatch.setattr(clusters, "derive_local_correction", refuse)
    calls = []

    def counting(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(oneway, "apply_local", counting("apply_local", oneway.apply_local))
    monkeypatch.setattr(clusters, "apply_local", counting("apply_local", clusters.apply_local))
    monkeypatch.setattr(PureState, "__post_init__", counting("PureState", PureState.__post_init__))
    return calls


def test_wire_fidelity_mc_builds_no_state_per_sample(monkeypatch):
    """Cold, with no warm-up call: the frames are constants, not search results."""
    calls = refuse_search_and_count_states(monkeypatch)
    q, dist = random_input(np.random.default_rng(SEED)), PhaseDistribution.gaussian(0.5)
    for n in range(2, 21):
        calls.clear()
        stats = wire_fidelity_mc(n, q, dist, 3, SEED)
        assert stats.n_samples == 3
        assert calls == []
        assert stats == wire_fidelity_mc(n, q, dist, 3, SEED)
        calls.clear()
        wire_transfer(n, q)  # wire_transfer wraps its result in exactly one PureState
        assert calls == ["PureState"]


def test_wire_correction_cache_holds_one_entry_per_parity_class(monkeypatch):
    """The correction store is the frozen frame table: one word per (n mod 2, even
    parity, odd parity), met by every forced and Born-sampled wire with no search."""
    assert sorted(oneway._WIRE_FRAMES) == list(itertools.product((0, 1), repeat=3))
    calls = refuse_search_and_count_states(monkeypatch)
    rng = np.random.default_rng(SEED)
    q = random_input(rng)
    for n in range(2, 21):
        for outcomes in ["zero", tuple(rng.integers(0, 2, n - 1))]:
            calls.clear()
            assert wire_transfer(n, q, outcomes=outcomes)[1] == pytest.approx(1.0, abs=1e-12)
            assert calls == ["PureState"]  # the one state wire_transfer returns
        for _ in range(8):
            calls.clear()
            wire_transfer(n, q, rng.normal(0.0, 0.5, n - 1), outcomes="sample", rng=rng)
            assert calls == ["PureState"]
    met, lookup = set(), oneway._wire_correction
    monkeypatch.setattr(
        oneway, "_wire_correction", lambda n, out: met.add(lookup(n, out).names) or lookup(n, out)
    )
    for _ in range(50):
        wire_transfer(200, InputQubit.plus(), outcomes="sample", rng=rng)
    assert 1 <= len(met) <= 4


def test_stats_from_samples_equals_numpy_std():
    rng = np.random.default_rng(SEED + 500)
    cases = [rng.uniform(0.0, 1.0, n) for n in range(2, 65)]
    cases += [1.0 - rng.integers(0, 8, n) * 1e-15 for n in range(2, 65)]
    cases += [np.full(n, c) for n in range(2, 65) for c in (0.1, 0.7, 1.0 - 1e-15)]
    for values in cases:
        n = len(values)
        stats = oneway._stats_from_samples(values, SEED)
        assert stats.mean == float(values.sum() / n)
        assert stats.stderr == float(np.std(values, ddof=1) / math.sqrt(n))
        assert (stats.n_samples, stats.seed) == (n, SEED)
    for n in range(2, 65):
        for c in (0.0, 0.25, 0.5, 1.0):
            assert oneway._stats_from_samples(np.full(n, c), SEED)[:2] == (c, 0.0)


# --- the 2-vector wire step against the dense engine -------------------------


def dense_wire(n, input_qubit, thetas, *, outcomes=None, rng=None):
    """The dense build_cluster/measure loop wire_transfer used to run."""
    state = build_cluster(chain_graph(n, thetas), {1: input_qubit})
    realized = []
    for k in range(n - 1):
        if outcomes is None:
            out, _, state = measure(state, 1, MeasurementBasis.x(), rng=rng)
        else:
            out, _, state = measure(state, 1, MeasurementBasis.x(), force=outcomes[k])
        realized.append(out)
    state = oneway._wire_correction(n, tuple(realized)).apply(state)
    return tuple(realized), abs(np.vdot(input_qubit.as_array(), state.amplitudes)) ** 2


@pytest.mark.parametrize("n", range(2, 7))
def test_wire_step_matches_dense_on_every_forced_branch(n):
    rng = np.random.default_rng(SEED + n)
    for outcomes in itertools.product((0, 1), repeat=n - 1):
        q = random_input(rng)
        thetas = rng.normal(0.0, 0.7, n - 1)
        _, fid = wire_transfer(n, q, thetas, outcomes=outcomes)
        assert fid == pytest.approx(dense_wire(n, q, thetas, outcomes=outcomes)[1], abs=1e-12)


@pytest.mark.parametrize("n", range(2, 7))
def test_wire_step_matches_dense_born_sampling(n, monkeypatch):
    rng = np.random.default_rng(SEED - n)
    for seed in range(16):
        q = random_input(rng)
        thetas = rng.normal(0.0, 0.7, n - 1)
        outcomes, _, fid = kernel_wire(
            n, q, thetas, "sample", np.random.default_rng(seed), monkeypatch
        )
        dense_outcomes, dense_fid = dense_wire(n, q, thetas, rng=np.random.default_rng(seed))
        assert outcomes == dense_outcomes
        assert fid == pytest.approx(dense_fid, abs=1e-12)


# generic reference state: not an eigenvector of any nontrivial single-qubit
# Clifford, so a correction derived on it is the exact operator inverse
WIRE_REFERENCE = InputQubit(0.6, 0.8 * np.exp(1j * math.pi / 5.0))


def dense_wire_correction(n, outcomes):
    """The branch correction as once derived, on a dense n-site chain."""
    state = build_cluster(chain_graph(n), {1: WIRE_REFERENCE})
    for out in outcomes:
        _, _, state = measure(state, 1, MeasurementBasis.x(), force=out)
    target = PureState(1, WIRE_REFERENCE.as_array())
    return derive_local_correction(state, target, [1])


@pytest.mark.parametrize("n", range(2, 7))
def test_wire_correction_matches_dense_derivation(n):
    for outcomes in itertools.product((0, 1), repeat=n - 1):
        got = oneway._wire_correction(n, outcomes)
        expect = dense_wire_correction(n, outcomes)
        assert (got.qubits, got.names) == (expect.qubits, expect.names), outcomes


def per_branch_wire_correction(n, outcomes):
    """The correction derived by Clifford search on the branch itself, at zero noise."""
    actual, _ = reference_wire_steps(WIRE_REFERENCE, [0.0] * (n - 1), outcomes, None)
    target = PureState(1, WIRE_REFERENCE.as_array())
    return derive_local_correction(PureState(1, actual), target, [1])


@pytest.mark.parametrize("n", [*range(2, 13), 200, 201, 1000, 1001])
def test_wire_parity_class_correction_equals_per_branch_derivation(n):
    """The frozen frames against the search: every branch up to n = 12, then
    40 seeded random branches per length."""
    if n <= 12:
        branches = itertools.product((0, 1), repeat=n - 1)
    else:
        branches = map(tuple, np.random.default_rng(SEED + n).integers(0, 2, (40, n - 1)))
    for outcomes in branches:
        got = oneway._wire_correction(n, outcomes)
        expect = per_branch_wire_correction(n, outcomes)
        assert (got.qubits, got.names) == (expect.qubits, expect.names), outcomes
        assert all((a == b).all() for a, b in zip(got.matrices, expect.matrices)), outcomes


@pytest.mark.parametrize("n", [1, 0, -3])
def test_wire_fidelity_mc_needs_two_sites(n):
    with pytest.raises(ValueError, match="wire needs at least 2 sites"):
        wire_fidelity_mc(n, InputQubit.plus(), PhaseDistribution.gaussian(0.5), 4, SEED)


@pytest.mark.parametrize("n", [25, 1000])
def test_wire_longer_than_a_dense_register(n):
    rng = np.random.default_rng(SEED + n)
    q = random_input(rng)
    assert wire_transfer(n, q)[1] == pytest.approx(1.0, abs=1e-10)
    assert wire_transfer(n, q, outcomes="sample", rng=rng)[1] == pytest.approx(1.0, abs=1e-10)


def test_wire_zero_probability_branch_raises():
    # theta = pi switches the edge off, leaving site 1 in |+>: outcome 1 never occurs
    with pytest.raises(ValueError, match="probability"):
        wire_transfer(2, InputQubit.plus(), [math.pi], outcomes=(1,))
    with pytest.raises(ValueError):
        wire_transfer(3, InputQubit.plus(), outcomes=(0, 2))


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("at", [0, 1])
def test_wire_transfer_rejects_a_non_finite_phase(theta, at):
    # math.cos fails on an infinite phase with a bare domain error, and a NaN phase
    # ends as an unnormalized state: either way the message names the phase
    thetas = [0.3, -0.2]
    thetas[at] = theta
    sampled = {"outcomes": "sample", "rng": np.random.default_rng(SEED)}
    for kwargs in ({}, {"outcomes": (1, 0)}, sampled):
        with pytest.raises(ValueError, match="^edge phases must be finite$"):
            wire_transfer(3, InputQubit.plus(), thetas, **kwargs)


def test_wire_fidelity_mc_rejects_overflowing_draws():
    # a Gaussian of sigma 1e308 draws infinities: any draw past 1.8 sigma overflows
    dist = PhaseDistribution.gaussian(1e308)
    assert not np.isfinite(np.concatenate(list(_seeded_rows(dist, 9, 20, SEED)))).all()
    with pytest.raises(ValueError, match="^edge phases must be finite$"):
        wire_fidelity_mc(10, InputQubit.plus(), dist, 20, SEED)


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_monte_carlo_drivers_leave_a_negative_seed_to_seed_sequence(seed):
    inputs = {1: InputQubit.plus(), 3: InputQubit.plus()}
    dist = PhaseDistribution.gaussian(0.5)
    for run in (
        lambda: wire_fidelity_mc(3, InputQubit.plus(), dist, 2, seed),
        lambda: gate_fidelity_mc(config_cnot4(), inputs, dist, 2, seed),
    ):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            run()


def test_wire_fidelity_mc_matches_manual_stream():
    n, samples = 3, 24
    dist = PhaseDistribution.gaussian(0.5)
    stats = wire_fidelity_mc(n, InputQubit.plus(), dist, samples, SEED)
    values = np.empty(samples)
    for k in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(k,)))
        thetas = [dist.sample(rng) for _ in range(n - 1)]
        _, values[k] = wire_transfer(n, InputQubit.plus(), thetas)
    assert stats.mean == values.mean()
    assert stats.n_samples == samples
    assert stats.seed == SEED
    assert stats.stderr == values.std(ddof=1) / math.sqrt(samples)


def test_wire_fidelity_mc_needs_two_samples():
    with pytest.raises(ValueError):
        wire_fidelity_mc(3, InputQubit.plus(), PhaseDistribution.gaussian(0.5), 1, SEED)


# --- single-qubit rotation primitive -----------------------------------------


def test_single_qubit_gate_alpha_zero_is_hadamard():
    state, realized = single_qubit_gate(0.0, InputQubit.zero())
    np.testing.assert_allclose(realized, HADAMARD, atol=1e-12)
    expect = HADAMARD @ np.array([1.0, 0.0])
    assert abs(np.vdot(expect, state.amplitudes)) ** 2 == pytest.approx(
        1.0, abs=1e-12
    )


def test_single_qubit_gate_matches_realized_operator():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(6):
        alpha = rng.uniform(-math.pi, math.pi)
        q = random_input(rng)
        for force in (0, 1):
            state, realized = single_qubit_gate(alpha, q, force=force)
            expect = realized @ q.as_array()
            assert abs(np.vdot(expect, state.amplitudes)) ** 2 == pytest.approx(
                1.0, abs=1e-10
            )
            block = HADAMARD @ phase_z(alpha)
            np.testing.assert_allclose(
                realized, (PAULI_X @ block) if force else block, atol=1e-12
            )


def test_single_qubit_gate_dead_edge_ignores_input():
    # theta = pi turns the entangling gate off; the output is |+> whatever
    # the input, so the |1> probe has zero overlap with its ideal image
    state, realized = single_qubit_gate(0.4, InputQubit.one(), theta=math.pi)
    ideal = realized @ InputQubit.one().as_array()
    assert abs(np.vdot(ideal, state.amplitudes)) ** 2 == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(
        np.abs(state.amplitudes), [math.sqrt(0.5)] * 2, atol=1e-10
    )


# --- Monte Carlo over gate configurations ------------------------------------


def test_gate_fidelity_once_zero_noise():
    for cfg in (config_cnot4(), config_cnot15()):
        inputs = {
            cfg.input_sites[0]: InputQubit.plus(),
            cfg.input_sites[1]: InputQubit.zero(),
        }
        assert gate_fidelity_once(cfg, inputs) == pytest.approx(1.0, abs=1e-10)


# --- the batched contraction against the dense engine ------------------------


def dense_fidelities(config, inputs, thetas):
    """Per-row fidelities from the dense engine, the oracle for the contraction."""
    ideal = config.ideal_gate @ np.kron(*(inputs[s].as_array() for s in config.input_sites))
    out = []
    for row in thetas:
        run = run_gate(config, inputs, dict(zip(config.graph.edges, row)))
        out.append(abs(np.vdot(ideal, run.state.amplitudes)) ** 2)
    return np.array(out)


def ring_cnot4():
    """cnot4 with its chain closed into a ring: a graph with a cycle."""
    cfg = config_cnot4()
    ring = ClusterGraph(cfg.graph.sites, cfg.graph.edges + ((1, 4),), {}, {})
    return dataclasses.replace(cfg, name="cnot4_ring", graph=ring)


def z_tail_cnot4():
    """cnot4 with a site 5 on site 4, Z-measured last: outcome 0 leaves site 4 alone."""
    cfg = config_cnot4()
    steps = cfg.pattern.steps + ((5, MeasurementBasis.z()),)
    pattern = MeasurementPattern(steps, cfg.pattern.outputs, {(0, 0, 0): ((0, 0), (0, 0))})
    return dataclasses.replace(cfg, name="cnot4_z_tail", graph=chain_graph(5), pattern=pattern)


def edgeless_pair():
    """Two unentangled sites and nothing measured: the identity on both."""
    pattern = MeasurementPattern((), (1, 2), {(): ((0, 0), (0, 0))})
    graph = ClusterGraph((1, 2), (), {}, {})
    return GateConfig("edgeless", graph, (1, 2), pattern, np.eye(4), (states.IDENTITY_2,) * 2)


@pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0])
@pytest.mark.parametrize(
    "make",
    [config_cnot4, config_cnot15, config_cnot16_bridged, ring_cnot4, z_tail_cnot4, edgeless_pair],
)
def test_contraction_matches_dense_run_gate(make, sigma):
    cfg = make()
    rng = np.random.default_rng(SEED)
    inputs = {site: random_input(rng) for site in cfg.input_sites}
    thetas = rng.normal(0.0, sigma, (32, len(cfg.graph.edges)))
    got = oneway._zero_branch_fidelities(cfg, inputs, thetas)
    np.testing.assert_allclose(got, dense_fidelities(cfg, inputs, thetas), rtol=0, atol=1e-12)


def test_gate_fidelity_mc_runs_an_edgeless_config():
    # no edge carries the batch axis, and every row of phases is empty
    inputs = {1: InputQubit(0.6, 0.8), 2: InputQubit.plus()}
    stats = gate_fidelity_mc(edgeless_pair(), inputs, PhaseDistribution.gaussian(0.5), 50, SEED)
    assert stats.mean == pytest.approx(1.0, abs=1e-15)
    assert stats.stderr == pytest.approx(0.0, abs=1e-15)


def wire_config(n):
    """The n-site wire of ``wire_transfer`` as a gate pattern: X on sites 1..n-1."""
    steps = tuple((site, MeasurementBasis.x()) for site in range(1, n))
    pattern = MeasurementPattern(steps, (n,), {(0,) * (n - 1): ((0, 0),)})
    frame = oneway._wire_correction(n, (0,) * (n - 1)).matrices[0]
    return GateConfig(f"wire{n}", chain_graph(n), (1,), pattern, np.eye(2), (frame,))


@pytest.mark.parametrize("n", [41, 45, 51])
def test_contraction_realizes_long_wires(n):
    # the all-zero branch of m X measurements has probability 2^-m at zero noise, below
    # FORCE_PROB_ATOL from m = 40 on; the floor scales with it
    cfg, qubit = wire_config(n), InputQubit(0.6, 0.8)
    assert gate_fidelity_once(cfg, {1: qubit}) == pytest.approx(1.0, abs=1e-12)
    thetas = np.random.default_rng(SEED).normal(0.0, 0.5, (8, n - 1))
    got = oneway._zero_branch_fidelities(cfg, {1: qubit}, thetas)
    expect = [wire_transfer(n, qubit, row)[1] for row in thetas]
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)
    dist = PhaseDistribution.gaussian(0.5)  # the same seed stream feeds both drivers
    gate = gate_fidelity_mc(cfg, {1: qubit}, dist, 64, 3)
    assert gate.mean == pytest.approx(wire_fidelity_mc(n, qubit, dist, 64, 3).mean, abs=1e-12)


def test_contraction_floor_still_refuses_an_unrealizable_branch():
    # Y -> X on site 8 of the squashed-I pattern: with inputs |0> and |-> the all-zero
    # branch has probability about 1.5e-64, far below 2^-13 FORCE_PROB_ATOL
    cfg = config_cnot15()
    steps = tuple((s, MeasurementBasis.x() if s == 8 else b) for s, b in cfg.pattern.steps)
    flipped = dataclasses.replace(cfg, pattern=dataclasses.replace(cfg.pattern, steps=steps))
    with pytest.raises(ValueError, match=r"^all-zero branch has probability 1\.4\d\de-64$"):
        gate_fidelity_once(flipped, {1: InputQubit.zero(), 9: InputQubit.minus()})


def test_gate_fidelity_once_theta_handling():
    cfg = config_cnot4()
    inputs = {1: InputQubit.plus(), 3: InputQubit.zero()}
    with pytest.raises(ValueError, match=r"^theta given for non-edge \(1, 3\)$"):
        gate_fidelity_once(cfg, inputs, {(3, 1): 0.3})
    with pytest.raises(ValueError, match="^theta given twice"):
        gate_fidelity_once(cfg, inputs, {(1, 2): 0.7, (2, 1): 0.7})
    with pytest.raises(ValueError):
        gate_fidelity_once(cfg, {1: InputQubit.plus()})
    # unordered edge keys; unlisted edges keep the graph's own deviation
    noisy = dataclasses.replace(cfg, graph=chain_graph(4, [0.0, 0.4, 0.9]))
    assert gate_fidelity_once(noisy, inputs, {(2, 1): 0.7}) == pytest.approx(
        dense_fidelities(cfg, inputs, [[0.7, 0.4, 0.9]])[0], abs=1e-12
    )
    # a reversed key gives the forward key's value, bit for bit
    skewed = {1: InputQubit(0.6, 0.8), 3: InputQubit(0.8, 0.6)}
    for thetas in ({(3, 2): 0.3}, {(2, 1): 0.7, (4, 3): 0.2}):
        forward = {tuple(sorted(e)): t for e, t in thetas.items()}
        assert gate_fidelity_once(noisy, skewed, thetas) == gate_fidelity_once(
            noisy, skewed, forward
        ) != gate_fidelity_once(noisy, skewed)


def test_contraction_needs_an_all_zero_decoding_entry():
    cfg = config_cnot4()
    decoding = {key: pairs for key, pairs in cfg.pattern.decoding.items() if any(key)}
    partial = dataclasses.replace(cfg, pattern=dataclasses.replace(cfg.pattern, decoding=decoding))
    with pytest.raises(ValueError, match=r"^no decoding entry for outcomes \(0, 0\)$"):
        gate_fidelity_once(partial, {1: InputQubit.plus(), 3: InputQubit.zero()})


def test_contraction_site_cap():
    # np.einsum has 52 labels: 51 sites and the batch axis
    steps = tuple((site, MeasurementBasis.x()) for site in range(1, 51))
    pattern = MeasurementPattern(steps, (51, 52), {(0,) * 50: ((0, 0), (0, 0))})
    cfg = GateConfig("chain52", chain_graph(52), (1, 2), pattern, np.eye(4), (HADAMARD,) * 2)
    with pytest.raises(ValueError, match="51 sites"):
        gate_fidelity_once(cfg, {1: InputQubit.plus(), 2: InputQubit.plus()})


def test_gate_zero_probability_branch_raises():
    # theta = pi switches edge (1, 2) off, so site 1 keeps its |-> input and
    # the all-zero branch (X outcome 0 on site 1) has probability 0
    inputs = {1: InputQubit.minus(), 3: InputQubit.zero()}
    with pytest.raises(ValueError):
        run_gate(config_cnot4(), inputs, {(1, 2): math.pi})
    with pytest.raises(ValueError, match="probability"):
        gate_fidelity_once(config_cnot4(), inputs, {(1, 2): math.pi})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, float("nan")])
def test_gate_contraction_rejects_non_finite_phases(bad):
    # checked before np.exp, which would warn and turn the branch into NaN
    cfg = config_cnot15()
    inputs = {site: InputQubit.plus() for site in cfg.input_sites}
    thetas = np.zeros((3, len(cfg.graph.edges)))
    thetas[1, 4] = bad
    with pytest.raises(ValueError, match="^edge phases must be finite$"):
        oneway._zero_branch_fidelities(cfg, inputs, thetas)


def test_gate_contraction_rejects_a_nan_branch_probability():
    # a NaN bra makes the branch probability NaN, which no comparison with the atol passes
    cfg = dataclasses.replace(config_cnot4(), name="cnot4_nan")  # not the cached config
    bras, decode, labels, path = cfg._zero_branch
    bras = {site: np.full_like(bra, np.nan) for site, bra in bras.items()}
    cfg.__dict__["_zero_branch"] = (bras, decode, labels, path)
    inputs = {site: InputQubit.plus() for site in cfg.input_sites}
    with pytest.raises(ValueError, match="^all-zero branch has probability nan$"):
        oneway._zero_branch_fidelities(cfg, inputs, np.zeros((2, len(cfg.graph.edges))))


def test_gate_fidelity_mc_deterministic_and_matches_once():
    cfg = config_cnot4()
    inputs = {1: InputQubit.plus(), 3: InputQubit.plus()}
    dist = PhaseDistribution.gaussian(0.6)
    first = gate_fidelity_mc(cfg, inputs, dist, 64, SEED)
    assert first == gate_fidelity_mc(cfg, inputs, dist, 64, SEED)
    # the batched contraction against one gate_fidelity_once per sample
    once, rows = [], []
    for k in range(64):
        rng = np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(k,)))
        thetas = {e: dist.sample(rng) for e in cfg.graph.edges}
        once.append(gate_fidelity_once(cfg, inputs, thetas))
        rows.append(list(thetas.values()))
    assert first.mean == pytest.approx(np.mean(once), abs=1e-12)
    # and bit for bit against the same per-sample rows, stacked by hand
    values = oneway._zero_branch_fidelities(cfg, inputs, np.array(rows))
    assert first == oneway._stats_from_samples(values, SEED)
    assert 0.0 < first.mean < 1.0


NAN = float("nan")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: InputQubit(NAN, 0.0), "input qubit not normalized"),
        (lambda: PureState(1, [NAN, 0.0]), "state not normalized"),
        (lambda: DensityMatrix(1, [[NAN, 0.0], [0.0, 1.0]]), "density matrix not hermitian"),
        (lambda: chain_graph(3, [NAN, 0.0]), r"edge \(1, 2\) deviation must be finite"),
        (lambda: chain_graph(3, [0.0, math.inf]), r"edge \(2, 3\) deviation must be finite"),
        (lambda: wire_transfer(3, InputQubit.plus(), [NAN, 0.1]), "edge phases must be finite"),
        (
            lambda: wire_transfer(
                3, InputQubit.plus(), [0.1, NAN], outcomes="sample", rng=np.random.default_rng(SEED)
            ),
            "edge phases must be finite",
        ),
        (
            lambda: gate_fidelity_once(
                config_cnot4(), {1: InputQubit.plus(), 3: InputQubit.zero()}, {(1, 2): NAN}
            ),
            "deviation must be finite",
        ),
        (
            lambda: run_gate(
                config_cnot4(), {1: InputQubit.plus(), 3: InputQubit.zero()}, {(1, 2): NAN}
            ),
            "deviation must be finite",
        ),
    ],
    ids=[
        "InputQubit", "PureState", "DensityMatrix", "chain_graph-nan", "chain_graph-inf",
        "wire_transfer", "wire_transfer-sample", "gate_fidelity_once", "run_gate",
    ],
)
def test_nan_fails_every_guard(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_gate_fidelity_mc_needs_two_samples():
    cfg = config_cnot4()
    inputs = {1: InputQubit.plus(), 3: InputQubit.plus()}
    with pytest.raises(ValueError):
        gate_fidelity_mc(cfg, inputs, PhaseDistribution.gaussian(0.5), 1, SEED)


@pytest.mark.parametrize("n_samples", [1, 0, -3])
@pytest.mark.parametrize(
    "driver",
    [
        lambda n_samples: gate_fidelity_mc(
            config_cnot4(), {1: InputQubit.plus(), 3: InputQubit.plus()},
            PhaseDistribution.gaussian(0.5), n_samples, SEED,
        ),
        lambda n_samples: wire_fidelity_mc(
            3, InputQubit.plus(), PhaseDistribution.gaussian(0.5), n_samples, SEED
        ),
    ],
    ids=["gate_fidelity_mc", "wire_fidelity_mc"],
)
def test_monte_carlo_drivers_reject_sample_counts_before_drawing(monkeypatch, driver, n_samples):
    def no_rows(*args):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(oneway, "_seeded_rows", no_rows)
    with pytest.raises(ValueError, match="need at least two samples for a standard error"):
        driver(n_samples)
