"""Measurement-based gate protocols on (possibly noisy) cluster states.

A ``GateConfig`` packages a cluster graph, input sites, an ordered
measurement pattern with an outcome decoding table, an output frame and the
ideal logical gate. ``run_gate`` executes the pattern on a cluster built
with per-edge deviations, and the Monte Carlo drivers estimate mean gate
fidelity under a phase-deviation distribution.

Logical register order is the order of ``input_sites`` and of ``outputs``
(entry k of one feeds entry k of the other).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .clusters import (
    ClusterGraph,
    LocalCorrection,
    build_cluster,
    chain_graph,
    clifford_group_1q,
    derive_local_correction,  # noqa: F401  unused here; bench/spans.py traces it on this module
)
from .phasenoise import PhaseDistribution, _check_finite_phases, _seeded_rows
from .states import (
    FORCE_PROB_ATOL,
    HADAMARD,
    IDENTITY_2,
    InputQubit,
    MeasurementBasis,
    NORM_ATOL,
    PAULI_X,
    PAULI_Z,
    PureState,
    _born_outcome,
    apply_local,
    measure,
    phase_z,
)

@dataclass(frozen=True)
class MeasurementPattern:
    """Ordered single-qubit measurements with a Pauli decoding table.

    ``decoding`` maps realized outcome tuples to per-output
    (sigma_x exponent, sigma_z exponent) pairs.
    """

    steps: tuple[tuple[int, MeasurementBasis], ...]
    outputs: tuple[int, ...]
    decoding: Mapping[tuple[int, ...], tuple[tuple[int, int], ...]]

    @property
    def postselect_only(self) -> bool:
        """Whether the decoding table leaves some outcome branch out."""
        return len(self.decoding) < 2 ** len(self.steps)

    def measured_sites(self) -> tuple[int, ...]:
        return tuple(site for site, _ in self.steps)


@dataclass(frozen=True)
class GateConfig:
    name: str
    graph: ClusterGraph
    input_sites: tuple[int, ...]
    pattern: MeasurementPattern
    ideal_gate: np.ndarray
    output_frame: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        """Refuse a shape that no evaluator can run, once, before either runs it."""
        sites, pattern = set(self.graph.sites), self.pattern
        measured = pattern.measured_sites()
        for kind, chosen in (("measured", measured), ("input", self.input_sites)):
            if len(set(chosen)) < len(chosen) or not set(chosen) <= sites:
                raise ValueError(f"{kind} sites must be distinct graph sites")
        if tuple(s for s in self.graph.sites if s not in measured) != pattern.outputs:
            raise ValueError("pattern does not reduce the register to the outputs")
        k = len(self.input_sites)
        if not k == len(pattern.outputs) == len(self.output_frame):
            raise ValueError("need one output and one output frame per input site")
        if bad := [key for key, pairs in pattern.decoding.items() if len(pairs) != k]:
            raise ValueError(f"decoding table entry {bad[0]} needs one pair per output")
        if np.shape(self.ideal_gate) != (2**k, 2**k):
            raise ValueError(f"ideal gate must be {2**k} x {2**k} for {k} inputs")

    @functools.cached_property
    def _zero_branch(self) -> tuple[dict[int, np.ndarray], np.ndarray, list, list]:
        """The all-zero branch as a tensor network, built on first use.

        Returns the bra of each measured site, the decoding Paulis and frame on
        the outputs, the ``np.einsum`` sublists (sites, then edges, then the
        output) and the contraction path.
        """
        graph, pattern = self.graph, self.pattern
        key = (0,) * len(pattern.steps)
        if key not in pattern.decoding:
            raise ValueError(f"no decoding entry for outcomes {key}")
        if graph.num_sites >= 52:
            raise ValueError("np.einsum labels cap the contraction at 51 sites")
        bras = {}
        for site, basis in pattern.steps:
            if basis.axis == "z":
                bras[site] = np.array([1.0, 0.0])
            else:
                bras[site] = np.array([1.0, np.exp(-1j * basis.alpha)]) / math.sqrt(2.0)
        decode = np.ones((1, 1))
        for (x_exp, z_exp), frame in zip(pattern.decoding[key], self.output_frame):
            local = frame @ (PAULI_Z if z_exp else IDENTITY_2)
            decode = np.kron(decode, local @ (PAULI_X if x_exp else IDENTITY_2))
        # sublist labels: site k is k, the batch axis is num_sites and only edges carry it
        pos = {site: k for k, site in enumerate(graph.sites)}
        batch = graph.num_sites
        labels = [[k] for k in range(batch)]
        labels += [[batch, pos[a], pos[b]] for a, b in graph.edges]
        labels.append(([batch] if graph.edges else []) + [pos[s] for s in pattern.outputs])
        # the path is fixed for 64 rows; any row count contracts along it
        probe = [_PLUS] * batch + [np.ones((64, 2, 2))] * len(graph.edges)
        probe_operands = itertools.chain(*zip(probe, labels), [labels[-1]])
        path = np.einsum_path(*probe_operands, optimize="greedy")[0]
        return bras, decode, labels, path


class GateRun(NamedTuple):
    outcomes: tuple[int, ...]
    probability: float
    state: PureState


class SampleStats(NamedTuple):
    mean: float
    stderr: float
    n_samples: int
    seed: int


def cnot_matrix(control: int, target: int) -> np.ndarray:
    """4x4 CNOT on a two-qubit register, positions 1-based, qubit 1 = MSB."""
    if {control, target} != {1, 2}:
        raise ValueError("control and target must be positions 1 and 2")
    m = np.zeros((4, 4), dtype=complex)
    for z in range(4):
        bits = [(z >> 1) & 1, z & 1]
        if bits[control - 1]:
            bits[target - 1] ^= 1
        m[(bits[0] << 1) | bits[1], z] = 1.0
    return m


# --- configurations ----------------------------------------------------------


def _basis(label: str) -> MeasurementBasis:
    return MeasurementBasis.x() if label == "X" else MeasurementBasis.y()


@functools.lru_cache(maxsize=1)
def config_cnot4() -> GateConfig:
    """Four-site chain CNOT: target in on 1, control in on 3, outputs (2, 4).

    X-measuring sites 1 and 3 leaves the logical pair on sites 2 and 4 in
    the X eigenbasis (Hadamard output frame); the byproduct for outcomes
    (s1, s3) is X^{s1} on site 2 and X^{s1 xor s3} on site 4. All four
    branches decode exactly at zero noise.
    """
    decoding = {
        (s1, s3): ((s1, 0), (s1 ^ s3, 0))
        for s1 in (0, 1)
        for s3 in (0, 1)
    }
    pattern = MeasurementPattern(
        steps=((1, MeasurementBasis.x()), (3, MeasurementBasis.x())),
        outputs=(2, 4),
        decoding=decoding,
    )
    return GateConfig(
        name="cnot4",
        graph=chain_graph(4),
        input_sites=(1, 3),
        pattern=pattern,
        ideal_gate=cnot_matrix(control=2, target=1),
        output_frame=(HADAMARD, HADAMARD),
    )


def _squashed_i_graph() -> ClusterGraph:
    """Control wire 1..7, target wire 9..15, bridge 8 on edges (4,8), (8,12)."""
    edges = [(j, j + 1) for j in range(1, 7)]
    edges += [(j, j + 1) for j in range(9, 15)]
    edges += [(4, 8), (8, 12)]
    return ClusterGraph(tuple(range(1, 16)), tuple(edges), {}, {})


def _bridged_graph() -> ClusterGraph:
    """Squashed-I with the (8,12) edge replaced by a bridge site 16."""
    base = _squashed_i_graph()
    edges = [e for e in base.edges if e != (8, 12)] + [(8, 16), (12, 16)]
    return ClusterGraph(tuple(range(1, 17)), tuple(edges), {}, {})


_SQUASHED_I_MEASURED = (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14)

# X/Y assignment for the measured sites above, a frozen constant of the
# squashed-I layout (Raussendorf, Browne & Briegel, PRA 68, 022312, 2003);
# tools/xy_search.py re-derives it and the decoding below; tests check both.
_SQUASHED_I_XY = ("X", "Y", "Y", "Y", "Y", "Y", "Y", "X", "X", "X", "X", "X", "Y")
# all-zero branch byproduct, per output (x exponent, z exponent)
_SQUASHED_I_DECODING = ((0, 1), (0, 0))


@functools.lru_cache(maxsize=1)
def config_cnot15() -> GateConfig:
    """Squashed-I CNOT on 15 sites; control 1 -> 7, target 9 -> 15.

    Postselect-only: the decoding table covers the all-zero branch.
    """
    steps = tuple(
        (site, _basis(label))
        for site, label in zip(_SQUASHED_I_MEASURED, _SQUASHED_I_XY)
    )
    pattern = MeasurementPattern(
        steps=steps,
        outputs=(7, 15),
        decoding={(0,) * len(steps): _SQUASHED_I_DECODING},
    )
    return GateConfig(
        name="cnot15",
        graph=_squashed_i_graph(),
        input_sites=(1, 9),
        pattern=pattern,
        ideal_gate=cnot_matrix(control=1, target=2),
        output_frame=(IDENTITY_2, IDENTITY_2),
    )


@functools.lru_cache(maxsize=1)
def config_cnot16_bridged() -> GateConfig:
    """Squashed-I CNOT with a redundant bridge site 16 between 8 and 12.

    Site 16 is measured first, in the Y basis: contracting a degree-2 site
    between non-adjacent neighbors in that basis yields exactly the missing
    (8,12) edge up to a phase gate on 8 and on 12 (an X measurement instead
    leaves a z8 = z12 parity constraint that no local frame can remove, so
    it cannot retrieve the plain squashed-I cluster). Those phase gates are
    folded into the later measurements of 8 and 12, whose bases turn by
    pi/2; the other 13 steps, the outputs, inputs, ideal gate and output frame
    are the 15-site pattern's. Postselect-only.
    """
    base = config_cnot15()
    # Y-measuring the bridge with outcome 0 leaves S^dagger = SSS on sites 8 and 12
    # (Hein, Eisert & Briegel, PRA 69, 062311, 2004), and S^dagger followed by a
    # planar(alpha) measurement is a planar(alpha + pi/2) measurement
    steps = ((16, MeasurementBasis.y()),) + tuple(
        (site, MeasurementBasis.planar(b.alpha + math.pi / 2) if site in (8, 12) else b)
        for site, b in base.pattern.steps
    )
    decoding = {(0,) * len(steps): _SQUASHED_I_DECODING}
    pattern = replace(base.pattern, steps=steps, decoding=decoding)
    return replace(base, name="cnot16_bridged", graph=_bridged_graph(), pattern=pattern)


def gate_configs() -> tuple[GateConfig, ...]:
    return (config_cnot4(), config_cnot15(), config_cnot16_bridged())


# --- pattern execution -------------------------------------------------------


def _merge_thetas(
    graph: ClusterGraph, thetas: Mapping[tuple[int, int], float] | None
) -> ClusterGraph:
    """``graph`` with ``thetas`` over its own deviations; ``ClusterGraph`` checks the keys."""
    if not thetas:
        return graph
    given = {tuple(sorted(e)) for e in thetas}
    kept = {e: t for e, t in graph.edge_theta.items() if e not in given}
    return replace(graph, edge_theta={**kept, **thetas})


def _forced_outcomes(
    outcomes: str | Sequence[int], count: int, rng: np.random.Generator | None
) -> tuple[int, ...] | None:
    """Outcomes to force, one per measurement, or None to sample them with ``rng``."""
    if isinstance(outcomes, str):
        if outcomes == "zero":
            return (0,) * count
        if outcomes != "sample":
            raise ValueError(f"unknown outcomes mode {outcomes!r}")
        if rng is None:
            raise ValueError("sampling outcomes needs rng=")
        return None
    forced = tuple(outcomes)
    if len(forced) != count:
        raise ValueError("one outcome per measurement required")
    if any(b not in (0, 1) for b in forced):
        raise ValueError("forced outcome must be 0 or 1")
    return tuple(map(int, forced))


def run_gate(
    config: GateConfig,
    inputs: Mapping[int, InputQubit],
    thetas: Mapping[tuple[int, int], float] | None = None,
    *,
    outcomes: str | Sequence[int] = "zero",
    rng: np.random.Generator | None = None,
) -> GateRun:
    """Execute a gate pattern on a freshly built (noisy) cluster.

    ``outcomes`` is ``"zero"`` (postselect every outcome to 0), ``"sample"``
    (Born sampling, needs ``rng``) or an explicit bit sequence, one per
    pattern step. Returns realized outcomes, the branch probability and the
    decoded, frame-rotated logical output state.
    """
    if set(inputs) != set(config.input_sites):
        raise ValueError(f"inputs must cover sites {config.input_sites}")
    forced = _forced_outcomes(outcomes, len(config.pattern.steps), rng)
    graph = _merge_thetas(config.graph, thetas)
    state = build_cluster(graph, inputs)
    live = list(graph.sites)

    realized: list[int] = []
    probability = 1.0
    for k, (site, basis) in enumerate(config.pattern.steps):
        pos = live.index(site) + 1
        if forced is None:
            out, p, state = measure(state, pos, basis, rng=rng)
        else:
            out, p, state = measure(state, pos, basis, force=forced[k])
        realized.append(out)
        probability *= p
        live.pop(pos - 1)

    key = tuple(realized)
    table = config.pattern.decoding
    if key not in table:
        raise ValueError(
            f"no decoding entry for outcomes {key}"
            + (" (postselect-only configuration)" if config.pattern.postselect_only else "")
        )
    for idx, (x_exp, z_exp) in enumerate(table[key]):
        if x_exp:
            state = apply_local(state, idx + 1, PAULI_X)
        if z_exp:
            state = apply_local(state, idx + 1, PAULI_Z)
    for idx, frame in enumerate(config.output_frame):
        state = apply_local(state, idx + 1, frame)
    return GateRun(key, probability, state)


def _logical_input_state(config: GateConfig, inputs: Mapping[int, InputQubit]) -> np.ndarray:
    vec = inputs[config.input_sites[0]].as_array()
    for site in config.input_sites[1:]:
        vec = np.kron(vec, inputs[site].as_array())
    return vec


# --- postselected patterns as tensor networks -------------------------------
#
# The all-zero branch of a pattern on a noisy cluster is a small tensor
# network: every site contributes a 2-vector over its computational bit (its
# input or |+>, times its measurement bra), every edge the noisy gate tensor
# [[1, 1], [1, -e^{i theta}]] with a leading batch axis, one row of phases
# per sample, and the output legs stay open.

_PLUS = InputQubit.plus().as_array()


def _zero_branch_fidelities(
    config: GateConfig, inputs: Mapping[int, InputQubit], thetas: np.ndarray
) -> np.ndarray:
    """Fidelity of the decoded all-zero branch for each row of edge phases.

    ``thetas`` has one row per sample and one column per edge of
    ``config.graph.edges``. A non-finite phase, or a branch of probability below
    ``FORCE_PROB_ATOL`` times its zero-noise value 2^-m for m measured sites (or NaN),
    cannot be realized and raises ``ValueError``.
    """
    if set(inputs) != set(config.input_sites):
        raise ValueError(f"inputs must cover sites {config.input_sites}")
    _check_finite_phases(thetas)
    bras, decode, labels, path = config._zero_branch
    vectors = [
        (inputs[s].as_array() if s in inputs else _PLUS) * bras.get(s, 1.0)
        for s in config.graph.sites
    ]
    edges = np.ones(thetas.shape + (2, 2), dtype=complex)
    edges[..., 1, 1] = -np.exp(1j * thetas)
    operands = zip(vectors + list(np.moveaxis(edges, 1, 0)), labels)
    out = np.einsum(*itertools.chain(*operands), labels[-1], optimize=path)
    # an edgeless network contracts to one row, the same for every sample
    out = np.broadcast_to(out.reshape(-1, len(decode)), (len(thetas), len(decode)))
    probability = np.einsum("bi,bi->b", out.conj(), out).real
    if not (probability >= FORCE_PROB_ATOL * 0.5 ** len(config.pattern.steps)).all():  # NaN too
        raise ValueError(f"all-zero branch has probability {probability.min():.3e}")
    target = decode.conj().T @ config.ideal_gate @ _logical_input_state(config, inputs)
    return np.abs(out @ target.conj()) ** 2 / probability


def gate_fidelity_once(
    config: GateConfig,
    inputs: Mapping[int, InputQubit],
    thetas: Mapping[tuple[int, int], float] | None = None,
) -> float:
    """|<ideal output| postselected noisy output>|^2 for one theta draw.

    Edges missing from ``thetas`` keep the graph's own deviation.
    """
    merged = _merge_thetas(config.graph, thetas).edge_theta
    row = np.array([[merged[e] for e in config.graph.edges]])
    return float(_zero_branch_fidelities(config, inputs, row)[0])


def _check_sample_count(n_samples: int) -> None:
    """Run by the Monte Carlo drivers before they draw a row: ``_stats_from_samples``
    needs two."""
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")


def _stats_from_samples(values: np.ndarray, seed: int) -> SampleStats:
    n = len(values)
    mean = values.sum() / n
    # the float operations of np.std(values, ddof=1), without its overhead
    stderr = math.sqrt(np.square(values - mean).sum() / (n - 1)) / math.sqrt(n)
    return SampleStats(float(mean), stderr, n, seed)


def gate_fidelity_mc(
    config: GateConfig,
    inputs: Mapping[int, InputQubit],
    dist: PhaseDistribution,
    n_samples: int,
    master_seed: int,
) -> SampleStats:
    """Monte Carlo mean gate fidelity under i.i.d. edge deviations.

    Sample k is row k of ``phasenoise._seeded_rows``, one phase per edge in ascending
    order; all rows are scored in one batched contraction of the postselected pattern.
    """
    _check_sample_count(n_samples)
    width = len(config.graph.edges)
    thetas = np.array(list(_seeded_rows(dist, width, n_samples, master_seed)))
    return _stats_from_samples(_zero_branch_fidelities(config, inputs, thetas), master_seed)


# --- wires and single-qubit gates -------------------------------------------

# Keyed by (n % 2, e, o), e and o the parities of the even- and odd-indexed outcomes:
# the inverse wire byproduct, Z^e H Z^o for n even and Z^e X^o for n odd (Raussendorf,
# Browne & Briegel, PRA 68, 022312, 2003); tests re-derive every word by Clifford search.
_WIRE_FRAMES = {
    key: LocalCorrection((1,), (word,), (dict(clifford_group_1q())[word],))
    for key, word in {
        (0, 0, 0): "H", (0, 1, 0): "SSH", (0, 0, 1): "HSS", (0, 1, 1): "SSHSS",
        (1, 0, 0): "I", (1, 1, 0): "SS", (1, 0, 1): "HSSH", (1, 1, 1): "SSHSSH",
    }.items()
}


def _wire_correction(n: int, outcomes: tuple[int, ...]) -> LocalCorrection:
    return _WIRE_FRAMES[n % 2, sum(outcomes[0::2]) % 2, sum(outcomes[1::2]) % 2]


def _wire_kernel(
    qubit: InputQubit,
    thetas: Sequence[float],
    forced: tuple[int, ...] | None,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, float]:
    """The wire in complex scalars: outcome s, forced or drawn as ``states.measure`` draws
    it, leaves the measured head's neighbor in 1/2 [v0 + (-1)^s v1, v0 - (-1)^s e^{i theta}
    v1]; then the frame of the realized outcomes. Returns amplitudes and |<input|output>|^2."""
    v0, v1 = complex(qubit.amp0), complex(qubit.amp1)
    cos, sin, sqrt = math.cos, math.sin, math.sqrt
    realized = []
    try:
        for theta, out in zip(thetas, itertools.repeat(None) if forced is None else forced):
            phase_v1 = complex(cos(theta), sin(theta)) * v1
            w0, w1 = 0.5 * (v0 + v1), 0.5 * (v0 - phase_v1)
            p0 = (abs(w0) ** 2 + abs(w1) ** 2) / (abs(v0) ** 2 + abs(v1) ** 2)
            p0 = 0.0 if p0 < 0.0 else 1.0 if p0 > 1.0 else p0  # NaN stays NaN
            if out is None:
                out = _born_outcome(rng, p0)
            prob = p0 if out == 0 else 1.0 - p0
            if prob < FORCE_PROB_ATOL:
                raise ValueError(f"outcome {out} has probability {prob:.3e}, cannot realize")
            if out:
                w0, w1 = 0.5 * (v0 - v1), 0.5 * (v0 + phase_v1)
            norm = sqrt(prob)
            v0, v1 = w0 / norm, w1 / norm
            realized.append(out)
        frame = _wire_correction(len(thetas) + 1, tuple(realized))
        (g00, g01), (g10, g11) = frame.matrices[0].tolist()
        c0, c1 = g00 * v0 + g01 * v1, g10 * v0 + g11 * v1
        for norm in (abs(v0) ** 2 + abs(v1) ** 2, abs(c0) ** 2 + abs(c1) ** 2):
            if not abs(norm - 1.0) <= NORM_ATOL:  # NaN fails too
                raise ValueError(f"state not normalized: |amp|^2 = {norm}")
    except ValueError:  # math.cos fails on an infinite phase, and a NaN one unnormalizes
        _check_finite_phases(thetas)
        raise
    amplitudes = np.array([c0, c1])
    return amplitudes, float(abs(np.vdot(qubit.as_array(), amplitudes)) ** 2)


def wire_transfer(
    n: int,
    input_qubit: InputQubit,
    thetas: Sequence[float] | None = None,
    *,
    outcomes: str | Sequence[int] = "zero",
    rng: np.random.Generator | None = None,
) -> tuple[PureState, float]:
    """Teleport a qubit along an n-site chain by X-measuring sites 1..n-1.

    Only the head of the chain is ever measured, so the qubit is carried as
    one 2-vector, updated once per measured site; Born sampling draws one
    ``rng.random()`` per site, as ``states.measure`` does. The branch
    correction is read from a frozen table keyed by n mod 2 and the parities
    of the even- and odd-indexed outcomes. Returns the corrected output qubit
    and its fidelity |<input|output>|^2.
    """
    if n < 2:
        raise ValueError("wire needs at least 2 sites")
    thetas = [0.0] * (n - 1) if thetas is None else list(thetas)
    if len(thetas) != n - 1:
        raise ValueError(f"expected {n - 1} thetas")
    forced = _forced_outcomes(outcomes, n - 1, rng)
    amplitudes, fid = _wire_kernel(input_qubit, thetas, forced, rng)
    return PureState(1, amplitudes), fid


def wire_fidelity_mc(
    n: int,
    input_qubit: InputQubit,
    dist: PhaseDistribution,
    n_samples: int,
    master_seed: int,
) -> SampleStats:
    """Mean postselected wire fidelity under i.i.d. edge deviations. Sample k runs
    the all-zero branch on row k of ``phasenoise._seeded_rows``, drawn as it is used."""
    if n < 2:
        raise ValueError("wire needs at least 2 sites")
    _check_sample_count(n_samples)
    zeros, values = (0,) * (n - 1), np.empty(n_samples)
    for k, row in enumerate(_seeded_rows(dist, n - 1, n_samples, master_seed)):
        values[k] = _wire_kernel(input_qubit, row.tolist(), zeros, None)[1]
    return _stats_from_samples(values, master_seed)


def single_qubit_gate(
    alpha: float,
    input_qubit: InputQubit,
    theta: float = 0.0,
    *,
    force: int = 0,
) -> tuple[PureState, np.ndarray]:
    """Smallest rotation primitive: a 2-site cluster and one measurement.

    Site 1 carries the input and is measured in the planar basis at angle
    -alpha; with an ideal entangling gate the branch realizes
    X^outcome . H . R_z(alpha) (R_z(alpha) = diag(1, e^{i alpha})), which is
    returned alongside the output state.
    """
    graph = chain_graph(2, [theta])
    state = build_cluster(graph, {1: input_qubit})
    out, _, state = measure(
        state, 1, MeasurementBasis.planar(-alpha), force=force
    )
    realized = HADAMARD @ phase_z(alpha)
    if out == 1:
        realized = PAULI_X @ realized
    return state, realized
