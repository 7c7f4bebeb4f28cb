"""Exhaustive X/Y measurement-pattern search, and a re-derivation of the squashed-I CNOT.

The package's squashed-I pattern (``oneway._SQUASHED_I_XY`` and
``_SQUASHED_I_DECODING``) is a frozen constant; this search is how it was
found, kept outside the package. The tests import ``derive_xy_pattern`` from
here, compare it with a dense per-candidate search, and re-run it over the 13
measured sites of ``config_cnot15`` to re-derive the frozen pattern.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from noisycluster.clusters import ClusterGraph, build_cluster
from noisycluster.oneway import MeasurementPattern
from noisycluster.states import (
    FORCE_PROB_ATOL,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    InputQubit,
    MeasurementBasis,
)

MATCH_ATOL = 1e-8
MAX_MEASURED = 14


class PatternSearchError(RuntimeError):
    pass


PAULI_BY_NAME = {"I": IDENTITY_2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
PAULI_EXPONENTS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

# rows: the outcome-0 bras of the X and Y bases
XY_BRAS = np.array([[1.0, 1.0], [1.0, -1j]]) / math.sqrt(2.0)

PROBE_INPUTS: tuple[tuple[InputQubit, InputQubit], ...] = (
    (InputQubit.zero(), InputQubit.zero()),
    (InputQubit.zero(), InputQubit.one()),
    (InputQubit.one(), InputQubit.zero()),
    (InputQubit.one(), InputQubit.one()),
    (InputQubit.plus(), InputQubit.zero()),
    (InputQubit.plus(), InputQubit.plus()),
)


def basis(label: str) -> MeasurementBasis:
    return MeasurementBasis.x() if label == "X" else MeasurementBasis.y()


def derive_xy_pattern(
    graph: ClusterGraph,
    input_sites: tuple[int, int],
    outputs: tuple[int, int],
    ideal_gate: np.ndarray,
    output_frame: tuple[np.ndarray, np.ndarray] = (IDENTITY_2, IDENTITY_2),
) -> MeasurementPattern:
    """Exhaustive search for an X/Y basis assignment realizing the gate.

    Measured sites are all non-output sites, ascending. A candidate is
    accepted when one fixed two-qubit Pauli P turns its postselected output
    into the ideal gate's output (up to phase) on four computational probes
    and two superposition probes. Returns the lexicographically first
    acceptable assignment (X before Y), with P as the all-zero decoding,
    or raises ``PatternSearchError``.

    Each probe cluster is built once; a Kronecker product of the outcome-0
    bras of X and Y over the measured sites gives every candidate's
    unnormalised output at once, one row per candidate.
    """
    measured = tuple(s for s in graph.sites if s not in outputs)
    if len(measured) > MAX_MEASURED:
        raise ValueError(f"search space capped at 2^{MAX_MEASURED} candidates")
    clusters = [
        build_cluster(graph, {input_sites[0]: in1, input_sites[1]: in2})
        for in1, in2 in PROBE_INPUTS
    ]
    if tuple(s for s in graph.sites if s not in measured) != tuple(outputs):
        raise AssertionError("outputs out of order")
    axes = [graph.position(s) - 1 for s in measured + tuple(outputs)]
    pauli_names = list(itertools.product("IXYZ", repeat=2))
    frame_mat = np.kron(output_frame[0], output_frame[1])
    decoders = np.stack(
        [frame_mat @ np.kron(PAULI_BY_NAME[a], PAULI_BY_NAME[b]) for a, b in pauli_names]
    )
    alive = np.ones((2 ** len(measured), len(pauli_names)), dtype=bool)
    for (in1, in2), cluster in zip(PROBE_INPUTS, clusters):
        out = cluster.amplitudes.reshape((2,) * graph.num_sites).transpose(axes)
        for k in range(len(measured)):  # axis k becomes the X/Y choice of site k
            out = np.einsum("ab,ibj->iaj", XY_BRAS, out.reshape(2**k, 2, -1))
        out = out.reshape(-1, 4)
        probability = np.einsum("bi,bi->b", out.conj(), out).real
        possible = probability >= FORCE_PROB_ATOL
        alive &= possible[:, None]
        ideal = ideal_gate @ np.kron(in1.as_array(), in2.as_array())
        overlaps = out[possible] @ (ideal.conj() @ decoders).T
        alive[possible] &= (
            np.abs(np.abs(overlaps) / np.sqrt(probability[possible, None]) - 1.0) <= MATCH_ATOL
        )
    hits = np.flatnonzero(alive.any(axis=1))
    if not hits.size:
        raise PatternSearchError("no X/Y measurement pattern realizes the gate")
    bits = np.unravel_index(hits[0], (2,) * len(measured))
    p1, p2 = pauli_names[np.argmax(alive[hits[0]])]
    return MeasurementPattern(
        steps=tuple((site, basis("XY"[bit])) for site, bit in zip(measured, bits)),
        outputs=tuple(outputs),
        decoding={(0,) * len(measured): (PAULI_EXPONENTS[p1], PAULI_EXPONENTS[p2])},
    )
