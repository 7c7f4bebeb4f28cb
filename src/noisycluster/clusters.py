"""Cluster graphs: construction, stabilizer checks, qubit removal.

A ``ClusterGraph`` holds labeled sites, undirected edges, per-site
correlation signs ``kappa`` and per-edge entangling-gate deviations
``theta``. Register qubit ``i`` always corresponds to ``graph.sites[i-1]``,
so removing a site keeps the relative order of the survivors, matching how
``states.measure`` renumbers a register.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .states import (
    HADAMARD,
    IDENTITY_2,
    InputQubit,
    MeasurementBasis,
    PAULI_X,
    PAULI_Z,
    PureState,
    apply_cphase,
    apply_local,
    init_register,
    measure,
    overlap,
)

STABILIZER_ATOL = 1e-8
CORRECTION_ATOL = 1e-8


class UnsupportedGraphError(ValueError):
    pass


class NoLocalCorrectionError(ValueError):
    pass


def _normalize_edge(a: int, b: int) -> tuple[int, int]:
    if a == b:
        raise ValueError(f"self-loop on site {a}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class ClusterGraph:
    """Sites with entangling edges, correlation signs and edge deviations."""

    sites: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    kappa: Mapping[int, int]
    edge_theta: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        sites = tuple(self.sites)
        if len(set(sites)) != len(sites):
            raise ValueError("duplicate site labels")
        known = set(sites)
        edges = tuple(sorted({_normalize_edge(a, b) for a, b in self.edges}))
        for a, b in edges:
            if a not in known or b not in known:
                raise ValueError(f"edge ({a}, {b}) uses unknown site")
        if stray := self.kappa.keys() - known:
            raise ValueError(f"kappa given for unknown site {min(stray)}")
        kappa = {s: int(self.kappa.get(s, 0)) for s in sites}
        if any(v not in (0, 1) for v in kappa.values()):
            raise ValueError("kappa values must be 0 or 1")
        # theta keys are unordered pairs: (b, a) sets edge (a, b)
        given = {tuple(sorted(e)): t for e, t in self.edge_theta.items()}
        if len(given) < len(self.edge_theta):
            raise ValueError("theta given twice for one edge, once in each order")
        if stray := given.keys() - set(edges):
            raise ValueError(f"theta given for non-edge {min(stray)}")
        theta = {e: float(given.get(e, 0.0)) for e in edges}
        if bad := [e for e, t in theta.items() if not math.isfinite(t)]:
            raise ValueError(f"edge {bad[0]} deviation must be finite")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "edge_theta", theta)

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def position(self, site: int) -> int:
        """1-based register position of a site."""
        try:
            return self.sites.index(site) + 1
        except ValueError:
            raise ValueError(f"site {site} not in graph") from None

    def neighbors(self, site: int) -> tuple[int, ...]:
        self.position(site)
        out = []
        for a, b in self.edges:
            if a == site:
                out.append(b)
            elif b == site:
                out.append(a)
        return tuple(sorted(out))

    def degree(self, site: int) -> int:
        return len(self.neighbors(site))

    def is_chain_structured(self) -> bool:
        """True when every connected component is a simple path."""
        if any(self.degree(s) > 2 for s in self.sites):
            return False
        # acyclic check per component: a path component has |edges| = |sites| - 1
        seen: set[int] = set()
        for start in self.sites:
            if start in seen:
                continue
            comp, queue = {start}, [start]
            while queue:
                for nb in self.neighbors(queue.pop()):
                    if nb not in comp:
                        comp.add(nb)
                        queue.append(nb)
            seen |= comp
            n_edges = sum(1 for a, b in self.edges if a in comp)
            if n_edges != len(comp) - 1:
                return False
        return True


def chain_graph(n: int, thetas: Sequence[float] | None = None) -> ClusterGraph:
    """Linear chain 1-2-...-n; thetas optionally sets the n-1 edge deviations."""
    if n < 1:
        raise ValueError("chain needs at least one site")
    edges = [(j, j + 1) for j in range(1, n)]
    if thetas is not None and len(thetas) != n - 1:
        raise ValueError(f"expected {n - 1} thetas, got {len(thetas)}")
    theta = {} if thetas is None else {e: float(t) for e, t in zip(edges, thetas)}
    return ClusterGraph(tuple(range(1, n + 1)), tuple(edges), {}, theta)


def grid_graph(rows: int, cols: int) -> ClusterGraph:
    """Rectangular grid, sites labeled row-major starting at 1."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    label = lambda r, c: r * cols + c + 1
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((label(r, c), label(r, c + 1)))
            if r + 1 < rows:
                edges.append((label(r, c), label(r + 1, c)))
    return ClusterGraph(tuple(range(1, rows * cols + 1)), tuple(edges), {}, {})


def build_cluster(
    graph: ClusterGraph, inputs: Mapping[int, InputQubit] | None = None
) -> PureState:
    """Entangle |+> sites (or explicit inputs) along every edge.

    Edges are applied in ascending (min, max) order; the result does not
    depend on that order since all entangling gates are diagonal.
    """
    inputs = dict(inputs or {})
    for site in inputs:
        graph.position(site)
    plus = InputQubit.plus()
    state = init_register([inputs.get(s, plus) for s in graph.sites])
    for a, b in graph.edges:
        state = apply_cphase(
            state, graph.position(a), graph.position(b), graph.edge_theta[(a, b)]
        )
    return state


class StabilizerReport(NamedTuple):
    eigenvalues: dict[int, float]
    passed: bool


def _stabilizer_ok(eigenvalue: float, expected: float) -> bool:
    """The pass rule of one correlation eigenvalue; ``STABILIZER_ATOL`` is read per call."""
    return abs(eigenvalue - expected) <= STABILIZER_ATOL


def _correlation_expectation(state: PureState, graph: ClusterGraph, site: int) -> float:
    probe = apply_local(state, graph.position(site), PAULI_X)
    for nb in graph.neighbors(site):
        probe = apply_local(probe, graph.position(nb), PAULI_Z)
    return complex(overlap(state, probe)).real


def verify_stabilizers(state: PureState, graph: ClusterGraph) -> StabilizerReport:
    """Expectation of every correlation operator against its kappa sign.

    Meaningful as a pass/fail check for theta = 0 clusters; for noisy states
    the report still carries the raw expectations. This is the dense oracle of
    ``_cluster_stabilizers``, which reads them off a twisted cluster's edges.
    """
    if state.num_qubits != graph.num_sites:
        raise ValueError("state size does not match graph")
    eigenvalues = {s: _correlation_expectation(state, graph, s) for s in graph.sites}
    passed = all(_stabilizer_ok(eigenvalues[s], (-1.0) ** graph.kappa[s]) for s in graph.sites)
    return StabilizerReport(eigenvalues, passed)


def _cluster_stabilizers(graph: ClusterGraph) -> StabilizerReport:
    """``verify_stabilizers(_twisted_cluster(graph), graph)`` without a state vector:
    <K_a> = (-1)^kappa_a Re prod_{b in N(a)} (1 + e^{i theta_ab}) / 2 (Raussendorf &
    Briegel 2001; Hein, Eisert & Briegel 2004), each edge's factor on both its ends."""
    if not graph.sites:
        raise ValueError("graph has no sites")
    products = dict.fromkeys(graph.sites, 1.0 + 0.0j)
    for (a, b), theta in graph.edge_theta.items():
        factor = (1.0 + cmath.exp(1j * theta)) / 2.0
        products[a] *= factor
        products[b] *= factor
    eigenvalues = {s: (-1.0) ** graph.kappa[s] * p.real for s, p in products.items()}
    passed = all(_stabilizer_ok(eigenvalues[s], (-1.0) ** graph.kappa[s]) for s in graph.sites)
    return StabilizerReport(eigenvalues, passed)


# --- single-qubit Clifford enumeration -------------------------------------

_S_GATE = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)


# breadth-first from I by word length, H before S; a word's leftmost gate acts last
_CLIFFORD_WORDS = (
    "I", "H", "S", "SH", "HS", "SS", "HSH", "SSH", "SHS", "HSS", "SSS", "SHSH",
    "HSSH", "SSSH", "SSHS", "SHSS", "SSHSH", "SHSSH", "HSSHS", "SSSHS", "SSHSS",
    "HSSHSH", "SSSHSH", "SSHSSH",
)


@functools.lru_cache(maxsize=1)
def clifford_group_1q() -> tuple[tuple[str, np.ndarray], ...]:
    """The 24 single-qubit Cliffords as H/S words, breadth-first from I.

    The enumeration order is fixed: identity first, then by word length with
    H before S. ``derive_local_correction`` searches in exactly this order.
    Each matrix is the right fold G_1 @ (G_2 @ (... @ I)) of its word.
    """
    gens = {"H": HADAMARD, "S": _S_GATE}
    group = [("I", IDENTITY_2.copy())]
    for word in _CLIFFORD_WORDS[1:]:
        mat = IDENTITY_2
        for gate in reversed(word):
            mat = gens[gate] @ mat
        group.append((word, mat))
    return tuple(group)


@dataclass(frozen=True)
class LocalCorrection:
    """Per-qubit Clifford words fixing a local frame mismatch."""

    qubits: tuple[int, ...]
    names: tuple[str, ...]
    matrices: tuple[np.ndarray, ...]

    def apply(self, state: PureState) -> PureState:
        for qubit, mat in zip(self.qubits, self.matrices):
            state = apply_local(state, qubit, mat)
        return state


def derive_local_correction(
    actual: PureState, target: PureState, qubits: Sequence[int]
) -> LocalCorrection:
    """First (in enumeration order) Clifford product on ``qubits`` with
    |<target| U |actual>| = 1.

    Searches the fixed 24-element single-qubit Clifford list per qubit,
    lexicographically over at most two qubits.
    """
    if actual.num_qubits != target.num_qubits:
        raise ValueError("state sizes differ")
    qubits = tuple(qubits)
    if not 1 <= len(qubits) <= 2:
        raise ValueError("correction supported on one or two qubits")
    group = clifford_group_1q()
    for combo in itertools.product(group, repeat=len(qubits)):
        cand = actual
        for qubit, (_, mat) in zip(qubits, combo):
            cand = apply_local(cand, qubit, mat)
        if abs(abs(overlap(target, cand)) - 1.0) <= CORRECTION_ATOL:
            return LocalCorrection(
                qubits,
                tuple(name for name, _ in combo),
                tuple(mat for _, mat in combo),
            )
    raise NoLocalCorrectionError("no local Clifford correction found")


# --- qubit removal ----------------------------------------------------------


class RemovalResult(NamedTuple):
    outcome: int
    state: PureState
    graph: ClusterGraph


def _with_kappa(graph: ClusterGraph, kappa: Mapping[int, int]) -> ClusterGraph:
    return ClusterGraph(graph.sites, graph.edges, dict(kappa), graph.edge_theta)


def _drop_site(
    graph: ClusterGraph,
    site: int,
    extra_removed_edges: Iterable[tuple[int, int]] = (),
    new_edges: Iterable[tuple[int, int]] = (),
) -> ClusterGraph:
    removed = {_normalize_edge(*e) for e in extra_removed_edges}
    edges = [e for e in graph.edges if site not in e and e not in removed]
    edges.extend(_normalize_edge(*e) for e in new_edges)
    sites = tuple(s for s in graph.sites if s != site)
    kappa = {s: graph.kappa[s] for s in sites}
    theta = {e: graph.edge_theta.get(e, 0.0) for e in edges}
    return ClusterGraph(sites, tuple(edges), kappa, theta)


def remove_z(
    state: PureState,
    graph: ClusterGraph,
    site: int,
    *,
    force: int | None = None,
    rng: np.random.Generator | None = None,
) -> RemovalResult:
    """Measure a site in the computational basis and delete it.

    The site and its edges leave the graph; outcome 1 is compensated by a
    sigma_z on every former neighbor, so kappa is unchanged and an ideal
    cluster stays an ideal cluster of the smaller graph. Works on any graph.
    """
    pos = graph.position(site)
    neighbors = graph.neighbors(site)
    out, prob, post = measure(state, pos, MeasurementBasis.z(), force=force, rng=rng)
    new_graph = _drop_site(graph, site)
    if out == 1:
        for nb in neighbors:
            post = apply_local(post, new_graph.position(nb), PAULI_Z)
    return RemovalResult(out, post, new_graph)


def _twisted_cluster(graph: ClusterGraph) -> PureState:
    """Cluster state realizing the graph's kappa labels (sigma_z twist)."""
    state = build_cluster(graph)
    for s in graph.sites:
        if graph.kappa[s]:
            state = apply_local(state, graph.position(s), PAULI_Z)
    return state


def _kappa_from_expectations(
    state: PureState, graph: ClusterGraph
) -> dict[int, int] | None:
    kappa = {}
    for s in graph.sites:
        e = _correlation_expectation(state, graph, s)
        if abs(e - 1.0) <= STABILIZER_ATOL:
            kappa[s] = 0
        elif abs(e + 1.0) <= STABILIZER_ATOL:
            kappa[s] = 1
        else:
            return None
    return kappa


def remove_x(
    state: PureState,
    graph: ClusterGraph,
    site: int,
    *,
    force: int | None = None,
    rng: np.random.Generator | None = None,
) -> RemovalResult:
    """Measure a chain site in the X basis and contract it away.

    Graph bookkeeping (for chain-structured graphs only, anything else
    raises ``UnsupportedGraphError``):

    * interior site: its two neighbors become adjacent (edge contraction,
      the fresh edge carries theta = 0),
    * end site: the measurement pins the neighbor in a computational state,
      so the neighbor is disconnected as well and rotated back by a
      Hadamard-class correction,
    * isolated site: simply dropped.

    The returned state already includes the deterministic local correction
    from ``derive_local_correction`` whenever one exists, and the new kappa
    values are read off the corrected state, so ``verify_stabilizers``
    passes directly on the returned pair for an ideal input. Removing one
    site from deep inside a long chain leaves a state that is not locally a
    cluster state of the contracted chain; in that case the measured state
    is returned unchanged with inherited kappa, and the bookkeeping
    completes when the adjacent partner site is removed (the standard way
    to excise a segment is to X-measure an adjacent pair).
    """
    if not graph.is_chain_structured():
        raise UnsupportedGraphError(
            "remove_x kappa tracking is supported for chain-structured graphs only"
        )
    pos = graph.position(site)
    neighbors = graph.neighbors(site)
    out, prob, post = measure(state, pos, MeasurementBasis.x(), force=force, rng=rng)

    if len(neighbors) == 2:
        n1, n2 = neighbors
        new_graph = _drop_site(graph, site, new_edges=[(n1, n2)])
        flip_sites = [n1, n2]
        correction_sites = [n1, n2]
    elif len(neighbors) == 1:
        nb = neighbors[0]
        # the neighbor collapses to a computational state, cutting its
        # remaining edge as well
        nb_rest = [s for s in graph.neighbors(nb) if s != site]
        new_graph = _drop_site(
            graph, site, extra_removed_edges=[(nb, s) for s in nb_rest]
        )
        flip_sites = sorted([nb] + nb_rest)
        correction_sites = [nb]
    else:
        new_graph = _drop_site(graph, site)
        if new_graph.num_sites == 0:
            return RemovalResult(out, post, new_graph)
        flip_sites = []
        correction_sites = []

    exact = _kappa_from_expectations(post, new_graph)
    if exact is not None:
        return RemovalResult(out, post, _with_kappa(new_graph, exact))

    # try kappa flips on the affected sites, fewest flips first, with a
    # Clifford correction on the former neighbors
    for r in range(len(flip_sites) + 1):
        for flips in itertools.combinations(flip_sites, r):
            kappa = dict(new_graph.kappa)
            for s in flips:
                kappa[s] ^= 1
            candidate = _with_kappa(new_graph, kappa)
            target = _twisted_cluster(candidate)
            try:
                corr = derive_local_correction(
                    post, target, [candidate.position(s) for s in correction_sites]
                )
            except NoLocalCorrectionError:
                continue
            return RemovalResult(out, corr.apply(post), candidate)

    # mid-pair pending state: measured but not locally a cluster state of
    # the contracted chain
    return RemovalResult(out, post, new_graph)


# --- text format -------------------------------------------------------------


def parse_graph(text: str) -> ClusterGraph:
    """Parse the ``site``/``edge``/``kappa`` line format.

    ``site <label>``, ``edge <a> <b> [theta]``, ``kappa <site> <0|1>``;
    ``#`` starts a comment. Sites appear in declaration order, which fixes
    the register layout. A pair takes one ``edge`` line, and a ``kappa`` line
    must follow its site's ``site`` line.
    """
    sites: list[int] = []
    declared: set[int] = set()  # the labels of sites, for a kappa line's lookup
    edges: dict[tuple[int, int], float] = {}
    kappa: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.split()
        try:
            if kind == "site" and len(args) == 1:
                sites.append(int(args[0]))
                declared.add(sites[-1])
            elif kind == "edge" and len(args) in (2, 3):
                e = _normalize_edge(int(args[0]), int(args[1]))
                if e in edges:
                    raise ValueError
                edges[e] = float(args[2]) if len(args) == 3 else 0.0
                if not math.isfinite(edges[e]):
                    raise ValueError
            elif kind == "kappa" and len(args) == 2 and int(args[0]) in declared:
                kappa[int(args[0])] = int(args[1])
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad graph line {lineno}: {raw!r}") from None
    return ClusterGraph(tuple(sites), tuple(edges), kappa, edges)


def format_graph(graph: ClusterGraph) -> str:
    lines = [f"site {s}" for s in graph.sites]
    lines += [
        f"kappa {s} {graph.kappa[s]}" for s in graph.sites if graph.kappa[s]
    ]
    for a, b in graph.edges:
        t = graph.edge_theta[(a, b)]
        lines.append(f"edge {a} {b}" if t == 0.0 else f"edge {a} {b} {t!r}")
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> ClusterGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
