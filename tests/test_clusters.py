"""Cluster graph construction, stabilizers, Clifford search, qubit removal."""

import math

import numpy as np
import pytest

from noisycluster.clusters import (
    _S_GATE,
    ClusterGraph,
    NoLocalCorrectionError,
    UnsupportedGraphError,
    _cluster_stabilizers,
    _twisted_cluster,
    build_cluster,
    chain_graph,
    clifford_group_1q,
    derive_local_correction,
    format_graph,
    grid_graph,
    load_graph,
    parse_graph,
    remove_x,
    remove_z,
    verify_stabilizers,
)
from noisycluster.states import (
    HADAMARD,
    IDENTITY_2,
    PAULI_Z,
    InputQubit,
    apply_cphase,
    apply_local,
    fidelity_pure_pure,
    init_register,
    overlap,
)

SEED = 4812


def amplitude_oracle(graph, thetas=None, inputs=None):
    """Direct per-bitstring product of single-qubit and edge factors."""
    n = graph.num_sites
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    single = []
    for s in graph.sites:
        q = (inputs or {}).get(s)
        single.append(plus if q is None else q.as_array())
    amps = np.empty(1 << n, dtype=complex)
    for z in range(1 << n):
        bits = {s: (z >> (n - graph.position(s))) & 1 for s in graph.sites}
        val = 1.0 + 0.0j
        for s in graph.sites:
            val *= single[graph.position(s) - 1][bits[s]]
        for a, b in graph.edges:
            t = (thetas or {}).get((a, b), graph.edge_theta[(a, b)])
            val *= (-np.exp(1j * t)) ** (bits[a] * bits[b])
        amps[z] = val
    return amps


# --- graph structure ---


def test_chain_graph_structure():
    g = chain_graph(4)
    assert g.sites == (1, 2, 3, 4)
    assert g.edges == ((1, 2), (2, 3), (3, 4))
    assert g.neighbors(2) == (1, 3)
    assert g.neighbors(4) == (3,)
    assert g.degree(1) == 1
    assert g.position(3) == 3
    assert g.is_chain_structured()


def test_chain_graph_thetas():
    g = chain_graph(3, [0.1, -0.2])
    assert g.edge_theta[(1, 2)] == pytest.approx(0.1)
    assert g.edge_theta[(2, 3)] == pytest.approx(-0.2)
    with pytest.raises(ValueError, match="expected 2 thetas"):
        chain_graph(3, [0.1])
    with pytest.raises(ValueError, match="at least one"):
        chain_graph(0)


def test_grid_graph_structure():
    g = grid_graph(2, 3)
    assert g.num_sites == 6
    assert (1, 2) in g.edges and (1, 4) in g.edges and (3, 6) in g.edges
    assert len(g.edges) == 7
    assert not g.is_chain_structured()  # interior degrees exceed 2
    with pytest.raises(ValueError, match="positive"):
        grid_graph(0, 3)


def test_is_chain_structured_cases():
    # 2x2 grid is a cycle: all degrees 2 but not a path
    assert not grid_graph(2, 2).is_chain_structured()
    assert ClusterGraph((7,), (), {}, {}).is_chain_structured()
    two_comp = ClusterGraph((1, 2, 3, 4), ((1, 2), (3, 4)), {}, {})
    assert two_comp.is_chain_structured()
    star = ClusterGraph((1, 2, 3, 4), ((1, 2), (1, 3), (1, 4)), {}, {})
    assert not star.is_chain_structured()


def test_cluster_graph_validation():
    with pytest.raises(ValueError, match="duplicate"):
        ClusterGraph((1, 1), (), {}, {})
    with pytest.raises(ValueError, match="unknown site"):
        ClusterGraph((1, 2), ((1, 3),), {}, {})
    with pytest.raises(ValueError, match="self-loop"):
        ClusterGraph((1, 2), ((1, 1),), {}, {})
    with pytest.raises(ValueError, match="kappa"):
        ClusterGraph((1, 2), ((1, 2),), {1: 2}, {})
    with pytest.raises(ValueError, match="not in graph"):
        chain_graph(3).position(9)


def test_reversed_theta_key_sets_the_edge():
    g = ClusterGraph((1, 2, 3), ((2, 1), (3, 2)), {2: 1}, {(2, 1): 0.4, (2, 3): 0.7})
    assert g.edge_theta == {(1, 2): 0.4, (2, 3): 0.7}
    assert g.kappa == {1: 0, 2: 1, 3: 0}


@pytest.mark.parametrize(
    "kappa, theta, message",
    [
        ({5: 1}, {}, "kappa given for unknown site 5"),
        ({}, {(2, 1): 0.4, (2, 3): 0.7}, r"theta given for non-edge \(2, 3\)"),
        ({}, {(1, 1): 0.4}, r"theta given for non-edge \(1, 1\)"),
        ({}, {(2, 1): 0.4, (1, 2): 0.4}, "theta given twice for one edge, once in each order"),
    ],
    ids=["kappa-off-site", "theta-off-edge", "theta-self-loop", "theta-both-orders"],
)
def test_graph_data_off_the_graph_is_refused(kappa, theta, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ClusterGraph((1, 2), ((2, 1),), kappa, theta)


def test_kappa_values_are_checked_before_conversion():
    # 0.7 and "1" would become 0 and 1 under int(); they are refused instead
    for value in (0.7, "1", 1.5, None):
        with pytest.raises(ValueError, match="^kappa values must be 0 or 1$"):
            ClusterGraph((1, 2), ((1, 2),), {1: value}, {})
    for value in (True, np.int64(1), 1.0):
        kappa = ClusterGraph((1, 2), ((1, 2),), {1: value}, {}).kappa
        assert kappa == {1: 1, 2: 0} and type(kappa[1]) is int


def test_edges_are_normalized_and_deduped():
    g = ClusterGraph((1, 2, 3), ((3, 1), (1, 3), (2, 3)), {}, {})
    assert g.edges == ((1, 3), (2, 3))


# --- state construction ---


def test_build_cluster_chain2():
    st = build_cluster(chain_graph(2))
    np.testing.assert_allclose(st.amplitudes, np.array([1, 1, 1, -1]) / 2.0, atol=1e-15)


def test_build_cluster_matches_amplitude_oracle():
    rng = np.random.default_rng(SEED)
    for n in range(2, 8):
        thetas = rng.uniform(-math.pi, math.pi, size=n - 1)
        g = chain_graph(n, thetas)
        np.testing.assert_allclose(
            build_cluster(g).amplitudes, amplitude_oracle(g), atol=1e-12
        )


def test_build_cluster_grid_matches_oracle():
    g = grid_graph(2, 3)
    np.testing.assert_allclose(
        build_cluster(g).amplitudes, amplitude_oracle(g), atol=1e-12
    )


def test_build_cluster_theta_pi_gives_product():
    st = build_cluster(chain_graph(3, [math.pi, math.pi]))
    np.testing.assert_allclose(st.amplitudes, np.full(8, 8**-0.5), atol=1e-12)


def test_build_cluster_with_inputs():
    rng = np.random.default_rng(SEED + 1)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    inputs = {2: InputQubit(v[0], v[1])}
    g = chain_graph(3, [0.3, -0.8])
    np.testing.assert_allclose(
        build_cluster(g, inputs).amplitudes, amplitude_oracle(g, inputs=inputs), atol=1e-12
    )
    with pytest.raises(ValueError, match="not in graph"):
        build_cluster(g, {9: InputQubit.plus()})


def test_build_cluster_merge_order_invariance():
    # entangling two subclusters along the joining edge reproduces the
    # one-shot construction, since all entangling gates are diagonal
    rng = np.random.default_rng(SEED + 2)
    thetas = list(rng.uniform(-math.pi, math.pi, size=6))
    whole = build_cluster(chain_graph(7, thetas))
    left = build_cluster(chain_graph(4, thetas[:3]))
    right = build_cluster(chain_graph(3, thetas[4:]))
    merged = init_register([InputQubit.plus()] * 7)
    merged = type(merged)(7, np.kron(left.amplitudes, right.amplitudes))
    merged = apply_cphase(merged, 4, 5, thetas[3])
    assert fidelity_pure_pure(whole, merged) == pytest.approx(1.0, abs=1e-12)


# --- stabilizer checks ---


@pytest.mark.parametrize("graph", [chain_graph(2), chain_graph(5), grid_graph(2, 3)])
def test_verify_stabilizers_ideal(graph):
    report = verify_stabilizers(build_cluster(graph), graph)
    assert report.passed
    for val in report.eigenvalues.values():
        assert val == pytest.approx(1.0, abs=1e-10)


def test_verify_stabilizers_z_flip():
    g = chain_graph(4)
    st = apply_local(build_cluster(g), 3, PAULI_Z)
    report = verify_stabilizers(st, g)
    assert not report.passed
    assert report.eigenvalues[3] == pytest.approx(-1.0, abs=1e-10)
    for s in (1, 2, 4):
        assert report.eigenvalues[s] == pytest.approx(1.0, abs=1e-10)
    # the same state satisfies the graph labeled with kappa_3 = 1
    flipped = ClusterGraph(g.sites, g.edges, {3: 1}, {})
    assert verify_stabilizers(st, flipped).passed


def test_verify_stabilizers_size_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        verify_stabilizers(build_cluster(chain_graph(3)), chain_graph(4))


def _noisy(graph, seed, sigma=0.7, pi_edges=()):
    """``graph`` with random kappa, Gaussian edge phases and theta = pi on ``pi_edges``."""
    rng = np.random.default_rng(seed)
    kappa = {s: int(rng.integers(2)) for s in graph.sites}
    theta = {e: rng.normal(0.0, sigma) for e in graph.edges}
    theta.update(dict.fromkeys(pi_edges, math.pi))
    return ClusterGraph(graph.sites, graph.edges, kappa, theta)


def _random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < p]
    return ClusterGraph(tuple(range(1, n + 1)), tuple(edges), {}, {})


EDGE_PRODUCT_GRAPHS = {
    "one-site": ClusterGraph((7,), (), {7: 1}, {}),
    "chain-ideal": chain_graph(6),
    "chain-noisy": _noisy(chain_graph(9), SEED),
    "grid-ideal-kappa": ClusterGraph(grid_graph(3, 3).sites, grid_graph(3, 3).edges, {5: 1}, {}),
    "grid-noisy": _noisy(grid_graph(3, 4), SEED + 1),
    "grid-wide-noise": _noisy(grid_graph(2, 7), SEED + 2, sigma=3.0),
    "isolated-site": _noisy(
        ClusterGraph((1, 2, 3, 4, 9), ((1, 2), (2, 3), (3, 4)), {}, {}), SEED + 3
    ),
    # site 3 carries two pi edges, site 6 one at a chain end
    "pi-edges": _noisy(chain_graph(6), SEED + 4, pi_edges=[(2, 3), (3, 4), (5, 6)]),
    "random-graph": _noisy(_random_graph(10, 0.4, SEED + 5), SEED + 6, sigma=1.3),
}


@pytest.mark.parametrize("graph", EDGE_PRODUCT_GRAPHS.values(), ids=EDGE_PRODUCT_GRAPHS)
def test_cluster_stabilizers_match_the_dense_oracle(graph):
    fast = _cluster_stabilizers(graph)
    dense = verify_stabilizers(_twisted_cluster(graph), graph)
    assert list(fast.eigenvalues) == list(dense.eigenvalues) == list(graph.sites)
    np.testing.assert_allclose(
        list(fast.eigenvalues.values()), list(dense.eigenvalues.values()), rtol=0, atol=1e-12
    )
    assert fast.passed == dense.passed


def test_cluster_stabilizers_refuse_an_empty_graph():
    with pytest.raises(ValueError, match="^graph has no sites$"):
        _cluster_stabilizers(ClusterGraph((), (), {}, {}))


# --- single-qubit Clifford enumeration ---


def _equal_up_to_phase(a, b):
    fa, fb = a.reshape(-1), b.reshape(-1)
    k = int(np.argmax(np.abs(fb)))
    if abs(fa[k]) < 1e-6:
        return False
    return bool(np.allclose(a * (fb[k] / fa[k]), b, atol=1e-7))


def clifford_search():
    """Breadth-first enumeration from I, H before S, skipping phase duplicates."""
    gens = [("H", HADAMARD), ("S", _S_GATE)]
    found = [("I", IDENTITY_2.copy())]
    frontier = list(found)
    while frontier:
        nxt = []
        for name, mat in frontier:
            for gname, gmat in gens:
                cand = gmat @ mat
                if any(_equal_up_to_phase(cand, m) for _, m in found):
                    continue
                entry = (gname if name == "I" else gname + name, cand)
                found.append(entry)
                nxt.append(entry)
        frontier = nxt
    return found


def test_clifford_group_size_and_order():
    group = clifford_group_1q()
    assert len(group) == 24
    assert group[0][0] == "I"
    names = [name for name, _ in group]
    assert "H" in names and "S" in names


def test_clifford_constants_equal_the_search():
    group, search = clifford_group_1q(), clifford_search()
    assert [name for name, _ in group] == [name for name, _ in search]
    for (_, mat), (_, ref) in zip(group, search):
        assert mat.dtype == ref.dtype and (mat == ref).all()


def test_clifford_group_elements_unitary_and_distinct():
    group = clifford_group_1q()
    for _, m in group:
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-10)
    for i, (_, a) in enumerate(group):
        for _, b in group[i + 1 :]:
            inner = abs(np.trace(a.conj().T @ b)) / 2.0
            assert inner < 1.0 - 1e-6  # equal up to phase would give 1


def test_clifford_group_closed_under_product():
    group = clifford_group_1q()
    rng = np.random.default_rng(SEED + 3)
    for _ in range(10):
        i, j = rng.integers(0, 24, size=2)
        prod = group[i][1] @ group[j][1]
        hits = sum(
            1
            for _, m in group
            if abs(abs(np.trace(m.conj().T @ prod)) / 2.0 - 1.0) < 1e-9
        )
        assert hits == 1


def test_derive_local_correction_roundtrip():
    rng = np.random.default_rng(SEED + 4)
    group = clifford_group_1q()
    target = build_cluster(chain_graph(3))
    for _ in range(5):
        i, j = rng.integers(0, 24, size=2)
        actual = apply_local(target, 1, group[i][1].conj().T)
        actual = apply_local(actual, 3, group[j][1].conj().T)
        corr = derive_local_correction(actual, target, [1, 3])
        assert abs(abs(overlap(target, corr.apply(actual))) - 1.0) < 1e-9


def test_derive_local_correction_failure():
    # a non-Clifford edge phase changes the entanglement, which no local
    # unitary can undo
    ideal = build_cluster(chain_graph(2))
    noisy = build_cluster(chain_graph(2, [math.pi / 3]))
    with pytest.raises(NoLocalCorrectionError):
        derive_local_correction(noisy, ideal, [1, 2])


def test_derive_local_correction_guards():
    st = build_cluster(chain_graph(2))
    with pytest.raises(ValueError, match="sizes differ"):
        derive_local_correction(st, build_cluster(chain_graph(3)), [1])
    with pytest.raises(ValueError, match="one or two"):
        derive_local_correction(st, st, [])


# --- removal ---


def test_remove_z_middle_of_chain():
    g = chain_graph(3)
    for outcome in (0, 1):
        res = remove_z(build_cluster(g), g, 2, force=outcome)
        assert res.outcome == outcome
        assert res.graph.sites == (1, 3)
        assert res.graph.edges == ()
        assert verify_stabilizers(res.state, res.graph).passed


@pytest.mark.parametrize("site", [1, 3, 5])
def test_remove_z_returns_cluster_of_remaining_graph(site):
    g = grid_graph(1, 5)
    for outcome in (0, 1):
        res = remove_z(build_cluster(g), g, site, force=outcome)
        assert site not in res.graph.sites
        assert fidelity_pure_pure(res.state, build_cluster(res.graph)) == pytest.approx(
            1.0, abs=1e-10
        )


def test_remove_z_on_grid():
    g = grid_graph(2, 2)
    res = remove_z(build_cluster(g), g, 4, force=1)
    assert res.graph.edges == ((1, 2), (1, 3))
    assert verify_stabilizers(res.state, res.graph).passed


def test_remove_x_end_site():
    g = chain_graph(3)
    for outcome in (0, 1):
        res = remove_x(build_cluster(g), g, 1, force=outcome)
        assert res.graph.sites == (2, 3)
        # the former neighbor collapses, so its other edge is cut too
        assert res.graph.edges == ()
        assert verify_stabilizers(res.state, res.graph).passed


def test_remove_x_isolated_site():
    g = ClusterGraph((1, 2, 3), ((1, 2),), {}, {})
    res = remove_x(build_cluster(g), g, 3, force=0)
    assert res.graph.sites == (1, 2)
    assert res.graph.edges == ((1, 2),)
    assert verify_stabilizers(res.state, res.graph).passed


def test_remove_x_adjacent_pair_contracts_chain():
    # removing one interior site leaves a pending state; removing its
    # partner completes the contraction with tracked kappa
    g = chain_graph(5)
    first = remove_x(build_cluster(g), g, 3, force=0)
    assert first.graph.edges == ((1, 2), (2, 4), (4, 5))
    assert not verify_stabilizers(first.state, first.graph).passed
    second = remove_x(first.state, first.graph, 4, force=0)
    assert second.graph.sites == (1, 2, 5)
    assert second.graph.edges == ((1, 2), (2, 5))
    assert verify_stabilizers(second.state, second.graph).passed


def test_remove_x_kappa_pattern_one_branch():
    g = chain_graph(5)
    first = remove_x(build_cluster(g), g, 3, force=1)
    second = remove_x(first.state, first.graph, 4, force=1)
    assert second.graph.kappa == {1: 0, 2: 1, 5: 1}
    assert verify_stabilizers(second.state, second.graph).passed


def test_remove_x_rejects_non_chain():
    g = grid_graph(2, 2)
    with pytest.raises(UnsupportedGraphError):
        remove_x(build_cluster(g), g, 1, force=0)


def test_remove_single_site_graph():
    g = chain_graph(1)
    res = remove_x(build_cluster(g), g, 1, force=0)
    assert res.graph.num_sites == 0
    assert res.state.num_qubits == 0


# --- text format ---


def test_parse_and_format_round_trip():
    g = ClusterGraph(
        (4, 1, 7),
        ((1, 4), (4, 7)),
        {1: 1},
        {(1, 4): 0.25},
    )
    text = format_graph(g)
    back = parse_graph(text)
    assert back.sites == g.sites
    assert back.edges == g.edges
    assert back.kappa == g.kappa
    assert back.edge_theta == g.edge_theta


def test_parse_graph_comments_and_blanks():
    g = parse_graph("# header\nsite 1\n\nsite 2  # trailing\nedge 1 2 0.5\nkappa 2 1\n")
    assert g.sites == (1, 2)
    assert g.edge_theta[(1, 2)] == pytest.approx(0.5)
    assert g.kappa[2] == 1


@pytest.mark.parametrize(
    "line",
    [
        "vertex 1", "site", "site x", "edge 1", "edge 1 2 3 4", "kappa 1", "site 1 2",
        "edge 1 2 nan", "edge 1 2 inf", "edge 1 2 -inf",
    ],
)
def test_parse_graph_rejects_malformed(line):
    with pytest.raises(ValueError, match="bad graph line"):
        parse_graph(line + "\n")


def test_parse_graph_rejects_kappa_of_an_undeclared_site():
    # ClusterGraph keeps kappa only for its sites: the line would vanish unseen
    with pytest.raises(ValueError, match=r"bad graph line 4: 'kappa 5 1'"):
        parse_graph("site 1\nsite 2\nsite 3\nkappa 5 1\nedge 1 2\n")
    # a kappa line follows its site's declaration; edges may come before their sites
    with pytest.raises(ValueError, match=r"bad graph line 1: 'kappa 2 1'"):
        parse_graph("kappa 2 1\nsite 1\nsite 2\n")
    assert parse_graph("edge 1 2\nsite 1\nsite 2\nkappa 2 1\n").kappa == {1: 0, 2: 1}


def test_parse_graph_rejects_a_second_edge_line_for_one_pair():
    # a second line would override the first theta unseen
    for second in ("edge 2 1 0.3", "edge 1 2 0.1", "edge 1 2"):
        with pytest.raises(ValueError, match=f"bad graph line 4: '{second}'"):
            parse_graph(f"site 1\nsite 2\nedge 1 2 0.1\n{second}\n")
    g = parse_graph("site 1\nsite 2\nsite 3\nedge 2 1 0.1\nedge 2 3\n")
    assert g.edge_theta == {(1, 2): 0.1, (2, 3): 0.0}


def test_load_graph(tmp_path):
    path = tmp_path / "chain.graph"
    path.write_text(format_graph(chain_graph(3, [0.0, 0.1])), encoding="utf-8")
    g = load_graph(str(path))
    assert g.sites == (1, 2, 3)
    assert g.edge_theta[(2, 3)] == pytest.approx(0.1)
