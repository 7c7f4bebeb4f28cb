"""State engine checks against dense kron-built oracles."""

import math

import numpy as np
import pytest

from noisycluster.oneway import single_qubit_gate
from noisycluster.states import (
    HADAMARD,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PSD_ATOL,
    DensityMatrix,
    DephasingChannel,
    InputQubit,
    MeasurementBasis,
    PureState,
    _check_hermitian_unit_trace,
    _check_psd,
    apply_cphase,
    apply_local,
    check_density,
    dephase,
    dephasing_kraus,
    fidelity_pure_mixed,
    fidelity_pure_pure,
    init_register,
    measure,
    overlap,
    partial_trace,
    phase_z,
    pure_to_density,
)

SEED = 20260823


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(n, v / np.linalg.norm(v))


def random_unitary_2(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_1q(gate, qubit, n):
    m = np.eye(1, dtype=complex)
    for j in range(1, n + 1):
        m = np.kron(m, gate if j == qubit else IDENTITY_2)
    return m


# --- basic objects ---


def test_input_qubit_classmethods():
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(InputQubit.zero().as_array(), [1, 0])
    np.testing.assert_allclose(InputQubit.one().as_array(), [0, 1])
    np.testing.assert_allclose(InputQubit.plus().as_array(), [s, s])
    np.testing.assert_allclose(InputQubit.minus().as_array(), [s, -s])


def test_input_qubit_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        InputQubit(1.0, 1.0)


def test_pure_state_validation():
    with pytest.raises(ValueError, match="amplitude length"):
        PureState(2, np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="not normalized"):
        PureState(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="outside"):
        PureState(-1, np.ones(1, dtype=complex))


def test_pure_state_amplitudes_readonly():
    st = PureState(1, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        st.amplitudes[0] = 0.0


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="hermitian"):
        DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(1, np.eye(2))
    # hermitian, unit trace, but indefinite
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(ValueError, match=r"^num_qubits 0 outside \[1, 12\]$"):
        DensityMatrix(0, np.ones((1, 1)))
    with pytest.raises(ValueError, match=r"^shape \(4, 4\) != \(2, 2\)$"):
        DensityMatrix(1, np.eye(4) / 4)



def test_check_density_is_its_two_halves():
    # the Hermitian/trace half runs before any eigensolver, the PSD half takes
    # the lowest eigenvalues; together they are check_density, stack or single
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    good = m @ m.conj().transpose(0, 2, 1)
    good /= np.trace(good, axis1=1, axis2=2)[:, None, None]
    indefinite = np.diag([0.6, 0.6, 0.1, -0.3]).astype(complex)
    nan = good[0].copy()
    nan[1, 2] = np.nan
    for rho in (good, good[0]):
        check_density(rho)
        _check_hermitian_unit_trace(rho)
        _check_psd(np.linalg.eigvalsh(rho)[..., 0])
    for rho, message in (
        (nan, "not hermitian"),
        (np.stack([good[1], nan]), "not hermitian"),
        (np.eye(4) / 2, "trace"),
    ):
        for check in (check_density, _check_hermitian_unit_trace):
            with pytest.raises(ValueError, match=message):
                check(rho)
    for rho in (indefinite, np.stack([good[0], indefinite])):
        _check_hermitian_unit_trace(rho)
        for check in (check_density, lambda r: _check_psd(np.linalg.eigvalsh(r)[..., 0])):
            with pytest.raises(ValueError, match="significantly negative eigenvalue"):
                check(rho)


def test_check_psd_bound():
    _check_psd(np.array([0.0, -PSD_ATOL]))
    for lowest in (np.array([0.0, -2 * PSD_ATOL]), np.array([np.nan, 0.5]), np.array(-0.3)):
        with pytest.raises(ValueError, match="significantly negative eigenvalue"):
            _check_psd(lowest)


def test_init_register_matches_kron():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        qubits = []
        for _ in range(n):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = v / np.linalg.norm(v)
            qubits.append(InputQubit(v[0], v[1]))
        expect = np.eye(1, dtype=complex)[0]
        for q in qubits:
            expect = np.kron(expect, q.as_array())
        np.testing.assert_allclose(init_register(qubits).amplitudes, expect, atol=1e-12)


def test_init_register_guards():
    with pytest.raises(ValueError, match="at least one"):
        init_register([])
    with pytest.raises(ValueError, match="larger than"):
        init_register([InputQubit.plus()] * 25)


# --- gates ---


def test_apply_local_matches_dense():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        st = random_state(rng, n)
        qubit = int(rng.integers(1, n + 1))
        gate = random_unitary_2(rng)
        expect = dense_1q(gate, qubit, n) @ st.amplitudes
        got = apply_local(st, qubit, gate).amplitudes
        np.testing.assert_allclose(got, expect, atol=1e-12)


def test_apply_local_guards():
    st = random_state(np.random.default_rng(SEED), 2)
    with pytest.raises(ValueError, match="outside register"):
        apply_local(st, 3, PAULI_X)
    with pytest.raises(ValueError, match="2x2"):
        apply_local(st, 1, np.eye(4))


def test_apply_cphase_matches_diagonal_oracle():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        st = random_state(rng, n)
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        theta = float(rng.uniform(-math.pi, math.pi))
        diag = np.ones(1 << n, dtype=complex)
        for z in range(1 << n):
            if (z >> (n - a)) & 1 and (z >> (n - b)) & 1:
                diag[z] = -np.exp(1j * theta)
        got = apply_cphase(st, int(a), int(b), theta).amplitudes
        np.testing.assert_allclose(got, diag * st.amplitudes, atol=1e-12)


def test_apply_cphase_is_symmetric():
    rng = np.random.default_rng(SEED + 3)
    st = random_state(rng, 3)
    f = apply_cphase(st, 1, 3, 0.7).amplitudes
    g = apply_cphase(st, 3, 1, 0.7).amplitudes
    np.testing.assert_allclose(f, g, atol=1e-15)


def test_apply_cphase_theta_zero_is_cz():
    st = init_register([InputQubit.plus(), InputQubit.plus()])
    got = apply_cphase(st, 1, 2).amplitudes
    np.testing.assert_allclose(got, np.array([1, 1, 1, -1]) / 2.0, atol=1e-15)


def test_apply_cphase_theta_pi_is_identity():
    rng = np.random.default_rng(SEED + 4)
    st = random_state(rng, 2)
    got = apply_cphase(st, 1, 2, math.pi).amplitudes
    np.testing.assert_allclose(got, st.amplitudes, atol=1e-12)


def test_apply_cphase_guards():
    st = random_state(np.random.default_rng(SEED), 2)
    with pytest.raises(ValueError, match="distinct"):
        apply_cphase(st, 1, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_apply_cphase_refuses_a_non_finite_theta(bad):
    # checked before np.exp, which would warn on inf and spread NaN through the register
    st = random_state(np.random.default_rng(SEED), 2)
    with pytest.raises(ValueError, match=r"^cphase deviation theta = .* must be finite$"):
        apply_cphase(st, 1, 2, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_z_refuses_a_non_finite_angle(bad):
    with pytest.raises(ValueError, match=r"^phase angle phi = .* must be finite$"):
        phase_z(bad)


def test_phase_z_matrix():
    np.testing.assert_allclose(phase_z(0.0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(
        phase_z(math.pi / 2), np.diag([1.0, 1.0j]), atol=1e-15
    )


def test_constant_gates():
    for p in (PAULI_X, PAULI_Y, PAULI_Z, HADAMARD):
        np.testing.assert_allclose(p @ p, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(HADAMARD @ PAULI_X @ HADAMARD, PAULI_Z, atol=1e-15)


# --- measurement ---


def test_measure_planar_matches_projector_oracle():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(12):
        n = int(rng.integers(1, 5))
        st = random_state(rng, n)
        qubit = int(rng.integers(1, n + 1))
        alpha = float(rng.uniform(-math.pi, math.pi))
        basis = MeasurementBasis.planar(alpha)
        psi = st.amplitudes.reshape((2,) * n)
        for outcome, sign in ((0, 1.0), (1, -1.0)):
            bra = np.array([1.0, sign * np.exp(-1j * alpha)]) / math.sqrt(2.0)
            proj = np.tensordot(bra, psi, axes=([0], [qubit - 1])).reshape(-1)
            # tensordot moves the contracted axis first; remaining axes keep order
            prob = float(np.vdot(proj, proj).real)
            if prob < 1e-9:
                continue
            res = measure(st, qubit, basis, force=outcome)
            assert res.outcome == outcome
            assert abs(res.probability - prob) < 1e-12
            np.testing.assert_allclose(
                res.state.amplitudes, proj / math.sqrt(prob), atol=1e-12
            )


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(SEED + 6)
    st = random_state(rng, 3)
    for basis in (MeasurementBasis.x(), MeasurementBasis.y(), MeasurementBasis.z()):
        p0 = measure(st, 2, basis, force=0).probability
        p1 = measure(st, 2, basis, force=1).probability
        assert abs(p0 + p1 - 1.0) < 1e-12


def test_measure_z_basis():
    st = init_register([InputQubit.zero(), InputQubit.one(), InputQubit.plus()])
    res = measure(st, 2, MeasurementBasis.z(), force=1)
    assert res.probability == pytest.approx(1.0)
    s = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(res.state.amplitudes, [s, s, 0, 0], atol=1e-12)


def test_measure_removes_qubit_and_renumbers():
    # distinct computational qubits pin the surviving order
    st = init_register([InputQubit.zero(), InputQubit.one(), InputQubit.zero()])
    res = measure(st, 1, MeasurementBasis.z(), force=0)
    assert res.state.num_qubits == 2
    np.testing.assert_allclose(res.state.amplitudes, [0, 0, 1, 0], atol=1e-15)


def test_measure_last_qubit_leaves_scalar():
    res = measure(PureState(1, np.array([1.0, 0.0])), 1, MeasurementBasis.z(), force=0)
    assert res.state.num_qubits == 0
    assert res.state.amplitudes.shape == (1,)


def test_measure_zero_probability_force_raises():
    st = init_register([InputQubit.zero()])
    with pytest.raises(ValueError, match="probability"):
        measure(st, 1, MeasurementBasis.z(), force=1)


def test_measure_mode_guards():
    st = init_register([InputQubit.plus()])
    rng = np.random.default_rng(SEED)
    with pytest.raises(ValueError, match="exactly one"):
        measure(st, 1, MeasurementBasis.x())
    with pytest.raises(ValueError, match="exactly one"):
        measure(st, 1, MeasurementBasis.x(), force=0, rng=rng)
    with pytest.raises(ValueError, match="0 or 1"):
        measure(st, 1, MeasurementBasis.x(), force=2)


def test_measure_sampling_reproducible():
    st = random_state(np.random.default_rng(SEED + 7), 4)
    a = [measure(st, 2, MeasurementBasis.y(), rng=np.random.default_rng(99)).outcome for _ in range(5)]
    b = [measure(st, 2, MeasurementBasis.y(), rng=np.random.default_rng(99)).outcome for _ in range(5)]
    assert a == b


def test_measurement_basis_canonicalization():
    assert MeasurementBasis.planar(3.0 * math.pi).alpha == pytest.approx(math.pi)
    assert MeasurementBasis.planar(-math.pi).alpha == pytest.approx(math.pi)
    assert MeasurementBasis.z().alpha == 0.0
    with pytest.raises(ValueError, match="unknown measurement axis"):
        MeasurementBasis("diagonal", 0.0)
    assert MeasurementBasis.x().alpha == 0.0
    assert MeasurementBasis.y().alpha == pytest.approx(math.pi / 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_planar_basis_refuses_a_non_finite_angle(bad):
    # a NaN alpha would reach measure's np.exp and divide; the z axis ignores alpha
    message = r"^planar measurement angle alpha = .* must be finite$"
    with pytest.raises(ValueError, match=message):
        MeasurementBasis.planar(bad)
    with pytest.raises(ValueError, match=message):
        single_qubit_gate(bad, InputQubit.plus())
    assert MeasurementBasis("z", bad).alpha == 0.0


# --- overlaps and reductions ---


def test_overlap_and_fidelity():
    rng = np.random.default_rng(SEED + 8)
    a, b = random_state(rng, 3), random_state(rng, 3)
    got = overlap(a, b)
    assert got == pytest.approx(complex(np.vdot(a.amplitudes, b.amplitudes)))
    assert fidelity_pure_pure(a, b) == pytest.approx(abs(got) ** 2)
    assert fidelity_pure_pure(a, a) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="sizes differ"):
        overlap(a, random_state(rng, 2))


def test_partial_trace_matches_einsum_oracle():
    rng = np.random.default_rng(SEED + 9)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        st = random_state(rng, n)
        k = int(rng.integers(1, n))
        keep = [int(q) for q in rng.choice(np.arange(1, n + 1), size=k, replace=False)]
        psi = st.amplitudes.reshape((2,) * n)
        traced = [q - 1 for q in range(1, n + 1) if q not in keep]
        perm = [q - 1 for q in keep] + traced
        m = np.transpose(psi, perm).reshape(1 << k, -1)
        expect = m @ m.conj().T
        got = partial_trace(st, keep).entries
        np.testing.assert_allclose(got, expect, atol=1e-12)


def test_partial_trace_keep_order_swap():
    rng = np.random.default_rng(SEED + 10)
    st = random_state(rng, 3)
    r12 = partial_trace(st, (1, 2)).entries
    r21 = partial_trace(st, (2, 1)).entries
    swap = np.zeros((4, 4))
    for i in range(4):
        swap[((i & 1) << 1) | (i >> 1), i] = 1.0
    np.testing.assert_allclose(r21, swap @ r12 @ swap.T, atol=1e-12)


def test_partial_trace_density_input():
    rng = np.random.default_rng(SEED + 11)
    a, b = random_state(rng, 3), random_state(rng, 3)
    rho = DensityMatrix(
        3,
        0.3 * pure_to_density(a).entries + 0.7 * pure_to_density(b).entries,
    )
    got = partial_trace(rho, (3, 1)).entries
    expect = (
        0.3 * partial_trace(a, (3, 1)).entries + 0.7 * partial_trace(b, (3, 1)).entries
    )
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_partial_trace_guards():
    st = random_state(np.random.default_rng(SEED), 3)
    with pytest.raises(ValueError, match="at least one"):
        partial_trace(st, ())
    with pytest.raises(ValueError, match="repeated"):
        partial_trace(st, (1, 1))
    with pytest.raises(ValueError, match="outside register"):
        partial_trace(st, (4,))
    register = init_register([InputQubit.plus()] * 13)
    with pytest.raises(ValueError, match="^cannot keep more than 12 qubits dense$"):
        partial_trace(register, range(1, 14))


def test_pure_to_density_empty_register_raises():
    scalar = measure(
        PureState(1, np.array([1.0, 0.0])), 1, MeasurementBasis.z(), force=0
    ).state
    with pytest.raises(ValueError, match="empty register"):
        pure_to_density(scalar)


# --- dephasing ---


def test_dephase_matches_kraus_channel():
    rng = np.random.default_rng(SEED + 12)
    for gamma in (0.0, 0.1, 0.7):
        for n in (1, 2, 3):
            st = random_state(rng, n)
            rho = pure_to_density(st).entries
            k0, k1 = dephasing_kraus(gamma)
            for q in range(1, n + 1):
                d0, d1 = dense_1q(k0, q, n), dense_1q(k1, q, n)
                rho = d0 @ rho @ d0.conj().T + d1 @ rho @ d1.conj().T
            got = dephase(pure_to_density(st), DephasingChannel(gamma)).entries
            np.testing.assert_allclose(got, rho, atol=1e-12)


def test_dephase_gamma_zero_is_identity():
    st = random_state(np.random.default_rng(SEED + 13), 2)
    rho = pure_to_density(st)
    np.testing.assert_allclose(
        dephase(rho, DephasingChannel(0.0)).entries, rho.entries, atol=1e-15
    )


def test_dephasing_channel_guard():
    with pytest.raises(ValueError, match=">= 0"):
        DephasingChannel(-0.1)
    with pytest.raises(ValueError, match=">= 0"):
        DephasingChannel(math.nan)
    assert DephasingChannel(math.inf).gamma == math.inf


def test_dephasing_kraus_completeness():
    k0, k1 = dephasing_kraus(0.4)
    np.testing.assert_allclose(
        k0.conj().T @ k0 + k1.conj().T @ k1, np.eye(2), atol=1e-15
    )
    for gamma in (-0.1, math.nan):
        with pytest.raises(ValueError, match=">= 0"):
            dephasing_kraus(gamma)
    k0, k1 = dephasing_kraus(math.inf)
    np.testing.assert_allclose(k1, math.sqrt(0.5) * np.diag([1.0, -1.0]), atol=1e-15)


def test_fidelity_pure_mixed():
    rng = np.random.default_rng(SEED + 14)
    phi, psi = random_state(rng, 2), random_state(rng, 2)
    rho = pure_to_density(psi)
    expect = abs(np.vdot(phi.amplitudes, psi.amplitudes)) ** 2
    assert fidelity_pure_mixed(phi, rho) == pytest.approx(expect, abs=1e-12)
    assert fidelity_pure_mixed(psi, rho) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="sizes differ"):
        fidelity_pure_mixed(random_state(rng, 3), rho)
    # each matrix passes DensityMatrix's own tolerances (hermitian to 1e-9, PSD to -1e-8)
    skew = DensityMatrix(1, [[0.5, 4e-10j], [4e-10j, 0.5]])
    with pytest.raises(ValueError, match=r"^fidelity has imaginary part 4\.000e-10$"):
        fidelity_pure_mixed(PureState(1, np.array([1.0, 1.0]) / math.sqrt(2.0)), skew)
    over = DensityMatrix(1, np.diag([1.0 + 5e-9, -5e-9]))
    with pytest.raises(ValueError, match=r"^fidelity 1\.000000005 outside \[0, 1\]$"):
        fidelity_pure_mixed(PureState(1, np.array([1.0, 0.0])), over)
