import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zenokit import (
    ConstantOverlap,
    DensityMatrix2,
    QubitRegister,
    ValidationError,
    apply_cnot,
    make_rabi_unitary,
    partial_trace_to_system,
    propagate_projected,
    recoherence_demo,
)


def basis_state(k, index):
    amps = np.zeros(2**k, dtype=complex)
    amps[index] = 1.0
    return QubitRegister(k=k, amplitudes=amps)


def random_state(seed, k_max=7):
    """A random normalised numpy state of 2..k_max qubits, and its rng."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, k_max + 1))
    amps = rng.standard_normal(2**k) + 1j * rng.standard_normal(2**k)
    return amps / np.linalg.norm(amps), k, rng


class TestQubitRegister:
    def test_amplitudes_are_a_tuple_of_complex(self):
        state = QubitRegister(k=1, amplitudes=np.array([0.6, 0.8]))
        assert state.amplitudes == (0.6 + 0j, 0.8 + 0j)
        assert all(type(z) is complex for z in state.amplitudes)

    @pytest.mark.parametrize("amplitudes", [
        np.full((2, 2), 0.5),  # 2-D
        [[0.5, 0.5], [0.5, 0.5]],
        "1000",
        b"\x01\x00\x00\x00",
        1.0,
        None,
        [1, 0, 0],  # wrong length
        [1, 0, 0, 0, 0],
        [1, 0, 0, "0"],
        [0.5, 0.5, 0.5, 0.6],  # not normalised
        [math.nan, 0, 0, 0],
        [math.inf, 0, 0, 0],
        [1e200, 0, 0, 0],  # |z|^2 past the float range
    ])
    def test_rejects_malformed_amplitudes(self, amplitudes):
        with pytest.raises(ValidationError):
            QubitRegister(k=2, amplitudes=amplitudes)


class TestCnot:
    def test_truth_table(self):
        # qubit 0 controls qubit 1; index = q0 + 2*q1
        assert np.argmax(np.abs(apply_cnot(basis_state(2, 1), 0, 1).amplitudes)) == 3
        assert np.argmax(np.abs(apply_cnot(basis_state(2, 0), 0, 1).amplitudes)) == 0
        assert np.argmax(np.abs(apply_cnot(basis_state(2, 3), 0, 1).amplitudes)) == 1

    def test_entangles_superposition_into_bell_state(self):
        plus = QubitRegister(k=2, amplitudes=[1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0])
        bell = apply_cnot(plus, 0, 1)
        expected = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.allclose(bell.amplitudes, expected, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        out = apply_cnot(QubitRegister(k=3, amplitudes=amps), 2, 0)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) <= 1e-12

    @given(st.integers(0, 2**31 - 1))
    def test_equals_numpy_index_flip(self, seed):
        # the index flip of the numpy register, which the permutation replaced
        amps, k, rng = random_state(seed)
        control, target = (int(q) for q in rng.choice(k, 2, replace=False))
        idx = np.arange(2**k)
        want = amps[np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)]
        got = apply_cnot(QubitRegister(k=k, amplitudes=amps), control, target).amplitudes
        assert got == tuple(want.tolist())

    def test_index_validation(self):
        state = basis_state(2, 0)
        with pytest.raises(ValidationError):
            apply_cnot(state, 0, 0)
        with pytest.raises(ValidationError):
            apply_cnot(state, 0, 2)


class TestPartialTrace:
    def test_bell_state_marginal_is_maximally_mixed(self):
        bell = QubitRegister(k=2, amplitudes=np.array([1, 0, 0, 1]) / math.sqrt(2))
        rho = partial_trace_to_system(bell, 0)
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_product_state_marginal_is_pure(self):
        alpha, beta = 0.6, 0.8j
        env = np.array([0.3 + 0.1j, 0.5, 0.2 - 0.4j, 0.1])
        env /= np.linalg.norm(env)
        joint = np.zeros(8, dtype=complex)
        for e in range(4):
            joint[0 + 2 * e] = alpha * env[e]
            joint[1 + 2 * e] = beta * env[e]
        rho = partial_trace_to_system(QubitRegister(k=3, amplitudes=joint), 0)
        assert rho.matrix[0][1] == pytest.approx(alpha * np.conj(beta), abs=1e-12)
        m = np.asarray(rho.matrix)
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    def test_equals_numpy_reference(self, seed):
        # the numpy register's psi @ psi^H; the sums differ in order only.
        # Worst gap seen over 80000 random states: 4.0 eps, at k = 7
        amps, k, rng = random_state(seed)
        q = int(rng.integers(0, k))
        psi = np.moveaxis(amps.reshape([2] * k), k - 1 - q, 0).reshape(2, -1)
        rho = partial_trace_to_system(QubitRegister(k=k, amplitudes=amps), q)
        gap = np.abs(np.asarray(rho.matrix) - psi @ psi.conj().T).max()
        assert gap <= 8 * sys.float_info.epsilon

    def test_needs_two_qubits(self):
        with pytest.raises(ValidationError):
            partial_trace_to_system(basis_state(1, 0), 0)

    @given(st.integers(0, 2**31 - 1))
    def test_output_is_valid_density_matrix(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 5))
        amps = rng.standard_normal(2**k) + 1j * rng.standard_normal(2**k)
        amps /= np.linalg.norm(amps)
        q = int(rng.integers(0, k))
        rho = partial_trace_to_system(QubitRegister(k=k, amplitudes=amps), q)
        # DensityMatrix2 construction already enforces Hermitian/trace/PSD
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestDensityMatrix2:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix2(matrix=np.array([[0.5, 0.1], [0.3, 0.5]]) + 0j)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix2(matrix=np.array([[0.9, 0.0], [0.0, 0.9]]) + 0j)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityMatrix2(matrix=np.array([[1.2, 0.0], [0.0, -0.2]]) + 0j)

    def test_matrix_is_a_tuple_of_rows(self):
        rho = DensityMatrix2(matrix=np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        assert rho.matrix == ((0.5 + 0j, 0.5j), (-0.5j, 0.5 + 0j))
        assert rho.coherence == 0.5

    @pytest.mark.parametrize("matrix", [
        np.eye(3) / 3,  # 3x3
        [[0.5, 0, 0], [0, 0.5, 0]],
        [0.5, 0.5],
        [[0.5, 0], [0, 0.5], [0, 0]],
        "ab",
        ["ab", "cd"],
        1.0,
        None,
        [[math.nan, 0], [0, 0.5]],
        [[0.5, math.inf], [math.inf, 0.5]],
    ])
    def test_rejects_malformed_matrix(self, matrix):
        with pytest.raises(ValidationError):
            DensityMatrix2(matrix=matrix)

    @given(st.integers(0, 2**31 - 1))
    def test_psd_check_equals_eigvalsh(self, seed):
        # a random unit-trace Hermitian matrix, negative in about half the draws
        rng = np.random.default_rng(seed)
        a = rng.uniform(-0.1, 1.1)
        off = complex(*rng.uniform(-0.6, 0.6, 2))
        m = np.array([[a, off], [off.conjugate(), 1 - a]])
        negative = np.linalg.eigvalsh(m).min() < -1e-12
        try:
            DensityMatrix2(matrix=m)
        except ValidationError as exc:
            assert negative and "negative eigenvalue" in str(exc)
        else:
            assert not negative


class TestRecoherence:
    def test_three_stages(self):
        stages = recoherence_demo()
        labels = [label for label, _, _ in stages]
        assert labels == ["initial", "after_cnot_env1", "after_cnot_env2"]

    def test_initial_coherence(self):
        _, rho, coherence = recoherence_demo()[0]
        assert coherence == pytest.approx(0.5, abs=1e-12)

    def test_first_cnot_fully_decoheres(self):
        _, rho, coherence = recoherence_demo()[1]
        assert np.abs(rho.matrix - np.eye(2) / 2).max() <= 1e-12
        assert coherence <= 1e-12

    def test_second_cnot_revives_coherence(self):
        _, rho, coherence = recoherence_demo()[2]
        assert np.abs(rho.matrix - np.full((2, 2), 0.5)).max() <= 1e-12
        assert coherence == pytest.approx(0.5, abs=1e-12)


class TestConsistencyWithProjectedChain:
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.7, 1.0])
    def test_single_step_matches_register_simulation(self, eta):
        # free step on the system, then a fresh environment qubit records
        # the state with overlap eta: |E_0> = (1, 0), |E_1> = (eta, sqrt(1-eta^2))
        u = make_rabi_unitary(1.0, 0.3)
        joint = np.zeros(4, dtype=complex)
        e0 = np.array([1.0, 0.0])
        e1 = np.array([eta, math.sqrt(1 - eta**2)])
        c_eq_0, _, c_neq_1, _ = u.coefficients
        for e in (0, 1):
            joint[0 + 2 * e] += c_eq_0 * e0[e]
            joint[1 + 2 * e] += c_neq_1 * e1[e]
        # project onto <0, E_0|
        amp = joint[0] * np.conj(e0[0]) + joint[2] * np.conj(e0[1])
        p_register = abs(amp) ** 2
        p_chain = list(propagate_projected(u, ConstantOverlap(eta=eta), 1))[-1]
        assert abs(p_register - p_chain) <= 1e-12
