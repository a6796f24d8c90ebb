"""State-vector and density-matrix substrate tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhlsim import qstate
from hhlsim.errors import DomainError, ImpossibleOutcomeError, ValidationError
from hhlsim.qstate import (
    DensityMatrix,
    StateVector,
    apply_controlled,
    apply_unitary,
    basis_state,
    exact_distribution,
    fidelity_pure,
    partial_trace,
    postselect,
)


def _random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, amps / np.linalg.norm(amps))


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            StateVector(1, [1.0, 1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            StateVector(2, [1.0, 0.0])

    def test_basis_state(self):
        s = basis_state(2, 3)
        assert s.probability(3) == 1.0

    def test_amplitudes_read_only(self):
        s = basis_state(1, 0)
        with pytest.raises((ValueError, AttributeError)):
            s.amplitudes[0] = 0.5


class TestDensityMatrix:
    def test_pure_state_roundtrip(self):
        rng = np.random.default_rng(0)
        s = _random_state(rng, 2)
        rho = s.to_density_matrix()
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(1, np.array([[0.5, 0.4], [0.1, 0.5]]))

    def test_hermitian_tolerance_is_absolute(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            DensityMatrix(1, [[0.5, 0.1 + 5e-7], [0.1, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(1, np.eye(2))


class TestApplyUnitary:
    def test_hadamard(self):
        s = apply_unitary(basis_state(1, 0), H, [0])
        np.testing.assert_allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_qubit_zero_is_most_significant(self):
        s = apply_unitary(basis_state(2, 0), X, [0])
        assert s.probability(2) == pytest.approx(1.0)

    def test_density_matrix_channel_matches_vector(self):
        rng = np.random.default_rng(1)
        s = _random_state(rng, 3)
        u = _random_unitary(rng, 4)
        sv = apply_unitary(s, u, [0, 2])
        dm = apply_unitary(s.to_density_matrix(), u, [0, 2])
        np.testing.assert_allclose(
            dm.entries, sv.to_density_matrix().entries, atol=1e-10
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 4))
    def test_norm_preserved(self, seed, n):
        rng = np.random.default_rng(seed)
        s = _random_state(rng, n)
        k = int(rng.integers(1, n + 1))
        targets = rng.choice(n, size=k, replace=False).tolist()
        u = _random_unitary(rng, 2**k)
        out = apply_unitary(s, u, targets)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 4))
    def test_unitary_then_adjoint_is_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        s = _random_state(rng, n)
        k = int(rng.integers(1, n + 1))
        targets = rng.choice(n, size=k, replace=False).tolist()
        u = _random_unitary(rng, 2**k)
        out = apply_unitary(apply_unitary(s, u, targets), u.conj().T, targets)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-10)


def _kron_oracle(u, targets, n):
    """The 2^n operator of ``u`` on ``targets`` by brute force: u (x) I on the
    qubit order (targets, others), conjugated by the basis permutation back to
    the natural order."""
    order = list(targets) + [q for q in range(n) if q not in targets]
    full = np.kron(u, np.eye(2 ** (n - len(targets))))
    perm = np.zeros((2**n, 2**n))
    for i in range(2**n):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        perm[sum(bits[q] << (n - 1 - pos) for pos, q in enumerate(order)), i] = 1
    return perm.T @ full @ perm


# unsorted and non-adjacent targets, plus the adjacent ascending shapes
KERNEL_TARGETS = [[3], [0], [4], [3, 0], [0, 2], [4, 1, 2], [2, 0, 4], [1, 2], [2, 3, 4]]


class TestKernel:
    """apply_operator against the Kronecker oracle, on 5 qubits, to 1e-12."""

    @pytest.mark.parametrize("targets", KERNEL_TARGETS)
    def test_statevector(self, targets):
        rng = np.random.default_rng(len(targets) * 10 + targets[0])
        psi = _random_state(rng, 5).amplitudes
        u = _random_unitary(rng, 2 ** len(targets))
        got = qstate.apply_operator(psi[None], u, targets, 5)
        assert got.shape == (1, 32)
        np.testing.assert_allclose(got[0], _kron_oracle(u, targets, 5) @ psi, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("targets", KERNEL_TARGETS)
    def test_density_matrix(self, targets):
        rng = np.random.default_rng(len(targets) * 10 + targets[0] + 1)
        amps = rng.normal(size=(32, 3)) + 1j * rng.normal(size=(32, 3))
        rho = amps @ amps.conj().T
        rho = DensityMatrix(5, rho / np.trace(rho))
        u = _random_unitary(rng, 2 ** len(targets))
        big = _kron_oracle(u, targets, 5)
        got = apply_unitary(rho, u, targets)
        np.testing.assert_allclose(got.entries, big @ rho.entries @ big.conj().T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("targets", KERNEL_TARGETS)
    def test_stack_of_distinct_operators(self, targets):
        rng = np.random.default_rng(len(targets) * 10 + targets[0] + 2)
        k = len(targets)
        stack = np.stack([_random_unitary(rng, 2**k) for _ in range(3)])
        data = np.stack([_random_state(rng, 5).amplitudes for _ in range(3)])
        got = qstate.apply_operator(data, stack, targets, 5)
        # a batch axis of 1 broadcasts to the stack's three items
        shared = qstate.apply_operator(data[:1], stack, targets, 5)
        for b in range(3):
            want = _kron_oracle(stack[b], targets, 5)
            np.testing.assert_allclose(got[b], want @ data[b], rtol=0, atol=1e-12)
            np.testing.assert_allclose(shared[b], want @ data[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("targets", KERNEL_TARGETS)
    def test_trailing_non_qubit_axis(self, targets):
        rng = np.random.default_rng(len(targets) * 10 + targets[0] + 3)
        m = rng.normal(size=(32, 6)) + 1j * rng.normal(size=(32, 6))
        u = _random_unitary(rng, 2 ** len(targets))
        got = qstate.apply_operator(m[None], u, targets, 5)
        assert got.shape == (1, 32, 6)
        np.testing.assert_allclose(got[0], _kron_oracle(u, targets, 5) @ m, rtol=0, atol=1e-12)

    def test_four_qubit_unitary_on_density_matrix_forms_no_superoperator(self):
        rng = np.random.default_rng(8)
        amps = rng.normal(size=(32, 4)) + 1j * rng.normal(size=(32, 4))
        rho = DensityMatrix(5, amps @ amps.conj().T / np.trace(amps @ amps.conj().T))
        u = _random_unitary(rng, 16)
        targets = [3, 0, 4, 1]
        tracemalloc.start()
        try:
            got = apply_unitary(rho, u, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        big = _kron_oracle(u, targets, 5)
        np.testing.assert_allclose(got.entries, big @ rho.entries @ big.conj().T, rtol=0, atol=1e-12)
        # u (x) u* on 8 of the vectorized rho's 10 qubit indices would take 1 MiB
        assert peak < 4 * rho.entries.nbytes

    def test_real_operator_on_real_data(self):
        # the readout channel's bit flips are real
        rng = np.random.default_rng(5)
        p = rng.random(8)
        m = np.array([[0.9, 0.1], [0.1, 0.9]])
        got = qstate.apply_operator(p[None], m, (2,), 3)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got[0], _kron_oracle(m, [2], 3) @ p, rtol=0, atol=1e-15)


class TestDerivedStates:
    """Results built from checked states are read-only and sized right."""

    def _assert_state(self, state, kind, num_qubits):
        assert isinstance(state, kind)
        assert state.num_qubits == num_qubits
        data = state.amplitudes if kind is StateVector else state.entries
        assert data.shape == (2**num_qubits,) * (1 if kind is StateVector else 2)
        assert not data.flags.writeable
        with pytest.raises(ValueError):
            data[0] = 0.5

    def test_apply_unitary(self):
        rng = np.random.default_rng(3)
        s = _random_state(rng, 3)
        u = _random_unitary(rng, 4)
        self._assert_state(apply_unitary(s, u, [2, 0]), StateVector, 3)
        self._assert_state(
            apply_unitary(s.to_density_matrix(), u, [2, 0]), DensityMatrix, 3
        )

    @pytest.mark.parametrize("density", [True, False])
    def test_postselect(self, density):
        s = _random_state(np.random.default_rng(4), 3)
        state, kind = (s.to_density_matrix(), DensityMatrix) if density else (s, StateVector)
        post, _ = postselect(state, 1, 0)
        self._assert_state(post, kind, 2)

    def test_partial_trace_and_density_matrix(self):
        s = _random_state(np.random.default_rng(5), 3)
        rho = s.to_density_matrix()
        self._assert_state(rho, DensityMatrix, 3)
        self._assert_state(partial_trace(rho, [2, 0]), DensityMatrix, 2)

    def test_public_constructors_leave_caller_arrays_writable(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        rho = np.diag([1.0, 0.0]).astype(complex)
        StateVector(1, amps)
        DensityMatrix(1, rho)
        assert amps.flags.writeable and rho.flags.writeable


class TestApplyControlled:
    def test_cnot_truth_table(self):
        s = apply_controlled(basis_state(2, 2), X, [0], [1])
        assert s.probability(3) == pytest.approx(1.0)
        s = apply_controlled(basis_state(2, 0), X, [0], [1])
        assert s.probability(0) == pytest.approx(1.0)

    def test_control_zero_is_identity(self):
        rng = np.random.default_rng(2)
        u = _random_unitary(rng, 2)
        s = apply_controlled(basis_state(2, 1), u, [0], [1])
        assert s.probability(1) == pytest.approx(1.0)

    def test_matches_its_embedding_on_a_density_matrix(self):
        rng = np.random.default_rng(3)
        rho = _random_state(rng, 3).to_density_matrix()
        u = _random_unitary(rng, 2)
        big = np.eye(8, dtype=complex)
        big[6:, 6:] = u
        got = apply_controlled(rho, u, [2, 0], [1])
        np.testing.assert_allclose(got.entries, apply_unitary(rho, big, [2, 0, 1]).entries, atol=1e-14)

    @pytest.mark.parametrize(
        "u, controls, targets, error",
        [
            (X, [0], [0], DomainError),  # overlap
            (X, [0], [1, 2], DomainError),  # too few rows for the targets
            (np.ones((2, 4)), [0], [1], ValidationError),  # not square
            (np.ones((2, 2)), [0], [1], ValidationError),  # not unitary
            (X, [5], [1], DomainError),  # out of range
        ],
        ids=["overlap", "size", "square", "unitary", "range"],
    )
    def test_rejects_bad_input(self, u, controls, targets, error):
        with pytest.raises(error):
            apply_controlled(basis_state(3, 0), u, controls, targets)


class TestPostselect:
    def test_removes_qubit_by_default(self):
        s = apply_unitary(basis_state(2, 0), H, [0])
        out, prob = postselect(s, 0, 1)
        assert out.num_qubits == 1
        assert prob == pytest.approx(0.5)

    def test_impossible_outcome_raises(self):
        with pytest.raises(ImpossibleOutcomeError):
            postselect(basis_state(2, 0), 0, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 4))
    def test_probability_matches_diagonal_mass(self, seed, n):
        rng = np.random.default_rng(seed)
        s = _random_state(rng, n + 1)
        probs = np.abs(s.amplitudes) ** 2
        # mass with qubit 0 (most significant bit) equal to 1
        expected = probs[2**n :].sum()
        if expected < 1e-12:
            return
        _, prob = postselect(s, 0, 1)
        assert prob == pytest.approx(expected, abs=1e-10)


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        a, b = _random_state(rng, 1), _random_state(rng, 1)
        joint = StateVector(2, np.kron(a.amplitudes, b.amplitudes))
        rho_a = partial_trace(joint.to_density_matrix(), [0])
        np.testing.assert_allclose(
            rho_a.entries, a.to_density_matrix().entries, atol=1e-12
        )

    def test_bell_state_marginal_is_maximally_mixed(self):
        bell = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))
        rho = partial_trace(bell.to_density_matrix(), [1])
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)

    def test_keep_order_preserved(self):
        s = basis_state(2, 1)  # |01>
        rho = partial_trace(s.to_density_matrix(), [1, 0])
        # qubit 1 first: |1>|0> = index 2
        assert np.real(rho.entries[2, 2]) == pytest.approx(1.0)


class TestFidelity:
    def test_identical_pure_states(self):
        rng = np.random.default_rng(4)
        s = _random_state(rng, 2)
        assert fidelity_pure(s.to_density_matrix(), s) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        assert fidelity_pure(basis_state(1, 0).to_density_matrix(), basis_state(1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_one_state_case_of_overlaps(self):
        rng = np.random.default_rng(8)
        psi = _random_state(rng, 2)
        for state in (_random_state(rng, 2), _random_state(rng, 2).to_density_matrix()):
            rho = state if isinstance(state, DensityMatrix) else state.to_density_matrix()
            want = qstate.overlaps(rho.entries[None], psi.amplitudes[None, None])[0, 0]
            assert fidelity_pure(state, psi) == want

    @pytest.mark.parametrize("scale,want", [(1.5, 1.0), (-0.5, 0.0)])
    def test_clamped_to_unit_interval(self, scale, want):
        entries = scale * basis_state(1, 0).to_density_matrix().entries
        assert fidelity_pure(DensityMatrix._trusted(1, entries), basis_state(1, 0)) == want
        kets = np.eye(2, dtype=complex)[None]
        np.testing.assert_array_equal(qstate.overlaps(entries[None], kets), [[want, 0.0]])


class TestDistributions:
    def test_exact_distribution_sums_to_one(self):
        rng = np.random.default_rng(6)
        s = _random_state(rng, 3)
        hist = exact_distribution(s, [0, 1, 2])
        assert sum(hist.outcomes.values()) == pytest.approx(1.0, abs=1e-12)
        assert hist.shots is None
