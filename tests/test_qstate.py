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

    @pytest.mark.parametrize("amps", [[np.nan, 0], [np.nan, 1], [np.inf, 0], [1, np.nan * 1j]])
    def test_rejects_non_finite_amplitudes(self, amps):
        # the norm is NaN or infinite, and a NaN norm once passed as "not far from 1"
        with pytest.raises(ValidationError, match="state norm"):
            StateVector(1, amps)

    def test_basis_state(self):
        s = basis_state(2, 3)
        assert abs(s.amplitudes[3]) ** 2 == 1.0

    def test_amplitudes_read_only(self):
        s = basis_state(1, 0)
        with pytest.raises((ValueError, AttributeError)):
            s.amplitudes[0] = 0.5


class TestDensityMatrix:
    def test_pure_state_roundtrip(self):
        rng = np.random.default_rng(0)
        s = _random_state(rng, 2)
        rho = s.to_density_matrix()
        assert np.trace(rho.entries @ rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(1, np.array([[0.5, 0.4], [0.1, 0.5]]))

    def test_hermitian_tolerance_is_absolute(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            DensityMatrix(1, [[0.5, 0.1 + 5e-7], [0.1, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(1, np.eye(2))


# one qubit's Paulis by their index ("Z or Y", "X or Y"): I, X, Z, Y
PAULIS = [np.eye(2), X, np.diag([1.0, -1.0]), np.array([[0, -1j], [1j, 0]])]


def _random_rho(rng, n):
    z = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = z @ z.conj().T
    return rho / np.trace(rho)


def _pauli_string(index, n):
    """The Pauli string of a coefficient index: bit q the "Z or Y" bit of
    qubit q, bit q + n its "X or Y" bit, the first the most significant."""
    bits = format(index, f"0{2 * n}b")
    out = np.ones((1, 1))
    for q in range(n):
        out = np.kron(out, PAULIS[2 * int(bits[q]) + int(bits[q + n])])
    return out


class TestPauliCoefficients:
    """A density matrix's Pauli coefficients Tr(rho P), on its 2n axes."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coefficients_are_pauli_traces(self, n):
        rho = _random_rho(np.random.default_rng(n), n)
        got = qstate.pauli_of(rho[None])[0]
        assert got.dtype == float and got.shape == (4**n,)
        want = [np.trace(rho @ _pauli_string(i, n)) for i in range(4**n)]
        np.testing.assert_allclose(got, np.real(want), rtol=0, atol=1e-14)
        assert np.abs(np.imag(want)).max() < 1e-14

    def test_roundtrip_of_a_batch(self):
        rng = np.random.default_rng(7)
        rhos = np.array([_random_rho(rng, 3) for _ in range(4)])
        back = qstate.entries_of(qstate.pauli_of(rhos))
        np.testing.assert_allclose(back, rhos, rtol=0, atol=1e-15)

    def test_reads_leave_the_form_it_was_made_in(self):
        """A state is held as its coefficients alone, however it was made.
        Reading its entries, twice, derives them on each read, read only, and
        stores nothing: the state keeps the same array and reports the same
        bits after the reads as before."""
        rng = np.random.default_rng(8)
        rho = _random_rho(rng, 4)
        coefficients = qstate.pauli_of(rho[None])[0]
        assert DensityMatrix.__slots__ == ("pauli",)
        for state in (DensityMatrix(4, rho), DensityMatrix._trusted(4, coefficients.copy())):
            held = state.pauli
            before = exact_distribution(state, [0, 2, 3]).outcomes
            reads = [state.entries, state.entries]
            assert exact_distribution(state, [0, 2, 3]).outcomes == before
            assert state.pauli is held and reads[0] is not reads[1]
            assert all(not a.flags.writeable for a in (held, *reads))
            np.testing.assert_allclose(reads[0], rho, rtol=0, atol=1e-15)
            np.testing.assert_allclose(held, coefficients, rtol=0, atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_marginal_from_coefficients_equals_diagonal(self, seed):
        """The readout marginal read from the coefficients (Z strings, the
        other qubits at I, a Walsh-Hadamard transform) equals the diagonal
        of the entries summed over the other qubits, in any target order."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        rho = _random_rho(rng, n)
        targets = [int(q) for q in rng.permutation(n)[: rng.integers(1, n + 1)]]
        state = DensityMatrix._trusted(n, qstate.pauli_of(rho[None])[0])
        got = qstate._marginal_probabilities(state, targets)
        want = np.zeros(2 ** len(targets))
        for x, p in enumerate(np.real(np.diag(rho))):
            bits = format(x, f"0{n}b")
            want[int("".join(bits[q] for q in targets), 2)] += p
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


class TestApplyUnitary:
    def test_hadamard(self):
        s = apply_unitary(basis_state(1, 0), H, [0])
        np.testing.assert_allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_qubit_zero_is_most_significant(self):
        s = apply_unitary(basis_state(2, 0), X, [0])
        assert abs(s.amplitudes[2]) ** 2 == pytest.approx(1.0)

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


def _in_order(psi, order):
    """Amplitudes in qubit order, rearranged so that axis i holds qubit order[i]."""
    return psi.reshape((2,) * len(order)).transpose(order).reshape(-1)


def _in_qubit_order(data, order):
    """The inverse of :func:`_in_order`."""
    return data.reshape((2,) * len(order)).transpose(np.argsort(order)).reshape(-1)


def _start_orders(rng, targets, n=5):
    """Two starting axis orders: one drawn at random, in which two or more
    targets are not adjacent in their own order, and one with the targets
    adjacent, in their own order, at a random offset."""
    k = len(targets)
    while True:
        drawn = tuple(int(q) for q in rng.permutation(n))
        i = drawn.index(targets[0])
        if k == 1 or drawn[i : i + k] != tuple(targets):
            break
    rest = [int(q) for q in rng.permutation([q for q in range(n) if q not in targets])]
    at = int(rng.integers(0, len(rest) + 1))
    return drawn, tuple(rest[:at] + list(targets) + rest[at:])


def _check_order(before, after, targets):
    """The kernel's one rule: targets adjacent in ``before`` keep the order,
    any others lead ``after``."""
    k, targets, i = len(targets), tuple(targets), before.index(targets[0])
    assert sorted(after) == sorted(before)
    if before[i : i + k] == targets:
        assert after == before
    else:
        assert after[:k] == targets


class TestKernel:
    """apply_operator from random starting axis orders, targets in place and
    out of place, against the Kronecker oracle on 5 qubits, to 1e-12."""

    @pytest.mark.parametrize("targets", KERNEL_TARGETS)
    def test_statevector(self, targets):
        rng = np.random.default_rng(len(targets) * 10 + targets[0])
        psi = _random_state(rng, 5).amplitudes
        u = _random_unitary(rng, 2 ** len(targets))
        want = _kron_oracle(u, targets, 5) @ psi
        for start in _start_orders(rng, targets):
            got, order = qstate.apply_operator(_in_order(psi, start)[None], u, targets, start)
            assert got.shape == (1, 32)
            _check_order(start, order, targets)
            np.testing.assert_allclose(_in_qubit_order(got[0], order), want, rtol=0, atol=1e-12)

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
        psis = [_random_state(rng, 5).amplitudes for _ in range(3)]
        for start in _start_orders(rng, targets):
            data = np.stack([_in_order(psi, start) for psi in psis])
            got, order = qstate.apply_operator(data, stack, targets, start)
            # a batch axis of 1 broadcasts to the stack's three items
            shared, shared_order = qstate.apply_operator(data[:1], stack, targets, start)
            _check_order(start, order, targets)
            assert shared_order == order and got.shape == shared.shape == (3, 32)
            for b in range(3):
                want = _kron_oracle(stack[b], targets, 5)
                for out, psi in ((got[b], psis[b]), (shared[b], psis[0])):
                    np.testing.assert_allclose(
                        _in_qubit_order(out, order), want @ psi, rtol=0, atol=1e-12
                    )

    @pytest.mark.parametrize("targets", KERNEL_TARGETS)
    def test_matrix_columns_as_a_batch(self, targets):
        """One dense operator on every column of a matrix, the columns run
        as the items of a batch (as the rows of the identity make a circuit's
        unitary in the tests)."""
        rng = np.random.default_rng(len(targets) * 10 + targets[0] + 3)
        m = rng.normal(size=(32, 6)) + 1j * rng.normal(size=(32, 6))
        u = _random_unitary(rng, 2 ** len(targets))
        want = _kron_oracle(u, targets, 5) @ m
        for start in _start_orders(rng, targets):
            data = np.stack([_in_order(column, start) for column in m.T])
            got, order = qstate.apply_operator(data, u, targets, start)
            assert got.shape == (6, 32)
            _check_order(start, order, targets)
            got = np.stack([_in_qubit_order(item, order) for item in got], axis=1)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("targets", [t for t in KERNEL_TARGETS if len(t) > 1])
    def test_block_stacks(self, targets):
        """A block-diagonal operator as its stack of blocks, at every split
        into c controls and k - c block qubits: block x applies where the
        first c targets read x. One stack is shared by a batch, or each item
        has its own (a batch axis of 1 in the data broadcasts)."""
        rng = np.random.default_rng(len(targets) * 10 + targets[0] + 4)
        k = len(targets)
        psis = [_random_state(rng, 5).amplitudes for _ in range(3)]
        for c in range(1, k):
            d = 2 ** (k - c)
            stacks = np.array([[_random_unitary(rng, d) for _ in range(2**c)] for _ in range(3)])
            dense = np.zeros((3, 2**k, 2**k), dtype=complex)
            for x in range(2**c):
                dense[:, x * d : (x + 1) * d, x * d : (x + 1) * d] = stacks[:, x]
            for start in _start_orders(rng, targets):
                data = np.stack([_in_order(psi, start) for psi in psis])
                shared, order = qstate.apply_operator(data, stacks[0], targets, start)
                own, _ = qstate.apply_operator(data, stacks, targets, start)
                broadcast, _ = qstate.apply_operator(data[:1], stacks, targets, start)
                _check_order(start, order, targets)
                first = _kron_oracle(dense[0], targets, 5)
                for b in range(3):
                    want = _kron_oracle(dense[b], targets, 5)
                    for out, op, psi in (
                        (shared[b], first, psis[b]), (own[b], want, psis[b]),
                        (broadcast[b], want, psis[0]),
                    ):
                        np.testing.assert_allclose(
                            _in_qubit_order(out, order), op @ psi, rtol=0, atol=1e-12
                        )

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
        # u (x) u* on 8 of the vectorized rho's 10 qubit indices would take 1 MiB,
        # 64 times the entries; the call derives the entries and returns coefficients
        assert peak < 8 * rho.entries.nbytes

    def test_lazy_axis_order(self):
        """A sequence of calls, each leaving its targets adjacent, equals the
        oracle's product once reorder restores qubit order; a call whose
        targets are adjacent already keeps the order."""
        rng = np.random.default_rng(12)
        psi = _random_state(rng, 5).amplitudes
        data, order, want = psi[None], tuple(range(5)), psi
        for targets in KERNEL_TARGETS + [[2, 0, 4], [2, 0], [0, 2], [1, 3]]:
            u = _random_unitary(rng, 2 ** len(targets))
            before = order
            data, order = qstate.apply_operator(data, u, targets, order)
            want = _kron_oracle(u, targets, 5) @ want
            _check_order(before, order, targets)
            assert data.shape == (1, 32)
        assert order != tuple(range(5))
        got = qstate.reorder(data, order, tuple(range(5)))
        np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-12)

    def test_reorder_round_trip(self):
        """reorder matches a plain transpose, goes back exactly, and returns
        its input unchanged when the two orders agree."""
        rng = np.random.default_rng(13)
        data = rng.normal(size=(3, 32)) + 1j * rng.normal(size=(3, 32))
        qubits = tuple(range(5))
        assert qstate.reorder(data, qubits, qubits) is data
        for _ in range(5):
            a, b = (tuple(int(q) for q in rng.permutation(5)) for _ in range(2))
            moved = qstate.reorder(data, qubits, a)
            assert moved.shape == data.shape
            for item, row in zip(moved, data):
                np.testing.assert_array_equal(item, _in_order(row, a))
            there = qstate.reorder(moved, a, b)
            np.testing.assert_array_equal(qstate.reorder(there, b, a), moved)
            np.testing.assert_array_equal(qstate.reorder(there, b, qubits), data)

    def test_real_operator_on_real_data(self):
        # the readout channel's bit flips are real
        rng = np.random.default_rng(5)
        p = rng.random(8)
        m = np.array([[0.9, 0.1], [0.1, 0.9]])
        got, order = qstate.apply_operator(p[None], m, (2,), (0, 1, 2))
        assert got.dtype == np.float64 and order == (0, 1, 2)
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
        assert abs(s.amplitudes[3]) ** 2 == pytest.approx(1.0)
        s = apply_controlled(basis_state(2, 0), X, [0], [1])
        assert abs(s.amplitudes[0]) ** 2 == pytest.approx(1.0)

    def test_control_zero_is_identity(self):
        rng = np.random.default_rng(2)
        u = _random_unitary(rng, 2)
        s = apply_controlled(basis_state(2, 1), u, [0], [1])
        assert abs(s.amplitudes[1]) ** 2 == pytest.approx(1.0)

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
        """One state against one ket is the overlap rule on their Pauli
        coefficients, and that is <psi|rho|psi> read from the matrix."""
        rng = np.random.default_rng(8)
        psi = _random_state(rng, 2)
        for state in (_random_state(rng, 2), _random_state(rng, 2).to_density_matrix()):
            want = qstate.overlaps(state.pauli[None], psi.pauli[None])[0]
            assert fidelity_pure(state, psi) == want
            rho = state.to_density_matrix() if isinstance(state, StateVector) else state
            matrix = (psi.amplitudes.conj() @ rho.entries @ psi.amplitudes).real
            assert want == pytest.approx(matrix, abs=1e-14)

    def test_statevector_coefficients_are_its_density_matrix(self):
        """A statevector's ``pauli``, derived on each read, is its outer product's."""
        psi = _random_state(np.random.default_rng(9), 3)
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        np.testing.assert_allclose(psi.pauli, qstate.pauli_of(rho[None])[0], rtol=0, atol=1e-15)
        assert not psi.pauli.flags.writeable

    @pytest.mark.parametrize("size", range(1, 6))
    def test_batch_reads_each_item_alone(self, size):
        # bit for bit; one qubit against one ket is where a batched einsum
        # rounded by the batch's size
        rng = np.random.default_rng(size)
        for k, d in [(1, 2), (2, 2), (1, 4), (2, 4)] * 10:
            kets = rng.normal(size=(size * k, d)) + 1j * rng.normal(size=(size * k, d))
            kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
            kets = qstate.pauli_of(kets[:, :, None] * kets[:, None, :].conj()).reshape(size, k, -1)
            z = rng.normal(size=(size, d, d)) + 1j * rng.normal(size=(size, d, d))
            rho = z @ z.conj().transpose(0, 2, 1)
            rho = qstate.pauli_of(rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None])
            batch = qstate.overlaps(rho[:, None], kets)
            assert batch.shape == (size, k)
            for i in range(size):
                alone = qstate.overlaps(rho[i : i + 1, None], kets[i : i + 1])[0]
                np.testing.assert_array_equal(batch[i], alone)

    @pytest.mark.parametrize("scale,want", [(1.5, 1.0), (-0.5, 0.0)])
    def test_clamped_to_unit_interval(self, scale, want):
        coefficients = scale * basis_state(1, 0).pauli
        state = DensityMatrix._trusted(1, coefficients)
        assert fidelity_pure(state, basis_state(1, 0)) == want
        kets = np.stack([basis_state(1, 0).pauli, basis_state(1, 1).pauli])
        np.testing.assert_array_equal(qstate.overlaps(coefficients, kets), [want, 0.0])


class TestMeasurementHistogram:
    @pytest.mark.parametrize(
        "outcomes,shots",
        [
            ({"00": 1.5, "01": -0.5}, None),
            ({"00": np.inf, "01": -np.inf}, None),
            ({"00": np.nan}, None),
            ({"00": 1.0, "01": np.nan}, None),
            ({"00": np.inf}, None),
            ({"00": 3, "01": -1}, 2),
            ({"00": 2, "01": np.nan}, 2),
        ],
    )
    def test_rejects_negative_and_non_finite_entries(self, outcomes, shots):
        with pytest.raises(ValidationError, match="not finite and >= 0"):
            qstate.MeasurementHistogram(outcomes, shots)

    def test_accepts_zero_entries(self):
        assert qstate.MeasurementHistogram({"0": 0.0, "1": 1.0}).probabilities() == {
            "0": 0.0, "1": 1.0
        }
        assert qstate.MeasurementHistogram({"0": 0, "1": 4}, 4).probabilities()["1"] == 1.0

    @pytest.mark.parametrize(
        "outcomes,shots",
        [({"0": 0.5, "1": 1.5}, 2), ({"0": 1, "1": 1}, 2.0), ({"0": 1.0, "1": 1}, 2)],
    )
    def test_counts_mode_takes_integers_only(self, outcomes, shots):
        with pytest.raises(ValidationError, match="counts and shots must be integers"):
            qstate.MeasurementHistogram(outcomes, shots)

    def test_numpy_integers_count(self):
        hist = qstate.MeasurementHistogram({"0": np.int64(1), "1": 3}, np.int64(4))
        assert hist.probabilities() == {"0": 0.25, "1": 0.75}


class TestDistributions:
    def test_exact_distribution_sums_to_one(self):
        rng = np.random.default_rng(6)
        s = _random_state(rng, 3)
        hist = exact_distribution(s, [0, 1, 2])
        assert sum(hist.outcomes.values()) == pytest.approx(1.0, abs=1e-12)
        assert hist.shots is None
