"""Gate IR, decompositions, compilation, and QASM emission."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhlsim import circuits, qpe, qstate, solvers
from hhlsim.circuits import (
    Circuit,
    adjoint,
    compile_circuit,
    controlled_ry_chain,
    emit_qasm,
    gate,
    gate_matrix,
    inverse_qft_gates,
    simplify,
    zyz_angles,
)
from hhlsim.errors import CompileError, DomainError, HhlError, ValidationError
from hhlsim.noise import NoiseParams, run_noisy
from hhlsim.problem import HermitianProblem, build_a_lambda, unitary_power

from problem_helpers import circuit_unitary, equal_up_to_phase, random_problem


def _random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _controlled(u, control, target):
    """Basis gates of ``u`` on ``target`` controlled by ``control``: the
    lowering of a one-control cunitary gate, the ABC construction."""
    g = gate("cunitary", control, target, params=(1,), matrix=np.stack([np.eye(2), u]))
    return circuits._KINDS["cunitary"].lower(g)


def _ry(t):
    return np.array(
        [[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]]
    )


_I, _X = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])


class TestGate:
    def test_rejects_non_unitary_matrix(self):
        with pytest.raises(ValidationError):
            gate("unitary", 0, matrix=np.array([[1, 1], [0, 1]], dtype=complex))

    def test_unitarity_tolerance_is_absolute(self):
        # off by 4e-6: within a relative tolerance of 1e-5, far outside 1e-10
        with pytest.raises(ValidationError, match="not unitary"):
            gate("unitary", 0, matrix=np.diag([1 + 4e-6, 1]))
        with pytest.raises(ValidationError, match="not unitary"):
            gate("unitary", 0, matrix=np.diag([np.nan, 1]))

    def test_rejects_non_finite_params(self):
        with pytest.raises(ValidationError):
            gate("ry", 0, params=(np.nan,))

    def test_rejects_repeated_qubits_and_misfit_matrices(self):
        with pytest.raises(ValidationError, match="repeats a qubit"):
            gate("cnot", 0, 0)
        with pytest.raises(ValidationError, match="does not fit"):
            gate("unitary", 0, matrix=np.eye(4))
        with pytest.raises(ValidationError, match="does not fit"):
            gate("cunitary", 0, 1, params=(1,), matrix=[np.eye(4)] * 2)
        # a controlled operator on two input qubits fits: one control, two targets
        assert gate("cunitary", 0, 1, 2, params=(1,), matrix=[np.eye(4)] * 2).matrix.shape == (2, 4, 4)

    @pytest.mark.parametrize(
        "kind,qubits,kwargs,match",
        [
            ("ry", (0,), {}, "takes 1 parameter"),
            ("h", (0,), {"params": (0.1,)}, "takes 0 parameter"),
            ("rz", (0,), {"params": (0.1, 0.2)}, "takes 1 parameter"),
            ("cnot", (0,), {}, "acts on 2 qubit"),
            ("h", (0, 1), {}, "acts on 1 qubit"),
            ("unitary", (0,), {}, "needs a matrix"),
            ("cunitary", (0, 1), {}, "needs a matrix"),
            ("h", (0,), {"matrix": np.eye(2)}, "takes no matrix"),
            ("mry", (0, 1), {"params": (0.1, 0.2), "matrix": np.eye(4)}, "takes no matrix"),
            ("cunitary", (0,), {"params": (1,), "matrix": [_I, _X]}, "does not fit"),
            ("foo", (0,), {}, "unknown gate kind"),
            ("phase", (0,), {"params": (0.1,)}, "unknown gate kind"),
            ("ccry", (0, 1, 2), {"params": (0.1,)}, "unknown gate kind"),
            ("measure", (0,), {}, "unknown gate kind"),
            ("x", (0,), {}, "unknown gate kind"),
            ("rx", (0,), {"params": (0.1,)}, "unknown gate kind"),
            ("qft", (), {"params": (-1,)}, "needs at least one qubit"),
            ("qft", (0, 1), {"params": (0.5,)}, "sign -1 or \\+1"),
            ("qft", (0,), {"params": (2,)}, "sign -1 or \\+1"),
            ("qft", (0,), {"params": (0,)}, "sign -1 or \\+1"),
            ("qft", (0, 1), {}, "takes 1 parameter"),
            ("qft", (0, 1), {"params": (-1, 1)}, "takes 1 parameter"),
            ("qft", (0, 0), {"params": (-1,)}, "repeats a qubit"),
            ("qft", (0,), {"params": (-1,), "matrix": np.eye(2)}, "takes no matrix"),
            ("cunitary", (0, 1), {"params": (1,)}, "needs a matrix"),
            ("cunitary", (0, 1), {"matrix": [_I, _X]}, "takes 1 parameter"),
            ("cunitary", (0, 1), {"params": (0.5,), "matrix": [_I, _X]}, "sign -1 or \\+1"),
            ("cunitary", (0, 1, 2), {"params": (1,), "matrix": [_I, _X]}, "does not fit"),
            ("cunitary", (0, 1), {"params": (1,), "matrix": [_I, _X, _I]}, "2\\^c >= 2 blocks"),
            ("cunitary", (0, 1), {"params": (1,), "matrix": [_I]}, "2\\^c >= 2 blocks"),
            ("cunitary", (0, 1), {"params": (1,), "matrix": [_X, _X]}, "not the powers"),
            ("cunitary", (0, 1, 2), {"params": (1,), "matrix": [_I, _X, _I, _I]}, "not the powers"),
            ("cunitary", (0, 1), {"params": (1,), "matrix": [_I, [[1, 1], [0, 1]]]}, "not unitary"),
            # a physical swap is three cnot gates, a controlled phase a step of the qft lowering
            ("swap", (0, 1), {}, "unknown gate kind 'swap'"),
            ("cphase", (0, 1), {"params": (0.3,)}, "unknown gate kind 'cphase'"),
        ],
    )
    def test_rejects_wrong_signature(self, kind, qubits, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            gate(kind, *qubits, **kwargs)

    def test_cunitary_takes_the_powers_of_a_unitary(self):
        """Block x of a cunitary stack is U^x; the stack is stored read-only
        and its controls lead."""
        g = gate("cunitary", 2, 0, 1, params=(-1,), matrix=[_I, _X, _I, _X])
        assert g.matrix.shape == (4, 2, 2) and not g.matrix.flags.writeable
        assert circuits.cnot_count(Circuit(3, (g,))) == 4

    def test_cnot_matrix(self):
        m = gate_matrix(gate("cnot", 0, 1))
        expected = np.eye(4)[[0, 1, 3, 2]]
        np.testing.assert_allclose(m, expected)


class TestZyz:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_reconstructs(self, seed):
        rng = np.random.default_rng(seed)
        u = _random_unitary(rng)
        alpha, beta, gamma, delta = zyz_angles(u)
        rz = lambda t: np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])
        rebuilt = np.exp(1j * alpha) * rz(beta) @ _ry(gamma) @ rz(delta)
        np.testing.assert_allclose(rebuilt, u, atol=1e-10)


    def test_stack_matches_its_members_bit_for_bit(self):
        """One path serves a matrix and a stack: each member's angles carry
        the same bits alone as in the stack, the diagonal (gamma = 0) and
        anti-diagonal (gamma = pi) branches included."""
        rng = np.random.default_rng(7)
        stack = [_random_unitary(rng) for _ in range(30)]
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, 2))
        stack.insert(5, np.diag(phases))
        stack.insert(17, np.diag(phases)[::-1])
        angles = zyz_angles(np.stack(stack))
        assert [a.shape for a in angles] == [(32,)] * 4
        for k, u in enumerate(stack):
            assert zyz_angles(u) == tuple(float(a[k]) for a in angles)
        assert (angles[2][5], angles[3][5], angles[2][17], angles[3][17]) == (0.0, 0.0, np.pi, 0.0)


class TestControlledDecomposition:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_matches_controlled_matrix(self, seed):
        rng = np.random.default_rng(seed)
        u = _random_unitary(rng)
        gates = _controlled(u, 0, 1)
        got = circuit_unitary(gates, 2)
        expected = np.block(
            [[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), u]]
        )
        assert equal_up_to_phase(got, expected, atol=1e-9)

    def test_controlled_x_equivalent_to_cnot(self):
        gates = _controlled(np.array([[0, 1], [1, 0]], dtype=complex), 0, 1)
        got = circuit_unitary(gates, 2)
        assert equal_up_to_phase(got, gate_matrix(gate("cnot", 0, 1)), atol=1e-9)

    def test_uniform_two_cnot_skeleton(self):
        # the entangling cost does not depend on the rotation angles
        for u in (np.eye(2, dtype=complex), -np.eye(2, dtype=complex),
                  np.array([[0, 1], [1, 0]], dtype=complex)):
            gates = _controlled(u, 0, 1)
            assert sum(1 for g in gates if g.kind == "cnot") == 2

    def test_lambda_family_step(self):
        u = unitary_power(build_a_lambda(0.25).spectral, 1)
        gates = _controlled(u, 0, 1)
        assert sum(1 for g in gates if g.kind == "cnot") == 2
        got = circuit_unitary(gates, 2)
        expected = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), u]])
        assert equal_up_to_phase(got, expected, atol=1e-9)


class TestInverseQft:
    def test_two_qubit_matrix(self):
        gates, out = inverse_qft_gates([0, 1])
        u = circuit_unitary(gates, 2)
        dft = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2
        iqft = dft.conj().T
        # relabeled wires: logical bit i ends on out[i]; compare via permutation
        perm = np.zeros((4, 4))
        for x in range(4):
            bits = [(x >> 1) & 1, x & 1]
            y = bits[0] * (2 ** (1 - out[0])) + bits[1] * (2 ** (1 - out[1]))
            perm[y, x] = 1
        np.testing.assert_allclose(perm.T @ u, iqft, atol=1e-10)

    def test_physical_swap_variant(self):
        gates, out = inverse_qft_gates([0, 1], physical_swap=True)
        assert out == [0, 1]
        u = circuit_unitary(gates, 2)
        dft = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2
        assert equal_up_to_phase(u, dft.conj().T, atol=1e-10)
        assert circuits.cnot_count(Circuit(2, tuple(gates), {})) == 5
        lowered = compile_circuit(Circuit(2, tuple(gates), {}))
        assert lowered.cnot_count == 5  # 3 for the swap + 2 for the controlled phase

    def test_relabeled_variant_uses_two_cnots(self):
        gates, _ = inverse_qft_gates([0, 1])
        lowered = compile_circuit(Circuit(2, tuple(gates), {}))
        assert lowered.cnot_count == 2

    @staticmethod
    def _steps(wires, sign):
        """The documented inverse QFT as controlled-phase steps (control,
        target, angle) and h steps (wire,) on ``wires`` reversed, or its
        adjoint for sign +1: the steps reversed, each angle negated."""
        w = list(reversed(wires))
        steps = []
        for i in reversed(range(len(w))):
            for j in reversed(range(i + 1, len(w))):
                steps.append((w[j], w[i], -2 * np.pi / 2 ** (j - i + 1)))
            steps.append((w[i],))
        return steps if sign < 0 else [(*s[:2], -s[2]) if len(s) == 3 else s for s in steps[::-1]]

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_qft_gate_is_the_cphase_h_sequence(self, n, sign):
        """The one-gate QFT equals the sequence of explicit
        diag(1, 1, 1, e^{i phi}) and h gates exactly (no global phase),
        lowers to each controlled phase's two-CNOT lowering and each h in
        that order, and counts its n(n - 1) CNOTs."""
        wires = [int(q) for q in np.random.default_rng(n).permutation(n)]
        g = gate("qft", *wires, params=(sign,))
        steps = self._steps(wires, sign)
        sequence = [
            gate("h", *s) if len(s) == 1
            else gate("unitary", *s[:2], matrix=np.diag([1, 1, 1, np.exp(1j * s[2])]))
            for s in steps
        ]
        np.testing.assert_allclose(
            circuit_unitary([g], n), circuit_unitary(sequence, n), rtol=0, atol=1e-12
        )
        lowered = circuits._lower(g)
        assert lowered == [
            b for s in steps
            for b in ([gate("h", *s)] if len(s) == 1 else circuits._cphase_gates(*s))
        ]
        assert equal_up_to_phase(circuit_unitary(lowered, n), circuit_unitary(sequence, n))
        assert circuits.cnot_count(Circuit(n, (g,))) == n * (n - 1)

    def test_qft_matrix_is_the_bit_reversed_dft(self):
        n = 3
        x = np.arange(2**n)
        dft = np.exp(2j * np.pi * np.outer(x, x) / 2**n) / np.sqrt(2**n)
        reverse = np.eye(2**n)[[int(format(v, "03b")[::-1], 2) for v in x]]
        inverse = gate_matrix(gate("qft", 0, 1, 2, params=(-1,)))
        np.testing.assert_allclose(inverse, reverse @ dft.conj().T, rtol=0, atol=1e-12)
        forward = gate_matrix(gate("qft", 0, 1, 2, params=(1,)))
        np.testing.assert_allclose(forward, dft @ reverse, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("physical_swap", [False, True])
    def test_one_gate_per_qft(self, physical_swap):
        gates, out = inverse_qft_gates([3, 4, 5, 6], physical_swap=physical_swap)
        assert [g.kind for g in gates] == ["cnot"] * 6 * physical_swap + ["qft"]
        swaps = [((3, 6), (6, 3), (3, 6)), ((4, 5), (5, 4), (4, 5))] if physical_swap else []
        assert [g.qubits for g in gates[:-1]] == [q for s in swaps for q in s]
        assert gates[-1].params == (-1,)
        assert gates[-1].qubits == ((6, 5, 4, 3) if physical_swap else (3, 4, 5, 6))
        assert out == ([3, 4, 5, 6] if physical_swap else [6, 5, 4, 3])
        (inverse,) = adjoint(gates[-1:])
        assert (inverse.kind, inverse.qubits, inverse.params) == ("qft", gates[-1].qubits, (1,))


class TestMultiplexedRy:
    def _reference(self, angles, k):
        dim = 2 ** (k + 1)
        m = np.zeros((dim, dim), dtype=complex)
        for x in range(2**k):
            m[2 * x : 2 * x + 2, 2 * x : 2 * x + 2] = _ry(angles[x])
        return m

    @pytest.mark.parametrize(
        "angles,k",
        [
            ([0.4], 0),
            ([0.0, 0.7], 1),
            ([0.3, 0.7], 1),
            ([0.0, 0.5, 0.9, 1.3], 2),
            ([0.2, 0.5, 0.9, 1.3], 2),
        ],
    )
    def test_matches_block_diagonal(self, angles, k):
        gates = controlled_ry_chain(angles, list(range(k)), k)
        got = circuit_unitary(gates, k + 1)
        assert equal_up_to_phase(got, self._reference(angles, k), atol=1e-9)

    @pytest.mark.parametrize("k", range(5))
    def test_stacked_inversion_equals_each_table_alone(self, k):
        """A leading batch axis takes the same float operations per table, so
        each table's subset angles, zeros included, are bit-equal to its own."""
        rng = np.random.default_rng(k)
        tables = rng.uniform(-np.pi, np.pi, size=(5, 2**k))
        if k:  # table 1 ignores its last control: patterns p and p ^ 1 share an angle
            tables[1] = np.repeat(tables[1, ::2], 2)
        stacked = circuits._subset_angles(tables)
        for row, table in zip(stacked, tables):
            assert np.array_equal(row, circuits._subset_angles(table))
        assert not (k and stacked[1, 1::2].any())

    def test_cnot_costs(self):
        chain0 = controlled_ry_chain([0.4], [], 0)
        chain1 = controlled_ry_chain([0.3, 0.7], [0], 1)
        chain2 = controlled_ry_chain([0.0, 0.2, 0.0, 1.0], [0, 1], 2)
        count = lambda gs, n: compile_circuit(Circuit(n, tuple(gs), {})).cnot_count
        assert count(chain0, 1) == 0
        assert count(chain1, 2) == 2
        assert count(chain2, 3) == 14  # one single-control term (2 cx) + one pair (12 cx)

    def test_three_controls_rejected(self):
        with pytest.raises(CompileError):
            controlled_ry_chain([0.0] * 7 + [1.0], [0, 1, 2], 3)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_mry_lowering_matches_its_matrix(self, k):
        angles = np.random.default_rng(k).uniform(-np.pi, np.pi, size=2**k)
        g = gate("mry", *range(k + 1), params=angles)
        compiled = compile_circuit(Circuit(k + 1, (g,), {}))
        dense = circuit_unitary([g], k + 1)
        np.testing.assert_allclose(dense, self._reference(angles, k), atol=1e-12)
        assert {c.kind for c in compiled.gates} <= {"ry", "rz", "h", "cnot"}
        got = circuit_unitary(compiled.gates, k + 1)
        assert equal_up_to_phase(got, dense, atol=1e-9)

    def test_mry_three_controls_rejected_at_compile(self):
        g = gate("mry", 0, 1, 2, 3, params=[0.0] * 7 + [1.0])
        with pytest.raises(CompileError, match="at most two control"):
            compile_circuit(Circuit(4, (g,), {}))

    def test_additive_table_on_three_controls_lowers_through_its_singletons(self):
        """Angles 0.1 x are additive in the bits of x, so every subset of two
        or three controls has angle zero: three controlled Ry, 6 CNOTs."""
        g = gate("mry", 0, 1, 2, 3, params=[0.1 * i for i in range(8)])
        compiled = compile_circuit(Circuit(4, (g,), {}))
        assert compiled.cnot_count == circuits.cnot_count(Circuit(4, (g,), {})) == 6
        dense = circuit_unitary([g], 4)
        np.testing.assert_allclose(dense, self._reference(g.params, 3), atol=1e-12)
        assert equal_up_to_phase(circuit_unitary(compiled.gates, 4), dense, atol=1e-9)

    @pytest.mark.parametrize("ignored", [(0, 1), (0, 2), (1, 3), (2, 3), (0, 1, 3), (0, 1, 2, 3)])
    def test_controls_the_angles_ignore_are_dropped(self, ignored):
        """Angles equal across each ignored control lower exactly as the same
        angles on the remaining controls: the same gates."""
        rng = np.random.default_rng(len(ignored) + sum(ignored))
        kept = [q for q in range(4) if q not in ignored]
        table = rng.uniform(-np.pi, np.pi, 2 ** len(kept))
        shape = [1 if q in ignored else 2 for q in range(4)]
        wide = np.broadcast_to(table.reshape(shape), (2,) * 4).reshape(-1)
        assert controlled_ry_chain(wide, range(4), 4) == controlled_ry_chain(table, kept, 4)

    def test_mry_needs_one_angle_per_pattern(self):
        with pytest.raises(ValidationError):
            gate("mry", 0, 1, params=(0.1,))

    def test_mry_adjoint_negates_angles(self):
        g = gate("mry", 0, 1, params=(0.3, -1.1))
        (inv,) = adjoint([g])
        assert inv.params == (-0.3, 1.1)
        np.testing.assert_allclose(
            circuit_unitary([inv], 2), circuit_unitary([g], 2).conj().T, atol=1e-12
        )


# every kind of the table, so none can be left out
_KINDS = list(circuits._KINDS)


def _random_powers(rng, c):
    """The 2^c powers U^0 .. U^(2^c - 1) of a random 2x2 unitary U."""
    u = _random_unitary(rng)
    return np.stack([np.linalg.matrix_power(u, x) for x in range(2**c)])


def _random_gate(rng, kind, n):
    """A random gate of ``kind`` on random wires of n, in a shape
    compile_circuit lowers: one target for an explicit matrix; for an mry,
    at most two controls, or one to four whose angles ignore a random set
    of them and depend on at most two; a qft on one to three wires in random
    order, and the powers of a random unitary on one to three controls, each
    of either sign."""
    spec = circuits._KINDS[kind]
    wires = [int(q) for q in rng.permutation(n)]
    sign = (int(rng.choice((-1, 1))),)
    if kind == "qft":
        k = int(rng.integers(1, min(3, n) + 1))
        return gate(kind, *wires[:k], params=sign)
    if kind == "cunitary":
        c = int(rng.integers(1, min(3, n - 1) + 1))
        return gate(kind, *wires[: c + 1], params=sign, matrix=_random_powers(rng, c))
    if spec.controls is not None:
        return gate(kind, *wires[: spec.controls + 1], matrix=_random_unitary(rng))
    if spec.params is None and rng.integers(2):
        k = int(rng.integers(min(2, n - 1) + 1))
        return gate(kind, *wires[: k + 1], params=rng.uniform(-np.pi, np.pi, 2**k))
    if spec.params is None:  # 1-4 controls, the angles ignoring all but at most two
        k = int(rng.integers(1, min(4, n - 1) + 1))
        kept = rng.permutation(k)[: rng.integers(min(2, k) + 1)]
        table = rng.uniform(-np.pi, np.pi, [2 if i in kept else 1 for i in range(k)])
        angles = np.broadcast_to(table, (2,) * k).reshape(-1)
        return gate(kind, *wires[: k + 1], params=angles)
    return gate(kind, *wires[: spec.qubits], params=rng.uniform(-np.pi, np.pi, spec.params))


def _random_circuit(rng, n, length):
    return [_random_gate(rng, _KINDS[rng.integers(len(_KINDS))], n) for _ in range(length)]


@pytest.mark.parametrize("kind", _KINDS)
def test_kind_record_agrees_with_itself(kind):
    """Each record's matrix, adjoint, lowering and CNOT count agree. A
    multiplexed kind's matrix is the stack of its blocks, each unitary."""
    rng = np.random.default_rng(_KINDS.index(kind))
    spec = circuits._KINDS[kind]
    assert (spec.lower is None) == circuits.is_basis(kind) == (spec.qasm is not None)
    for _ in range(10):
        g = _random_gate(rng, kind, 3)
        m = gate_matrix(g)
        blocks = m.reshape(-1, m.shape[-1], m.shape[-1])
        assert len(blocks) * m.shape[-1] == 2 ** len(g.qubits)
        np.testing.assert_allclose(blocks @ blocks.conj().swapaxes(1, 2),
                                   np.broadcast_to(np.eye(m.shape[-1]), blocks.shape), atol=1e-12)
        (inverse,) = adjoint([g])
        np.testing.assert_allclose(gate_matrix(inverse), m.conj().swapaxes(-1, -2), atol=1e-12)
        lowered = circuits._lower(g)
        assert all(circuits.is_basis(b.kind) for b in lowered)
        assert equal_up_to_phase(circuit_unitary(lowered, 3), circuit_unitary([g], 3), atol=1e-9)
        emitted = sum(1 for b in lowered if b.kind == "cnot")
        assert circuits.cnot_count(Circuit(3, (g,))) == emitted


def test_every_kind_is_reached():
    """The circuit families the package builds, source and compiled, use
    every kind of the table and nothing else: original and reduced HHL at
    n = 1..4 and the QPEA, each with the swap layer relabeled and physical,
    and a d = 4 problem's preparation of b."""
    problem, built = build_a_lambda(0.25), []
    for swap in (False, True):
        for n in (1, 2, 3, 4):
            full = solvers.build_aqe(problem, n)
            specs = [full]
            estimate = solvers.estimate_from_spectral(problem, n)
            if estimate.reducible:
                specs.append(solvers.synthesize_reduced_aqe(estimate, full.c))
            built += solvers.build_hhl_circuit(problem, n, specs, physical_swap=swap)
        built.append(qpe.build_qpe(problem, 2, physical_swap=swap))
    built.append(Circuit(2, tuple(qpe.prepare_b(random_problem(4, d=4), (0, 1)))))
    seen = set()
    for circuit in built:
        seen.update(g.kind for g in circuit.gates)
        try:
            seen.update(g.kind for g in compile_circuit(circuit).gates)
        except CompileError:
            pass
    assert seen == set(circuits._KINDS)
    assert set(circuits._KINDS) == {"h", "ry", "rz", "cnot", "unitary", "cunitary", "mry", "qft"}


class TestMeasured:
    """The qubits a circuit reads out after its last gate."""

    def test_repeated_qubit_rejected(self):
        with pytest.raises(DomainError, match="qubit 0 is measured more than once"):
            Circuit(2, (gate("h", 0),), {}, (0, 1, 0))

    def test_out_of_range_qubit_rejected(self):
        for q in (2, -1):
            with pytest.raises(DomainError, match=f"measured qubit {q} lies outside 0..1"):
                Circuit(2, (gate("h", 0),), {}, (1, q))

    def test_hhl_circuit_measures_ancilla_then_register(self):
        problem = build_a_lambda(0.25)
        for n in (1, 2, 3):
            circuit = solvers.build_hhl_circuit(problem, n, solvers.build_aqe(problem, n))
            assert circuit.measured == tuple(range(n + 1))

    @pytest.mark.parametrize("physical_swap", [False, True])
    def test_qpe_circuit_measures_its_relabeled_register(self, physical_swap):
        circuit = qpe.build_qpe(build_a_lambda(0.3), 3, physical_swap=physical_swap)
        assert circuit.measured == circuit.roles["register"]
        assert circuit.measured == ((0, 1, 2) if physical_swap else (2, 1, 0))

    def test_compile_keeps_measured(self):
        source = qpe.build_qpe(build_a_lambda(0.25), 2)
        assert compile_circuit(source).measured == source.measured == (1, 0)


class TestCompile:
    def test_compiled_circuit_is_a_checked_circuit(self):
        """A compiled circuit is a Circuit, so its qubit range is checked too."""
        qft = gate("qft", 0, 1, params=(1,))
        compiled = compile_circuit(Circuit(2, (qft,), {"c": (1,)}, (1,)))
        assert type(compiled) is Circuit
        assert compiled.roles == {"c": (1,)} and compiled.cnot_count == 2
        assert compiled.measured == (1,)
        with pytest.raises(DomainError, match="outside"):
            replace(compiled, num_qubits=1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9), st.integers(2, 4), st.integers(1, 40))
    def test_compiled_unitary_equivalent(self, seed, n, length):
        rng = np.random.default_rng(seed)
        gates = _random_circuit(rng, n, length)
        compiled = compile_circuit(Circuit(n, tuple(gates), {}))
        assert all(circuits.is_basis(g.kind) for g in compiled.gates)
        u_src = circuit_unitary(gates, n)
        u_cmp = circuit_unitary([g for g in compiled.gates], n)
        assert equal_up_to_phase(u_cmp, u_src, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_simplify_never_increases_cnots(self, seed):
        rng = np.random.default_rng(seed)
        gates = _random_circuit(rng, 3, 30)
        lowered = []
        for g in gates:
            lowered.extend(circuits._lower(g))
        before = sum(1 for g in lowered if g.kind == "cnot")
        after = sum(1 for g in simplify(lowered) if g.kind == "cnot")
        assert after <= before

    def test_adjoint_inverts(self):
        rng = np.random.default_rng(8)
        gates = _random_circuit(rng, 3, 20)
        u = circuit_unitary(gates + adjoint(gates), 3)
        assert equal_up_to_phase(u, np.eye(8), atol=1e-9)

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_cunitary_lowers_to_its_controlled_powers(self, sign):
        """A cunitary gate lowers to the ABC construction of block 2^(c-1-i)
        on control i, in control order for s = +1 and reversed for s = -1;
        its adjoint lowers to the daggered blocks in the opposite order."""
        g = gate("cunitary", 3, 0, 2, 1, params=(sign,),
                 matrix=_random_powers(np.random.default_rng(sign + 5), 3))
        order = [0, 1, 2] if sign > 0 else [2, 1, 0]

        def controlled_powers(stack, order):
            return [b for i in order
                    for b in _controlled(stack[2 ** (2 - i)], g.qubits[i], 1)]

        assert circuits._lower(g) == controlled_powers(g.matrix, order)
        (inverse,) = adjoint([g])
        assert inverse.params == (-sign,)
        daggers = g.matrix.conj().swapaxes(1, 2)
        assert circuits._lower(inverse) == controlled_powers(daggers, order[::-1])

    def test_cunitary_takes_one_zyz_call(self, monkeypatch):
        """The QPEA's controlled powers at n = 4 lower from one stacked
        decomposition of their four blocks, not one call per block."""
        calls, zyz = [], circuits.zyz_angles
        monkeypatch.setattr(circuits, "zyz_angles", lambda u: calls.append(np.shape(u)) or zyz(u))
        compile_circuit(qpe.build_qpe(build_a_lambda(0.3), 4))
        assert calls == [(4, 2, 2)]

    def test_multi_qubit_unitary_rejected(self):
        circ = Circuit(2, (gate("unitary", 0, 1, matrix=np.eye(4)),), {})
        with pytest.raises(CompileError):
            compile_circuit(circ)


def _random_d2_problem(rng):
    """A random 2x2 Hermitian problem, spectrum inside (0.05, 0.95), random b."""
    v = _random_unitary(rng)
    a = (v * rng.uniform(0.05, 0.95, size=2)) @ v.conj().T
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    return HermitianProblem((a + a.conj().T) / 2, b / np.linalg.norm(b))


def _paper_corpus():
    """Original and reduced HHL circuits at lambda = j/32 and on 40 random
    d = 2 problems for n = 1..3, QPEA for n = 1..4, each with the swap layer
    relabeled and physical."""
    rng = np.random.default_rng(8)
    problems = [build_a_lambda(j / 32) for j in range(1, 32)]
    problems += [_random_d2_problem(rng) for _ in range(40)]
    for problem in problems:
        for swap in (False, True):
            for n in (1, 2, 3):
                full = solvers.build_aqe(problem, n)
                specs = [full]
                estimate = solvers.estimate_from_spectral(problem, n)
                if estimate.reducible:
                    specs.append(solvers.synthesize_reduced_aqe(estimate, full.c))
                for spec in specs:
                    yield solvers.build_hhl_circuit(problem, n, spec, physical_swap=swap)
            for n in (1, 2, 3, 4):
                yield qpe.build_qpe(problem, n, physical_swap=swap)


class TestCnotCount:
    """cnot_count counts without compiling what compile_circuit emits."""

    def test_equals_compiled_count_on_paper_corpus(self):
        lowered = failed = 0
        for circuit in _paper_corpus():
            try:
                compiled = compile_circuit(circuit)
            except CompileError:
                with pytest.raises(CompileError):
                    circuits.cnot_count(circuit)
                failed += 1
                continue
            emitted = sum(1 for g in compiled.gates if g.kind == "cnot")
            assert circuits.cnot_count(circuit) == emitted == compiled.cnot_count
            lowered += 1
        assert lowered > 500 and failed > 100

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_equals_compiled_count_on_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        circuit = Circuit(4, tuple(_random_circuit(rng, 4, 30)), {})
        emitted = sum(1 for g in compile_circuit(circuit).gates if g.kind == "cnot")
        assert circuits.cnot_count(circuit) == emitted

    def test_zero_angle_subsets_cost_nothing(self):
        # pattern angles (0, a, 0, a): only the subset of the second control is non-zero
        g = gate("mry", 0, 1, 2, params=(0.0, 0.4, 0.0, 0.4))
        assert circuits.cnot_count(Circuit(3, (g,), {})) == 2

    @pytest.mark.parametrize(
        "g",
        [
            gate("mry", 0, 1, 2, 3, params=[0.0] * 7 + [1.0]),
            gate("unitary", 0, 1, matrix=np.eye(4)),
            gate("cunitary", 0, 1, 2, params=(1,), matrix=[np.eye(4)] * 2),
        ],
        ids=["mry-3-controls", "unitary-2-qubits", "cunitary-2-targets"],
    )
    def test_raises_where_lowering_does(self, g):
        circuit = Circuit(4, (gate("h", 0), g), {})
        with pytest.raises(CompileError) as counted:
            circuits.cnot_count(circuit)
        with pytest.raises(CompileError) as compiled:
            compile_circuit(circuit)
        assert str(counted.value) == str(compiled.value)


def _any_gate(rng, n):
    """One random gate: a _random_circuit kind, an explicit matrix on one or
    two qubits, or an mry with 0-3 controls."""
    kind = str(rng.choice(["basic", "unitary", "cunitary", "mry"]))
    if kind == "basic":
        return _random_circuit(rng, n, 1)[0]
    wires = [int(q) for q in rng.permutation(n)]
    if kind == "unitary":
        k = int(rng.integers(1, 3))
        return gate(kind, *wires[:k], matrix=_random_unitary(rng, 2**k))
    if kind == "cunitary":
        return gate(kind, *wires[:2], params=(1,), matrix=_random_powers(rng, 1))
    k = int(rng.integers(0, 4))
    return gate(kind, *wires[: k + 1], params=rng.uniform(-np.pi, np.pi, 2**k))


class TestValidateOnce:
    """Gates are checked when gate() makes them, and not again."""

    def _count_checks(self, monkeypatch):
        calls = []
        check = qstate._check_unitary
        monkeypatch.setattr(
            qstate, "_check_unitary", lambda *a, **k: calls.append(1) or check(*a, **k)
        )
        return calls

    def test_only_gate_construction_checks(self, monkeypatch):
        rng = np.random.default_rng(12)
        calls = self._count_checks(monkeypatch)
        u = gate("unitary", 1, matrix=_random_unitary(rng, 2))
        cu = gate("cunitary", 0, 1, params=(1,), matrix=[np.eye(2), _random_unitary(rng, 2)])
        assert len(calls) == 2
        gates = [u, gate("rz", 0, params=(0.4,)), cu]
        inverse = adjoint(gates)
        compile_circuit(Circuit(2, tuple(gates + inverse), {}))
        run_noisy(Circuit(2, tuple(gates + inverse), {}))
        assert len(calls) == 2
        assert not inverse[0].matrix.flags.writeable

    def test_lowerings_build_what_gate_would(self, monkeypatch):
        # the noisy benchmark's solves: original at n = 2, hybrid from n = 2, 3, 4
        compile_, emitted = circuits.compile_circuit, []
        monkeypatch.setattr(
            circuits, "compile_circuit", lambda c: emitted.append(compile_(c)) or emitted[-1]
        )
        for j in range(1, 32):
            problem = build_a_lambda(j / 32)
            solvers.run_original_hhl(problem, 2, noise=NoiseParams())
            for n in (2, 3, 4):
                try:
                    solvers.run_hybrid_hhl(problem, n, noise=NoiseParams())
                except HhlError:  # a verdict, as in the benchmark
                    pass
        lowered = [g for c in emitted for g in c.gates]
        assert len(emitted) > 150 and len(lowered) > 10000
        for g in lowered:
            assert g == gate(g.kind, *g.qubits, params=g.params)

    def test_random_gates_keep_the_norm(self):
        rng = np.random.default_rng(2024)
        state = qstate.basis_state(4, 0)
        worst = 0.0
        for _ in range(400):
            state = run_noisy(Circuit(4, (_any_gate(rng, 4),), {}), initial=state)
            worst = max(worst, abs(np.linalg.norm(state.amplitudes) - 1.0))
        assert worst <= 1e-12

    def test_decompositions_still_need_a_2x2_matrix(self):
        with pytest.raises(DomainError):
            zyz_angles(np.eye(4))


class TestQasm:
    def test_single_cnot(self):
        circ = Circuit(2, (gate("cnot", 0, 1),), {})
        text = emit_qasm(compile_circuit(circ))
        assert text.count("cx q[0],q[1];") == 1
        assert text.startswith("OPENQASM 2.0;")

    def test_deterministic(self):
        circ = Circuit(2, (gate("ry", 0, params=(0.123456789,)), gate("cnot", 0, 1)), {})
        assert emit_qasm(compile_circuit(circ)) == emit_qasm(compile_circuit(circ))

    def test_measures_serialized(self):
        circ = Circuit(2, (gate("h", 0),), {"register": (0, 1)}, (1, 0))
        text = emit_qasm(compile_circuit(circ))
        assert "creg register[2];" in text
        assert text.endswith("measure q[1] -> register[0];\nmeasure q[0] -> register[1];\n")
