"""Amplitude-damping channel and noisy circuit execution."""

import json
import tracemalloc
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhlsim import circuits, qpe, qstate, solvers
from hhlsim import noise as noise_mod
from hhlsim.circuits import Circuit, compile_circuit, gate
from hhlsim.errors import CompileError, DomainError, ValidationError
from hhlsim.noise import (
    NoiseParams,
    damping_channel,
    readout_distribution,
    run_noisy,
    survival_bound,
)
from hhlsim.problem import HermitianProblem, build_a_lambda, classical_solution
from hhlsim.qstate import DensityMatrix, StateVector, basis_state

from problem_helpers import circuit_unitary


class TestNoiseParams:
    def test_defaults(self):
        p = NoiseParams()
        assert p.t1_ns == 50000
        assert p.cnot_ns == 200
        assert p.rz_ns == 0
        assert p.single_ns == 60
        assert p.readout_flip == 0.0
        assert p.idle_damping

    def test_duration(self):
        p = NoiseParams(cnot_ns=200.0, rz_ns=5.0, single_ns=60.0)
        gates = (gate("cnot", 0, 1), gate("h", 0), gate("rz", 1, params=(0.3,)))
        assert [p.durations()[g.kind] for g in gates] == [200.0, 60.0, 5.0]
        compiled = compile_circuit(Circuit(2, gates, {}))
        assert compiled.cnot_count == 1
        durations = NoiseParams().durations()
        assert sum(durations[g.kind] for g in compiled.gates) == pytest.approx(260.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            NoiseParams(t1_ns=0)
        with pytest.raises(ValidationError):
            NoiseParams(readout_flip=0.7)

    @pytest.mark.parametrize(
        "value",
        [float("nan"), -1.0],
        ids=["nan", "negative"],
    )
    def test_rejects_bad_t1(self, value):
        with pytest.raises(ValidationError):
            NoiseParams(t1_ns=value)

    @pytest.mark.parametrize("field", ["cnot_ns", "rz_ns", "single_ns"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_duration(self, field, value):
        with pytest.raises(ValidationError):
            NoiseParams(**{field: value})

    @pytest.mark.parametrize(
        "spec",
        [[1], {"t1_ns": None}, {"t1_ns": "5"}, {"cnot_ns": True},
         {"idle_damping": "false"}, {"idle_damping": 0}, {"t1": 10}],
        ids=["list", "null", "string", "bool-number", "string-bool", "int-bool", "unknown-key"],
    )
    def test_from_dict_rejects_malformed(self, spec):
        with pytest.raises(ValidationError):
            NoiseParams.from_dict(spec)

    def test_from_dict_defaults_and_types(self):
        assert NoiseParams.from_dict({}) == NoiseParams()
        p = NoiseParams.from_dict({"t1_ns": 30000, "idle_damping": False})
        assert p.t1_ns == 30000.0 and isinstance(p.t1_ns, float)
        assert p.idle_damping is False

    def test_json_roundtrip(self, tmp_path):
        p = NoiseParams(t1_ns=30000, readout_flip=0.01)
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(asdict(p)))
        q = NoiseParams.load(path)
        assert q == p


def _random_rho(n, rng):
    z = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = z @ z.conj().T
    return rho / np.trace(rho)


def _kraus_damp(rho, n, qubit, t, t1):
    """Explicit Kraus sum K0 rho K0^+ + K1 rho K1^+ with full-size operators."""
    gamma = 1.0 - np.exp(-t / t1)
    out = np.zeros_like(rho)
    for k in (
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]]),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
    ):
        big = np.kron(np.kron(np.eye(2**qubit), k), np.eye(2 ** (n - qubit - 1)))
        out = out + big @ rho @ big.conj().T
    return out


def _eager_run(compiled, noise, rho):
    """Reference executor: after every timed gate, damp each aged qubit at once."""
    n, durations = compiled.num_qubits, noise.durations()
    for g in compiled.gates:
        u = circuit_unitary([g], n)
        rho = u @ rho @ u.conj().T
        dt = durations[g.kind]
        if dt > 0:
            for q in range(n) if noise.idle_damping else g.qubits:
                rho = _kraus_damp(rho, n, q, dt, noise.t1_ns)
    targets = list(compiled.measured) or list(range(n))
    k = len(targets)
    true = np.zeros(2**k)
    for i, p in enumerate(np.real(np.diag(rho))):
        bits = format(i, f"0{n}b")
        true[int("".join(bits[q] for q in targets), 2)] += p
    true = true / true.sum()
    f = noise.readout_flip
    seen = np.zeros(2**k)
    for x in range(2**k):
        for y in range(2**k):
            flips = bin(x ^ y).count("1")
            seen[y] += true[x] * f**flips * (1 - f) ** (k - flips)
    return rho, {format(y, f"0{k}b"): p for y, p in enumerate(seen)}


_BASIS = [kind for kind in circuits._KINDS if circuits.is_basis(kind)]


def _random_compiled(n, rng, num_gates=40):
    """Random circuit over every basis kind (rz of zero duration) that reads
    out a random subset of its qubits in random order."""
    gates = []
    for _ in range(num_gates):
        kind = _BASIS[rng.integers(len(_BASIS))]
        spec = circuits._KINDS[kind]
        qubits = (int(q) for q in rng.choice(n, size=spec.qubits, replace=False))
        gates.append(gate(kind, *qubits, params=rng.uniform(-np.pi, np.pi, spec.params)))
    measured = rng.permutation(n)[: rng.integers(1, n + 1)]
    return Circuit(n, tuple(gates), {}, tuple(int(q) for q in measured))


def _lazy_order_circuit(n, rng, cnots):
    """Random basis gates on n qubits, CNOTs (none without ``cnots``) never
    on the last qubit, which gets an h. With CNOTs it ends in cnot(0, 1), a
    gate on 0, cnot(1, 2), a gate on 0: qubit 0's last gates follow its last
    block, whose other qubit goes on into a later one."""
    kinds = [kind for kind in _BASIS if cnots or kind != "cnot"]
    gates = []
    for _ in range(20):
        kind = kinds[rng.integers(len(kinds))]
        spec = circuits._KINDS[kind]
        wires = n - 1 if kind == "cnot" else n
        qubits = (int(q) for q in rng.choice(wires, size=spec.qubits, replace=False))
        gates.append(gate(kind, *qubits, params=rng.uniform(-np.pi, np.pi, spec.params)))
    gates.append(gate("h", n - 1))
    if cnots:
        gates += [gate("cnot", 0, 1), gate("ry", 0, params=(0.8,))]
        gates += [gate("cnot", 1, 2), gate("h", 0)]
    return Circuit(n, tuple(gates))


class TestDampingChannel:
    def test_zero_time_is_identity(self):
        rho = basis_state(1, 1).to_density_matrix()
        out = damping_channel(rho, 0, 0.0, 50000.0)
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-14)

    def test_decay_law_at_t1(self):
        rho = basis_state(1, 1).to_density_matrix()
        out = damping_channel(rho, 0, 50000.0, 50000.0)
        assert np.real(out.entries[1, 1]) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_plus_state_fully_relaxes(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = damping_channel(DensityMatrix(1, plus), 0, 1e12, 50.0)
        np.testing.assert_allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-10)

    def test_trace_preserved(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = z @ z.conj().T
        rho = rho / np.trace(rho)
        out = damping_channel(DensityMatrix(2, rho), 1, 137.0, 50000.0)
        assert np.real(np.trace(out.entries)) == pytest.approx(1.0, abs=1e-12)


    def test_result_is_read_only(self):
        rho = DensityMatrix(3, _random_rho(3, np.random.default_rng(1)))
        out = damping_channel(rho, 1, 700.0, 5000.0)
        assert isinstance(out, DensityMatrix) and out.num_qubits == 3
        assert not out.entries.flags.writeable
        assert not np.shares_memory(out.entries, rho.entries)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_closed_form_equals_kraus_sum(self, qubit):
        rho = _random_rho(3, np.random.default_rng(qubit))
        out = damping_channel(DensityMatrix(3, rho), qubit, 7000.0, 50000.0)
        want = _kraus_damp(rho, 3, qubit, 7000.0, 50000.0)
        np.testing.assert_allclose(out.entries, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_keeps_the_held_form(self, qubit):
        """A state held as its entries decays as entries and one held as its
        coefficients as coefficients: neither converts, and both give the
        Kraus sum."""
        rho = _random_rho(3, np.random.default_rng(20 + qubit))
        want = _kraus_damp(rho, 3, qubit, 7000.0, 50000.0)
        made = damping_channel(DensityMatrix(3, rho), qubit, 7000.0, 50000.0)
        held = DensityMatrix._from_pauli(3, qstate.to_pauli(rho[None])[0])
        run = damping_channel(held, qubit, 7000.0, 50000.0)
        assert made._pauli is None and run._entries is None
        np.testing.assert_allclose(run.entries, want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(made.entries, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("qubit", [0, 1, 2])
    def test_durations_compose(self, qubit):
        rho = DensityMatrix(3, _random_rho(3, np.random.default_rng(10 + qubit)))
        two_steps = damping_channel(damping_channel(rho, qubit, 900.0, 5000.0), qubit, 2300.0, 5000.0)
        one_step = damping_channel(rho, qubit, 3200.0, 5000.0)
        np.testing.assert_allclose(two_steps.entries, one_step.entries, rtol=0, atol=1e-13)


# one qubit's Paulis by their index ("Z or Y", "X or Y"): I, X, Z, Y
_PAULIS = [np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1]), np.array([[0, -1j], [1j, 0]])]


def _ptm_of(superoperator):
    """T S T^-1: a superoperator over one qubit's (row bit, column bit) in
    the Pauli basis, with T the (rho entries -> Tr(rho P)) matrix."""
    t = qstate._TO_PAULI
    out = t @ superoperator @ np.linalg.inv(t)
    assert np.abs(out.imag).max() < 1e-15
    return out.real


class TestPauliTransferMatrices:
    """Every PTM the executor uses equals its definition from the one
    matrix of its gate, or from the damping's Kraus operators."""

    def test_one_qubit_kinds_match_their_matrices(self):
        rng = np.random.default_rng(12)
        gates = [gate(kind, 0, params=() if kind == "h" else (rng.uniform(-4 * np.pi, 4 * np.pi),))
                 for kind in rng.choice(["h", "ry", "rz"], 300)]
        got = noise_mod._ptms(gates)
        assert got.dtype == float and got.shape == (300, 4, 4)
        for g, ptm in zip(gates, got):
            u = circuits._KINDS[g.kind].matrix(g)
            np.testing.assert_allclose(ptm, _ptm_of(np.kron(u, u.conj())), rtol=0, atol=1e-15)
        assert {g.kind for g in gates} == set(noise_mod._ONE) == {
            kind for kind in _BASIS if circuits._KINDS[kind].qubits == 1
        }

    def test_damping_equals_kraus_sum(self):
        times = np.array([0.0, 13.0, 700.0, 5e4, 1e9])
        got = noise_mod._decay(times, 3000.0)
        for t, ptm in zip(times, got):
            gamma = 1.0 - np.exp(-t / 3000.0)
            kraus = (np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]]),
                     np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]))
            want = _ptm_of(sum(np.kron(k, k.conj()) for k in kraus))
            np.testing.assert_allclose(ptm, want, rtol=0, atol=1e-15)

    def test_cnot_ptms_are_pauli_traces(self):
        """Entry (i, j) of each CNOT PTM is Tr(P_i U P_j U^+) / 4, with the
        Paulis of the kernel's targets (a, b, a + n, b + n) as indices."""
        paulis = [np.kron(_PAULIS[2 * (k >> 3) + (k >> 1 & 1)], _PAULIS[2 * (k >> 2 & 1) + (k & 1)])
                  for k in range(16)]
        for ptm, pair in zip(noise_mod._CNOT_PTM, [(0, 1), (1, 0), ()]):
            u = circuit_unitary([gate("cnot", *pair)] if pair else [], 2)
            want = [[np.trace(p @ u @ r @ u.conj().T).real / 4 for r in paulis] for p in paulis]
            assert np.array_equal(ptm, want)

    def test_zero_state_in_closed_form(self):
        """A noisy run with nothing to do returns |0...0>: every Z string 1."""
        for noise in (NoiseParams(), NoiseParams(idle_damping=False)):
            rho = run_noisy(Circuit(3, ()), noise)
            want = qstate.to_pauli(basis_state(3, 0).to_density_matrix().entries[None])[0]
            assert np.array_equal(rho.pauli, want)


class TestDensityBudget:
    def test_only_the_density_matrix_run_is_refused(self):
        """A 12-qubit density matrix (256 MiB) is over the budget; the same
        circuit still runs on a statevector."""
        assert qstate.MAX_DENSITY_BYTES == 16 * 4**11
        circuit = compile_circuit(qpe.build_qpe(build_a_lambda(0.3), 11))
        # the executor names no flag: its caller may have passed no register
        message = "^a 12-qubit density matrix exceeds the limit of 64 MiB$"
        with pytest.raises(ValidationError, match=message):
            run_noisy(circuit, NoiseParams())
        assert run_noisy(circuit).num_qubits == 12

    @pytest.mark.parametrize("batch", [False, True], ids=["circuit", "list"])
    def test_a_single_run_does_not_keep_its_initial_rho(self, batch):
        """A run that makes its own density matrix holds at most three
        copies of its Pauli coefficients (a kernel call's input, transposed
        copy and product), not a fourth for the initial one, alone or in a
        list: the compiled QPEA at n = 8 peaks at 3.25 copies (a list of one
        kept its initial rho, 4.25), at n = 10 at 193.5 MiB against 257.5
        before, as complex entries (twice the bytes of the coefficients)."""
        circuit = compile_circuit(qpe.build_qpe(build_a_lambda(0.3), 8))
        tracemalloc.start()
        try:
            out = run_noisy([circuit] if batch else circuit, NoiseParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rho = out[0] if batch else out
        assert peak < 3.5 * rho.pauli.nbytes


class TestSurvivalBound:
    def test_fifty_cnots(self):
        assert survival_bound(50) == pytest.approx(0.8187, abs=1e-4)

    def test_zero(self):
        assert survival_bound(0) == 1.0

    def test_paper_circuit_sizes(self):
        assert survival_bound(28) == pytest.approx(0.894, abs=5e-4)
        assert survival_bound(14) == pytest.approx(0.946, abs=5e-4)


class TestRunNoisy:
    def test_zero_noise_matches_noiseless(self):
        problem = build_a_lambda(0.25)
        exact = solvers.run_original_hhl(problem, 2)
        zero = solvers.run_original_hhl(problem, 2, noise=NoiseParams(t1_ns=1e18))
        assert abs(zero.fidelity - exact.fidelity) < 1e-12
        assert abs(zero.success_probability - exact.success_probability) < 1e-12
        np.testing.assert_allclose(zero.rho_v.entries, exact.rho_v.entries, atol=1e-12)

    def test_fifty_cnot_survival(self):
        gates = tuple(gate("cnot", 0, 1) for _ in range(50))
        circ = Circuit(2, gates, {})
        compiled = compile_circuit(circ)
        initial = basis_state(2, 3).to_density_matrix()  # |11>
        rho = run_noisy(compiled, NoiseParams(), initial=initial)
        survived = np.real(rho.entries[3, 3])
        # the target qubit toggles, so compare the control qubit's excited mass
        control_excited = np.real(rho.entries[2, 2] + rho.entries[3, 3])
        assert control_excited == pytest.approx(np.exp(-0.2), abs=2e-2)

    def test_fidelity_decreases_with_depth(self):
        problem = build_a_lambda(0.25)
        zero = solvers.run_original_hhl(problem, 2)
        noisy = solvers.run_original_hhl(problem, 2, noise=NoiseParams())
        assert noisy.fidelity < zero.fidelity

    def test_refuses_uncompiled_gates(self):
        # a cunitary timed as one 60 ns single-qubit gate gave Pr(00) = 0.0349, not 0.0399
        source = qpe.build_qpe(build_a_lambda(0.3), 2)
        with pytest.raises(CompileError, match="'cunitary' has no duration: compile first"):
            run_noisy(source, NoiseParams())
        qft = gate("qft", 0, 1, params=(-1,))
        with pytest.raises(CompileError, match="'qft'"):
            run_noisy([Circuit(2, (gate("h", 0), qft))] * 2, NoiseParams())
        compiled = compile_circuit(source)
        hist = readout_distribution(run_noisy(compiled, NoiseParams()), compiled, NoiseParams())
        assert hist.outcomes == qpe.run_qpea(build_a_lambda(0.3), 2, noise=NoiseParams()).outcomes
        assert hist.outcomes["00"] == pytest.approx(0.0399, abs=5e-5)

    @pytest.mark.parametrize("noise", [None, NoiseParams()], ids=["exact", "noisy"])
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("density", [False, True], ids=["statevector", "density"])
    def test_initial_state_of_another_width_refused(self, monkeypatch, noise, width, density):
        """Refused before any kernel call, naming both widths: a wider state
        is not cut down to a slice of its rho, a narrower one raises no
        NumPy error."""
        circuit = Circuit(2, (gate("h", 0), gate("cnot", 0, 1)))
        initial = basis_state(width, 0)
        initial = initial.to_density_matrix() if density else initial
        monkeypatch.setattr(qstate, "apply_operator", lambda *a: pytest.fail("ran a gate"))
        message = rf"^a {width}-qubit initial state for a 2-qubit circuit$"
        for run in (circuit, [circuit, circuit]):
            with pytest.raises(DomainError, match=message):
                run_noisy(run, noise, initial=initial)

    def test_readout_flip_changes_histogram(self):
        circ = Circuit(1, (), {}, (0,))
        compiled = compile_circuit(circ)
        clean, flipped = (
            readout_distribution(run_noisy(compiled, noise), compiled, noise)
            for noise in (NoiseParams(), NoiseParams(readout_flip=0.1))
        )
        assert clean.outcomes["0"] == pytest.approx(1.0, abs=1e-12)
        assert flipped.outcomes["1"] == pytest.approx(0.1, abs=1e-12)


def _reparametrized(circuit, rng):
    """The same skeleton with fresh random angles on every rotation."""
    gates = tuple(
        replace(g, params=(rng.uniform(-np.pi, np.pi),)) if g.params else g for g in circuit.gates
    )
    return replace(circuit, gates=gates)


def _rewired(circuit, rng, positions):
    """The circuit with the gate at each of ``positions`` replaced by a
    random basis gate of another kind or on other qubits."""
    gates = list(circuit.gates)
    for i in positions:
        old = (gates[i].kind, gates[i].qubits)
        while (gates[i].kind, gates[i].qubits) == old:
            gates[i] = _random_compiled(circuit.num_qubits, rng, 1).gates[0]
    return replace(circuit, gates=tuple(gates))


class TestBatch:
    """Circuits of one width run as one batch, item by item as alone; on a
    statevector they run in one pass and must share one skeleton too."""

    def test_exact_batch_matches_single_runs(self):
        built = [
            solvers.build_hhl_circuit(p, 2, solvers.build_aqe(p, 2))
            for p in map(build_a_lambda, (0.1, 0.25, 0.3, 0.5, 0.77))
        ]
        batch = run_noisy(built)
        assert len(batch) == len(built)
        for circuit, state in zip(built, batch):
            np.testing.assert_allclose(
                state.amplitudes, run_noisy(circuit).amplitudes, rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("idle_damping", [True, False])
    def test_noisy_batch_matches_single_runs(self, idle_damping):
        rng = np.random.default_rng(31)
        base = _random_compiled(4, rng)
        items = [base] + [_reparametrized(base, rng) for _ in range(3)]
        items.append(replace(base, gates=base.gates[:-3]))  # a density matrix may differ in length
        noise = NoiseParams(t1_ns=3000.0, idle_damping=idle_damping)
        initial = DensityMatrix(4, _random_rho(4, rng))
        batch = run_noisy(items, noise, initial=initial)
        for circuit, rho in zip(items, batch):
            want = run_noisy(circuit, noise, initial=initial)
            np.testing.assert_allclose(rho.entries, want.entries, rtol=0, atol=1e-12)

    def test_equal_items_share_one_run(self):
        circuit = _random_compiled(3, np.random.default_rng(4))
        one, two = run_noisy([circuit, circuit], NoiseParams())
        np.testing.assert_array_equal(one.entries, two.entries)

    @pytest.mark.parametrize("noisy", [False, True], ids=["statevector", "density-matrix"])
    def test_batch_of_other_kinds_and_qubits_matches_single_runs(self, noisy):
        """Items that differ from the first in kind or qubits at some
        positions run one by one on a density matrix, each as alone; a
        statevector batch has one skeleton, so it refuses them."""
        rng = np.random.default_rng(41)
        base = _random_compiled(4, rng)
        items = [
            base,
            _rewired(base, rng, (0, 7, 39)),
            _reparametrized(base, rng),
            base,
            _rewired(_reparametrized(base, rng), rng, rng.choice(40, size=10, replace=False)),
        ]
        noise = NoiseParams(t1_ns=3000.0) if noisy else None
        if noisy:
            initial = DensityMatrix(4, _random_rho(4, rng))
        else:
            amplitudes = rng.normal(size=16) + 1j * rng.normal(size=16)
            initial = StateVector(4, amplitudes / np.linalg.norm(amplitudes))
            with pytest.raises(DomainError, match="differ in skeleton"):
                run_noisy(items, noise, initial=initial)
            return
        batch = run_noisy(items, noise, initial=initial)
        assert len(batch) == len(items)
        for circuit, state in zip(items, batch):
            want = run_noisy(circuit, noise, initial=initial)
            got, want = (
                (state.entries, want.entries) if noisy else (state.amplitudes, want.amplitudes)
            )
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_hhl_circuits_whose_mry_controls_differ(self):
        """Source circuits of two problems, a reduced encoding whose angles
        depend on two register bits and a full one on all four: both mry
        gates act on every register wire, so the circuits share a skeleton.
        Their QFTs are shared, and their unitary powers and mry gates stacked."""
        a, b = build_a_lambda(0.125), build_a_lambda(0.25)
        estimate = solvers.estimate_from_spectral(a, 4)
        reduced = solvers.synthesize_reduced_aqe(estimate, 1.0 / classical_solution(a)[1])
        assert len(reduced.free_positions) == 2
        built = [
            solvers.build_hhl_circuit(a, 4, reduced),
            solvers.build_hhl_circuit(b, 4, solvers.build_aqe(b, 4)),
        ]
        mry = [[g.qubits for g in c.gates if g.kind == "mry"] for c in built]
        assert mry[0] == mry[1] == [(*built[0].roles["register"][::-1], 0)]
        for circuit, state in zip(built, run_noisy(built)):
            np.testing.assert_allclose(
                state.amplitudes, run_noisy(circuit).amplitudes, rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize(
        "other",
        [
            (gate("h", 0), gate("ry", 1, params=(0.2,)), gate("h", 0)),  # longer
            (gate("ry", 0, params=(0.1,)), gate("ry", 1, params=(0.2,))),  # other kind
            (gate("h", 1), gate("ry", 1, params=(0.2,))),  # other qubit
        ],
        ids=["length", "kind", "qubits"],
    )
    def test_rejects_circuits_whose_skeletons_differ(self, other):
        """Only a statevector batch needs its gate positions to line up: the
        same kind on the same qubits at every position."""
        base = Circuit(2, (gate("h", 0), gate("ry", 1, params=(0.7,))), {})
        with pytest.raises(DomainError):
            run_noisy([base, Circuit(2, other, {})])

    def test_rejects_other_width_and_empty_batch(self):
        with pytest.raises(DomainError):
            run_noisy([Circuit(2, (gate("h", 0),), {}), Circuit(3, (gate("h", 0),), {})])
        with pytest.raises(DomainError):
            run_noisy([])


class TestLazyDamping:
    """Lazy damping must equal damping every qubit after every timed gate."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("idle_damping", [True, False])
    @pytest.mark.parametrize("readout_flip", [0.0, 0.07])
    def test_matches_eager_kraus_reference(self, seed, idle_damping, readout_flip):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 3
        compiled = _random_compiled(n, rng)
        noise = NoiseParams(t1_ns=3000.0, readout_flip=readout_flip, idle_damping=idle_damping)
        initial = _random_rho(n, rng)
        rho = run_noisy(compiled, noise, initial=DensityMatrix(n, initial))
        hist = readout_distribution(rho, compiled, noise)
        want_rho, want_probs = _eager_run(compiled, noise, initial)
        np.testing.assert_allclose(rho.entries, want_rho, rtol=0, atol=1e-12)
        assert hist.shots is None
        assert set(hist.outcomes) == set(want_probs)
        for key, p in want_probs.items():
            assert hist.outcomes[key] == pytest.approx(p, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_mixed_initial_states(self, n, seed):
        """Run from a random mixed state, converted to its coefficients
        once, the run and its readout equal the eager reference at 1e-12."""
        rng = np.random.default_rng(100 * n + seed)
        compiled = _random_compiled(n, rng, num_gates=30)
        noise = NoiseParams(t1_ns=rng.uniform(500.0, 5000.0), readout_flip=0.03,
                            idle_damping=bool(seed % 2))
        initial = _random_rho(n, rng)
        rho = run_noisy(compiled, noise, initial=DensityMatrix(n, initial))
        want_rho, want_probs = _eager_run(compiled, noise, initial)
        np.testing.assert_allclose(rho.entries, want_rho, rtol=0, atol=1e-12)
        hist = readout_distribution(rho, compiled, noise)
        for key, p in want_probs.items():
            assert hist.outcomes[key] == pytest.approx(p, abs=1e-12)

    def test_idle_damping_off_spares_untouched_qubits(self):
        flip = (np.pi,)  # ry(pi) takes |0> to |1>
        gates = (gate("ry", 0, params=flip), gate("ry", 1, params=flip), gate("h", 0))
        compiled = Circuit(2, gates)
        rho = run_noisy(compiled, NoiseParams(t1_ns=100.0, idle_damping=False))
        # qubit 1 aged only during its own ry gate: excited population e^{-60/100}
        excited = np.real(rho.entries[1, 1] + rho.entries[3, 3])
        assert excited == pytest.approx(np.exp(-0.6), abs=1e-12)


def _hhl_compiled(n):
    """A compiled HHL circuit: the original at n = 2; at n = 4 the hybrid's
    reduced encoding, whose two free bits make an mry on two controls."""
    problem = build_a_lambda(0.125 if n == 4 else 0.25)
    if n == 4:
        estimate = solvers.estimate_from_spectral(problem, n)
        spec = solvers.synthesize_reduced_aqe(estimate, 1.0 / classical_solution(problem)[1])
    else:
        spec = solvers.build_aqe(problem, n)
    return compile_circuit(solvers.build_hhl_circuit(problem, n, spec))


def _cnot_blocks(gates):
    """CNOT blocks counted from the gate list alone: a CNOT continues a block
    when one gate was the last 2-qubit gate on both of its qubits."""
    last, blocks = {}, 0
    for i, g in enumerate(gates):
        if g.kind == "cnot":
            a, b = g.qubits
            blocks += last.get(a) is None or last.get(a) != last.get(b)
            last[a] = last[b] = i
    return blocks


def _count_kernel_calls(monkeypatch):
    """The targets of each call of the density-matrix kernel, in call order."""
    kernel, calls = qstate.apply_operator, []
    monkeypatch.setattr(qstate, "apply_operator", lambda *a: calls.append(a[2]) or kernel(*a))
    return calls


class TestFusedExecutor:
    """A density-matrix run takes one kernel call per CNOT block, each
    qubit's last gates and decays joined to its last block, and one per
    qubit that owes a superoperator but meets no CNOT."""

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("idle_damping", [True, False])
    def test_one_kernel_call_per_cnot_block(self, monkeypatch, n, idle_damping):
        compiled, blocks = _hhl_compiled(n), {2: 17, 4: 31}[n]
        calls = _count_kernel_calls(monkeypatch)
        run_noisy(compiled, NoiseParams(idle_damping=idle_damping))
        assert _cnot_blocks(compiled.gates) == blocks < compiled.cnot_count
        # with idle damping every qubit owes decay at the end, else only the touched ones
        touched = {q for g in compiled.gates for q in g.qubits}
        paired = {q for g in compiled.gates if g.kind == "cnot" for q in g.qubits}
        lone = (set(range(compiled.num_qubits)) if idle_damping else touched) - paired
        assert len(calls) == blocks + len(lone)
        assert sum(len(t) == 4 for t in calls) == blocks
        if n == 2:
            assert len(calls) == 17

    def test_one_qubit_matrices_stacked_per_kind(self, monkeypatch):
        """A density run makes the PTMs of its 1-qubit gates as one stack,
        in a fixed number of calls, none through gate_matrix."""
        compiled = compile_circuit(qpe.build_qpe(build_a_lambda(0.3), 4))
        calls, stacks = [], noise_mod._ptms
        for module in (circuits, noise_mod):
            monkeypatch.setattr(module, "gate_matrix", lambda g: calls.append(g))
        monkeypatch.setattr(noise_mod, "_ptms", lambda gates: calls.append(len(gates))
                            or stacks(gates))
        run_noisy(compiled, NoiseParams())
        assert calls == [sum(len(g.qubits) == 1 for g in compiled.gates)] and calls[0] > 0

    def test_cnot_steps_are_a_gather(self):
        """Joining two chains to a CNOT moves entries of their Kronecker
        product and flips some signs, as the CNOT's PTM is a signed
        permutation, so the signed gather equals the product with the PTM bit
        for bit, for either direction and for no CNOT."""
        ptm = noise_mod._CNOT_PTM
        assert set(np.unique(ptm)) == {-1.0, 0.0, 1.0}
        assert (np.abs(ptm).sum(-1) == 1).all() and (np.abs(ptm).sum(-2) == 1).all()
        rng = np.random.default_rng(31)
        chains = rng.normal(size=(24, 2, 4, 4))
        flips = [0, 1, 2] * 8
        pair = noise_mod._PAIR
        kron = np.einsum("bij,bkl->bikjl", chains[:, 0], chains[:, 1]).reshape(24, 16, 16)
        want = ptm[flips] @ kron[:, pair[:, None], pair]
        outer = chains[:, 0].reshape(24, 16, 1) * chains[:, 1].reshape(24, 1, 16)
        got = np.take_along_axis(outer.reshape(24, 256), noise_mod._STEP[flips], axis=1)
        assert np.array_equal((got * noise_mod._SIGN[flips]).reshape(24, 16, 16), want)

    def test_qpea_takes_one_kernel_call_per_cnot_block(self, monkeypatch):
        compiled = compile_circuit(qpe.build_qpe(build_a_lambda(0.3), 4))
        calls = _count_kernel_calls(monkeypatch)
        run_noisy(compiled, NoiseParams())
        assert len(calls) == _cnot_blocks(compiled.gates) == 10

    @pytest.mark.parametrize("idle_damping", [True, False])
    def test_reversed_cnot_inside_a_block(self, idle_damping):
        # the physical swap is cnot(a, b), cnot(b, a), cnot(a, b): one block
        source = qpe.build_qpe(build_a_lambda(0.3), 3, physical_swap=True)
        compiled = compile_circuit(source)
        cnots = [g.qubits for g in compiled.gates if g.kind == "cnot"]
        assert any(tuple(reversed(c)) in cnots[i + 1 : i + 2] for i, c in enumerate(cnots))
        noise = NoiseParams(t1_ns=2000.0, idle_damping=idle_damping)
        initial = _random_rho(4, np.random.default_rng(23))
        rho = run_noisy(compiled, noise, initial=DensityMatrix(4, initial))
        want, _ = _eager_run(compiled, noise, initial)
        np.testing.assert_allclose(rho.entries, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("idle_damping", [True, False])
    def test_block_broken_by_an_overlapping_pair(self, monkeypatch, idle_damping):
        gates = (
            gate("h", 0), gate("cnot", 0, 1), gate("ry", 1, params=(0.7,)),
            gate("cnot", 1, 2), gate("rz", 0, params=(-0.4,)), gate("cnot", 0, 1),
        )
        compiled = Circuit(3, gates)
        assert _cnot_blocks(gates) == 3
        noise = NoiseParams(t1_ns=700.0, idle_damping=idle_damping)
        initial = _random_rho(3, np.random.default_rng(29))
        start = DensityMatrix(3, initial)
        start.pauli  # converted in first, one kernel call per qubit, not counted
        calls = _count_kernel_calls(monkeypatch)
        rho = run_noisy(compiled, noise, initial=start)
        assert calls[:3] == [(0, 1, 3, 4), (1, 2, 4, 5), (0, 1, 3, 4)]
        want, _ = _eager_run(compiled, noise, initial)
        np.testing.assert_allclose(rho.entries, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("idle_damping", [True, False])
    def test_entries_pending_on_both_cnot_qubits(self, idle_damping):
        gates = (
            gate("h", 0), gate("ry", 1, params=(0.4,)), gate("ry", 2, params=(np.pi,)),
            gate("ry", 0, params=(-1.1,)), gate("rz", 1, params=(0.9,)),
            gate("cnot", 0, 1), gate("h", 1), gate("ry", 2, params=(2.0,)),
            gate("cnot", 2, 1), gate("h", 0), gate("cnot", 1, 0), gate("rz", 2, params=(0.3,)),
        )
        compiled = Circuit(3, gates)
        noise = NoiseParams(t1_ns=900.0, idle_damping=idle_damping)
        initial = _random_rho(3, np.random.default_rng(5))
        rho = run_noisy(compiled, noise, initial=DensityMatrix(3, initial))
        want, _ = _eager_run(compiled, noise, initial)
        np.testing.assert_allclose(rho.entries, want, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_lazy_order_matches_eager_reference(self, seed, idle_damping, cnots):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        compiled = _lazy_order_circuit(n, rng, cnots)
        noise = NoiseParams(t1_ns=1500.0, idle_damping=idle_damping)
        initial = _random_rho(n, rng)
        kernel, orders = qstate.apply_operator, []

        def kernel_spy(*args):
            out = kernel(*args)
            orders.append(out[1])
            return out

        with mock.patch.object(qstate, "apply_operator", kernel_spy):
            rho = run_noisy(compiled, noise, initial=DensityMatrix(n, initial))
        assert orders[-1] != tuple(range(2 * n))  # the run ends in another axis order
        want, _ = _eager_run(compiled, noise, initial)
        np.testing.assert_allclose(rho.entries, want, rtol=0, atol=1e-12)

    def test_batch_of_stacked_matrices_matches_eager_reference(self):
        rng = np.random.default_rng(17)
        base = _random_compiled(4, rng)
        items = [base] + [_reparametrized(base, rng) for _ in range(3)]
        noise = NoiseParams(t1_ns=2000.0)
        initial = _random_rho(4, rng)
        for circuit, rho in zip(items, run_noisy(items, noise, initial=DensityMatrix(4, initial))):
            want, _ = _eager_run(circuit, noise, initial)
            np.testing.assert_allclose(rho.entries, want, rtol=0, atol=1e-12)

    def test_compiled_hhl_circuit_on_a_density_matrix(self):
        # mry on three qubits, cunitary and b's unitary, lowered; no noise
        problem = HermitianProblem([[0.25, 0.0], [0.0, 0.75]], [0.6, 0.8])
        circuit = solvers.build_hhl_circuit(problem, 2, solvers.build_aqe(problem, 2))
        assert max(len(g.qubits) for g in circuit.gates) == 3
        initial = _random_rho(4, np.random.default_rng(9))
        rho = run_noisy(compile_circuit(circuit), initial=DensityMatrix(4, initial))
        # the global phase the lowering drops cancels in u rho u^+
        u = circuit_unitary(circuit.gates, 4)
        np.testing.assert_allclose(rho.entries, u @ initial @ u.conj().T, rtol=0, atol=1e-12)

    def test_density_matrix_refuses_uncompiled_gates_without_noise(self):
        circuit = Circuit(2, (gate("h", 0), gate("qft", 0, 1, params=(-1,))))
        initial = DensityMatrix(2, _random_rho(2, np.random.default_rng(3)))
        with pytest.raises(CompileError, match="'qft' has no duration: compile first"):
            run_noisy(circuit, initial=initial)
        with pytest.raises(CompileError, match="'qft'"):
            run_noisy([circuit, circuit], initial=initial)
        run_noisy(circuit, initial=basis_state(2, 1))  # a statevector runs it
