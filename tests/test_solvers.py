"""Original and hybrid solver pipelines plus the reduction machinery."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hhlsim import circuits, noise as noise_mod, oracles, qstate, solvers
from hhlsim.errors import (
    CompileError,
    ConstraintError,
    DomainError,
    ImpossibleOutcomeError,
    NotReducibleError,
    ValidationError,
)
from hhlsim.noise import NoiseParams, damping_channel
from hhlsim.problem import HermitianProblem, build_a_lambda, classical_solution
from hhlsim.qpe import QpeConfig, run_qpea
from hhlsim.qstate import DensityMatrix, MeasurementHistogram, StateVector
from hhlsim.solvers import (
    HybridPolicy,
    analyze_qpea,
    build_aqe,
    build_hhl_circuit,
    estimate_from_spectral,
    postselect_hhl,
    random_perfectly_estimated_problem,
    run_hybrid_hhl,
    run_original_hhl,
    synthesize_reduced_aqe,
    reduced_encoding_equivalence_check,
)
from problem_helpers import random_problem


class TestAqeSpec:
    def test_full_encoding_angles(self):
        problem = build_a_lambda(0.25)
        spec = build_aqe(problem, 2)
        c = 3 / (4 * np.sqrt(5))
        assert spec.c == pytest.approx(c, abs=1e-12)
        for x in (1, 2, 3):
            assert spec.angle_table[x] == pytest.approx(2 * np.arcsin(c / x), abs=1e-12)
        assert 0 not in spec.angle_table  # register value 0 gets no rotation

    def test_unitary_is_block_rotation(self):
        problem = build_a_lambda(0.25)
        spec = build_aqe(problem, 2)
        (mry,) = [g for g in build_hhl_circuit(problem, 2, spec).gates if g.kind == "mry"]
        u = circuits.gate_matrix(mry)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
        # register value 0 untouched (index = 2 * register pattern + ancilla)
        assert u[0, 0] == pytest.approx(1.0)
        # register value 1 mixes the ancilla by angle 2 arcsin(c)
        assert np.real(u[2 * 1 + 1, 2 * 1]) == pytest.approx(spec.c, abs=1e-12)


class TestAnalyzeQpea:
    def test_quarter_reducible(self):
        hist = MeasurementHistogram({"01": 0.5, "11": 0.5}, None)
        est = analyze_qpea(hist, 2)
        assert est.reducible
        assert est.fixed_positions == (2,)
        assert est.coverage == pytest.approx(1.0)

    def test_threshold_drops_noise_floor(self):
        hist = MeasurementHistogram({"01": 0.48, "11": 0.48, "00": 0.02, "10": 0.02}, None)
        est = analyze_qpea(hist, 2, tau=0.05)
        assert set(est.peaks) == {"01", "11"}
        assert est.coverage == pytest.approx(0.96)

    def test_low_coverage_not_reducible(self):
        hist = MeasurementHistogram({"01": 0.4, "11": 0.1, "00": 0.25, "10": 0.25}, None)
        est = analyze_qpea(hist, 2, tau=0.3, coverage_bound=0.9)
        assert not est.reducible

    def test_no_fixed_bits_not_reducible(self):
        hist = MeasurementHistogram({"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}, None)
        est = analyze_qpea(hist, 2, tau=0.1)
        assert not est.reducible

    def test_bad_outcome_key_rejected(self):
        with pytest.raises(DomainError):
            analyze_qpea(MeasurementHistogram({"0": 1.0}, None), 2)


class TestEigenEstimate:
    """Per-position bit means over the peaks, and the positions they fix."""

    def test_quarter_means(self):
        estimate = estimate_from_spectral(build_a_lambda(0.25), 2)
        # eigenvalues 1/4 -> 01 and 3/4 -> 11: bit 1 varies, bit 2 fixed at 1
        assert estimate.means == (0.5, 1.0)
        assert estimate.fixed_positions == (2,)
        assert estimate.free_positions == (1,)

    def test_half_all_fixed(self):
        estimate = estimate_from_spectral(build_a_lambda(0.5), 2)
        assert estimate.means == (1.0, 0.0)
        assert estimate.fixed_positions == (1, 2)
        assert estimate.free_positions == ()

    def test_means_count_each_peak_once_whatever_its_weight(self):
        hist = MeasurementHistogram({"010": 0.9, "110": 0.08, "111": 0.02}, None)
        estimate = analyze_qpea(hist, 3)
        assert estimate.means == (0.5, 1.0, 0.0)
        assert estimate.fixed_positions == (2, 3)
        assert estimate.free_positions == (1,)

    def test_no_peak_estimate(self):
        hist = MeasurementHistogram({"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}, None)
        estimate = analyze_qpea(hist, 2, tau=0.5)
        assert estimate.peaks == {} and estimate.means == ()
        assert estimate.fixed_positions == estimate.free_positions == ()
        assert not estimate.reducible and estimate.coverage == 0.0


class TestSynthesizeReduced:
    def test_quarter_reduction(self):
        problem = build_a_lambda(0.25)
        estimate = estimate_from_spectral(problem, 2)
        c = build_aqe(problem, 2).c
        spec = synthesize_reduced_aqe(estimate, c)
        assert spec.y_prime == 1  # fixed bit 2 contributes 2^0
        assert spec.free_positions == (1,)
        # free-bit values 0 and 2 give effective register integers 1 and 3
        assert spec.angle_table[0] == pytest.approx(2 * np.arcsin(c / 1), abs=1e-12)
        assert spec.angle_table[2] == pytest.approx(2 * np.arcsin(c / 3), abs=1e-12)

    def test_half_reduction_is_constant_rotation(self):
        problem = build_a_lambda(0.5)
        estimate = estimate_from_spectral(problem, 2)
        c = build_aqe(problem, 2).c
        spec = synthesize_reduced_aqe(estimate, c)
        assert spec.y_prime == 2
        assert spec.free_positions == ()
        assert spec.angle_table == {0: pytest.approx(2 * np.arcsin(c / 2))}

    def test_not_reducible_raises_with_its_estimate(self):
        hist = MeasurementHistogram({"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}, None)
        est = analyze_qpea(hist, 2, tau=0.1)
        with pytest.raises(NotReducibleError, match="register size 2") as info:
            synthesize_reduced_aqe(est, 0.4)
        assert info.value.estimate is est

    def test_full_encoding_is_the_reduction_of_no_fixed_bit(self):
        """At lambda = 0.3, n = 2 the bits 01 and 10 fix no position: the
        equivalence check compares the full encoding with itself."""
        problem = build_a_lambda(0.3)
        assert not estimate_from_spectral(problem, 2).reducible
        assert reduced_encoding_equivalence_check(problem, 2)


class TestEigenvalueBitSources:
    def test_qpea_and_spectral_estimates_agree(self):
        """Acceptance 5's problems: the analysis of the exact QPEA circuit's
        register distribution and the spectral estimate find the same peaks,
        means and verdict."""
        rng = np.random.default_rng(20240817)
        for trial in range(100):
            d = int(rng.choice([2, 4]))
            n = int(rng.choice([2, 3]))
            k = int(rng.integers(1, n + 1))
            problem = random_perfectly_estimated_problem(rng, d, n, k)
            from_qpea = analyze_qpea(run_qpea(problem, n), n, tau=1e-9, coverage_bound=0.0)
            spectral = estimate_from_spectral(problem, n)
            where = f"trial {trial}: d={d} n={n} k={k}"
            assert set(from_qpea.peaks) == set(spectral.peaks), where
            assert from_qpea.means == spectral.means, where
            assert from_qpea.reducible == spectral.reducible, where
            for key, weight in spectral.peaks.items():
                assert abs(from_qpea.peaks[key] - weight) <= 1e-12, where


class TestOriginalSolver:
    @pytest.mark.parametrize("lam,n", [(0.25, 2), (0.5, 2), (0.3, 1), (0.475, 2), (0.7, 3)])
    def test_matches_brute_force(self, lam, n):
        problem = build_a_lambda(lam)
        outcome = run_original_hhl(problem, n)
        rho_ref, succ_ref = oracles.brute_force_hhl(problem, n)
        assert outcome.success_probability == pytest.approx(succ_ref, abs=1e-12)
        np.testing.assert_allclose(outcome.rho_v.entries, rho_ref.entries, atol=1e-10)

    def test_quarter_known_values(self):
        outcome = run_original_hhl(build_a_lambda(0.25), 2)
        assert outcome.fidelity == pytest.approx(1.0, abs=1e-12)
        assert outcome.c_plus_sq == pytest.approx(0.9, abs=1e-12)
        assert outcome.c_minus_sq == pytest.approx(0.1, abs=1e-12)

    def test_half_success_is_one_sixteenth(self):
        outcome = run_original_hhl(build_a_lambda(0.5), 2)
        assert outcome.success_probability == pytest.approx(1 / 16, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_problem_matches_brute_force(self, d, n):
        problem = random_problem(100 * d + n, d)
        outcome = run_original_hhl(problem, n)
        rho_ref, succ_ref = oracles.brute_force_hhl(problem, n)
        assert outcome.success_probability == pytest.approx(succ_ref, abs=1e-10)
        np.testing.assert_allclose(outcome.rho_v.entries, rho_ref.entries, atol=1e-10)

    def test_general_basis_input(self):
        # a problem whose b is not a computational basis vector
        rng = np.random.default_rng(5)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = b / np.linalg.norm(b)
        problem = HermitianProblem(build_a_lambda(0.25).matrix, b)
        outcome = run_original_hhl(problem, 2)
        x, _ = classical_solution(problem)
        assert outcome.fidelity == pytest.approx(1.0, abs=1e-10)


class TestHybridSolver:
    def test_equals_original_when_reducible(self):
        for lam in (0.25, 0.5, 0.75):
            problem = build_a_lambda(lam)
            hybrid = run_hybrid_hhl(problem, 2)
            original = run_original_hhl(problem, 2)
            assert hybrid.fidelity == pytest.approx(original.fidelity, abs=1e-12)
            assert hybrid.success_probability == pytest.approx(
                original.success_probability, abs=1e-12
            )

    def test_restart_grows_register(self):
        # 0.125 needs three bits; starting at n=2 must restart once
        outcome = run_hybrid_hhl(build_a_lambda(0.125), 2)
        assert outcome.n == 3
        assert outcome.fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "field,value",
        [("tau", -0.1), ("tau", 2.0), ("coverage", 1.5), ("max_n", 0), ("n_step", 0)],
    )
    def test_policy_rejects_out_of_range(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must .* got {value}"):
            HybridPolicy(**{field: value})

    def test_not_reducible_carries_estimate(self):
        with pytest.raises(NotReducibleError) as err:
            run_hybrid_hhl(build_a_lambda(0.3), 2, policy=HybridPolicy(max_n=2))
        assert err.value.estimate is not None

    def test_initial_register_above_max_n_rejected(self, monkeypatch):
        monkeypatch.setattr(solvers.qpe, "run_qpea", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(ValidationError, match="initial register size 5"):
            run_hybrid_hhl(build_a_lambda(0.25), 5, policy=HybridPolicy(max_n=4))

    def test_sampled_run_deterministic(self):
        problem = build_a_lambda(0.25)
        a = run_hybrid_hhl(problem, 2, shots=1024, seed=9)
        b = run_hybrid_hhl(problem, 2, shots=1024, seed=9)
        assert a.histograms["qpea"].outcomes == b.histograms["qpea"].outcomes


class TestCircuitBuilder:
    def test_compiled_counts(self):
        problem = build_a_lambda(0.25)
        full = build_aqe(problem, 2)
        reduced = synthesize_reduced_aqe(estimate_from_spectral(problem, 2), full.c)
        c_full = circuits.compile_circuit(build_hhl_circuit(problem, 2, full))
        c_red = circuits.compile_circuit(build_hhl_circuit(problem, 2, reduced))
        assert c_full.cnot_count == 28
        assert c_red.cnot_count == 14

    def test_cnot_count_unavailable_when_circuit_does_not_compile(self):
        # three free register bits exceed the multiplexed-Ry lowering
        assert run_original_hhl(build_a_lambda(0.25), 3).cnot_count is None
        # d = 4 needs a two-qubit state-preparation unitary, which is not lowered
        problem = random_perfectly_estimated_problem(np.random.default_rng(11), d=4, n=2, k=1)
        outcome = run_original_hhl(problem, 2)
        assert outcome.cnot_count is None
        assert 0.0 <= outcome.fidelity <= 1.0 + 1e-9

    def test_three_free_bits_build_but_do_not_lower(self):
        problem = build_a_lambda(0.3)
        circuit = build_hhl_circuit(problem, 3, build_aqe(problem, 3))
        (mry,) = [g for g in circuit.gates if g.kind == "mry"]
        assert len(mry.qubits) == 4 and len(mry.params) == 8
        with pytest.raises(CompileError):
            circuits.compile_circuit(circuit)
        outcome = run_original_hhl(problem, 3)
        assert outcome.cnot_count is None
        rho_ref, succ_ref = oracles.brute_force_hhl(problem, 3)
        assert outcome.success_probability == pytest.approx(succ_ref, abs=1e-12)

    def test_exact_runs_never_compile(self, monkeypatch):
        def refuse(circuit):
            raise AssertionError("compile_circuit called on an exact run")

        monkeypatch.setattr(circuits, "compile_circuit", refuse)
        problem = build_a_lambda(0.25)
        assert run_original_hhl(problem, 2).cnot_count == 28
        assert run_hybrid_hhl(problem, 2).cnot_count == 14
        assert run_original_hhl(problem, 3).cnot_count is None

    def test_compiled_circuit_matches_pipeline(self):
        problem = build_a_lambda(0.3)
        full = build_aqe(problem, 2)
        circ = build_hhl_circuit(problem, 2, full)
        compiled = circuits.compile_circuit(circ)
        u_src = circuits.circuit_unitary(circ.gates, circ.num_qubits)
        u_cmp = circuits.circuit_unitary(compiled.gates, circ.num_qubits)
        assert circuits.equal_up_to_phase(u_cmp, u_src, atol=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_run_makes_one_kernel_call_per_source_gate(self, monkeypatch, n):
        """Each QPE is n h, n controlled powers and one qft gate; with the
        encoding's mry, and b's preparation where b is not |0>, every source
        gate is one kernel call."""
        kernel, calls = qstate.apply_operator, []
        monkeypatch.setattr(qstate, "apply_operator", lambda *a: calls.append(a) or kernel(*a))
        for problem, prepared in ((build_a_lambda(0.25), 0), (random_problem(3), 1)):
            circuit = build_hhl_circuit(problem, n, build_aqe(problem, n))
            calls.clear()
            noise_mod.run_noisy(circuit)
            assert len(calls) == len(circuit.gates) == 2 * (2 * n + 1) + 1 + prepared


class TestValidateOnce:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_run_checks_only_where_values_enter(self, monkeypatch, n):
        """No unitarity check (the input is |0>, so there is no
        state-preparation gate, and the cunitary gates take unitary powers
        that are unitary by construction) and no eigenvalue check of the
        derived density matrices."""
        problem = build_a_lambda(0.3)  # the problem's own checks are not counted
        unitary_checks, eig_checks = [], []
        check, eigvalsh = qstate._check_unitary, np.linalg.eigvalsh
        monkeypatch.setattr(
            qstate, "_check_unitary",
            lambda *a, **k: unitary_checks.append(1) or check(*a, **k),
        )
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda *a, **k: eig_checks.append(1) or eigvalsh(*a, **k)
        )
        run_original_hhl(problem, n)
        assert len(unitary_checks) == 0
        assert len(eig_checks) == 0


class TestWidthLimit:
    """Circuits wider than qstate.MAX_QUBITS are refused before they are built."""

    def test_limit_boundary(self):
        qstate.check_width(qstate.MAX_QUBITS - 1, 1)
        with pytest.raises(ValidationError):
            qstate.check_width(qstate.MAX_QUBITS, 1)

    def test_original_refused_before_building(self, monkeypatch):
        # build_aqe refuses before its angle table or the circuit is built
        monkeypatch.setattr(solvers, "classical_solution", lambda *a: pytest.fail("built"))
        monkeypatch.setattr(solvers, "build_hhl_circuit", lambda *a: pytest.fail("built"))
        # ancilla + 11 register bits + 1 input qubit
        with pytest.raises(ValidationError, match="13-qubit"):
            run_original_hhl(build_a_lambda(0.3), 11)

    def test_hybrid_checks_each_register_size(self, monkeypatch):
        tried = []

        def flat_qpea(problem, n, *args, **kwargs):
            tried.append(n)
            return MeasurementHistogram({format(x, f"0{n}b"): 2.0**-n for x in range(2**n)})

        monkeypatch.setattr(solvers.qpe, "run_qpea", flat_qpea)
        with pytest.raises(ValidationError, match="13-qubit"):
            run_hybrid_hhl(build_a_lambda(0.3), 9, policy=HybridPolicy(max_n=20))
        assert tried == [9, 10]

    @pytest.mark.parametrize(
        "build",
        [build_aqe, QpeConfig, run_hybrid_hhl],
        ids=["build_aqe", "QpeConfig", "run_hybrid_hhl"],
    )
    def test_register_below_one_refused_by_the_one_rule(self, build):
        problem = build_a_lambda(0.3)
        args = (0, problem) if build is QpeConfig else (problem, 0)
        with pytest.raises(DomainError, match=r"^register size must be >= 1$"):
            build(*args)


class TestReducedEncodingEquivalence:
    def test_dyadic_family_members(self):
        for lam in (0.25, 0.5, 0.75):
            assert reduced_encoding_equivalence_check(build_a_lambda(lam), 2)

    @pytest.mark.parametrize("lam,circuits_built", [(0.3, 1), (0.25, 2)])
    def test_no_fixed_bit_builds_one_circuit(self, monkeypatch, lam, circuits_built):
        """At lambda = 0.3, n = 2 no bit is fixed, so the reduced encoding is
        the full one and its circuit is built and run once."""
        build, calls = solvers.build_hhl_circuit, []
        monkeypatch.setattr(solvers, "build_hhl_circuit", lambda *a: calls.append(a) or build(*a))
        assert reduced_encoding_equivalence_check(build_a_lambda(lam), 2)
        assert len(calls) == circuits_built

    def test_one_batch_and_a_perturbed_angle_fails(self, monkeypatch):
        """The full and reduced circuits run as one batch. With one reduced
        angle off by 1e-3 the check fails, so a batch that gave both items
        one state could not pass it."""
        problem = random_perfectly_estimated_problem(np.random.default_rng(5), d=4, n=3, k=2)
        run, batches = noise_mod.run_noisy, []
        monkeypatch.setattr(
            noise_mod, "run_noisy", lambda c, *a: batches.append(c) or run(c, *a)
        )
        assert reduced_encoding_equivalence_check(problem, 3)
        assert len(batches) == 1 and len(batches[0]) == 2
        synthesize = solvers.synthesize_reduced_aqe

        def perturbed(estimate, c):
            spec = synthesize(estimate, c)
            y = int(next(iter(estimate.peaks)), 2) - spec.y_prime  # a branch with weight
            table = {**spec.angle_table, y: spec.angle_table[y] + 1e-3}
            return dataclasses.replace(spec, angle_table=table)

        monkeypatch.setattr(solvers, "synthesize_reduced_aqe", perturbed)
        assert not reduced_encoding_equivalence_check(problem, 3)

    def test_random_problem_has_requested_structure(self):
        rng = np.random.default_rng(11)
        problem = random_perfectly_estimated_problem(rng, d=4, n=3, k=2)
        estimate = estimate_from_spectral(problem, 3)
        assert len(estimate.fixed_positions) == 2

    def test_invalid_k_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ConstraintError):
            random_perfectly_estimated_problem(rng, d=2, n=2, k=0)
        with pytest.raises(ConstraintError):
            random_perfectly_estimated_problem(rng, d=2, n=2, k=3)


def _random_rho(rng, num_qubits):
    dim = 2**num_qubits
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = z @ z.conj().T
    return DensityMatrix(num_qubits, rho / np.trace(rho))


class TestOriginalBatch:
    def test_batch_matches_one_problem_runs(self):
        rng = np.random.default_rng(21)
        # b = |0> prepares nothing, a random b one unitary: two skeletons, two batches
        groups = (
            [build_a_lambda(lam) for lam in (0.05, 0.25, 0.3, 0.5, 0.9)],
            [random_perfectly_estimated_problem(rng, 2, 2, 1) for _ in range(3)],
        )
        for n, problems in ((n, g) for n in (1, 2, 3) for g in groups):
            batch = solvers.run_original_hhl_batch(problems, n, shots=64, seed=5)
            for problem, got in zip(problems, batch):
                want = run_original_hhl(problem, n, shots=64, seed=5)
                assert got.cnot_count == want.cnot_count
                assert got.histograms["v_x_basis"] == want.histograms["v_x_basis"]
                for name in ("ancilla", "uncomputed"):
                    assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12)
                np.testing.assert_allclose(got.rho_v.entries, want.rho_v.entries, atol=1e-12)

    def test_noisy_batch_of_other_compiled_skeletons(self):
        # compilation drops different zero angles at 0.25 and 0.3
        problems = [build_a_lambda(0.25), build_a_lambda(0.3)]
        noise = NoiseParams()
        batch = solvers.run_original_hhl_batch(problems, 2, noise=noise)
        for problem, got in zip(problems, batch):
            want = run_original_hhl(problem, 2, noise=noise)
            assert (got.fidelity, got.success_probability) == (want.fidelity, want.success_probability)

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_batch_matches_one_problem_runs(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        problems = [random_problem(rng, d) for _ in range(3)]
        batch = solvers.run_original_hhl_batch(problems, n)
        for problem, got in zip(problems, batch):
            want = run_original_hhl(problem, n)
            for name in ("ancilla", "uncomputed", "c_plus_sq", "c_minus_sq"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12)
            assert (got.c_plus_sq is None) == (d > 2)
            np.testing.assert_allclose(got.rho_v.entries, want.rho_v.entries, atol=1e-12)
            # each outcome owns its state: no view into the batch's stack
            assert got.rho_v.entries.base is None

    def test_noisy_batch_is_one_executor_call(self, monkeypatch):
        """Compiled circuits of different lengths run as one density-matrix
        batch, each item as its own solve gives it."""
        problems = [build_a_lambda(lam) for lam in (0.25, 0.3, 0.5)]
        lengths = {
            len(circuits.compile_circuit(build_hhl_circuit(p, 2, build_aqe(p, 2))).gates)
            for p in problems
        }
        assert len(lengths) == 3
        noise = NoiseParams(t1_ns=20_000.0)
        want = [run_original_hhl(p, 2, noise=noise) for p in problems]
        calls, run = [], noise_mod.run_noisy
        monkeypatch.setattr(
            noise_mod, "run_noisy", lambda *a, **k: calls.append(1) or run(*a, **k)
        )
        got = solvers.run_original_hhl_batch(problems, 2, noise=noise)
        assert len(calls) == 1
        for g, w in zip(got, want):
            for name in ("ancilla", "uncomputed", "c_plus_sq", "c_minus_sq"):
                assert getattr(g, name) == pytest.approx(getattr(w, name), abs=1e-12)
            np.testing.assert_allclose(g.rho_v.entries, w.rho_v.entries, rtol=0, atol=1e-12)

    def test_batch_of_mixed_dimensions_rejected(self):
        rng = np.random.default_rng(2)
        d4 = random_perfectly_estimated_problem(rng, 4, 2, 1)
        with pytest.raises(DomainError):
            solvers.run_original_hhl_batch([build_a_lambda(0.3), d4], 2)


def _sequential_postselection(rho, n):
    """Reference estimators of one density matrix: ``qstate.postselect`` on
    the ancilla, then ``partial_trace`` of the register, or ``postselect`` on
    each register bit."""
    q = rho.num_qubits - 1 - n
    post, p_ancilla = qstate.postselect(rho, 0, 1)
    ancilla = (qstate.partial_trace(post, range(n, n + q)).entries, p_ancilla)
    prob = p_ancilla
    for _ in range(n):
        post, p_reg = qstate.postselect(post, 0, 0)
        prob *= p_reg
    return {"ancilla": ancilla, "uncomputed": (post.entries, prob)}


class TestPostselectHHL:
    @pytest.mark.parametrize("n,q", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_uncomputed_equals_sequential_register_postselection(self, n, q):
        rho = _random_rho(np.random.default_rng(10 * n + q), 1 + n + q)
        estimators = postselect_hhl([rho], n)
        for name, (want_rho, want_p) in _sequential_postselection(rho, n).items():
            got_rho, got_p = estimators[name]
            np.testing.assert_allclose(got_rho[0], want_rho, atol=1e-14)
            assert got_p[0] == pytest.approx(want_p, abs=1e-15)

    def test_batch_of_three_mixed_states(self):
        rng = np.random.default_rng(33)
        n, q = 2, 2
        rhos = [_random_rho(rng, 1 + n + q) for _ in range(3)]
        estimators = postselect_hhl(rhos, n)
        for b, rho in enumerate(rhos):
            for name, (want_rho, want_p) in _sequential_postselection(rho, n).items():
                got_rho, got_p = estimators[name]
                assert got_rho.shape == (3, 2**q, 2**q)
                np.testing.assert_allclose(got_rho[b], want_rho, atol=1e-14)
                assert got_p[b] == pytest.approx(want_p, abs=1e-15)

    def test_statevector_and_density_matrix_agree(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi = StateVector(4, amps / np.linalg.norm(amps))
        pure, mixed = postselect_hhl([psi], 2), postselect_hhl([psi.to_density_matrix()], 2)
        for name in ("ancilla", "uncomputed"):
            np.testing.assert_allclose(pure[name][0], mixed[name][0], atol=1e-15)
            np.testing.assert_allclose(pure[name][1], mixed[name][1], rtol=0, atol=1e-15)

    def test_uncomputed_none_when_register_never_resets(self):
        """The stack carries p = 0 where the register = 0 block has no weight
        (ancilla 1, register 1), and an outcome then reports None."""
        states = [qstate.basis_state(3, 0b110), qstate.basis_state(3, 0b100)]
        estimators = postselect_hhl(states, 1)
        assert estimators["ancilla"][1].tolist() == [1.0, 1.0]
        rho, p = estimators["uncomputed"]
        assert p.tolist() == [0.0, 1.0]
        assert not rho[0].any()

    def test_ancilla_never_one_is_impossible(self):
        """One item whose ancilla never reads 1 refuses the whole batch."""
        states = [qstate.basis_state(3, 0b100), qstate.basis_state(3, 0b010)]
        with pytest.raises(ImpossibleOutcomeError, match="outcome 1 on qubit 0"):
            postselect_hhl(states, 1)

    def test_copies_only_the_ancilla_one_block(self):
        """Post-selecting a density matrix holds a copy of its ancilla-1
        quarter, not of the whole matrix."""
        rho = _random_rho(np.random.default_rng(5), 8)
        tracemalloc.start()
        try:
            postselect_hhl([rho], 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * rho.entries.nbytes

    def test_noisy_run_needs_its_estimator(self, monkeypatch):
        problem = build_a_lambda(0.25)
        assert run_original_hhl(problem, 2).uncomputed is not None

        def never_reset(states, n):
            estimators = postselect_hhl(states, n)
            rho, p = estimators["uncomputed"]
            return {**estimators, "uncomputed": (0 * rho, 0 * p)}

        monkeypatch.setattr(solvers, "postselect_hhl", never_reset)
        assert run_original_hhl(problem, 2).uncomputed is None
        with pytest.raises(ImpossibleOutcomeError):
            run_original_hhl(problem, 2, noise=NoiseParams())

    def test_rule_per_path(self):
        problem = build_a_lambda(0.3)
        exact = run_original_hhl(problem, 2)
        noisy = run_original_hhl(problem, 2, noise=NoiseParams())
        assert exact.postselection == "ancilla"
        assert (exact.fidelity, exact.success_probability) == exact.ancilla
        assert noisy.postselection == "uncomputed"
        assert (noisy.fidelity, noisy.success_probability) == noisy.uncomputed
        # closed-form curve F2 is the ancilla-only estimator
        assert exact.fidelity == pytest.approx(oracles.f2(0.3), abs=1e-12)
        assert exact.uncomputed[1] < exact.ancilla[1]


# exactly no decay: 1 - exp(-t / inf) is 0.0
ZERO_NOISE = NoiseParams(t1_ns=math.inf)
SWEEP_GRID = [(i + 1) / 200 for i in range(199)]


class TestNoFullDensityMatrix:
    """Exact runs score their statevectors from the amplitudes: no density
    matrix of the whole run and no single-state post-selection."""

    @pytest.fixture(autouse=True)
    def refuse(self, monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("full-size density matrix or single-state post-selection")

        monkeypatch.setattr(StateVector, "to_density_matrix", fail)
        monkeypatch.setattr(qstate, "partial_trace", fail)
        monkeypatch.setattr(qstate, "postselect", fail)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_original_over_sweep_grid(self, k):
        outcomes = solvers.run_original_hhl_batch([build_a_lambda(lam) for lam in SWEEP_GRID], k)
        assert len(outcomes) == len(SWEEP_GRID)

    @pytest.mark.parametrize("shots", [0, 1024])
    def test_hybrid(self, shots):
        outcome = run_hybrid_hhl(build_a_lambda(0.25), 2, shots=shots, seed=3)
        assert outcome.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_reduced_encoding_equivalence_at_d8(self):
        problem = random_perfectly_estimated_problem(np.random.default_rng(8), 8, 3, 1)
        assert reduced_encoding_equivalence_check(problem, 3)


def _assert_estimators_match(exact, noisy):
    """Per named estimator: the same success probability and unnormalised
    overlap F * P to 1e-12, and None on both sides or on neither. F itself is
    not compared: where P ~ 3e-11 the compiled and source gates differ in F
    by up to 6e-8."""
    for name in ("ancilla", "uncomputed"):
        a, b = getattr(exact, name), getattr(noisy, name)
        assert (a is None) == (b is None), name
        if a is not None:
            (f_a, p_a), (f_b, p_b) = a, b
            assert abs(p_a - p_b) <= 1e-12, name
            assert abs(f_a * p_a - f_b * p_b) <= 1e-12, name


class TestZeroNoiseEstimators:
    """A run under zero noise gives each named estimator its noiseless value."""

    def test_no_decay_at_infinite_t1(self):
        rho = qstate.basis_state(1, 1).to_density_matrix()
        out = damping_channel(rho, 0, 1e9, ZERO_NOISE.t1_ns)
        assert np.array_equal(out.entries, rho.entries)

    @pytest.mark.parametrize("n", [1, 2])
    def test_original_over_sweep_grid(self, n):
        for lam in SWEEP_GRID:
            problem = build_a_lambda(lam)
            _assert_estimators_match(
                run_original_hhl(problem, n), run_original_hhl(problem, n, noise=ZERO_NOISE)
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hybrid_on_random_problems(self, n):
        rng = np.random.default_rng(600 + n)
        policy = HybridPolicy(max_n=n)
        for k in range(1, n + 1):
            for _ in range(3):
                problem = random_perfectly_estimated_problem(rng, 2, n, k)
                exact = run_hybrid_hhl(problem, n, policy=policy)
                noisy = run_hybrid_hhl(problem, n, policy=policy, noise=ZERO_NOISE)
                assert noisy.estimate.means == exact.estimate.means
                _assert_estimators_match(exact, noisy)
