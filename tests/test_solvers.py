"""Original and hybrid solver pipelines plus the reduction machinery."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhlsim import circuits, cli, noise as noise_mod, oracles, qpe, qstate, solvers
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
from hhlsim.qpe import build_qpe, run_qpea
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
from problem_helpers import circuit_unitary, equal_up_to_phase, random_problem


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
        u = circuit_unitary([mry._replace(qubits=(0, 1, 2))], 3)
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

    @pytest.mark.parametrize(
        "outcomes,shots",
        [({"00": 1.5, "01": -0.5}, None), ({"00": math.inf, "01": -math.inf}, None),
         ({"00": 3, "01": -1}, 2)],
    )
    def test_no_reduction_from_negative_or_infinite_weights(self, outcomes, shots):
        """Each once certified a reduction, the first with coverage 1.5: the
        histogram itself refuses them."""
        with pytest.raises(ValidationError, match="not finite and >= 0"):
            analyze_qpea(MeasurementHistogram(outcomes, shots), 2)


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
        [("tau", -0.1), ("tau", 2.0), ("coverage", 1.5), ("max_n", 0)],
    )
    def test_policy_rejects_out_of_range(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must .* got {value}"):
            HybridPolicy(**{field: value})

    def test_restarts_step_by_one_bit(self):
        """The restart step is a constant of the policy, not an option."""
        assert HybridPolicy().n_step == 1
        assert "n_step" not in {f.name for f in dataclasses.fields(HybridPolicy)}
        with pytest.raises(TypeError):
            HybridPolicy(n_step=2)

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

    @pytest.mark.parametrize("physical_swap", [False, True])
    def test_every_encoding_spans_the_register(self, physical_swap):
        """The full and the reduced encoding are one mry on every register
        wire (as QPE leaves them) and the ancilla; the reduced table ignores
        the certified bit, and the lowering drops its control: 28 and 14
        CNOTs, each 6 more with the swap layers emitted."""
        problem = build_a_lambda(0.25)
        full = build_aqe(problem, 2)
        reduced = synthesize_reduced_aqe(estimate_from_spectral(problem, 2), full.c)
        out_reg = qpe.qpe_block(problem, 2, [1, 2], [3], physical_swap)[1]
        counts = []
        for spec in (full, reduced):
            circuit = build_hhl_circuit(problem, 2, spec, physical_swap=physical_swap)
            (mry,) = [g for g in circuit.gates if g.kind == "mry"]
            assert mry.qubits == (*out_reg, 0)
            counts.append(circuits.compile_circuit(circuit).cnot_count)
        assert counts == [28 + 6 * physical_swap, 14 + 6 * physical_swap]

    def test_encoding_for_another_register_size_refused(self, monkeypatch):
        """Refused before any gate is made, both sizes named."""
        problem = build_a_lambda(0.25)
        monkeypatch.setattr(qpe, "qpe_block", None)  # reached only past the check
        for n, m in ((3, 2), (2, 3)):
            with pytest.raises(DomainError, match=f"register size {m} in a circuit of size {n}"):
                build_hhl_circuit(problem, n, build_aqe(problem, m))
            with pytest.raises(DomainError):
                build_hhl_circuit(problem, n, [build_aqe(problem, n), build_aqe(problem, m)])

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
        u_src = circuit_unitary(circ.gates, circ.num_qubits)
        u_cmp = circuit_unitary(compiled.gates, circ.num_qubits)
        assert equal_up_to_phase(u_cmp, u_src, atol=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_run_makes_one_kernel_call_per_source_gate(self, monkeypatch, n):
        """Each QPE is n h, one cunitary gate and one qft gate; with the
        encoding's mry, and b's preparation where b is not |0>, every source
        gate is one kernel call."""
        kernel, calls = qstate.apply_operator, []
        monkeypatch.setattr(qstate, "apply_operator", lambda *a: calls.append(a) or kernel(*a))
        for problem, prepared in ((build_a_lambda(0.25), 0), (random_problem(3), 1)):
            circuit = build_hhl_circuit(problem, n, build_aqe(problem, n))
            calls.clear()
            noise_mod.run_noisy(circuit)
            assert len(calls) == len(circuit.gates) == 2 * (n + 2) + 1 + prepared


class TestValidateOnce:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_run_checks_only_where_values_enter(self, monkeypatch, n):
        """No unitarity check (the input is |0>, so there is no
        state-preparation gate, and the cunitary gate takes unitary powers
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

    def test_noisy_original_refused_at_register_level(self, monkeypatch):
        """The density budget is checked before anything is built, not by the
        executor, and the refusal names the largest register that fits."""
        monkeypatch.setattr(solvers, "build_aqe", lambda *a: pytest.fail("built"))
        # ancilla + 10 register bits + 1 input qubit: a 12-qubit density matrix
        with pytest.raises(ValidationError, match="12-qubit density matrix .*: --n must be at most 9$"):
            run_original_hhl(build_a_lambda(0.3), 10, noise=NoiseParams())

    def test_noisy_qpea_refused_at_register_level(self, monkeypatch):
        monkeypatch.setattr(solvers.qpe, "_qpea", lambda *a: pytest.fail("built"))
        with pytest.raises(ValidationError, match="12-qubit density matrix .*: --n must be at most 10$"):
            run_qpea(build_a_lambda(0.3), 11, noise=NoiseParams())

    def test_no_register_fits(self):
        with pytest.raises(ValidationError, match=r"13-qubit circuit .*: --n must be at most 0$"):
            qstate.check_width(1, 12)
        with pytest.raises(ValidationError, match=r"12-qubit density .*: --n must be at most 0$"):
            qstate.check_width(1, 11, density=True)

    def test_hybrid_checks_each_register_size(self, monkeypatch):
        tried = []

        def flat_qpea(problem, n, *args, **kwargs):
            tried.append(n)
            return MeasurementHistogram({format(x, f"0{n}b"): 2.0**-n for x in range(2**n)})

        monkeypatch.setattr(solvers.qpe, "_run_qpea", flat_qpea)
        widest = r"register size 10, the widest the simulation limits admit below --max-n 20$"
        with pytest.raises(NotReducibleError, match=widest):
            run_hybrid_hhl(build_a_lambda(0.3), 9, policy=HybridPolicy(max_n=20))
        assert tried == [9, 10]
        # under noise the HHL circuit's density matrix sets the widest register
        tried.clear()
        policy = HybridPolicy(max_n=20)
        with pytest.raises(NotReducibleError, match=r"register size 9, .* --max-n 20$"):
            run_hybrid_hhl(build_a_lambda(0.3), 7, policy=policy, noise=NoiseParams())
        assert tried == [7, 8, 9]
        with pytest.raises(ValidationError, match="12-qubit density matrix"):
            run_hybrid_hhl(build_a_lambda(0.3), 10, policy=policy, noise=NoiseParams())
        assert tried == [7, 8, 9]

    def test_one_formula_sets_every_limit(self, monkeypatch):
        """check_width, the hybrid's restart ceiling and the executor's own
        refusal all read qstate.widest: narrowing it narrows all three."""
        narrow = lambda others, density: (5 if density else 6) - others
        monkeypatch.setattr(qstate, "widest", narrow)
        with pytest.raises(ValidationError, match=r"^a 7-qubit circuit .*: --n must be at most 4$"):
            qstate.check_width(5, 2)
        circuit = qpe.build_qpe(build_a_lambda(0.3), 5)  # 6 qubits
        with pytest.raises(ValidationError, match=r"^a 6-qubit density matrix [^:]*$"):
            noise_mod.run_noisy(circuits.compile_circuit(circuit), NoiseParams())
        ceiling = r"register size 4, the widest the simulation limits admit below --max-n 9$"
        with pytest.raises(NotReducibleError, match=ceiling):
            run_hybrid_hhl(build_a_lambda(0.3), 2, policy=HybridPolicy(max_n=9))

    @pytest.mark.parametrize(
        "run,checks",
        [
            (lambda: cli.main(["sweep", "--points", "199", "--k", "1,2,3", "--out", os.devnull]), 3),
            (lambda: run_original_hhl(build_a_lambda(0.25), 2, noise=NoiseParams()), 1),
            (lambda: run_hybrid_hhl(build_a_lambda(0.25), 2, noise=NoiseParams()), 1),
            (lambda: pytest.raises(NotReducibleError, run_hybrid_hhl, build_a_lambda(0.3), 2,
                                   noise=NoiseParams()), 1),
        ],
        ids=["sweep", "noisy-original", "noisy-hybrid", "noisy-hybrid-restarts"],
    )
    def test_each_run_checks_its_register_once(self, monkeypatch, run, checks):
        """One check per batch and per run, before it builds: a sweep pass is
        one batch per register size, a noisy original solve one run, and a
        noisy hybrid solve one check of its first register, whose ceiling
        admits every QPEA it restarts with (at lambda = 0.3 those at n = 2, 3
        and 4, none reducible)."""
        calls = []
        check = qstate.check_width
        monkeypatch.setattr(qstate, "check_width", lambda *a, **k: calls.append(a) or check(*a, **k))
        run()
        assert len(calls) == checks

    @pytest.mark.parametrize(
        "build",
        [build_aqe, build_qpe, run_hybrid_hhl],
        ids=["build_aqe", "build_qpe", "run_hybrid_hhl"],
    )
    def test_register_below_one_refused_by_the_one_rule(self, build):
        with pytest.raises(DomainError, match=r"^register size must be >= 1$"):
            build(build_a_lambda(0.3), 0)


class TestReducedEncodingEquivalence:
    def test_dyadic_family_members(self):
        for lam in (0.25, 0.5, 0.75):
            assert reduced_encoding_equivalence_check(build_a_lambda(lam), 2)

    @pytest.mark.parametrize("lam,circuits_built", [(0.3, 1), (0.25, 2)])
    def test_no_fixed_bit_builds_one_circuit(self, monkeypatch, lam, circuits_built):
        """At lambda = 0.3, n = 2 no bit is fixed, so the reduced encoding is
        the full one and its circuit is built and run once. The circuits come
        from one build call, so they share one QPE block."""
        build, calls = solvers.build_hhl_circuit, []
        monkeypatch.setattr(solvers, "build_hhl_circuit", lambda *a: calls.append(build(*a)) or calls[-1])
        assert reduced_encoding_equivalence_check(build_a_lambda(lam), 2)
        (built,) = calls
        assert len(built) == circuits_built

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

    def test_one_kernel_call_per_gate_position(self, monkeypatch):
        """The full and reduced circuits share one skeleton, so each gate
        position, their mry too, is one kernel call on the batch (counted
        inside the executor; scoring converts on its own). They share
        every gate but their mry, as the same objects, so each shared
        position's call takes that gate's own matrix, and only the mry's call
        a stack of two."""
        problem = random_perfectly_estimated_problem(np.random.default_rng(5), d=4, n=3, k=2)
        kernel, calls = qstate.apply_operator, []
        monkeypatch.setattr(qstate, "apply_operator", lambda *a: calls.append(a) or kernel(*a))
        run, spans = noise_mod.run_noisy, []

        def run_noisy(*args):
            start = len(calls)
            states = run(*args)
            spans.append((start, len(calls)))
            return states

        monkeypatch.setattr(noise_mod, "run_noisy", run_noisy)
        build, built = solvers.build_hhl_circuit, []
        monkeypatch.setattr(
            solvers, "build_hhl_circuit", lambda *a: built.append(build(*a)) or built[-1]
        )
        assert reduced_encoding_equivalence_check(problem, 3)
        ((full, reduced),), ((start, end),) = built, spans
        calls = calls[start:end]
        assert len(calls) == len(full.gates) == len(reduced.gates) == 12
        mry = [g.kind == "mry" for g in full.gates]
        assert [g is not h for g, h in zip(full.gates, reduced.gates)] == mry
        stacked = [
            m.shape == (2, *circuits.gate_matrix(g).shape)
            for (_, m, *_), g in zip(calls, full.gates)
        ]
        assert stacked == mry and sum(mry) == 1

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
            assert got.rho_v.pauli.base is None

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

    @pytest.mark.parametrize("noise", [None, NoiseParams()], ids=["exact", "noisy"])
    def test_negative_shots_refused_as_the_qpea_refuses_them(self, monkeypatch, noise):
        """shots = -1 is refused before anything is built, by every solver
        alike, not run as an exact solve."""
        self._refused_by_every_solver(monkeypatch, noise, -1)

    @pytest.mark.parametrize("noise", [None, NoiseParams()], ids=["exact", "noisy"])
    def test_shots_beyond_the_multinomial_refused_alike(self, monkeypatch, noise):
        """One draw more than NumPy's multinomial takes, where it raised an
        OverflowError, is refused by the same range check."""
        self._refused_by_every_solver(monkeypatch, noise, 2**63)

    @staticmethod
    def _refused_by_every_solver(monkeypatch, noise, shots):
        monkeypatch.setattr(solvers, "_full_encoding", lambda *a: pytest.fail("built"))
        problem = build_a_lambda(0.25)
        message = rf"^shots must be in \[0, 2\^63 - 1\], got {shots}$"
        for run in (run_original_hhl, run_hybrid_hhl, run_qpea):
            with pytest.raises(DomainError, match=message):
                run(problem, 2, shots=shots, noise=noise)
        with pytest.raises(DomainError, match=message):
            solvers.run_original_hhl_batch([problem, build_a_lambda(0.3)], 2, shots=shots)


def _sequential_postselection(rho, n):
    """Reference estimators of one density matrix, as (state, probability):
    ``qstate.postselect`` on the ancilla, then ``partial_trace`` of the
    register, or ``postselect`` on each register bit."""
    q = rho.num_qubits - 1 - n
    post, p_ancilla = qstate.postselect(rho, 0, 1)
    ancilla = (qstate.partial_trace(post, range(n, n + q)), p_ancilla)
    prob = p_ancilla
    for _ in range(n):
        post, p_reg = qstate.postselect(post, 0, 0)
        prob *= p_reg
    return {"ancilla": ancilla, "uncomputed": (post, prob)}


class TestPostselectHHL:
    @pytest.mark.parametrize("n,q", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_uncomputed_equals_sequential_register_postselection(self, n, q):
        rho = _random_rho(np.random.default_rng(10 * n + q), 1 + n + q)
        estimators = postselect_hhl([rho], n)
        for name, (want_rho, want_p) in _sequential_postselection(rho, n).items():
            got_rho, got_p = estimators[name]
            np.testing.assert_allclose(got_rho[0], want_rho.pauli, atol=1e-14)
            assert got_p[0] == pytest.approx(want_p, abs=1e-15)

    def test_batch_of_three_mixed_states(self):
        rng = np.random.default_rng(33)
        n, q = 2, 2
        rhos = [_random_rho(rng, 1 + n + q) for _ in range(3)]
        estimators = postselect_hhl(rhos, n)
        for b, rho in enumerate(rhos):
            for name, (want_rho, want_p) in _sequential_postselection(rho, n).items():
                got_rho, got_p = estimators[name]
                assert got_rho.shape == (3, 4**q)
                np.testing.assert_allclose(got_rho[b], want_rho.pauli, atol=1e-14)
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

    def test_coefficients_copied_only_at_i_or_z(self):
        """Post-selecting a density matrix copies only the Pauli coefficients
        with the ancilla and the register at I or Z (1 / 2r of them), not the
        whole state, and derives no entries (twice the coefficients' bytes)."""
        rho = _random_rho(np.random.default_rng(5), 8)
        tracemalloc.start()
        try:
            postselect_hhl([rho], 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * rho.pauli.nbytes

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


class TestNoisySolveMakesNoFullDensityMatrix:
    """A noisy solve runs on Pauli coefficients from start to end: no state
    becomes a complex matrix, and the only conversion is of the classical
    solutions' kets into coefficients, to be scored against."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        calls = []
        for name in ("pauli_of", "entries_of"):
            convert = getattr(qstate, name)
            monkeypatch.setattr(qstate, name, lambda c, name=name, convert=convert:
                                calls.append((name, c.shape)) or convert(c))
        return calls

    @pytest.mark.parametrize("mode", ["original", "hybrid"])
    def test_only_the_input_converts(self, conversions, mode):
        run = run_original_hhl if mode == "original" else run_hybrid_hhl
        outcome = run(build_a_lambda(0.25), 2, noise=NoiseParams(readout_flip=0.01))
        assert outcome.rho_v.num_qubits == 1
        # the one 1-qubit solution's outer product, (B, 2^q, 2^q)
        assert conversions == [("pauli_of", (1, 2, 2))]

    def test_noisy_qpea_converts_nothing(self, conversions):
        hist = run_qpea(build_a_lambda(0.3), 4, noise=NoiseParams(readout_flip=0.02))
        assert len(hist.outcomes) == 16 and conversions == []


class TestScoredAsCoefficients:
    """Scoring on Pauli coefficients gives what the matrices give, against
    post-selection on the whole run's density matrix: each estimator's
    state, fidelity <x|rho|x> and success probability, and the x-basis
    weights <+-|rho_v|+-> of the named one."""

    # a d = 4 circuit does not compile (its cunitary has two targets), so it
    # cannot run under noise
    @pytest.mark.parametrize("d,noisy", [(2, False), (4, False), (2, True)],
                             ids=["d2-exact", "d4-exact", "d2-noisy"])
    def test_matches_a_matrix_reference(self, d, noisy):
        rng = np.random.default_rng(40 + 2 * d + noisy)
        problems, n = [random_problem(rng, d) for _ in range(3)], 2
        noise = NoiseParams(t1_ns=30000.0) if noisy else None
        outcomes = solvers.run_original_hhl_batch(problems, n, noise=noise)
        kets = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for problem, got in zip(problems, outcomes):
            circuit = build_hhl_circuit(problem, n, build_aqe(problem, n))
            final = noise_mod.run_noisy(circuits.compile_circuit(circuit) if noisy else circuit, noise)
            rho = final if noisy else final.to_density_matrix()
            x, held = classical_solution(problem)[0], postselect_hhl([final], n)
            reference = _sequential_postselection(rho, n)
            for name, (state, p) in reference.items():
                np.testing.assert_allclose(held[name][0][0], state.pauli, rtol=0, atol=1e-12)
                fid = (x.conj() @ state.entries @ x).real
                assert getattr(got, name) == pytest.approx((fid, p), abs=1e-12)
            v = got.rho_v.entries
            np.testing.assert_allclose(v, reference[got.postselection][0].entries, atol=1e-12)
            weights = (None, None) if d > 2 else [(k @ v @ k).real for k in kets]
            assert (got.c_plus_sq, got.c_minus_sq) == pytest.approx(weights, abs=1e-12)


class TestOneMobiusInversionPerSolve:
    """A solve takes its mry's subset angles once: a noisy one counts the
    CNOTs of its compiled circuit instead of its source's."""

    @pytest.mark.parametrize("noise", [None, NoiseParams()], ids=["exact", "noisy"])
    @pytest.mark.parametrize("mode", ["original", "hybrid"])
    def test_counted(self, monkeypatch, mode, noise):
        calls, subset_angles = [], circuits._subset_angles
        monkeypatch.setattr(circuits, "_subset_angles",
                            lambda *a: calls.append(a) or subset_angles(*a))
        run = run_original_hhl if mode == "original" else run_hybrid_hhl
        outcome = run(build_a_lambda(0.25), 2, noise=noise)
        assert len(calls) == 1
        assert outcome.cnot_count == {"original": 28, "hybrid": 14}[mode]  # acceptance 6


def _counted_or_none(circuit):
    try:
        return circuit.cnot_count
    except CompileError:
        return None


def _hhl_batches(problems, n):
    """The exact batches of ``problems`` at register size ``n``: their
    original circuits, and their hybrid circuits where the spectrum certifies
    a reduction. Each shares one skeleton, as the reduced mry keeps every
    register wire."""
    full = [build_aqe(p, n) for p in problems]
    yield [build_hhl_circuit(p, n, spec) for p, spec in zip(problems, full)]
    estimates = [estimate_from_spectral(p, n) for p in problems]
    reduced = [(p, synthesize_reduced_aqe(e, spec.c))
               for p, e, spec in zip(problems, estimates, full) if e.reducible]
    if reduced:
        yield [build_hhl_circuit(p, n, spec) for p, spec in reduced]


class TestStackedCnotCounts:
    """An exact batch counts the CNOTs of all its circuits in one pass: each
    item reads cnot_count of its circuit, and None exactly where that raises
    CompileError, with no exception raised."""

    @staticmethod
    def _check(batch):
        raised, init = [], CompileError.__init__
        with pytest.MonkeyPatch.context() as m:
            m.setattr(CompileError, "__init__", lambda self, *a: raised.append(a) or init(self, *a))
            counts = circuits.cnot_counts(batch)
        assert raised == []
        assert counts == [_counted_or_none(c) for c in batch]
        return counts

    @pytest.mark.parametrize("n,expected", [(1, 6), (2, 28), (3, None), (4, None)])
    def test_lambda_family(self, n, expected):
        problems = [build_a_lambda(i / 200) for i in range(1, 200, 6)]
        problems += [build_a_lambda(lam) for lam in (0.125, 0.25, 0.5, 0.75)]
        original, *hybrid = _hhl_batches(problems, n)
        assert set(self._check(original)) == {expected}
        for batch in hybrid:
            self._check(batch)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from([1, 2, 3]), st.sampled_from([2, 4]))
    def test_random_problems_with_a_prepared_b(self, seed, n, d):
        # a d = 4 b is prepared by a 2-qubit unitary, which does not lower
        rng = np.random.default_rng(seed)
        problems = [random_problem(rng, d) for _ in range(4)]
        for batch in _hhl_batches(problems, n):
            counts = self._check(batch)
            if d == 4:
                assert counts == [None] * len(batch)

    def test_one_inversion_per_batch(self, monkeypatch):
        problems = [build_a_lambda(lam) for lam in (0.1, 0.25, 0.3, 0.5, 0.9)]
        batch = next(_hhl_batches(problems, 3))  # the original circuits
        calls, subset_angles = [], circuits._subset_angles
        monkeypatch.setattr(circuits, "_subset_angles",
                            lambda *a: calls.append(a) or subset_angles(*a))
        assert circuits.cnot_counts(batch) == [None] * 5
        assert len(calls) == 1 and np.shape(calls[0][0]) == (5, 8)


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
