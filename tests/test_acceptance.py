"""Acceptance suite: one test per criterion, one PASS line each.

Each test prints a single `ACCEPTANCE n: PASS — ...` line on success (visible
with `pytest -s` or in captured output on failure) and pins the tolerances
stated in its docstring.
"""

import json

import numpy as np
import pytest

from hhlsim import circuits, oracles, qpe, solvers
from hhlsim.cli import main as cli_main
from hhlsim.noise import NoiseParams, survival_bound
from hhlsim.problem import build_a_lambda

LAMBDA_GRID = np.linspace(0.0, 1.0, 23)[1:-1]  # 21 interior values


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS — {text}")


def test_acceptance_1_eigenstructure():
    """Matrix family eigenvalues {lambda, 1-lambda} and |+/-> eigenvectors
    within 1e-10 at 21 interior lambda values."""
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    for lam in LAMBDA_GRID:
        spectral = build_a_lambda(lam).spectral
        vals = np.sort(spectral.eigenvalues)
        np.testing.assert_allclose(vals, sorted([lam, 1 - lam]), atol=1e-10)
        for target, want in ((plus, lam), (minus, 1 - lam)):
            reconstructed = spectral.reconstruct()
            np.testing.assert_allclose(reconstructed @ target, want * target, atol=1e-10)
    _report(1, "eigenvalues and |+>/|-> eigenvectors within 1e-10 at 21 points")


def test_acceptance_2_qpea_oracle_equivalence():
    """Simulated 2-bit register distribution equals the analytic trig forms
    within 1e-12 across the grid; Pr(01) = Pr(11) = 1/2 exactly at 1/4."""
    for lam in LAMBDA_GRID:
        dist = qpe.register_distribution_exact(build_a_lambda(lam), 2).outcomes
        for outcome in ("00", "01", "10", "11"):
            assert abs(dist.get(outcome, 0.0) - oracles.qpea_prob_analytic(lam, outcome)) < 1e-12
    assert oracles.qpea_prob_analytic(0.25, "01") == 0.5
    assert oracles.qpea_prob_analytic(0.25, "11") == 0.5
    _report(2, "register distribution matches trig forms within 1e-12; "
               "Pr(01)=Pr(11)=1/2 exactly at lambda=1/4")


def test_acceptance_3_fidelity_curves():
    """Simulator fidelity matches the closed forms within 1e-8 on the grid
    under the squared-overlap convention; F2 = F3 = 1 at quarter points within
    1e-9; F3 < F2 < F1 at 0.475. The published eighth numerator of the
    three-qubit form disagrees with the brute-force oracle beyond 1e-6 (its
    conjugate symmetry is broken as printed); the evaluated form uses the
    symmetric repair, which the brute-force oracle confirms to 1e-10, and the
    verbatim variant stays available behind a flag."""
    grid = np.linspace(0.005, 0.995, 199)
    closed = {1: oracles.f1, 2: oracles.f2, 3: oracles.f3}
    for n, fn in closed.items():
        for lam in grid:
            sim = solvers.run_original_hhl(build_a_lambda(lam), n).fidelity
            assert abs(sim - fn(lam)) < 1e-8
    for lam in (0.25, 0.5, 0.75):
        assert abs(oracles.f2(lam) - 1.0) < 1e-9
        assert abs(oracles.f3(lam) - 1.0) < 1e-9
    assert oracles.f3(0.475) < oracles.f2(0.475) < oracles.f1(0.475)
    assert abs(oracles.f3(0.13, verbatim=True) - oracles.brute_force_fidelity(0.13, 3)) > 1e-6
    _report(3, "F1/F2/F3 curves within 1e-8; quarter points exact to 1e-9; "
               "F3<F2<F1 at 0.475; printed-N8 discrepancy documented")


def test_acceptance_4_hybrid_equals_original_noiseless():
    """Hybrid and original pipelines agree on the post-selected state
    (fidelity >= 1 - 1e-9) and success probability (1e-10) at the 2-bit
    dyadic points."""
    for lam in (0.25, 0.5, 0.75):
        problem = build_a_lambda(lam)
        hybrid = solvers.run_hybrid_hhl(problem, 2)
        original = solvers.run_original_hhl(problem, 2)
        overlap = float(np.real(np.trace(hybrid.rho_v.entries @ original.rho_v.entries)))
        assert overlap >= 1.0 - 1e-9
        assert abs(hybrid.success_probability - original.success_probability) <= 1e-10
    _report(4, "hybrid == original at lambda in {1/4, 2/4, 3/4}: state fidelity "
               ">= 1-1e-9, success probabilities within 1e-10")


def test_acceptance_5_reduced_encoding_property_suite():
    """100 randomized perfectly estimated problems (d in {2,4}, n in {2,3},
    k in [1,n]): reduced and full encodings agree to fidelity >= 1 - 1e-9."""
    rng = np.random.default_rng(20240817)
    for trial in range(100):
        d = int(rng.choice([2, 4]))
        n = int(rng.choice([2, 3]))
        k = int(rng.integers(1, n + 1))
        problem = solvers.random_perfectly_estimated_problem(rng, d, n, k)
        assert solvers.reduced_encoding_equivalence_check(problem, n), (
            f"trial {trial}: d={d} n={n} k={k}"
        )
    _report(5, "100/100 randomized reduced-vs-full equivalence checks passed")


def test_acceptance_6_gate_counts():
    """Compiled circuits report 6 / 28 / 14 CNOTs (measured phase estimation /
    original / reduced at lambda = 1/4) and reduced = original - 14 holds for
    both swap-handling variants."""
    problem = build_a_lambda(0.25)
    qpea = circuits.compile_circuit(qpe.build_qpe(problem, 2))
    assert qpea.cnot_count == 6
    full = solvers.build_aqe(problem, 2)
    reduced = solvers.synthesize_reduced_aqe(
        solvers.estimate_from_spectral(problem, 2), full.c
    )
    for physical_swap in (False, True):
        c_full = circuits.compile_circuit(
            solvers.build_hhl_circuit(problem, 2, full, physical_swap=physical_swap)
        )
        c_red = circuits.compile_circuit(
            solvers.build_hhl_circuit(problem, 2, reduced, physical_swap=physical_swap)
        )
        assert c_full.cnot_count - c_red.cnot_count == 14
        if not physical_swap:
            assert c_full.cnot_count == 28
            assert c_red.cnot_count == 14
    _report(6, "CNOT counts 6/28/14; reduced = original - 14 under both swap flags")


def test_acceptance_7_noise_budget():
    """survival_bound(50) = e^{-1/5} within 1e-4 of 0.8187; a zero-noise
    channel run reproduces the noiseless pipeline within 1e-12."""
    assert abs(survival_bound(50) - 0.8187) < 1e-4
    problem = build_a_lambda(0.25)
    exact = solvers.run_original_hhl(problem, 2)
    zero = solvers.run_original_hhl(problem, 2, noise=NoiseParams(t1_ns=1e18))
    assert abs(zero.fidelity - exact.fidelity) < 1e-12
    assert abs(zero.success_probability - exact.success_probability) < 1e-12
    np.testing.assert_allclose(zero.rho_v.entries, exact.rho_v.entries, atol=1e-12)
    _report(7, "survival_bound(50) = 0.8187 within 1e-4; zero-noise run equals "
               "noiseless run within 1e-12")


def test_acceptance_8_noisy_ordering():
    """Under default noise parameters the hybrid-reduced fidelity exceeds the
    original at lambda in {1/4, 1/2} with both below 1; zero-noise X-basis
    weights reproduce (0.9, 0.1) and (0.5, 0.5) within 1e-9."""
    noise = NoiseParams()
    for lam, weights in ((0.25, (0.9, 0.1)), (0.5, (0.5, 0.5))):
        problem = build_a_lambda(lam)
        noisy_original = solvers.run_original_hhl(problem, 2, noise=noise)
        noisy_hybrid = solvers.run_hybrid_hhl(problem, 2, noise=noise)
        assert noisy_hybrid.fidelity > noisy_original.fidelity
        assert noisy_original.fidelity < 1.0
        assert noisy_hybrid.fidelity < 1.0
        clean = solvers.run_original_hhl(problem, 2)
        assert abs(clean.c_plus_sq - weights[0]) < 1e-9
        assert abs(clean.c_minus_sq - weights[1]) < 1e-9
    _report(8, "hybrid fidelity > original under default noise at 1/4 and 1/2; "
               "zero-noise X-basis weights (0.9,0.1)/(0.5,0.5) within 1e-9")


def test_acceptance_9_cli_determinism(tmp_path):
    """Every CLI command repeated with the same configuration and seed writes
    byte-identical output."""
    commands = [
        ["solve", "--lambda", "0.25", "--mode", "hybrid", "--shots", "1024", "--seed", "7"],
        ["sweep", "--points", "9", "--k", "1,2,3"],
        ["qpea", "--lambda", "0.25", "--n", "2", "--shots", "512", "--seed", "11"],
        ["compare"],
        ["emit-qasm", "--lambda", "0.25", "--circuit", "hybrid"],
    ]
    for i, argv in enumerate(commands):
        a = tmp_path / f"{i}a.out"
        b = tmp_path / f"{i}b.out"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"command {argv[0]} not deterministic"
    _report(9, "all five CLI commands byte-identical across repeated runs")
