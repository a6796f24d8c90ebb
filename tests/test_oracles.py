"""Closed-form fidelities, analytic phase-estimation probabilities, and the
independent matrix-algebra solver they are checked against."""

import numpy as np
import pytest

from hhlsim import oracles, solvers
from hhlsim.errors import DomainError
from hhlsim.problem import HermitianProblem, build_a_lambda, classical_solution
from hhlsim.qpe import register_distribution_exact
from hhlsim.qstate import StateVector, fidelity_pure

GRID = np.linspace(0.005, 0.995, 199)


class TestFidelityConventionCalibration:
    """The closed forms pin the fidelity convention used across the package:
    they match the squared-overlap reading <psi|rho|psi>, not its square root."""

    def test_overlap_convention_matches_f1(self):
        for lam in (0.1, 0.25, 0.3, 0.475, 0.8):
            problem = build_a_lambda(lam)
            rho, _ = oracles.brute_force_hhl(problem, 1)
            x, _ = classical_solution(problem)
            psi = StateVector(1, x)
            assert fidelity_pure(rho, psi) == pytest.approx(oracles.f1(lam), abs=1e-12)

    def test_sqrt_convention_does_not_match(self):
        problem = build_a_lambda(0.3)
        rho, _ = oracles.brute_force_hhl(problem, 1)
        x, _ = classical_solution(problem)
        sqrt_convention = np.sqrt(fidelity_pure(rho, StateVector(1, x)))
        assert abs(sqrt_convention - oracles.f1(0.3)) > 0.05


class TestClosedForms:
    def test_f1_against_brute_force(self):
        for lam in GRID:
            assert oracles.f1(lam) == pytest.approx(
                oracles.brute_force_fidelity(lam, 1), abs=1e-10
            )

    def test_f2_against_brute_force(self):
        for lam in GRID:
            assert oracles.f2(lam) == pytest.approx(
                oracles.brute_force_fidelity(lam, 2), abs=1e-10
            )

    def test_f3_against_brute_force(self):
        for lam in GRID:
            assert oracles.f3(lam) == pytest.approx(
                oracles.brute_force_fidelity(lam, 3), abs=1e-10
            )

    def test_dyadic_points_are_exact(self):
        for lam in (0.25, 0.5, 0.75):
            assert oracles.f2(lam) == pytest.approx(1.0, abs=1e-9)
            assert oracles.f3(lam) == pytest.approx(1.0, abs=1e-9)
        assert oracles.f3(0.125) == pytest.approx(1.0, abs=1e-9)

    def test_ordering_near_half(self):
        lam = 0.475
        assert oracles.f3(lam) < oracles.f2(lam) < oracles.f1(lam) < 1.0

    def test_domain_validation(self):
        for fn in (oracles.f1, oracles.f2, oracles.f3):
            with pytest.raises(DomainError):
                fn(0.0)
            with pytest.raises(DomainError):
                fn(1.0)

    def test_published_n8_variant_disagrees(self):
        """The printed form of the eighth numerator breaks the conjugate
        symmetry every other term obeys; evaluated verbatim it departs from
        the brute-force oracle by far more than transcription tolerance,
        while the symmetric repair agrees to machine precision."""
        lam = 0.13
        repaired = oracles.f3(lam)
        verbatim = oracles.f3(lam, verbatim=True)
        reference = oracles.brute_force_fidelity(lam, 3)
        assert abs(repaired - reference) < 1e-12
        assert abs(verbatim - reference) > 1e-6


class TestQpeaAnalytic:
    def test_matches_simulated_distribution(self):
        for lam in GRID[::7]:
            dist = register_distribution_exact(build_a_lambda(lam), 2).outcomes
            for outcome in ("00", "01", "10", "11"):
                assert oracles.qpea_prob_analytic(lam, outcome) == pytest.approx(
                    dist[outcome], abs=1e-12
                )

    def test_amplitude_forms_magnitudes(self):
        for lam in (0.1, 0.3, 0.62, 0.9):
            amp = oracles.qpea_amplitude_forms(lam)
            for outcome, value in amp.items():
                assert abs(value) == pytest.approx(
                    oracles.qpea_prob_analytic(lam, outcome), abs=1e-12
                )

    def test_probabilities_sum_to_one(self):
        for lam in GRID[::5]:
            total = sum(
                oracles.qpea_prob_analytic(lam, o) for o in ("00", "01", "10", "11")
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_quarter_point_exact(self):
        assert oracles.qpea_prob_analytic(0.25, "01") == 0.5
        assert oracles.qpea_prob_analytic(0.25, "11") == 0.5

    def test_unknown_outcome_rejected(self):
        with pytest.raises(DomainError):
            oracles.qpea_prob_analytic(0.3, "2")


class TestQpeaDistribution:
    """The general closed form, Pr(x) = sum_j |alpha_j|^2 |beta_{x|j}|^2."""

    def test_exact_phase_gives_unit_weight(self):
        problem = HermitianProblem(np.diag([0.25, 0.75]), np.array([1.0, 0.0]))
        probs = oracles.qpea_distribution(problem, 2)
        assert probs[1] == pytest.approx(1.0, abs=1e-12)
        assert probs[2] == pytest.approx(0.0, abs=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(4)
        problems = [build_a_lambda(lam) for lam in (0.1, 0.3, 0.77)]
        problems.append(solvers.random_perfectly_estimated_problem(rng, 4, 3, 1))
        for problem in problems:
            probs = oracles.qpea_distribution(problem, 3)
            assert probs.shape == (8,)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestBruteForce:
    def test_success_probability_half(self):
        _, succ = oracles.brute_force_hhl(build_a_lambda(0.5), 2)
        assert succ == pytest.approx(1 / 16, abs=1e-12)

    def test_density_matrix_valid(self):
        rho, _ = oracles.brute_force_hhl(build_a_lambda(0.3), 2)
        assert np.real(np.trace(rho.entries)) == pytest.approx(1.0, abs=1e-10)

    def test_curve_points(self):
        for lam in (0.25, 0.475):
            assert abs(oracles.brute_force_fidelity(lam, 2) - oracles.f2(lam)) < 1e-10
        assert oracles.f2(0.25) == pytest.approx(1.0, abs=1e-9)
