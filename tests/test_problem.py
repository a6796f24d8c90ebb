"""Problem family, spectral analysis, and binary eigenvalue estimates."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhlsim.errors import DomainError, ValidationError
from hhlsim.problem import (
    HermitianProblem,
    binary_estimate,
    build_a_lambda,
    classical_solution,
    load_problem,
    problem_from_dict,
    unitary_power,
)


class TestBuildALambda:
    @pytest.mark.parametrize("lam", np.linspace(0.05, 0.95, 19))
    def test_eigenstructure(self, lam):
        spectral = build_a_lambda(lam).spectral
        assert sorted(spectral.eigenvalues) == pytest.approx(
            sorted([lam, 1 - lam]), abs=1e-12
        )
        # |+> belongs to lam, |-> to 1-lam; check via matrix action so the
        # near-degenerate middle of the grid is handled too
        a = spectral.reconstruct()
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        np.testing.assert_allclose(a @ plus, lam * plus, atol=1e-10)
        np.testing.assert_allclose(a @ minus, (1 - lam) * minus, atol=1e-10)

    def test_rejects_endpoints(self):
        with pytest.raises((DomainError, ValidationError)):
            build_a_lambda(0.0)
        with pytest.raises((DomainError, ValidationError)):
            build_a_lambda(1.0)

    def test_quarter_solution(self):
        problem = build_a_lambda(0.25)
        x, norm = classical_solution(problem)
        expected = np.array([2, 1]) / np.sqrt(5)
        np.testing.assert_allclose(x, expected, atol=1e-12)
        # the rotation constant c = 1/norm
        assert 1.0 / norm == pytest.approx(3 / (4 * np.sqrt(5)), abs=1e-12)

    def test_half_solution(self):
        problem = build_a_lambda(0.5)
        x, norm = classical_solution(problem)
        np.testing.assert_allclose(x, [1, 0], atol=1e-12)
        assert 1.0 / norm == pytest.approx(0.5, abs=1e-12)


class TestHermitianProblem:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianProblem(np.array([[0.5, 0.3], [0.1, 0.5]]), np.array([1, 0]))

    def test_hermitian_tolerance_is_absolute(self):
        # eigh reads only the lower triangle, so the upper one must be checked
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianProblem([[0.3, 0.1 + 1e-6], [0.1, 0.6]], [1, 0])

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_solution_from_eigendecomposition_matches_direct_solve(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, _ = np.linalg.qr(z)
            a = (q * rng.uniform(0.02, 0.98, size=d)) @ q.conj().T
            b = rng.normal(size=d) + 1j * rng.normal(size=d)
            problem = HermitianProblem((a + a.conj().T) / 2, b / np.linalg.norm(b))
            direct = np.linalg.solve(problem.matrix, problem.b)
            x, norm = classical_solution(problem)
            assert norm == pytest.approx(np.linalg.norm(direct), rel=1e-12)
            np.testing.assert_allclose(x, direct / np.linalg.norm(direct), rtol=0, atol=1e-12)

    def test_rejects_unnormalized_b(self):
        with pytest.raises(ValidationError):
            HermitianProblem(np.eye(2) * 0.5, np.array([1, 1]))

    def test_decomposed_once_when_made(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append("eigh") or eigh(*a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: calls.append("eigvalsh"))
        problem = HermitianProblem(np.diag([0.25, 0.75]), np.array([1, 0]))
        np.testing.assert_array_equal(problem.spectral.eigenvalues, [0.25, 0.75])
        assert calls == ["eigh"]

    def test_rejects_spectrum_outside_open_interval(self):
        with pytest.raises(ValidationError):
            HermitianProblem(np.diag([0.5, 1.5]), np.array([1, 0]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9), st.sampled_from([2, 4]))
    def test_spectral_reconstruction(self, seed, d):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        vals = rng.uniform(0.05, 0.95, size=d)
        a = (q * vals) @ q.conj().T
        a = (a + a.conj().T) / 2
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        problem = HermitianProblem(a, b / np.linalg.norm(b))
        np.testing.assert_allclose(problem.spectral.reconstruct(), a, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_b_preparation_is_a_unitary_with_first_column_b(self, d):
        rng = np.random.default_rng(70 + d)
        for _ in range(5):
            b = rng.normal(size=d) + 1j * rng.normal(size=d)
            problem = HermitianProblem(np.diag(np.linspace(0.2, 0.8, d)), b / np.linalg.norm(b))
            u = problem.b_preparation
            assert u is problem.b_preparation  # made once per problem
            assert not u.flags.writeable
            np.testing.assert_allclose(u.conj().T @ u, np.eye(d), rtol=0, atol=1e-12)
            np.testing.assert_allclose(u[:, 0], problem.b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_no_b_preparation_for_the_zero_state(self, d):
        b = np.eye(d)[0]
        assert HermitianProblem(np.diag(np.linspace(0.2, 0.8, d)), b).b_preparation is None

    def test_unitary_power_diagonalizes(self):
        problem = build_a_lambda(0.25)
        u = unitary_power(problem.spectral, 1)
        plus = np.array([1, 1]) / np.sqrt(2)
        np.testing.assert_allclose(u @ plus, np.exp(2j * np.pi * 0.25) * plus, atol=1e-12)
        np.testing.assert_allclose(
            unitary_power(problem.spectral, 2), u @ u, atol=1e-12
        )
        np.testing.assert_allclose(
            unitary_power(problem.spectral, -1), u.conj().T, atol=1e-12
        )


class TestBinaryEstimate:
    @pytest.mark.parametrize(
        "lam,n,expected",
        [(0.25, 2, "01"), (0.5, 2, "10"), (0.75, 2, "11"), (0.625, 3, "101"), (0.3, 2, "01")],
    )
    def test_values(self, lam, n, expected):
        assert binary_estimate(lam, n) == expected

    def test_near_dyadic_rounds(self):
        assert binary_estimate(0.25 + 1e-12, 2) == "01"


class TestProblemIO:
    def test_lambda_kind(self):
        problem = problem_from_dict({"kind": "lambda", "lambda": 0.25})
        np.testing.assert_allclose(problem.matrix, build_a_lambda(0.25).matrix)

    def test_matrix_kind_roundtrip(self, tmp_path):
        spec = {
            "kind": "matrix",
            "dim": 2,
            "a_real": [[0.5, 0.1], [0.1, 0.5]],
            "a_imag": [[0.0, 0.2], [-0.2, 0.0]],
            "b_real": [1.0, 0.0],
            "b_imag": [0.0, 0.0],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        problem = load_problem(path)
        expected = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
        np.testing.assert_allclose(problem.matrix, expected)

    def test_unknown_kind_rejected(self):
        with pytest.raises((DomainError, ValidationError)):
            problem_from_dict({"kind": "nope"})

    @pytest.mark.parametrize(
        "spec",
        [
            [1, 2],
            {"kind": "lambda"},
            {"kind": "lambda", "lambda": [0.25]},
            {"kind": "lambda", "lambda": True},
            {"kind": "matrix", "dim": 2},
            {"kind": "matrix", "dim": "two"},
            {"kind": "matrix", "dim": 2.9},
            {"kind": "matrix", "dim": True},
            {
                "kind": "matrix",
                "dim": 2,
                "a_real": [0.5, 0.1, 0.1],
                "a_imag": [[0.0, 0.0], [0.0, 0.0]],
                "b_real": [1.0, 0.0],
                "b_imag": [0.0, 0.0],
            },
            {
                "kind": "matrix",
                "dim": 2,
                "a_real": [[0.5, 0.1], [0.1, 0.5]],
                "a_imag": [[0.0, 0.0], [0.0, 0.0]],
                "b_real": [1.0, 0.0],
                "b_imag": [0.0, 0.0, 0.0],
            },
            {
                "kind": "matrix",
                "dim": 2,
                "a_real": [[float("inf"), 0.1], [0.1, 0.5]],
                "a_imag": [[0.0, 0.0], [0.0, 0.0]],
                "b_real": [1.0, 0.0],
                "b_imag": [0.0, 0.0],
            },
            {
                "kind": "matrix",
                "dim": 2,
                "a_real": [[0.5, 0.1], [0.1, 0.5]],
                "a_imag": [[0.0, 0.0], [0.0, 0.0]],
                "b_real": [float("nan"), 0.0],
                "b_imag": [0.0, 0.0],
            },
        ],
        ids=[
            "not-an-object",
            "lambda-missing",
            "lambda-not-a-number",
            "lambda-bool",
            "matrix-entries-missing",
            "dim-not-an-integer",
            "dim-fractional",
            "dim-bool",
            "a-wrong-shape",
            "b-wrong-shape",
            "a-infinite",
            "b-nan",
        ],
    )
    def test_malformed_description_rejected(self, spec):
        with pytest.raises(ValidationError):
            problem_from_dict(spec)
