"""Phase-estimation block and measured-register distributions."""

import numpy as np
import pytest

from hhlsim import circuits, noise as noise_mod
from hhlsim.problem import build_a_lambda
from hhlsim.qpe import (
    QpeConfig,
    beta_coefficient,
    build_qpe,
    qpe_block,
    qpea_distribution_noisy,
    register_distribution_exact,
    run_qpea,
)


class TestBetaCoefficient:
    def test_exact_phase_gives_unit_weight(self):
        assert abs(beta_coefficient(0.25, 1, 2)) == pytest.approx(1.0)
        assert abs(beta_coefficient(0.25, 2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_weights_sum_to_one(self):
        for lam in (0.1, 0.3, 0.77):
            total = sum(abs(beta_coefficient(lam, x, 3)) ** 2 for x in range(8))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestRegisterDistribution:
    def test_quarter(self):
        dist = register_distribution_exact(build_a_lambda(0.25), 2).outcomes
        assert dist["01"] == pytest.approx(0.5, abs=1e-12)
        assert dist["11"] == pytest.approx(0.5, abs=1e-12)

    def test_half(self):
        dist = register_distribution_exact(build_a_lambda(0.5), 2).outcomes
        assert dist["10"] == pytest.approx(1.0, abs=1e-12)

    def test_matches_beta_expansion(self):
        lam, n = 0.3, 3
        problem = build_a_lambda(lam)
        dist = register_distribution_exact(problem, n).outcomes
        alphas = problem.spectral.amplitudes
        lams = problem.spectral.eigenvalues
        for x in range(2**n):
            expected = sum(
                abs(a) ** 2 * abs(beta_coefficient(l, x, n)) ** 2
                for a, l in zip(alphas, lams)
            )
            assert dist[format(x, f"0{n}b")] == pytest.approx(expected, abs=1e-12)


class TestBuildQpe:
    def test_circuit_reproduces_distribution(self):
        problem = build_a_lambda(0.3)
        circuit = build_qpe(QpeConfig(2, problem))
        compiled = circuits.compile_circuit(circuit)
        zero = noise_mod.NoiseParams(t1_ns=1e18)
        _, hist = noise_mod.run_noisy(compiled, zero)
        ref = register_distribution_exact(problem, 2).outcomes
        for key, val in ref.items():
            assert hist.outcomes[key] == pytest.approx(val, abs=1e-10)

    def test_inverse_direction_is_adjoint(self):
        problem = build_a_lambda(0.3)
        fwd = build_qpe(QpeConfig(2, problem))
        inv = circuits.adjoint(qpe_block(problem, 2, [0, 1], [2])[0])
        fwd_gates = [g for g in fwd.gates if g.kind != "measure"]
        u = circuits.circuit_unitary(fwd_gates + inv, fwd.num_qubits)
        assert circuits.equal_up_to_phase(u, np.eye(2**fwd.num_qubits), atol=1e-9)


class TestRunQpea:
    def test_seeded_sampling_reproducible(self):
        problem = build_a_lambda(0.25)
        a = run_qpea(problem, 2, shots=512, seed=3)
        b = run_qpea(problem, 2, shots=512, seed=3)
        assert a.outcomes == b.outcomes
        assert sum(a.outcomes.values()) == 512

    def test_noisy_distribution_keeps_peaks(self):
        problem = build_a_lambda(0.25)
        dist = qpea_distribution_noisy(problem, 2, noise_mod.NoiseParams()).outcomes
        assert dist["01"] >= 0.3
        assert dist["11"] >= 0.3
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
