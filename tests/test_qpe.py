"""Phase-estimation block and measured-register distributions."""

import numpy as np
import pytest

from hhlsim import circuits, noise as noise_mod, oracles, qpe, qstate, solvers
from hhlsim.errors import DomainError, ValidationError
from hhlsim.problem import build_a_lambda, unitary_power
from hhlsim.qpe import (
    build_qpe,
    qpe_block,
    qpea_distribution_noisy,
    register_distribution_exact,
    run_qpea,
)
from problem_helpers import circuit_unitary, equal_up_to_phase, random_problem


class TestRegisterDistribution:
    def test_quarter(self):
        dist = register_distribution_exact(build_a_lambda(0.25), 2).outcomes
        assert dist["01"] == pytest.approx(0.5, abs=1e-12)
        assert dist["11"] == pytest.approx(0.5, abs=1e-12)

    def test_half(self):
        dist = register_distribution_exact(build_a_lambda(0.5), 2).outcomes
        assert dist["10"] == pytest.approx(1.0, abs=1e-12)

    def test_matches_beta_expansion(self):
        problem, n = build_a_lambda(0.3), 3
        dist = register_distribution_exact(problem, n).outcomes
        expected = oracles.qpea_distribution(problem, n)
        for x in range(2**n):
            assert dist[format(x, f"0{n}b")] == pytest.approx(expected[x], abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_oracle_on_lambda_grid(self, n):
        for j in range(1, 32):
            problem = build_a_lambda(j / 32 + 0.003)
            got = list(register_distribution_exact(problem, n).outcomes.values())
            assert np.abs(got - oracles.qpea_distribution(problem, n)).max() <= 1e-12

    @pytest.mark.parametrize("d,m,k", [(2, 2, 1), (4, 3, 1), (4, 3, 2), (8, 4, 2)])
    def test_matches_oracle_on_random_problems(self, d, m, k):
        """Problems of the classes the hybrid is benchmarked on, d = 2, 4, 8,
        at every register size up to 4, not only the one they are exact at."""
        rng = np.random.default_rng(d * 10 + k)
        for _ in range(3):
            problem = solvers.random_perfectly_estimated_problem(rng, d, m, k)
            for n in range(1, 5):
                got = list(register_distribution_exact(problem, n).outcomes.values())
                assert np.abs(got - oracles.qpea_distribution(problem, n)).max() <= 1e-12

    def test_runs_the_circuit_once(self, monkeypatch):
        runs = []
        run_noisy = noise_mod.run_noisy
        monkeypatch.setattr(
            noise_mod, "run_noisy", lambda c, noise=None: runs.append(c) or run_noisy(c, noise)
        )
        register_distribution_exact(build_a_lambda(0.3), 3)
        assert len(runs) == 1
        # the source circuit, not its compiled form
        assert [g.kind for g in runs[0].gates].count("cunitary") == 1

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_kernel_call_per_source_gate(self, monkeypatch, n):
        """With b = |0>, an exact QPEA is n h, one cunitary and one qft gate:
        n + 2 kernel calls."""
        kernel, calls = qstate.apply_operator, []
        monkeypatch.setattr(qstate, "apply_operator", lambda *a: calls.append(a) or kernel(*a))
        register_distribution_exact(build_a_lambda(0.3), n)
        assert len(calls) == n + 2


class TestBuildQpe:
    @pytest.mark.parametrize(
        "problem,n",
        [(build_a_lambda(0.3), 2)]
        + [(random_problem(seed), n) for n in (1, 2, 3) for seed in (0, 1, 2)],
        ids=["lambda0.3-n2"] + [f"b{seed}-n{n}" for n in (1, 2, 3) for seed in (0, 1, 2)],
    )
    def test_circuit_reproduces_distribution(self, problem, n):
        """The compiled QPEA at zero noise gives the closed-form distribution,
        also for a b that the circuit has to prepare."""
        compiled = circuits.compile_circuit(build_qpe(problem, n))
        noise = noise_mod.NoiseParams(t1_ns=1e18)
        hist = noise_mod.readout_distribution(noise_mod.run_noisy(compiled, noise), compiled, noise)
        ref = oracles.qpea_distribution(problem, n)
        assert list(hist.outcomes) == [format(x, f"0{n}b") for x in range(2**n)]
        for val, expected in zip(hist.outcomes.values(), ref):
            assert val == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unitary_powers_are_read_only_and_unitary(self, d, n):
        """The cunitary gate takes the stack of unitary powers unchecked: it
        is read-only, each block is unitary to 1e-12, and the block of each
        register bit, 2^(n - 1 - i), is bit-equal to its own unitary_power."""
        for seed in range(3):
            problem = random_problem(seed, d)
            gates, _ = qpe_block(problem, n, range(n), range(n, n + d.bit_length() - 1))
            (powers,) = [g.matrix for g in gates if g.kind == "cunitary"]
            assert powers.shape == (2**n, d, d) and not powers.flags.writeable
            for u in powers:
                qstate._check_unitary(u, atol=1e-12)
            for i in range(n):
                m = 2 ** (n - 1 - i)
                assert np.array_equal(powers[m], unitary_power(problem.spectral, m))

    def test_inverse_direction_is_adjoint(self):
        problem = build_a_lambda(0.3)
        fwd = build_qpe(problem, 2)
        inv = circuits.adjoint(qpe_block(problem, 2, [0, 1], [2])[0])
        u = circuit_unitary(fwd.gates + tuple(inv), fwd.num_qubits)
        assert equal_up_to_phase(u, np.eye(2**fwd.num_qubits), atol=1e-9)


class TestRunQpea:
    def test_seeded_sampling_reproducible(self):
        problem = build_a_lambda(0.25)
        a = run_qpea(problem, 2, shots=512, seed=3)
        b = run_qpea(problem, 2, shots=512, seed=3)
        assert a.outcomes == b.outcomes
        assert sum(a.outcomes.values()) == 512

    @pytest.mark.parametrize("problem", [build_a_lambda(0.3), random_problem(1)])
    def test_zero_shots_gives_exact_probabilities(self, problem):
        assert run_qpea(problem, 3).outcomes == register_distribution_exact(problem, 3).outcomes
        noise = noise_mod.NoiseParams(t1_ns=20_000.0, readout_flip=0.02)
        got = run_qpea(problem, 2, noise=noise)
        assert got.shots is None
        assert got.outcomes == qpea_distribution_noisy(problem, 2, noise).outcomes

    def test_shots_draw_from_the_noisy_distribution(self):
        problem = random_problem(2)
        noise = noise_mod.NoiseParams(t1_ns=20_000.0)
        a = run_qpea(problem, 2, shots=4000, seed=5, noise=noise)
        assert a.outcomes == run_qpea(problem, 2, shots=4000, seed=5, noise=noise).outcomes
        assert sum(a.outcomes.values()) == 4000
        exact = qpea_distribution_noisy(problem, 2, noise).outcomes
        for key, count in a.outcomes.items():
            assert count / 4000 == pytest.approx(exact[key], abs=0.05)

    def test_negative_shots_rejected(self):
        with pytest.raises(DomainError):
            run_qpea(build_a_lambda(0.25), 2, shots=-1)

    def test_width_limit(self):
        # 12 register bits + 1 input qubit: refused before anything is built
        with pytest.raises(ValidationError, match="13-qubit"):
            run_qpea(build_a_lambda(0.3), 12)

    def test_config_refuses_width_before_any_power(self, monkeypatch):
        """e^{2 pi i 2^1099 A} cannot be formed; the width check comes first."""
        monkeypatch.setattr(qpe, "unitary_power", lambda *a: pytest.fail("built"))
        with pytest.raises(ValidationError, match="1101-qubit"):
            build_qpe(build_a_lambda(0.3), 1100)

    def test_noisy_distribution_keeps_peaks(self):
        problem = build_a_lambda(0.25)
        dist = qpea_distribution_noisy(problem, 2, noise_mod.NoiseParams()).outcomes
        assert dist["01"] >= 0.3
        assert dist["11"] >= 0.3
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
