"""Quantum phase estimation: circuit construction, exact register statistics,
and the measured QPEA used as the hybrid solver's first step.

Register bit 1 (most significant) controls the highest unitary power, so a
measured register string reads directly as the n-bit eigenvalue estimate.
The QPEA circuit prepares b (:func:`prepare_b`) as the HHL circuit does.
:func:`run_qpea` is the one QPEA entry: exact probabilities for ``shots == 0``,
with or without noise, and a seeded draw from them for ``shots > 0``. It
always runs :func:`qpea_distribution_noisy`, the one run of :func:`build_qpe`
(its closed form is ``oracles.qpea_distribution``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuits, noise as noise_mod, qstate
from .circuits import Circuit, Gate, gate
from .errors import DomainError
from .problem import HermitianProblem, unitary_power
from .qstate import MeasurementHistogram


@dataclass(frozen=True)
class QpeConfig:
    n: int
    problem: HermitianProblem

    def __post_init__(self):
        qstate.check_width(self.n, self.problem.num_qubits)


def prepare_b(problem: HermitianProblem, v_qubits) -> list[Gate]:
    """Gates sending |0...0> on the input wires to b: none if b is |0...0>,
    else one ``unitary`` gate of ``problem.b_preparation``, made once per
    problem and unitary by construction, so taken unchecked. Builders put it
    before :func:`qpe_block`, not inside: the HHL circuit undoes that block."""
    u = problem.b_preparation
    return [] if u is None else [Gate("unitary", tuple(v_qubits), (), u)]


def qpe_block(problem: HermitianProblem, n: int, register, v_qubits, physical_swap=False):
    """Forward QPE gate sequence on explicit wires.

    Returns ``(gates, out_register)`` where ``out_register[i]`` is the wire
    holding register bit i+1 afterwards (differs from ``register`` when the
    inverse-QFT swap layer is absorbed by relabeling).
    """
    register = list(register)
    v_qubits = list(v_qubits)
    spectral = problem.spectral
    gates = [gate("h", q) for q in register]
    for i, q in enumerate(register):
        u = unitary_power(spectral, 2 ** (n - 1 - i))  # unitary by construction
        gates.append(Gate("cunitary", (q, *v_qubits), (), u))
    iqft, out_register = circuits.inverse_qft_gates(register, physical_swap=physical_swap)
    gates.extend(iqft)
    return gates, out_register


def build_qpe(config: QpeConfig, physical_swap: bool = False) -> Circuit:
    """Standalone measured QPE(A) circuit (the QPEA): register on wires
    0..n-1, input wires after, prepared in b; the relabeled register is measured."""
    n = config.n
    q = config.problem.num_qubits
    register = list(range(n))
    v_qubits = list(range(n, n + q))
    gates, out_register = qpe_block(
        config.problem, n, register, v_qubits, physical_swap=physical_swap
    )
    gates = prepare_b(config.problem, v_qubits) + gates
    roles = {"register": tuple(out_register), "input": tuple(v_qubits)}
    return Circuit(n + q, tuple(gates), roles, tuple(out_register))


def register_distribution_exact(problem: HermitianProblem, n: int) -> MeasurementHistogram:
    """Exact QPEA outcome probabilities without noise."""
    return qpea_distribution_noisy(problem, n, None)


def run_qpea(
    problem: HermitianProblem,
    n: int,
    shots: int = 0,
    seed: int | None = None,
    noise=None,
) -> MeasurementHistogram:
    """The QPEA register histogram; deterministic for a fixed seed.

    ``shots == 0`` gives the exact probabilities of
    :func:`qpea_distribution_noisy`, with or without ``noise``; ``shots > 0``
    draws that many outcomes from them.
    """
    if shots < 0:
        raise DomainError("shots must be >= 0")
    dist = qpea_distribution_noisy(problem, n, noise)
    if shots == 0:
        return dist
    p = np.array([dist.outcomes[x] for x in sorted(dist.outcomes)])
    return qstate._draw(p, shots, seed)


def qpea_distribution_noisy(problem: HermitianProblem, n: int, noise) -> MeasurementHistogram:
    """Exact register distribution of the QPEA circuit: compiled and under
    ``noise`` if given, else its source gates on a statevector."""
    circuit = build_qpe(QpeConfig(n, problem))
    if noise is not None:
        circuit = circuits.compile_circuit(circuit)
    state = noise_mod.run_noisy(circuit, noise)
    return noise_mod.readout_distribution(state, circuit, noise)
