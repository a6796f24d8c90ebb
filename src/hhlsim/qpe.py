"""Quantum phase estimation: circuit construction, exact register statistics,
and the measured QPEA used as the hybrid solver's first step.

Register bit 1 (most significant) controls the highest unitary power, so a
measured register string reads directly as the n-bit eigenvalue estimate.
The QPEA circuit prepares b (:func:`prepare_b`) as the HHL circuit does.
:func:`run_qpea` is the one QPEA entry: exact probabilities for ``shots == 0``,
with or without noise, and a seeded draw from them for ``shots > 0``;
:func:`register_distribution_exact` and :func:`qpea_distribution_noisy` call
it. It and the hybrid solver's restarts share one run of the QPEA,
``_run_qpea`` (its closed form is ``oracles.qpea_distribution``); it and
:func:`build_qpe` check the register first (:func:`qstate.check_width`), then
build unchecked, with the powers the problem keeps (``HermitianProblem.powers``).
"""

from __future__ import annotations

import numpy as np

from . import circuits, noise as noise_mod, qstate
from .circuits import Circuit, Gate
from .problem import HermitianProblem
from .qstate import MeasurementHistogram


def prepare_b(problem: HermitianProblem, v_qubits) -> list[Gate]:
    """Gates sending |0...0> on the input wires to b: none if b is |0...0>,
    else one ``unitary`` gate of ``problem.b_preparation``, made once per
    problem and unitary by construction, so taken unchecked. Builders put it
    before :func:`qpe_block`, not inside: the HHL circuit undoes that block."""
    u = problem.b_preparation
    return [] if u is None else [Gate("unitary", tuple(v_qubits), (), u)]


def qpe_block(problem: HermitianProblem, n: int, register, v_qubits, physical_swap=False):
    """Forward QPE gate sequence on explicit wires: n ``h``, the controlled
    powers as one ``cunitary`` gate, sum_x |x><x| (x) U^x over the register
    values x (a uniformly controlled gate, Mottonen et al., PRL 93, 130502,
    2004), and the inverse QFT.

    Returns ``(gates, out_register)`` where ``out_register[i]`` is the wire
    holding register bit i+1 afterwards (differs from ``register`` when the
    inverse-QFT swap layer is absorbed by relabeling).
    """
    register = list(register)
    gates = [Gate("h", (q,)) for q in register]
    powers = problem.powers(n)  # the powers of a unitary, kept by the problem
    gates.append(Gate("cunitary", (*register, *v_qubits), (1,), powers))
    iqft, out_register = circuits.inverse_qft_gates(register, physical_swap=physical_swap)
    gates.extend(iqft)
    return gates, out_register


def build_qpe(problem: HermitianProblem, n: int, physical_swap: bool = False) -> Circuit:
    """Standalone measured QPE(A) circuit (the QPEA): register on wires
    0..n-1, input wires after, prepared in b; the relabeled register is
    measured. Its register size is checked before any power is formed."""
    qstate.check_width(n, problem.num_qubits)
    return _qpea(problem, n, physical_swap)


def _qpea(problem: HermitianProblem, n: int, physical_swap: bool) -> Circuit:
    """:func:`build_qpe` on a register size already checked, built unchecked."""
    register, v_qubits = list(range(n)), list(range(n, n + problem.num_qubits))
    gates, out_register = qpe_block(problem, n, register, v_qubits, physical_swap=physical_swap)
    roles = {"register": tuple(out_register), "input": tuple(v_qubits)}
    gates = (*prepare_b(problem, v_qubits), *gates)
    return Circuit._trusted(n + problem.num_qubits, gates, roles, tuple(out_register))


def register_distribution_exact(problem: HermitianProblem, n: int) -> MeasurementHistogram:
    """Exact QPEA outcome probabilities without noise: :func:`run_qpea`."""
    return run_qpea(problem, n)


def run_qpea(
    problem: HermitianProblem,
    n: int,
    shots: int = 0,
    seed: int | None = None,
    noise=None,
) -> MeasurementHistogram:
    """The QPEA register histogram; deterministic for a fixed seed.

    ``shots == 0`` gives the exact probabilities, of the compiled circuit
    under ``noise`` if given, else of its source gates on a statevector;
    ``shots > 0`` draws that many outcomes from them, at most 2^63 - 1
    (:func:`qstate.check_shots`). The register size is
    checked once, before the circuit is built (under noise for a density matrix).
    """
    qstate.check_width(n, problem.num_qubits, noise is not None)
    return _run_qpea(problem, n, shots, seed, noise)


def qpea_distribution_noisy(problem: HermitianProblem, n: int, noise) -> MeasurementHistogram:
    """Exact register distribution of the QPEA circuit under ``noise``, if
    given: :func:`run_qpea` with no shots."""
    return run_qpea(problem, n, noise=noise)


def _run_qpea(problem: HermitianProblem, n: int, shots: int, seed, noise) -> MeasurementHistogram:
    """:func:`run_qpea` on a register size already checked, as the hybrid's
    restarts run it: their ceiling admits every register they try."""
    qstate.check_shots(shots)
    circuit = _qpea(problem, n, False)
    if noise is not None:
        circuit = circuits.compile_circuit(circuit)
    state = noise_mod.run_noisy(circuit, noise)
    dist = noise_mod.readout_distribution(state, circuit, noise)
    if shots == 0:
        return dist
    return qstate._draw(np.fromiter(dist.outcomes.values(), float), shots, seed)
