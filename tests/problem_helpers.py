"""Random problems and the dense-matrix views of circuits shared by the test modules."""

import numpy as np

from hhlsim import qstate
from hhlsim.circuits import gate_matrix
from hhlsim.problem import HermitianProblem


def random_problem(seed, d: int = 2) -> HermitianProblem:
    """Eigenvalues anywhere in [0.05, 0.95], a random complex b. ``seed`` is
    an int or a ``numpy.random.Generator`` to draw from."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(z)
    a = (q * rng.uniform(0.05, 0.95, size=d)) @ q.conj().T
    b = rng.normal(size=d) + 1j * rng.normal(size=d)
    return HermitianProblem((a + a.conj().T) / 2, b / np.linalg.norm(b))


def circuit_unitary(gates, num_qubits: int) -> np.ndarray:
    """Composed unitary of a gate sequence: the rows of the identity run as a
    batch of basis vectors, row j ending as column j."""
    qubits = tuple(range(num_qubits))
    u, order = np.eye(2**num_qubits, dtype=complex), qubits
    for g in gates:
        u, order = qstate.apply_operator(u, gate_matrix(g), g.qubits, order)
    return qstate.reorder(u, order, qubits).T


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < atol:
        return qstate.within_atol(a, b, atol)
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > atol:
        return False
    return qstate.within_atol(a, phase * b, atol)
