"""Random problems shared by the test modules."""

import numpy as np

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
