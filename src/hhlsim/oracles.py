"""Closed-form references and an independent matrix-algebra solver.

Everything here deliberately avoids the gate-level machinery in
:mod:`hhlsim.circuits` so it can serve as an independent cross-check: the
brute-force solver assembles the phase-estimation map from explicit Kronecker
products, and the fidelity formulas are direct transcriptions of the
closed-form expressions for the two-dimensional one-parameter problem family.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .problem import HermitianProblem, build_a_lambda, classical_solution, unitary_power
from .qstate import DensityMatrix, StateVector, fidelity_pure

_REALNESS_ATOL = 1e-10

_SQRT2 = np.sqrt(2.0)


def _require_open_interval(lam: float) -> None:
    if not (0.0 < lam < 1.0):
        raise DomainError(f"lambda must lie in (0, 1), got {lam}")


def _real_part(value: complex, label: str) -> float:
    if abs(value.imag) >= _REALNESS_ATOL:
        raise AssertionError(
            f"{label} evaluated to a non-real value (imag={value.imag:.3e})"
        )
    return float(value.real)


def f1(lam: float) -> float:
    """Fidelity of the one-register-qubit solver on the A(lambda) family."""
    _require_open_interval(lam)
    t = np.exp(2j * np.pi * lam)
    value = 0.5 * (1.0 + (t + np.conj(t)) * (-1.0 + lam) * lam / (1.0 - 2.0 * lam + 2.0 * lam**2))
    return _real_part(value, "F1")


def f2(lam: float) -> float:
    """Fidelity of the two-register-qubit solver on the A(lambda) family."""
    _require_open_interval(lam)
    t = np.exp(2j * np.pi * lam)
    x = (40 + 32j) - (129 + 64j) * lam + 129 * lam**2
    y = (9 + 32j) - (146 + 64j) * lam + 146 * lam**2
    numerator = np.conj(t) ** 3 * (
        (25 + 80 * t + 171 * t**2 + 171 * t**8 + 80 * t**9 + 25 * t**10)
        * (-1.0 + lam)
        * lam
        + 4 * t**4 * x
        + 4 * t**6 * np.conj(x)
        + 2 * t**3 * y
        + 2 * t**7 * np.conj(y)
        + 4 * t**5 * (89 - 170 * lam + 170 * lam**2)
    )
    denominator = 4 * (9 + 80 * t + 178 * t**2 + 80 * t**3 + 9 * t**4) * (
        1.0 - 2.0 * lam + 2.0 * lam**2
    )
    return _real_part(numerator / denominator, "F2")


def f3(lam: float, verbatim: bool = False) -> float:
    """Fidelity of the three-register-qubit solver on the A(lambda) family.

    The default N8 term uses the conjugate-symmetric coefficients that agree
    with the matrix-algebra solver to machine precision (every other term is
    palindromic under t -> t* as well). ``verbatim=True`` evaluates the
    published variant of N8 instead, which fails the realness check away from
    dyadic points; it is kept only for comparison.
    """
    _require_open_interval(lam)
    t = np.exp(2j * np.pi * lam)
    a = 140 + 105j
    b = (208 + 128j) * _SQRT2
    c = 8 * (35 + 52 * _SQRT2)
    d = 8 * (-35 + 52 * _SQRT2)
    e = 2 * (105 + 128 * _SQRT2)
    f = -210 + 256 * _SQRT2
    g = 11025 + 76672 * _SQRT2
    h = -11025 + 76672 * _SQRT2
    ac, bc = np.conj(a), np.conj(b)
    alpha = -np.conj(t) ** 14 / (128 * (1.0 - 2.0 * lam + 2.0 * lam**2))
    beta = alpha * (-1.0 + t**8) ** 2
    gamma = 350 + 608j - 700 * lam
    phi = 315 + 420j + (384 - 624j) * _SQRT2 - 3 * e * lam
    xi = -304 + 175j + 608 * lam

    n1 = alpha * (
        ac + b - 1276j * t**3 + 8712j * t**7 - 1276j * t**11 - c * lam
        + (6 * t**5 + 2 * t**13) * np.conj(xi)
        - (2 * t + 6 * t**9) * xi
        + (5 * t**4 + 3 * t**12) * (ac - b + d * lam)
        - (3 * t**2 + 5 * t**10) * (a - bc + d * lam)
        - 7 * t**8 * (-ac - b + c * lam)
        + (7 * t**6 + t**14) * (-a - bc + c * lam)
    ) ** 2
    n2 = beta * (
        ac * 1j + b * 1j + f * lam + t**5 * np.conj(gamma) + t * gamma
        - 1276 * t**3 * (-1 + 2 * lam)
        + t**4 * phi
        + t**2 * np.conj(phi)
        + t**6 * (-a * 1j - bc * 1j + f * lam)
    ) ** 2
    n3 = beta * (
        ac * 1j + b * 1j + f * lam + t**5 * np.conj(gamma) + t * gamma
        + t**4 * (ac * 1j - b * 1j - e * lam)
        + t**2 * (-a * 1j + bc * 1j - e * lam)
        + t**6 * (-a * 1j - bc * 1j + f * lam)
    ) ** 2
    n4 = beta * (
        -ac - b + c * lam + 2 * t**5 * np.conj(xi) + 2 * t * xi
        + t**4 * (ac - b + d * lam)
        + t**2 * (a - bc + d * lam)
        + t**6 * (-a - bc + c * lam)
    ) ** 2
    n5 = beta * (
        ac * 1j + b * 1j + f * lam
        + t**4 * (ac * 1j - b * 1j - e * lam)
        + t**2 * (-a * 1j + bc * 1j - e * lam)
        + t**6 * (-a * 1j - bc * 1j + f * lam)
    ) ** 2
    n6 = beta * (
        -ac - b + c * lam
        + t**4 * (ac - b + d * lam)
        + t**2 * (a - bc + d * lam)
        + t**6 * (-a - bc + c * lam)
    ) ** 2
    n7 = beta * (
        -ac - b + c * lam
        + t**4 * (-ac + b - d * lam)
        - t**2 * (a - bc + d * lam)
        + t**6 * (-a - bc + c * lam)
    ) ** 2
    if verbatim:
        n8 = beta * (
            ac * 1j + b * 1j + f * lam
            + t**6 * (-a * 1j - bc * 1j + f * lam)
            + t**2 * (ac * 1j - bc * 1j + 2 * e * lam)
            + t**4 * (-ac * 1j + b * 1j + 2 * e * lam)
        ) ** 2
    else:
        n8 = beta * (
            ac * 1j + b * 1j + f * lam
            + t**6 * (-a * 1j - bc * 1j + f * lam)
            + t**2 * (a * 1j - bc * 1j + e * lam)
            + t**4 * (-ac * 1j + b * 1j + e * lam)
        ) ** 2
    den = np.conj(t) ** 7 * (
        h - 75950 * t - 3 * g * t**2 - 586524 * t**3 - 5 * g * t**4
        - 227850 * t**5 + 7 * h * t**6 + 2133448 * t**7 + 7 * h * t**8
        - 227850 * t**9 - 5 * g * t**10 - 586524 * t**11 - 3 * g * t**12
        - 75950 * t**13 + h * t**14
    )
    value = (n1 + n2 + n3 + n4 + n5 + n6 + n7 + n8) / den
    if verbatim:
        return float(value.real)  # not certified real; see docstring
    return _real_part(value, "F3")


_CLOSED_FORMS = {1: f1, 2: f2, 3: f3}


def fidelity_closed_form(lam: float, n: int) -> float:
    """Closed-form fidelity for register sizes 1, 2 or 3."""
    if n not in _CLOSED_FORMS:
        raise DomainError(f"no closed-form fidelity for register size {n}")
    return _CLOSED_FORMS[n](lam)


# ---------------------------------------------------------------------------
# phase-estimation outcome probabilities

def qpea_distribution(problem: HermitianProblem, n: int) -> np.ndarray:
    """Pr(x), indexed by x, of the measured n-bit phase estimation on b:
    sum_j |alpha_j|^2 |beta_{x|j}|^2, beta_{x|j} = 2^-n sum_y e^{2 pi i y
    (lambda_j - x/2^n)} (Cleve, Ekert, Macchiavello & Mosca, Proc. R. Soc. A
    454, 339, 1998)."""
    x = y = np.arange(2**n)
    lam, alpha = problem.spectral.eigenvalues, problem.spectral.amplitudes
    beta = np.exp(2j * np.pi * y * (lam[:, None, None] - x[:, None] / 2**n)).mean(axis=2)
    return np.abs(alpha) ** 2 @ np.abs(beta) ** 2


_OUTCOMES_2 = ("00", "01", "10", "11")


def qpea_prob_analytic(lam: float, outcome: str) -> float:
    """Outcome probability of the measured two-qubit phase-estimation circuit
    on the A(lambda) family with input |0>."""
    _require_open_interval(lam)
    if outcome not in _OUTCOMES_2:
        raise DomainError(f"outcome must be one of {_OUTCOMES_2}, got {outcome!r}")
    if outcome == "00":
        return float(np.cos(2 * np.pi * lam) ** 2 * np.cos(np.pi * lam) ** 2)
    if outcome == "10":
        return float(np.cos(2 * np.pi * lam) ** 2 * np.sin(np.pi * lam) ** 2)
    return float(0.5 * np.sin(2 * np.pi * lam) ** 2)


def qpea_amplitude_forms(lam: float) -> dict:
    """The raw complex expressions behind :func:`qpea_prob_analytic`.

    Returned values are the signed complex quantities whose magnitudes are the
    outcome probabilities (the value attached to outcome ``10`` is negative).
    """
    _require_open_interval(lam)
    t2 = np.exp(2j * np.pi * lam)  # e^{2 pi i lambda}
    t4 = np.exp(4j * np.pi * lam)
    base = np.exp(-6j * np.pi * lam) / 16.0
    return {
        "00": base * (1 + t4) ** 2 * (1 + t2) ** 2,
        "10": -base * (1 + t4) ** 2 * (-1 + t2) ** 2,
        "01": -np.exp(-4j * np.pi * lam) / 8.0 * (-1 + t4) ** 2,
        "11": -np.exp(-4j * np.pi * lam) / 8.0 * (-1 + t4) ** 2,
    }


# ---------------------------------------------------------------------------
# independent matrix-algebra solver

def _embed_control(n: int, wire: int, u: np.ndarray, dim_v: int) -> np.ndarray:
    """Controlled-u on the input system, control on register bit ``wire``
    (0-based from the most significant register bit)."""
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    left = np.eye(2**wire)
    right = np.eye(2 ** (n - 1 - wire))
    idle = np.kron(np.kron(np.kron(left, p0), right), np.eye(dim_v))
    act = np.kron(np.kron(np.kron(left, p1), right), u)
    return idle + act


def brute_force_hhl(problem: HermitianProblem, n: int):
    """Matrix-algebra reference for the full solver.

    Builds the phase-estimation map from explicit Kronecker products, applies
    the conditional-rotation block as a dense matrix, inverts the map, and
    projects the ancilla onto |1>. Returns ``(rho_v, success_probability)``.
    """
    if n < 1:
        raise DomainError("register size must be >= 1")
    spectral = problem.spectral
    d = problem.dimension
    dim_r = 2**n
    _, norm = classical_solution(problem)
    c = 1.0 / norm

    h1 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    hn = h1
    for _ in range(n - 1):
        hn = np.kron(hn, h1)
    x_idx, y_idx = np.meshgrid(np.arange(dim_r), np.arange(dim_r), indexing="ij")
    iqft = np.exp(-2j * np.pi * x_idx * y_idx / dim_r) / np.sqrt(dim_r)

    w = np.kron(hn, np.eye(d))
    for i in range(n):
        w = _embed_control(n, i, unitary_power(spectral, 2 ** (n - 1 - i)), d) @ w
    w = np.kron(iqft, np.eye(d)) @ w

    psi = w @ np.kron(np.eye(dim_r)[:, 0], problem.b)

    # conditional rotation on (ancilla, register), identity on the input system
    dim_ar = 2 * dim_r
    rot = np.zeros((dim_ar, dim_ar), dtype=complex)
    for x in range(dim_r):
        if x == 0:
            r = np.eye(2)
        else:
            theta = 2.0 * np.arcsin(c / x)
            ct, st = np.cos(theta / 2), np.sin(theta / 2)
            r = np.array([[ct, -st], [st, ct]])
        for a in (0, 1):
            for a2 in (0, 1):
                rot[a * dim_r + x, a2 * dim_r + x] = r[a, a2]

    full = np.concatenate([psi, np.zeros_like(psi)])  # ancilla |0> block first
    full = np.kron(rot, np.eye(d)) @ full
    full = np.kron(np.eye(2), w.conj().T) @ full

    block = full[dim_r * d :]  # ancilla |1>
    success = float(np.real(np.vdot(block, block)))
    if success <= 1e-14:
        raise DomainError("post-selection on the ancilla has vanishing probability")
    b_mat = block.reshape(dim_r, d)
    rho = b_mat.T @ b_mat.conj() / success
    return DensityMatrix(problem.num_qubits, rho), success


def brute_force_fidelity(lam: float, n: int) -> float:
    """Fidelity of the brute-force solver output on the A(lambda) family."""
    problem = build_a_lambda(lam)
    rho, _ = brute_force_hhl(problem, n)
    x_exact, _ = classical_solution(problem)
    return fidelity_pure(rho, StateVector(1, x_exact))
