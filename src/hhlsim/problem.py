"""Linear systems A x = b, the parameterized 2x2 family, and binary eigenvalue estimates.

All matrices are Hermitian with spectrum in [SPECTRUM_MARGIN, 1 - SPECTRUM_MARGIN]
= [1e-06, 0.999999]; position k of a register bitstring is the k-th bit of the
binary expansion (MSB first), so the integer value of an n-bit string s is
sum_i 2^(n-i) s_i.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .qstate import within_atol

SPECTRUM_MARGIN = 1e-6


@dataclass(frozen=True)
class SpectralData:
    """Eigenpairs of the system matrix plus the input-state overlaps."""

    eigenvalues: np.ndarray  # ascending, real
    eigenvectors: np.ndarray  # orthonormal columns, eigenvectors[:, j] <-> eigenvalues[j]
    amplitudes: np.ndarray  # alpha_j = <u_j|b>

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


class HermitianProblem:
    """A Hermitian system matrix, a unit vector b and their spectral data, made
    once; b's preparation and the classical solution are made on first read."""

    def __init__(self, matrix, b):
        a = np.array(matrix, dtype=complex)
        vec = np.array(b, dtype=complex).reshape(-1)
        if not (np.isfinite(a).all() and np.isfinite(vec).all()):
            raise ValidationError("matrix and b must have finite entries")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"matrix must be square, got shape {a.shape}")
        d = a.shape[0]
        if not (d > 1 and (d & (d - 1)) == 0):
            raise ValidationError(f"dimension {d} is not a power of two >= 2")
        if not within_atol(a, a.conj().T, 1e-10):
            raise ValidationError("matrix is not Hermitian")
        if vec.size != d:
            raise ValidationError(f"b has size {vec.size}, expected {d}")
        norm = np.linalg.norm(vec)
        if abs(norm - 1.0) > 1e-10:
            raise ValidationError(f"b has norm {norm}, expected a unit vector")
        a.setflags(write=False)
        vec = vec / norm
        vec.setflags(write=False)
        self.matrix = a
        self.b = vec
        self.dimension = d
        self.num_qubits = d.bit_length() - 1
        self.spectral = spectral_decompose(self)
        eigs = self.spectral.eigenvalues
        low, high = SPECTRUM_MARGIN, 1.0 - SPECTRUM_MARGIN
        if eigs[0] < low or eigs[-1] > high:
            raise ValidationError(f"eigenvalues {eigs} must lie in [{low}, {high}]")

    @functools.cached_property
    def b_preparation(self) -> np.ndarray | None:
        """A unitary with first column b, read-only; None for b = |0...0>. A QR
        factor of the checked b: unitary by construction, not checked again."""
        if within_atol(self.b, np.eye(self.dimension)[:, 0], 1e-12):
            return None
        q_mat = np.linalg.qr(np.column_stack([self.b, np.eye(self.dimension, dtype=complex)]))[0]
        q_mat[:, 0] *= np.vdot(q_mat[:, 0], self.b)  # undo QR's column phase
        q_mat.setflags(write=False)
        return q_mat

    @functools.cached_property
    def solution(self) -> tuple[np.ndarray, float]:
        """:func:`classical_solution`, the state read-only."""
        x = self.spectral.eigenvectors @ (self.spectral.amplitudes / self.spectral.eigenvalues)
        norm = float(np.linalg.norm(x))
        x = x / norm
        x.setflags(write=False)
        return x, norm

    def __repr__(self):
        return f"HermitianProblem(dimension={self.dimension})"


def build_a_lambda(lam: float) -> HermitianProblem:
    """The 2x2 family [[1/2, lam-1/2], [lam-1/2, 1/2]] with b = |0>.

    Eigenpairs are (lam, |+>) and (1-lam, |->).
    """
    if not (0.0 < lam < 1.0):
        raise DomainError(f"lambda must be in (0, 1), got {lam}")
    a = np.array([[0.5, lam - 0.5], [lam - 0.5, 0.5]])
    return HermitianProblem(a, [1.0, 0.0])


def spectral_decompose(problem: HermitianProblem) -> SpectralData:
    """Eigendecomposition with eigenvalues ascending and overlaps against b."""
    eigenvalues, eigenvectors = np.linalg.eigh(problem.matrix)
    amplitudes = eigenvectors.conj().T @ problem.b
    return SpectralData(eigenvalues, eigenvectors, amplitudes)


def unitary_power(spectral: SpectralData, m) -> np.ndarray:
    """(e^{2 pi i A})^m from the spectral form, read-only; m may be negative,
    or an integer array, which gives the stack of its powers in one product,
    each bit-equal to its own call. Unitary by construction,
    V diag(phases) V^+, so gates take it unchecked."""
    phases = np.exp(2j * np.pi * np.asarray(m)[..., None] * spectral.eigenvalues)
    u = (spectral.eigenvectors * phases[..., None, :]) @ spectral.eigenvectors.conj().T
    u.setflags(write=False)
    return u


def binary_estimate(lam: float, n: int) -> str:
    """First n bits of the binary expansion of lam in (0, 1).

    Dyadic values representable in n bits are returned exactly; everything
    else truncates (floor of 2^n * lam).
    """
    if not (0.0 < lam < 1.0):
        raise DomainError(f"lambda must be in (0, 1), got {lam}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    scaled = lam * 2**n
    nearest = round(scaled)
    value = nearest if abs(scaled - nearest) < 1e-9 else int(np.floor(scaled))
    value = min(max(value, 0), 2**n - 1)
    return format(value, f"0{n}b")


def classical_solution(problem: HermitianProblem):
    """Normalized solution state A^{-1} b / ||A^{-1} b|| and the norm ||A^{-1} b||,
    A^{-1} b = V (alpha / lambda), computed once: the problem keeps it (``solution``)."""
    return problem.solution


def _integer(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _real(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a real number, got {v!r}")
    return float(v)


def _field(spec: dict, key: str, convert):
    """``convert(spec[key])``, with a missing or malformed value reported as
    a :class:`ValidationError`."""
    try:
        return convert(spec[key])
    except KeyError:
        raise ValidationError(f"problem description lacks {key!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"problem field {key!r} is malformed: {exc}") from None


def problem_from_dict(spec: dict) -> HermitianProblem:
    """Build a problem from the JSON schema ({"kind": "lambda"|"matrix", ...})."""
    if not isinstance(spec, dict):
        raise ValidationError("a problem description must be a JSON object")
    kind = spec.get("kind")
    if kind == "lambda":
        return build_a_lambda(_field(spec, "lambda", _real))
    if kind == "matrix":
        d = _field(spec, "dim", _integer)

        def part(key, shape):
            return _field(spec, key, lambda v: np.array(v, dtype=float).reshape(shape))

        a = part("a_real", (d, d)) + 1j * part("a_imag", (d, d))
        b = part("b_real", d) + 1j * part("b_imag", d)
        return HermitianProblem(a, b)
    raise ValidationError(f"unknown problem kind {kind!r}")


def read_json(path):
    """The JSON value in the file at ``path``; one that does not parse raises ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValidationError(f"cannot read {path!r} as JSON: {exc}") from None


def load_problem(path) -> HermitianProblem:
    return problem_from_dict(read_json(path))
