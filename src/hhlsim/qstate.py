"""Exact complex-amplitude simulation substrate.

State vectors and density matrices over qubit registers, gate application,
post-selection, partial trace, the one overlap rule (:func:`overlaps`) and
seeded measurement sampling.
Qubit 0 is the most significant bit of a basis-state index, so the bitstring
label of index ``x`` reads left to right as qubits 0, 1, 2, ...
Every gate goes through one kernel, :func:`apply_operator`, which works on
arrays with a leading batch axis. A density matrix over n qubits is, by a
reshape, a vector over 2n qubit indices: row bits, then column bits.

Values are checked where they enter, against an absolute tolerance
(:func:`within_atol`): in the public state constructors, in
:func:`circuits.gate` and in :class:`problem.HermitianProblem`. States
derived from checked states are built by ``_State._trusted``: not copied,
renormalized or checked again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ImpossibleOutcomeError, ValidationError

ATOL = 1e-10

# Widest circuit the solvers simulate. The largest dense array of an exact
# run is the HHL encoding's mry matrix, 16 * 4^(n + 1) bytes of complex128
# with n + 1 < width. A budget of 256 MiB = 2^28 bytes per array bounds
# 4^width by 2^24, so width <= 12; a density matrix has its own budget.
MAX_QUBITS = 12

# Largest density matrix a run may hold, 64 MiB = 16 * 4^11 bytes of
# complex128: at most 11 qubits, beside the kernel's few working copies.
MAX_DENSITY_BYTES = 16 * 4**11

# A branch probability at or below this is zero: post-selecting it is refused.
ZERO_PROBABILITY = 1e-14


def check_width(register: int, others: int) -> None:
    """The one register-size rule, before anything is built: a register below
    1 qubit raises DomainError, a circuit of ``register + others`` qubits
    wider than MAX_QUBITS ValidationError."""
    if register < 1:
        raise DomainError("register size must be >= 1")
    if register + others > MAX_QUBITS:
        raise ValidationError(
            f"a {register + others}-qubit circuit exceeds the limit of {MAX_QUBITS} qubits"
        )


def within_atol(a, b, atol: float) -> bool:
    """No entry of ``a`` is further than ``atol`` from ``b`` (no relative part; NaN fails)."""
    return bool(np.abs(np.asarray(a) - b).max() <= atol)


def _check_unitary(u: np.ndarray, atol: float = ATOL) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError(f"operator must be square, got shape {u.shape}")
    d = u.shape[0]
    if not (d > 0 and (d & (d - 1)) == 0):
        raise ValidationError(f"operator dimension {d} is not a power of two")
    if not within_atol(u.conj().T @ u, np.eye(d), atol):
        raise ValidationError("operator is not unitary within tolerance")
    return u


def _check_targets(num_qubits: int, targets) -> list[int]:
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise DomainError(f"qubit indices must be distinct, got {targets}")
    for q in targets:
        if not (0 <= q < num_qubits):
            raise DomainError(f"qubit index {q} out of range for {num_qubits} qubits")
    return targets


class _State:
    """Base of both state kinds; a subclass's one slot holds its read-only array."""

    __slots__ = ("num_qubits",)

    def _store(self, num_qubits: int, data: np.ndarray):
        data.setflags(write=False)
        self.num_qubits = num_qubits
        setattr(self, self.__slots__[0], data)
        return self

    @classmethod
    def _trusted(cls, num_qubits: int, data: np.ndarray):
        """Wrap an array derived from checked states by an exact operation,
        without copying, renormalizing or checking it."""
        return object.__new__(cls)._store(num_qubits, data)


class StateVector(_State):
    """Pure state over ``num_qubits`` qubits; amplitudes are read-only."""

    __slots__ = ("amplitudes",)

    def __init__(self, num_qubits: int, amplitudes):
        if num_qubits < 1:
            raise DomainError("num_qubits must be >= 1")
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**num_qubits:
            raise ValidationError(
                f"expected {2**num_qubits} amplitudes, got {amps.size}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-8:
            raise ValidationError(f"state norm {norm} is not 1")
        self._store(num_qubits, amps / norm)

    def probability(self, index: int) -> float:
        return float(abs(self.amplitudes[index]) ** 2)

    def to_density_matrix(self) -> "DensityMatrix":
        a = self.amplitudes
        return DensityMatrix._trusted(self.num_qubits, np.outer(a, a.conj()))

    def __repr__(self):
        return f"StateVector(num_qubits={self.num_qubits})"


class DensityMatrix(_State):
    """Mixed state; Hermitian, unit trace, positive semidefinite within tolerance."""

    __slots__ = ("entries",)

    def __init__(self, num_qubits: int, entries):
        if num_qubits < 1:
            raise DomainError("num_qubits must be >= 1")
        d = 2**num_qubits
        rho = np.asarray(entries, dtype=complex)
        if rho.shape != (d, d):
            raise ValidationError(f"expected {d}x{d} matrix, got shape {rho.shape}")
        if not within_atol(rho, rho.conj().T, ATOL):
            raise ValidationError("density matrix is not Hermitian")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-8:
            raise ValidationError(f"density matrix trace {tr} is not 1")
        rho = rho / tr
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < -1e-8:
            raise ValidationError(f"density matrix has negative eigenvalue {eigs.min()}")
        self._store(num_qubits, rho)

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)

    def __repr__(self):
        return f"DensityMatrix(num_qubits={self.num_qubits})"


@dataclass(frozen=True, slots=True)
class MeasurementHistogram:
    """Outcome bitstrings (MSB first) mapped to counts or exact probabilities.

    ``shots`` is None in exact-probability mode.
    """

    outcomes: dict = field(default_factory=dict)
    shots: int | None = None

    def __post_init__(self):
        total = sum(self.outcomes.values())
        if self.shots is not None:
            if total != self.shots:
                raise ValidationError(f"counts sum to {total}, expected {self.shots}")
        elif self.outcomes and abs(total - 1.0) > 1e-9:
            raise ValidationError(f"probabilities sum to {total}, expected 1")

    def probabilities(self) -> dict:
        """Normalized view, identical for counts and exact modes."""
        if self.shots is None:
            return dict(self.outcomes)
        return {k: v / self.shots for k, v in self.outcomes.items()}


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on ``num_qubits`` qubits."""
    if num_qubits < 1:
        raise DomainError("num_qubits must be >= 1")
    if not (0 <= index < 2**num_qubits):
        raise DomainError(f"index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector._trusted(num_qubits, amps)


def apply_operator(data: np.ndarray, u: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """The gate kernel: apply ``u`` on the ``targets`` of every item of a batch.

    ``data`` has a leading batch axis; the rest of each item indexes
    ``num_qubits`` qubit axes (qubit 0 most significant), then any trailing
    non-qubit axis, such as the columns of a matrix. ``u`` is one 2^k x 2^k
    operator for every item, or a stack (B, 2^k, 2^k) with one per item (a
    batch axis of 1 in ``data`` then broadcasts to B). ``targets[0]`` is the
    most significant bit of the operator's index. Adjacent ascending targets
    take a reshape and one matmul; any others a transpose that brings them to
    the front, the matmul and the inverse transpose. Nothing is checked; a
    new array is returned.
    """
    b, k, t0 = data.shape[0], len(targets), targets[0]
    if u.ndim == 3:
        u = u[:, None]  # one operator per item, shared by its leading qubits
    if tuple(targets) == tuple(range(t0, t0 + k)):
        out = u @ data.reshape(b, 2**t0, 2**k, -1)
        return out.reshape(out.shape[:1] + data.shape[1:])
    rest = [q for q in range(num_qubits) if q not in targets]
    perm = [0, *(1 + q for q in targets), *(1 + q for q in rest), num_qubits + 1]
    qubit_axes = (2,) * num_qubits + (-1,)
    out = u @ data.reshape((b,) + qubit_axes).transpose(perm).reshape(b, 1, 2**k, -1)
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    out = out.reshape(out.shape[:1] + qubit_axes).transpose(inverse)
    return out.reshape(out.shape[:1] + data.shape[1:])


def apply_unitary(state, u, targets):
    """Apply a unitary, checked for unitarity, on the listed target qubits.

    ``targets[0]`` is the most significant bit of the operator's own index.
    Works on StateVector and DensityMatrix alike.
    """
    u = _check_unitary(u)
    targets = _check_targets(state.num_qubits, targets)
    if u.shape[0] != 2 ** len(targets):
        raise DomainError(f"operator dimension {u.shape[0]} does not match {len(targets)} targets")
    n = state.num_qubits
    if isinstance(state, StateVector):
        return StateVector._trusted(n, apply_operator(state.amplitudes[None], u, targets, n)[0])
    if isinstance(state, DensityMatrix):
        rows = apply_operator(state.entries[None], u, targets, 2 * n)
        out = apply_operator(rows, u.conj(), [t + n for t in targets], 2 * n)
        return DensityMatrix._trusted(n, out[0])
    raise DomainError(f"unsupported state type {type(state)!r}")


def apply_controlled(state, u, controls, targets):
    """Apply ``u`` on targets only where every control qubit is |1>: its
    block-diagonal embedding on ``controls + targets``, which
    :func:`apply_unitary` checks once."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValidationError(f"operator must be square, got shape {u.shape}")
    big = np.eye(2 ** len(controls) * len(u), dtype=complex)
    big[len(big) - len(u):, len(big) - len(u):] = u
    return apply_unitary(state, big, [*controls, *targets])


def _marginal_probabilities(state, qubits: list[int]) -> np.ndarray:
    """Probabilities of computational-basis outcomes on the listed qubits."""
    n = state.num_qubits
    if isinstance(state, StateVector):
        p = (np.abs(state.amplitudes) ** 2).reshape((2,) * n)
    elif isinstance(state, DensityMatrix):
        p = np.real(np.diagonal(state.entries)).reshape((2,) * n)
    else:
        raise DomainError(f"unsupported state type {type(state)!r}")
    drop = [q for q in range(n) if q not in qubits]
    p = p.sum(axis=tuple(drop)) if drop else p
    # after summing, remaining axes are in ascending qubit order
    remaining = sorted(qubits)
    order = [remaining.index(q) for q in qubits]
    p = np.transpose(p, order)
    return np.maximum(p.reshape(-1), 0.0)


def postselect(state, qubit: int, outcome: int):
    """Project one qubit onto ``outcome``, drop it, and renormalize.

    Returns the conditioned state on the remaining qubits and the branch
    probability.
    """
    if outcome not in (0, 1):
        raise DomainError(f"outcome must be 0 or 1, got {outcome}")
    _check_targets(state.num_qubits, [qubit])
    n = state.num_qubits
    if n < 2:
        raise DomainError("cannot postselect the only qubit away")
    hi, lo, m = 2**qubit, 2 ** (n - qubit - 1), 2 ** (n - 1)
    if isinstance(state, StateVector):
        branch = state.amplitudes.reshape(hi, 2, lo)[:, outcome, :].reshape(m)
        prob = float(np.sum(np.abs(branch) ** 2))
        scale = np.sqrt(prob)
    elif isinstance(state, DensityMatrix):
        v = state.entries.reshape(hi, 2, lo, hi, 2, lo)
        branch = v[:, outcome, :, :, outcome, :].reshape(m, m)
        prob = float(np.trace(branch).real)
        scale = prob
    else:
        raise DomainError(f"unsupported state type {type(state)!r}")
    if prob <= ZERO_PROBABILITY:
        raise ImpossibleOutcomeError(
            f"outcome {outcome} on qubit {qubit} has zero probability"
        )
    return type(state)._trusted(n - 1, branch / scale), prob


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not in ``keep``; result qubit order follows ``keep``."""
    keep = list(keep)
    if not keep:
        raise DomainError("keep must be nonempty")
    _check_targets(rho.num_qubits, keep)
    n = rho.num_qubits
    drop = [q for q in range(n) if q not in keep]
    t = rho.entries.reshape((2,) * (2 * n))
    for q in sorted(drop, reverse=True):
        t = np.trace(t, axis1=q, axis2=t.ndim // 2 + q)
    # remaining row axes correspond to sorted(keep)
    remaining = sorted(keep)
    m = len(keep)
    order = [remaining.index(q) for q in keep]
    t = np.transpose(t, order + [m + i for i in order]).reshape(2**m, 2**m)
    return DensityMatrix._trusted(m, t.copy())  # owned: keeps no chain of views alive


def overlaps(rho: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """<k|rho|k> of each ket of ``kets`` (B, K, 2^q) against item b of ``rho``
    (B, 2^q, 2^q), clamped to [0, 1]: the overlap fidelity the closed-form
    curves match, not its square root (pinned in tests/test_oracles.py)."""
    return np.clip(np.einsum("bkx,bxy,bky->bk", kets.conj(), rho, kets).real, 0.0, 1.0)


def fidelity_pure(rho, psi) -> float:
    """:func:`overlaps` of one state, pure or mixed, against one pure reference."""
    if isinstance(rho, StateVector):
        rho = rho.to_density_matrix()
    if rho.num_qubits != psi.num_qubits:
        raise DomainError("dimension mismatch between rho and psi")
    return float(overlaps(rho.entries[None], psi.amplitudes[None, None])[0, 0])


def exact_distribution(state, qubits) -> MeasurementHistogram:
    """Exact computational-basis marginal over the listed qubits."""
    qubits = _check_targets(state.num_qubits, list(qubits))
    p = _marginal_probabilities(state, qubits)
    outcomes = {label: float(x) for label, x in zip(_labels(len(qubits)), p)}
    total = sum(outcomes.values())
    return MeasurementHistogram({k_: v / total for k_, v in outcomes.items()}, None)


def _draw(p: np.ndarray, shots: int, seed) -> MeasurementHistogram:
    """Seeded multinomial draw of ``shots`` outcomes from ``p``, indexed by
    k-bit outcome; zero counts are left out."""
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, p / p.sum())
    labels = _labels(p.size.bit_length() - 1)
    outcomes = {labels[i]: int(c) for i, c in enumerate(draws) if c > 0}
    return MeasurementHistogram(outcomes, shots)


@functools.cache
def _labels(k: int) -> tuple:
    """Bitstring labels of the 2^k outcomes, MSB first, shared by all histograms."""
    return tuple(format(i, f"0{k}b") for i in range(2**k))
