"""Exact complex-amplitude simulation substrate.

State vectors and density matrices over qubit registers, gate application,
post-selection, partial trace, the one overlap rule (:func:`overlaps`) and
seeded measurement sampling.
Qubit 0 is the most significant bit of a basis-state index, so the bitstring
label of index ``x`` reads left to right as qubits 0, 1, 2, ...
Every gate goes through one kernel, :func:`apply_operator`, on arrays with a
leading batch axis whose qubit axes lie in a lazy order that the caller
carries; :func:`reorder` restores qubit order once, at the end of a run. A
density matrix over n qubits is, by a reshape, a vector over 2n qubit
indices: row bits, then column bits. On the same 2n axes lie its Pauli
coefficients Tr(rho P), real, on which a noisy run works (:func:`to_pauli`):
qubit q's pair of axes (q, q + n) indexes its Pauli as ("Z or Y", "X or Y"),
I = 00, X = 01, Z = 10, Y = 11 (Greenbaum, arXiv:1509.02921). A
:class:`DensityMatrix` holds its entries, its coefficients or both, each
derived from the other once, on first read; its computational-basis
probabilities are read from the coefficients if it holds them, else from
its diagonal.

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
# run is the QFT gate's matrix, 16 * 4^n bytes of complex128 for an n-bit
# register, n < width: 64 MiB at width 12 (a multiplexed gate is held as its
# blocks, never as a dense matrix); a density matrix has its own budget.
MAX_QUBITS = 12

# Widest density matrix a run may hold: 64 MiB = 16 * 4^11 bytes of complex128.
# A run holds its Pauli coefficients, half that in float64, up to three at once
# (a kernel call's input, transposed copy and product): `qpea --n 10 --noise`,
# the widest noisy QPEA, peaks at 130 MiB RSS (226 as complex entries).
MAX_DENSITY_QUBITS = 11
MAX_DENSITY_BYTES = 16 * 4**MAX_DENSITY_QUBITS
# what a run wider than :func:`widest` admits exceeds, by ``density``
EXCEEDS = {True: f"density matrix exceeds the limit of {MAX_DENSITY_BYTES >> 20} MiB",
           False: f"circuit exceeds the limit of {MAX_QUBITS} qubits"}

# A branch probability at or below this is zero: post-selecting it is refused.
ZERO_PROBABILITY = 1e-14


def widest(others: int, density: bool) -> int:
    """The one resource rule: the widest register a circuit with ``others`` more qubits admits."""
    return (MAX_DENSITY_QUBITS if density else MAX_QUBITS) - others


def check_width(register: int, others: int, density: bool = False) -> None:
    """A run's one register check, before anything is built: a register below
    1 qubit raises DomainError, one wider than :func:`widest` ValidationError
    naming the largest that fits (below 1 if none) by its flag, ``--n``."""
    if register < 1:
        raise DomainError("register size must be >= 1")
    if register > (top := widest(others, density)):
        what = f"a {register + others}-qubit {EXCEEDS[density]}"
        raise ValidationError(f"{what}: --n must be at most {top}")


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
    """Base of both state kinds. A subclass's slots hold the forms of its
    data: :meth:`_store` puts the read-only array in slot ``slot`` (its first
    by default) and sets the others to None."""

    __slots__ = ("num_qubits",)

    def _store(self, num_qubits: int, data: np.ndarray, slot: int = 0):
        data.setflags(write=False)
        self.num_qubits = num_qubits
        for i, name in enumerate(self.__slots__):
            setattr(self, name, data if i == slot else None)
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
        if not abs(norm - 1.0) <= 1e-8:  # NaN fails
            raise ValidationError(f"state norm {norm} is not 1")
        self._store(num_qubits, amps / norm)

    def to_density_matrix(self) -> "DensityMatrix":
        a = self.amplitudes
        return DensityMatrix._trusted(self.num_qubits, np.outer(a, a.conj()))

    def __repr__(self):
        return f"StateVector(num_qubits={self.num_qubits})"


class DensityMatrix(_State):
    """Mixed state; Hermitian, unit trace, positive semidefinite within
    tolerance. Held as its entries, its Pauli coefficients or both: each is
    derived from the other once, on first read, and is read-only."""

    __slots__ = ("_entries", "_pauli")

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

    @classmethod
    def _from_pauli(cls, num_qubits: int, coefficients: np.ndarray) -> "DensityMatrix":
        """:meth:`_trusted` for a state held as its Pauli coefficients (4^n,)."""
        return object.__new__(cls)._store(num_qubits, coefficients, 1)

    @property
    def entries(self) -> np.ndarray:
        """The (2^n, 2^n) complex matrix."""
        if self._entries is None:
            self._entries = from_pauli(self._pauli[None])[0]
            self._entries.setflags(write=False)
        return self._entries

    @property
    def pauli(self) -> np.ndarray:
        """Tr(rho P) of every Pauli string P, (4^n,) real, on the entries' 2n axes."""
        if self._pauli is None:
            self._pauli = to_pauli(self._entries[None])[0]
            self._pauli.setflags(write=False)
        return self._pauli

    def __repr__(self):
        return f"DensityMatrix(num_qubits={self.num_qubits})"


@dataclass(frozen=True, slots=True)
class MeasurementHistogram:
    """Outcome bitstrings (MSB first) mapped to counts or exact probabilities.

    ``shots`` is None in exact-probability mode; every entry is finite and >= 0.
    """

    outcomes: dict = field(default_factory=dict)
    shots: int | None = None

    def __post_init__(self):
        for label, v in self.outcomes.items():
            if not 0 <= v < np.inf:  # NaN fails
                raise ValidationError(f"outcome {label!r} has weight {v}, not finite and >= 0")
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


def apply_operator(data: np.ndarray, u: np.ndarray, targets, order: tuple):
    """The gate kernel: apply ``u`` on the ``targets`` of every item of a
    batch ``data`` (B, ...) of 2^m entries each, whose m qubit axes lie in
    ``order`` (``order[i]`` is the qubit of axis i, the first most
    significant). Returns (result (B, 2^m), its order); a run restores qubit
    order once, with :func:`reorder`.

    ``u`` is one 2^k x 2^k operator for every item, or a stack (B, 2^k, 2^k)
    with one per item (a batch axis of 1 in ``data`` then broadcasts to B).
    A block-diagonal operator on c + t targets comes as its stack of 2^c
    blocks, (2^c, 2^t, 2^t), or (B, 2^c, 2^t, 2^t) with one stack per item:
    block x applies where the first c targets read x, so no (2^(c+t))^2
    matrix is made. ``targets[0]`` is the most significant bit of the
    operator's index. Targets adjacent in ``order``, in their own order, take
    a reshape and one matmul; any others one transpose that brings them to
    the front, where the result keeps them. Nothing is checked; a new array
    is returned.
    """
    b, k, targets = data.shape[0], len(targets), tuple(targets)
    t = u.shape[-1].bit_length() - 1
    # a dense operator is a stack of one block; each item's own shares its leading qubits
    u = u.reshape(-1, 1, 2 ** (k - t), 2**t, 2**t)
    i = order.index(targets[0])
    if order[i : i + k] != targets:
        rest = set(targets)
        i, want = 0, targets + tuple(q for q in order if q not in rest)
        data, order = reorder(data, order, want), want
    out = u @ data.reshape(b, 2**i, 2 ** (k - t), 2**t, -1)
    return out.reshape(out.shape[0], -1), order


def reorder(data: np.ndarray, order: tuple, want: tuple) -> np.ndarray:
    """``data`` (B, 2^m), its qubit axes in ``order``, with them in the order
    ``want`` instead: a transposed copy, or ``data`` itself if the two agree."""
    if order == want:
        return data
    b, axis = data.shape[0], {q: i for i, q in enumerate(order, 1)}
    axes = data.reshape((b,) + (2,) * len(order))
    return axes.transpose(0, *map(axis.__getitem__, want)).reshape(b, -1)


# One qubit's entries (rho_00, rho_01, rho_10, rho_11), over (row bit, column
# bit), to its Pauli coefficients (I, X, Z, Y); the rows are orthogonal, so the
# inverse is the adjoint over 2
_TO_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1j, -1j, 0]])
_FROM_PAULI = _TO_PAULI.conj().T / 2


def to_pauli(entries: np.ndarray) -> np.ndarray:
    """Pauli coefficients Tr(rho P), (B, 4^n) real, of a stack of Hermitian
    matrices (B, 2^n, 2^n): one kernel call on each qubit's pair of axes."""
    data, n = entries.reshape(len(entries), -1), entries.shape[1].bit_length() - 1
    order = qubits = tuple(range(2 * n))
    for q in range(n):
        data, order = apply_operator(data, _TO_PAULI, (q, q + n), order)
    return reorder(data, order, qubits).real.copy()


def from_pauli(coefficients: np.ndarray) -> np.ndarray:
    """The matrices sum_P c_P P / 2^n, (B, 2^n, 2^n) complex, of a stack of
    Pauli coefficients (B, 4^n): :func:`to_pauli` inverted."""
    data, n = coefficients, (coefficients.shape[1].bit_length() - 1) // 2
    order = qubits = tuple(range(2 * n))
    for q in range(n):
        data, order = apply_operator(data, _FROM_PAULI, (q, q + n), order)
    return reorder(data, order, qubits).reshape(-1, 2**n, 2**n)


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
        qubits = tuple(range(n))
        out = reorder(*apply_operator(state.amplitudes[None], u, targets, qubits), qubits)
        return StateVector._trusted(n, out[0])
    if isinstance(state, DensityMatrix):
        qubits = tuple(range(2 * n))
        rows, order = apply_operator(state.entries[None], u, targets, qubits)
        out = reorder(*apply_operator(rows, u.conj(), [t + n for t in targets], order), qubits)
        return DensityMatrix._trusted(n, out.reshape(2**n, 2**n))
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


@functools.cache
def _walsh(k: int) -> np.ndarray:
    """Entry (x, z) is (-1)^(x.z) / 2^k over k bits: [[1, 1], [1, -1]] / 2 on each."""
    out = np.ones((1, 1))
    for _ in range(k):
        out = np.kron(out, [[0.5, 0.5], [0.5, -0.5]])
    out.setflags(write=False)
    return out


def _marginal_probabilities(state, qubits: list[int]) -> np.ndarray:
    """Probabilities of computational-basis outcomes on the listed qubits. A
    density matrix held as its Pauli coefficients has them read from those:
    the Z strings (every "X or Y" bit 0) with the other qubits at I, which
    traces them out, then a Walsh-Hadamard transform over the kept qubits,
    as one over their first half and one over the rest, so no matrix over
    all of them is made. One held as its entries has them read from its
    diagonal."""
    n, kept = state.num_qubits, tuple(sorted(qubits))
    if isinstance(state, DensityMatrix) and state._pauli is not None:
        z = state.pauli.reshape(2**n, 2**n)[:, 0].reshape((2,) * n)
        z = z[tuple(slice(None) if q in qubits else 0 for q in range(n))]
        half = len(kept) // 2
        p = (_walsh(half) @ z.reshape(2**half, -1) @ _walsh(len(kept) - half)).reshape(1, -1)
    else:
        if isinstance(state, StateVector):
            p = np.abs(state.amplitudes) ** 2
        elif isinstance(state, DensityMatrix):
            p = np.real(np.diagonal(state.entries))
        else:
            raise DomainError(f"unsupported state type {type(state)!r}")
        p = p.reshape((2,) * n).sum(axis=tuple(q for q in range(n) if q not in qubits))
        p = p.reshape(1, -1)
    # the remaining axes are in ascending qubit order
    return np.maximum(reorder(p, kept, tuple(qubits))[0], 0.0)


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
    # the remaining row axes, then column axes, are in ascending qubit order
    rows, m = sorted(keep), len(keep)
    t = reorder(t.reshape(1, -1), (*rows, *(q + n for q in rows)), (*keep, *(q + n for q in keep)))
    return DensityMatrix._trusted(m, t.reshape(2**m, 2**m).copy())  # owned: no chain of views


def overlaps(rho: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """<k|rho|k> of each ket of ``kets`` (B, K, 2^q) against item b of ``rho``
    (B, 2^q, 2^q), clamped to [0, 1]: the overlap fidelity the closed-form
    curves match, not its square root (pinned in tests/test_oracles.py). An
    item reads the same bits in any batch: each is its own matrix product."""
    return np.clip(((kets.conj() @ rho) * kets).sum(-1).real, 0.0, 1.0)


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
