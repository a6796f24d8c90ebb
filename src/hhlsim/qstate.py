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
coefficients Tr(rho P), real (:func:`pauli_of`, three qubits per kernel
call): qubit q's pair of axes (q, q + n) indexes its Pauli as ("Z or Y",
"X or Y"), I = 00, X = 01, Z = 10, Y = 11 (Greenbaum, arXiv:1509.02921). A
:class:`DensityMatrix` holds its coefficients alone, converted once by
whatever makes it. Every path reads them: its probabilities, post-selection
and partial trace are slices of them, and its entries are derived on each
read, as a :class:`StateVector`'s coefficients are from its amplitudes.
Two states compare by their coefficients alone: Tr(rho sigma) = c_rho .
c_sigma / 2^n (:func:`overlaps`).

Values are checked where they enter, against an absolute tolerance
(:func:`within_atol`): in the public state and histogram constructors, in
:func:`circuits.gate` and in :class:`problem.HermitianProblem`. What derives
from them is built unchecked: states by ``_State._trusted``, the histograms
of :func:`noise.readout_distribution` and :func:`_draw` by ``MeasurementHistogram._trusted``.
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
    """Base of both state kinds. A subclass's one slot holds its data:
    :meth:`_store` puts the read-only array there."""

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
        if not abs(norm - 1.0) <= 1e-8:  # NaN fails
            raise ValidationError(f"state norm {norm} is not 1")
        self._store(num_qubits, amps / norm)

    @property
    def pauli(self) -> np.ndarray:
        """The Pauli coefficients (4^n,) of its |psi><psi|, derived from the
        amplitudes on each read, read-only."""
        return pauli_of(np.outer(self.amplitudes, self.amplitudes.conj())[None])[0]

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix._trusted(self.num_qubits, self.pauli)

    def __repr__(self):
        return f"StateVector(num_qubits={self.num_qubits})"


class DensityMatrix(_State):
    """Mixed state; Hermitian, unit trace, positive semidefinite within
    tolerance. Held as its Pauli coefficients, ``pauli``: Tr(rho P) of every
    Pauli string P, (4^n,) float64 and read-only, on the entries' 2n axes."""

    __slots__ = ("pauli",)

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
        self._store(num_qubits, pauli_of(rho[None])[0])

    @property
    def entries(self) -> np.ndarray:
        """The (2^n, 2^n) complex matrix, derived from ``pauli`` on each read, read-only."""
        return entries_of(self.pauli[None])[0]

    def __repr__(self):
        return f"DensityMatrix(num_qubits={self.num_qubits})"


@dataclass(frozen=True, slots=True)
class MeasurementHistogram:
    """Outcome bitstrings (MSB first) mapped to counts or exact probabilities.

    ``shots`` is None in exact-probability mode; every entry is finite and >= 0.
    In counts mode ``shots`` and every count are integers (NumPy's too).
    """

    outcomes: dict = field(default_factory=dict)
    shots: int | None = None

    def __post_init__(self):
        for label, v in self.outcomes.items():
            if not 0 <= v < np.inf:  # NaN fails
                raise ValidationError(f"outcome {label!r} has weight {v}, not finite and >= 0")
        total = sum(self.outcomes.values())
        if self.shots is not None:
            for v in (self.shots, *self.outcomes.values()):
                if not isinstance(v, (int, np.integer)):
                    raise ValidationError(f"counts and shots must be integers, got {v!r}")
            if total != self.shots:
                raise ValidationError(f"counts sum to {total}, expected {self.shots}")
        elif self.outcomes and abs(total - 1.0) > 1e-9:
            raise ValidationError(f"probabilities sum to {total}, expected 1")

    @classmethod
    def _trusted(cls, outcomes: dict, shots: int | None) -> "MeasurementHistogram":
        """A histogram of values from a checked state or NumPy's multinomial, unchecked."""
        histogram = object.__new__(cls)
        object.__setattr__(histogram, "outcomes", outcomes)
        object.__setattr__(histogram, "shots", shots)
        return histogram

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


@functools.cache
def _conversion(k: int, inverse: bool) -> np.ndarray:
    """k qubits' ``_TO_PAULI`` (``_FROM_PAULI`` if ``inverse``) as one read-only operator."""
    out = functools.reduce(np.kron, [_FROM_PAULI if inverse else _TO_PAULI] * k)
    bits = (*range(0, 2 * k, 2), *range(1, 2 * k, 2))  # every row bit, then every column bit
    grouped = np.arange(4**k).reshape((2,) * 2 * k).transpose(bits).reshape(-1)
    out = out[grouped[:, None], grouped]
    out.setflags(write=False)
    return out


def _convert(data: np.ndarray, inverse: bool) -> np.ndarray:
    """A stack (B, 4^n) on 2n axes converted, up to three qubits per kernel
    call: one call for every state an exact run holds (n <= 3)."""
    n = (data.shape[1].bit_length() - 1) // 2
    order = qubits = tuple(range(2 * n))
    for q in range(0, n, 3):
        targets = (*range(q, min(q + 3, n)), *range(q + n, min(q + 3, n) + n))
        data, order = apply_operator(data, _conversion(len(targets) // 2, inverse), targets, order)
    return reorder(data, order, qubits)


def pauli_of(entries: np.ndarray) -> np.ndarray:
    """Pauli coefficients Tr(rho P), (B, 4^n) real and read-only, of a stack of
    Hermitian matrices (B, 2^n, 2^n): ceil(n / 3) kernel calls."""
    out = _convert(entries.reshape(len(entries), -1), False).real.copy()
    out.setflags(write=False)
    return out


def entries_of(coefficients: np.ndarray) -> np.ndarray:
    """The matrices sum_P c_P P / 2^n, (B, 2^n, 2^n) complex and read-only, of
    a stack of Pauli coefficients (B, 4^n): :func:`pauli_of` inverted."""
    n = (coefficients.shape[1].bit_length() - 1) // 2
    out = _convert(coefficients, True).reshape(-1, 2**n, 2**n)
    out.setflags(write=False)
    return out


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
        return DensityMatrix._trusted(n, pauli_of(out.reshape(1, 2**n, 2**n))[0])
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
    density matrix has them read from its Pauli coefficients: the Z strings
    (every "X or Y" bit 0) with the other qubits at I, which traces them out,
    then a Walsh-Hadamard transform over the kept qubits, as one over their
    first half and one over the rest, so no matrix over all of them is made."""
    n, kept = state.num_qubits, tuple(sorted(qubits))
    if isinstance(state, DensityMatrix):
        z = state.pauli.reshape(2**n, 2**n)[:, 0].reshape((2,) * n)
        z = z[tuple(slice(None) if q in qubits else 0 for q in range(n))]
        half = len(kept) // 2
        p = (_walsh(half) @ z.reshape(2**half, -1) @ _walsh(len(kept) - half)).reshape(1, -1)
    elif isinstance(state, StateVector):
        p = np.abs(state.amplitudes.reshape((2,) * n)) ** 2
        p = p.sum(axis=tuple(q for q in range(n) if q not in qubits)).reshape(1, -1)
    else:
        raise DomainError(f"unsupported state type {type(state)!r}")
    # the remaining axes are in ascending qubit order
    return np.maximum(reorder(p, kept, tuple(qubits))[0], 0.0)


def postselect(state, qubit: int, outcome: int):
    """Project one qubit onto ``outcome``, drop it, and renormalize.

    Returns the conditioned state on the remaining qubits and the branch
    probability. A density matrix's branch keeps the qubit's I and Z
    coefficients, as its |o><o| is (I +- Z) / 2; the branch's I string is its
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
        # ("Z or Y" bits, then "X or Y" bits): the qubit's "X or Y" bit at 0, I or Z
        c = state.pauli.reshape(hi, 2, lo, hi, 2, lo)[:, :, :, :, 0]
        branch = ((c[:, 0] + (1 - 2 * outcome) * c[:, 1]) / 2).reshape(m * m)
        prob = scale = float(branch[0])
    else:
        raise DomainError(f"unsupported state type {type(state)!r}")
    if prob <= ZERO_PROBABILITY:
        raise ImpossibleOutcomeError(
            f"outcome {outcome} on qubit {qubit} has zero probability"
        )
    return type(state)._trusted(n - 1, branch / scale), prob


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not in ``keep``; result qubit order follows
    ``keep``. Tracing a qubit out keeps the coefficients where it is at I."""
    keep = list(keep)
    if not keep:
        raise DomainError("keep must be nonempty")
    _check_targets(rho.num_qubits, keep)
    n, rows, m = rho.num_qubits, sorted(keep), len(keep)
    at_i = tuple(slice(None) if q in keep else 0 for q in range(n))
    c = rho.pauli.reshape((2,) * (2 * n))[at_i + at_i].reshape(1, -1)
    # the remaining "Z or Y" axes, then "X or Y" axes, are in ascending qubit order
    c = reorder(c, (*rows, *(q + n for q in rows)), (*keep, *(q + n for q in keep)))
    return DensityMatrix._trusted(m, c[0].copy())  # owned: no chain of views


def overlaps(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Tr(rho sigma) = c_rho . c_sigma / 2^n of two stacks of Pauli
    coefficients (..., 4^n), broadcast against each other, clamped to [0, 1]:
    against a pure sigma the overlap fidelity <k|rho|k> the closed-form curves
    match, not its square root (pinned in tests/test_oracles.py). An item
    reads the same bits in any batch: each is its own sum."""
    return np.clip((rho * sigma).sum(-1) / rho.shape[-1] ** 0.5, 0.0, 1.0)


def fidelity_pure(rho, psi) -> float:
    """:func:`overlaps` of one state, pure or mixed, against one pure reference."""
    if rho.num_qubits != psi.num_qubits:
        raise DomainError("dimension mismatch between rho and psi")
    return float(overlaps(rho.pauli, psi.pauli))


def exact_distribution(state, qubits) -> MeasurementHistogram:
    """Exact computational-basis marginal over the listed qubits."""
    qubits = _check_targets(state.num_qubits, list(qubits))
    p = _marginal_probabilities(state, qubits)
    outcomes = {label: float(x) for label, x in zip(_labels(len(qubits)), p)}
    total = sum(outcomes.values())
    return MeasurementHistogram({k_: v / total for k_, v in outcomes.items()}, None)


MAX_SHOTS = 2**63 - 1  # the most draws NumPy's multinomial takes: it counts in int64


def check_shots(shots: int) -> None:
    """The one shots rule: 0 (exact) to :data:`MAX_SHOTS` draws, else DomainError."""
    if not 0 <= shots <= MAX_SHOTS:
        raise DomainError(f"shots must be in [0, 2^63 - 1], got {shots}")


def _draw(p: np.ndarray, shots: int, seed) -> MeasurementHistogram:
    """Seeded multinomial draw of ``shots`` outcomes from ``p``, indexed by
    k-bit outcome; zero counts are left out."""
    draws = np.random.default_rng(seed).multinomial(shots, p / p.sum())
    labels = _labels(p.size.bit_length() - 1)
    return MeasurementHistogram._trusted({k: int(c) for k, c in zip(labels, draws) if c}, shots)


@functools.cache
def _labels(k: int) -> tuple:
    """Bitstring labels of the 2^k outcomes, MSB first, shared by all histograms."""
    return tuple(format(i, f"0{k}b") for i in range(2**k))
