"""Gate-level IR, lowering to the {CNOT, 1-qubit rotation} basis, and OpenQASM output.

Gate kinds fall into two tiers. Basis kinds survive compilation: ``h``,
``ry``, ``rz``, ``cnot``. Structured kinds are lowered by
:func:`compile_circuit` straight to basis gates: ``unitary`` (explicit
1-qubit matrix), ``cunitary`` (controlled powers, as in QPE, on
``(*controls, *targets)``: the stack of the powers U^x, x = 0..2^c-1, of an
explicit unitary U, block x applied where the c controls read x; one
control is the controlled U; its one parameter, a sign, orders the
lowering), ``mry`` (multiplexed Ry: qubits ``(*controls, target)``, one
angle per control pattern), ``qft`` (the QFT on one or more wires, its one
parameter a sign s: s = -1 is the inverse QFT with the bit reversal folded
in, P F^+, and s = +1 its adjoint F P, with F the DFT and P the bit
reversal; its lowering is the documented controlled-phase/h sequence). Each
kind is one ``_KINDS`` record: signature, matrix, lowering, CNOTs and
OpenQASM name. No gate measures: every measurement is deferred to the end
(Nielsen & Chuang 4.4), on the qubits ``Circuit.measured`` lists.

The executor (:func:`noise.run_noisy`) applies every kind directly through
:func:`gate_matrix`, on a density matrix only basis kinds, as their Pauli
transfer matrices. A multiplexed kind
(``cunitary``, ``mry``) gives the stack of its blocks, never its dense
matrix, so an ``mry`` runs for any number of controls, while its lowering
drops every control its angles ignore and supports at most two of the rest.
A compiled circuit is a :class:`Circuit` of basis gates; ``Circuit.cnot_count``
gives its CNOT count, or a source circuit's without compiling, and
:func:`cnot_counts` those of a batch of one skeleton in one pass.

A gate is checked once, when :func:`gate` makes it, or, for b's
preparation and the unitary powers of QPE, by its problem. Lowerings build
their basis gates as :class:`Gate` directly, on the checked gate's qubits
with finite angles derived from its own, and so does QPE its ``h``,
``qft`` and physical swaps' ``cnot`` gates, on distinct wires of a register
that :func:`qstate.check_width` has admitted; adjoints and the executor do not
check again, and :class:`Circuit` range-checks every wire, except in the
compiled circuit, whose wires are its checked source's.
:func:`simplify` is the one place zero rotations are dropped.

Documented decomposition set (gate-count accounting relies on it), exact up
to global phase, so a diagonal phase on one qubit is emitted as ``rz``:
controlled 1-qubit unitaries use the two-CNOT ABC construction, and a
``cunitary`` on c controls and one target is c of them, 2c CNOTs; a SWAP
costs 3 CNOTs when physical (emitted as three ``cnot`` gates), 0 when
absorbed by wire relabeling; a multiplexed Ry is a sum over control subsets,
where a single control costs 2 CNOTs and a pair is a Toffoli conjugation (two
6-CNOT Toffolis), 12 CNOTs; a QFT on n wires is n(n-1)/2 controlled-phase
steps of 2 CNOTs each and n ``h``, n(n-1) CNOTs.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qstate
from .errors import CompileError, DomainError, ValidationError

_ANGLE_TOL = 1e-12


class Gate(NamedTuple):
    """One gate; make it with :func:`gate`, which checks it. Immutable, so
    lowerings share theirs, and a tuple: half the cost of a frozen dataclass."""

    kind: str
    qubits: tuple
    params: tuple = ()
    matrix: np.ndarray | None = None


def gate(kind, *qubits, params=(), matrix=None) -> Gate:
    """A checked gate: a known kind with its number of qubits and of finite
    parameters (``mry``: one angle per control pattern), distinct qubits, and
    a ``matrix`` exactly for ``unitary`` and ``cunitary``, fitting its
    target qubits (all, or all but a ``cunitary``'s c controls): a unitary,
    or for ``cunitary`` a stack of 2^c blocks, block 0 the identity, block 1
    a unitary U and block x + 1 block x times U, within ``ATOL``. The matrix
    is stored read-only. A ``qft`` takes one or more qubits; it and a
    ``cunitary`` take the sign -1 or +1."""
    spec = _KINDS.get(kind)
    if spec is None:
        raise ValidationError(f"unknown gate kind {kind!r}")
    width, arity = spec.qubits, spec.params
    if len(set(qubits)) != len(qubits):
        raise ValidationError(f"gate {kind} repeats a qubit: {qubits}")
    params = tuple(params)
    for p in params:
        if not math.isfinite(p):
            raise ValidationError(f"non-finite gate parameter {p}")
    if kind in ("qft", "cunitary") and params and params[0] not in (-1, 1):
        raise ValidationError(f"a {kind} gate takes the sign -1 or +1, got {params[0]}")
    if kind == "qft":
        if not qubits:
            raise ValidationError("a qft gate needs at least one qubit")
        width = len(qubits)
    if arity is None:
        width, arity = len(qubits), 2 ** (len(qubits) - 1)
        if len(params) != arity:
            raise ValidationError(f"an {kind} gate needs one angle per control pattern")
    needs_matrix = spec.controls is not None
    if (matrix is not None) != needs_matrix:
        raise ValidationError(f"gate {kind} {'needs a' if needs_matrix else 'takes no'} matrix")
    if matrix is not None:
        if kind == "cunitary":
            matrix = _check_powers(matrix)
            controls = len(matrix).bit_length() - 1
        else:
            matrix, controls = qstate._check_unitary(matrix), spec.controls
        targets = len(qubits) - controls
        if targets < 1 or matrix.shape[-1] != 2**targets:
            raise ValidationError(
                f"a {matrix.shape[-1]}x{matrix.shape[-1]} matrix does not fit "
                f"{targets} target qubit(s) of gate {kind}"
            )
        matrix.setflags(write=False)
        width = len(qubits)
    if len(qubits) != width:
        raise ValidationError(f"gate {kind} acts on {width} qubit(s), got {len(qubits)}")
    if len(params) != arity:
        raise ValidationError(f"gate {kind} takes {arity} parameter(s), got {len(params)}")
    return Gate(kind, qubits, params, matrix)


def _check_powers(stack) -> np.ndarray:
    """A cunitary stack, as :func:`gate` describes it, as a complex array."""
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or len(stack) < 2 or len(stack) & (len(stack) - 1):
        raise ValidationError(
            f"a cunitary gate takes a stack of 2^c >= 2 blocks, not {stack.shape}"
        )
    qstate._check_unitary(stack[1])
    powers = np.concatenate([np.eye(stack.shape[1])[None], stack[:-1] @ stack[1]])
    if not qstate.within_atol(stack, powers, qstate.ATOL):
        raise ValidationError("the blocks of a cunitary gate are not the powers of its block 1")
    return stack


@dataclass(frozen=True)
class Circuit:
    """Gate list with named qubit roles (ancilla / register / input), source or
    compiled, and the qubits ``measured`` after its last gate, in readout order."""

    num_qubits: int
    gates: tuple
    roles: dict = field(default_factory=dict)
    measured: tuple = ()

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits:
                if not (0 <= q < self.num_qubits):
                    raise DomainError(
                        f"gate {g.kind} addresses qubit {q} outside 0..{self.num_qubits - 1}"
                    )
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "measured", tuple(self.measured))
        for i, q in enumerate(self.measured):
            if not (0 <= q < self.num_qubits):
                raise DomainError(f"measured qubit {q} lies outside 0..{self.num_qubits - 1}")
            if q in self.measured[:i]:
                raise DomainError(f"qubit {q} is measured more than once")

    @classmethod
    def _trusted(cls, num_qubits: int, gates: tuple, roles: dict, measured: tuple) -> "Circuit":
        """A circuit on the wires of a checked one, as a compiled circuit is:
        its wires are not checked again."""
        circuit = object.__new__(cls)
        circuit.__dict__.update(num_qubits=num_qubits, gates=gates, roles=roles, measured=measured)
        return circuit

    @property
    def cnot_count(self) -> int:
        """CNOTs in the compiled form of this circuit, its :func:`cnot_counts`
        as a batch of one, counted without lowering; where a gate does not
        lower, the CompileError :func:`compile_circuit` raises.
        :func:`simplify` drops no CNOT, so the count equals the compiled one."""
        (count,) = cnot_counts([self])
        if count is None:
            compile_circuit(self)  # raises at the first gate that does not lower
        return count


# ---------------------------------------------------------------------------
# gate matrices

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def _ry(t) -> np.ndarray:
    """Ry(t), or over an array of angles the stack of their matrices."""
    half = np.asarray(t) / 2
    c, s = np.cos(half), np.sin(half)
    out = np.empty(c.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1], out[..., 1, 0] = -s, s
    return out


def _rz(t) -> np.ndarray:
    """Rz(t), or over an array of angles the stack of their matrices."""
    t = np.asarray(t)
    out = np.zeros(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 1, 1] = np.exp(-1j * t / 2), np.exp(1j * t / 2)
    return out


@functools.cache
def _dft(n: int, s) -> np.ndarray:
    """P F^+ (s = -1) or F P (s = +1) on n wires, made once per shape and
    read-only: entry (r, x) of P F^+ is w^(-rev(r) x) / sqrt(N), with
    w = e^(2 pi i / N) and rev the bit reversal of n bits (the qubit axes of
    0..N-1 in reverse order), and F P is its adjoint. A process keeps each
    shape it meets: 64 MiB at the widest, n = 11."""
    x = np.arange(2**n, dtype=np.int32)  # rev(r) x < 2^31 for every register MAX_QUBITS admits
    roots = np.exp((s * 2j * np.pi / 2**n) * x) * 2 ** (-n / 2)
    index = x.reshape((2,) * n).T.reshape(-1, 1) * x
    index &= 2**n - 1  # mod 2^n, in place: at n = 11 the indices take 16 MiB, the matrix 64
    m = roots[index]
    m.setflags(write=False)
    return m if s < 0 else m.T


def gate_matrix(g: Gate) -> np.ndarray:
    """Unitary of a single gate on its own qubits (MSB = first listed qubit),
    or, for a multiplexed kind (``cunitary``, ``mry``), the stack
    of its blocks: block x acts on the targets where the controls read x.
    :func:`qstate.apply_operator` takes either."""
    return _KINDS[g.kind].matrix(g)


def adjoint(gates) -> list[Gate]:
    """Adjoint of a gate sequence (reversed order, each gate inverted): a
    gate's matrix, or each block of a stack, takes its dagger and its
    parameters are negated; ``h`` and ``cnot``, with neither, self-invert."""
    out = []
    for g in reversed(list(gates)):
        m = g.matrix
        if m is not None:
            m = m.conj().swapaxes(-1, -2)
            m.setflags(write=False)
        if m is not None or g.params:
            g = Gate(g.kind, g.qubits, tuple(-p for p in g.params), m)
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# decompositions

def zyz_angles(u):
    """(alpha, beta, gamma, delta) with u = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta):
    floats for one 2x2 unitary, or four arrays for a (k, 2, 2) stack of them.
    One 2x2 is taken as the stack of one, so a member's angles have the same
    bits alone or in a stack: stacked and scalar ufuncs round differently."""
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (2, 2) or u.ndim not in (2, 3):
        raise DomainError("zyz decomposition needs a 2x2 unitary or a stack of them")
    alpha = np.angle(np.linalg.det(u.reshape(-1, 2, 2))) / 2
    v = u.reshape(-1, 2, 2) * np.exp(-1j * alpha)[:, None, None]
    c, s = np.abs(v[:, :, 0]).T  # |v00|, |v10|
    gamma = 2 * np.arctan2(s, c)
    minus, plus = 2 * np.angle(v[:, 1]).T  # twice the phases of v10, v11
    beta, delta = (plus + minus) / 2, (plus - minus) / 2
    if (edge := (c <= 1e-12) | (s <= 1e-12)).any():  # gamma ~ 0 or ~ pi: one phase is left
        beta = np.where(edge, np.where(c > 1e-12, plus, minus), beta)
        delta = np.where(edge, 0.0, delta)
    if u.ndim == 2:
        return float(alpha[0]), float(beta[0]), float(gamma[0]), float(delta[0])
    return alpha, beta, gamma, delta


def _abc_gates(alpha, beta, gamma, delta, control: int, target: int) -> list[Gate]:
    """Two-CNOT ABC construction of a controlled 1-qubit unitary from its
    :func:`zyz_angles`: always the full skeleton, zero angles included
    (:func:`simplify` drops them), so the entangling cost is uniform across a
    circuit family. Exact up to global phase: the determinant phase e^{i alpha}
    on the control's 1 branch is emitted as rz(alpha) on the control."""
    # application order: C, CX, B, CX, A; A B C = I and A X B X C = u (phase aside)
    cnot = Gate("cnot", (control, target))
    return [
        Gate("rz", (target,), ((delta - beta) / 2,)),
        cnot,
        Gate("rz", (target,), (-(delta + beta) / 2,)),
        Gate("ry", (target,), (-gamma / 2,)),
        cnot,
        Gate("ry", (target,), (gamma / 2,)),
        Gate("rz", (target,), (beta,)),
        Gate("rz", (control,), (alpha,)),
    ]


def _cphase_gates(control: int, target: int, angle: float) -> list[Gate]:
    """A QFT step: diag(1, 1, 1, e^{i angle}) on (control, target), 2 CNOTs."""
    half, cnot = angle / 2, Gate("cnot", (control, target))
    return [
        Gate("rz", (control,), (half,)),
        Gate("rz", (target,), (half,)),
        cnot,
        Gate("rz", (target,), (-half,)),
        cnot,
    ]


def _zyz_gates(g: Gate) -> list[Gate]:
    """rz, ry, rz of a 1-qubit unitary, its global phase dropped."""
    _check_lowers(g)  # raises CompileError on a wider one
    _, beta, gamma, delta = zyz_angles(g.matrix)
    rotations = (("rz", delta), ("ry", gamma), ("rz", beta))
    return [Gate(r, g.qubits, (angle,)) for r, angle in rotations]


def _swap_gates(a: int, b: int) -> list[Gate]:
    return [Gate("cnot", (a, b)), Gate("cnot", (b, a)), Gate("cnot", (a, b))]


def _cry_gates(angle: float, control: int, target: int) -> list[Gate]:
    return [
        Gate("ry", (target,), (angle / 2,)),
        Gate("cnot", (control, target)),
        Gate("ry", (target,), (-angle / 2,)),
        Gate("cnot", (control, target)),
    ]


def _toffoli_gates(a: int, b: int, t: int) -> list[Gate]:
    """Standard six-CNOT Toffoli with T = rz(pi/4), up to global phase."""
    T = np.pi / 4
    return [
        Gate("h", (t,)),
        Gate("cnot", (b, t)),
        Gate("rz", (t,), (-T,)),
        Gate("cnot", (a, t)),
        Gate("rz", (t,), (T,)),
        Gate("cnot", (b, t)),
        Gate("rz", (t,), (-T,)),
        Gate("cnot", (a, t)),
        Gate("rz", (b,), (T,)),
        Gate("rz", (t,), (T,)),
        Gate("h", (t,)),
        Gate("cnot", (a, b)),
        Gate("rz", (a,), (T,)),
        Gate("rz", (b,), (-T,)),
        Gate("cnot", (a, b)),
    ]


def _ccry_gates(angle: float, c1: int, c2: int, target: int) -> list[Gate]:
    """Toffoli conjugation: Ry(angle) on the target iff both controls are set."""
    return (
        [Gate("ry", (target,), (angle / 2,))]
        + _toffoli_gates(c1, c2, target)
        + [Gate("ry", (target,), (-angle / 2,))]
        + _toffoli_gates(c1, c2, target)
    )


def inverse_qft_gates(wires, physical_swap: bool = False):
    """Inverse QFT on the listed wires (MSB first): one ``qft`` gate of sign -1.

    Returns ``(gates, out_wires)``. The bit-reversal SWAP layer is absorbed by
    relabeling by default: the gate on ``wires`` is P F^+, and
    ``out_wires[i]`` is the wire holding logical bit i afterwards. With
    ``physical_swap`` three ``cnot`` gates per swap come first, then the gate
    on the wires reversed, which is F^+ P on ``wires``; wires keep their order.
    """
    wires = list(wires)
    if not physical_swap:
        return [Gate("qft", tuple(wires), (-1,))], wires[::-1]
    n = len(wires)
    swaps = [c for i in range(n // 2) for c in _swap_gates(wires[i], wires[n - 1 - i])]
    return swaps + [Gate("qft", tuple(reversed(wires)), (-1,))], wires


@functools.cache
def _qft_gates(wires: tuple, s) -> tuple[Gate, ...]:
    """The inverse QFT P F^+ on ``wires`` as controlled-phase and h steps
    on the wires reversed (their adjoint for s = +1: reversed, each angle
    negated), each then lowered; made once per shape and shared, so callers
    copy it (:func:`_lower`)."""
    w = wires[::-1]
    n = len(w)
    steps = []
    for i in reversed(range(n)):
        steps += [(w[j], w[i], -2 * np.pi / 2 ** (j - i + 1)) for j in reversed(range(i + 1, n))]
        steps.append((w[i],))
    out = []
    for step in (steps if s < 0 else reversed(steps)):
        out += [Gate("h", step)] if len(step) == 1 else _cphase_gates(*step[:2], -s * step[2])
    return tuple(out)


def _cunitary_gates(g: Gate) -> list[Gate]:
    """The ABC construction of block 2^(c-1-i) controlled by control i, for
    each of the c: in control order for s = +1, reversed for s = -1. One
    :func:`zyz_angles` call takes the c blocks as one stack."""
    _check_lowers(g)  # raises CompileError on a wider target
    c = len(g.qubits) - 1
    blocks = g.matrix[2 ** np.arange(c - 1, -1, -1)]  # block 2^(c-1-i) for control i
    angles = list(zip(*(a.tolist() for a in zyz_angles(blocks))))
    order = range(c) if g.params[0] > 0 else reversed(range(c))
    return [b for i in order for b in _abc_gates(*angles[i], g.qubits[i], g.qubits[c])]


def _subset_angles(angles) -> np.ndarray:
    """The subset angles of a multiplexed Ry's angle table, or of each table
    of a stack (..., 2^k): the Moebius inversion, those over the subsets of
    pattern p summing to ``angles[p]``, as one difference along each control's
    axis, so a control the angles ignore gives exactly a - a = 0 on every
    subset that holds it. A non-zero subset costs gates (never simplified)."""
    phi = np.array(angles, dtype=float)
    for axis in range(phi.shape[-1].bit_length() - 1):
        pairs = phi.reshape(-1, 2, phi.shape[-1] >> (axis + 1))  # a view: this axis in the middle
        pairs[:, 1] -= pairs[:, 0]
    return phi


def controlled_ry_chain(angles, controls, target: int) -> list[Gate]:
    """Basis gates of a multiplexed Ry on ``target``: control pattern p
    (bits over ``controls`` in order, the first the most significant)
    receives angle ``angles[p]``.

    Realized by inclusion-exclusion over control subsets: the empty subset is a
    bare Ry, singletons are 2-CNOT controlled-Ry multiplexors, pairs are
    Toffoli-conjugated Ry. A control the angles ignore is dropped; a
    non-zero subset of more than two controls is not supported.
    """
    controls = list(controls)
    k = len(controls)
    subsets = [(s, a) for s, a in enumerate(_subset_angles(angles).tolist())
               if abs(a) > _ANGLE_TOL]
    if any(bin(s).count("1") > 2 for s, _ in subsets):
        raise CompileError(_KINDS["mry"].refusal)
    out: list[Gate] = []
    for s, phi in subsets:
        members = [controls[i] for i in range(k) if s & (1 << (k - 1 - i))]
        if not members:
            out.append(Gate("ry", (target,), (phi,)))
        elif len(members) == 1:
            out.extend(_cry_gates(phi, members[0], target))
        else:
            out.extend(_ccry_gates(phi, *members, target))
    return out


# ---------------------------------------------------------------------------
# gate kinds

@dataclass(frozen=True, slots=True)
class _Kind:
    """One gate kind. Signature: ``qubits``, ``params`` (None: as many as the
    matrix fits, or for mry one angle per control pattern) and ``controls``
    before an explicit matrix's targets (None: no matrix; a cunitary stack of
    2^c blocks has c >= 1).
    ``lower`` (None for a basis kind) gives a gate's basis gates, ``cnots``
    their CNOTs without lowering, or NaN for a gate that does not lower, on
    which the lowering raises CompileError(``refusal``)."""

    qubits: int | None
    params: int | None
    matrix: Callable[[Gate], np.ndarray]
    controls: int | None = None
    cnots: Callable[[Gate], float] = lambda g: 0
    lower: Callable[[Gate], list[Gate]] | None = None
    qasm: str | None = None  # the OpenQASM name of a basis kind
    refusal: str | None = None


def _mry_cnots(tables) -> np.ndarray:
    """CNOTs of the mry lowering of each table of a stack (..., 2^k): per non-zero
    subset angle 0 (bare Ry), 2 (one control), 12 (a Toffoli pair), NaN on more."""
    phi = _subset_angles(tables)
    cost = [(0, 2, 12, math.nan)[min(bin(s).count("1"), 3)] for s in range(phi.shape[-1])]
    return np.where(np.abs(phi) > _ANGLE_TOL, cost, 0.0).sum(-1)


_KINDS = {
    "h": _Kind(1, 0, lambda g: _H, qasm="h"),
    "ry": _Kind(1, 1, lambda g: _ry(g.params[0]), qasm="ry"),
    "rz": _Kind(1, 1, lambda g: _rz(g.params[0]), qasm="rz"),
    "cnot": _Kind(2, 0, lambda g: _CNOT, cnots=lambda g: 1, qasm="cx"),
    "unitary": _Kind(None, 0, lambda g: g.matrix, controls=0,
                     cnots=lambda g: 0 if len(g.qubits) == 1 else math.nan, lower=_zyz_gates,
                     refusal="unitary lowering supports exactly one qubit"),
    "cunitary": _Kind(
        None, 1, lambda g: g.matrix, controls=1, lower=_cunitary_gates,
        cnots=lambda g: 2 * (len(g.qubits) - 1) if g.matrix.shape[-1] == 2 else math.nan,
        refusal="cunitary lowering supports exactly one target qubit"),
    "mry": _Kind(None, None, lambda g: _ry(g.params), cnots=lambda g: _mry_cnots(g.params),
                 lower=lambda g: controlled_ry_chain(g.params, g.qubits[:-1], g.qubits[-1]),
                 refusal="multiplexed Ry supports at most two control qubits"),
    "qft": _Kind(None, 1, lambda g: _dft(len(g.qubits), g.params[0]),
                 cnots=lambda g: len(g.qubits) * (len(g.qubits) - 1),
                 lower=lambda g: list(_qft_gates(g.qubits, g.params[0]))),
}


# ---------------------------------------------------------------------------
# compilation

def simplify(gates) -> list[Gate]:
    """Drop zero rotations (only here) and cancel adjacent self-inverse pairs:
    on one qubit, a gate with a parameter and no matrix is a rotation, and
    one with neither is its own inverse (as in :func:`adjoint`). CNOT pairs
    are kept, so the compiled entangling-gate count reflects the fixed
    skeleton, independent of the problem parameters. One stack pass
    suffices: a cancellation exposes a gate checked against its predecessor.
    """
    kept: list[Gate] = []
    for g in gates:
        if g.matrix is None and len(g.qubits) == 1:
            if g.params:
                if abs(g.params[0]) <= _ANGLE_TOL:
                    continue
            elif kept and kept[-1].kind == g.kind and kept[-1].qubits == g.qubits:
                kept.pop()
                continue
        kept.append(g)
    return kept


def _lower(g: Gate) -> list[Gate]:
    """Basis gates of one gate, up to global phase; a shape it cannot lower
    raises the CompileError ``Circuit.cnot_count`` raises."""
    lower = _KINDS[g.kind].lower
    return [g] if lower is None else lower(g)


def _check_lowers(g: Gate) -> None:
    """Raise the CompileError of ``g``'s kind where ``g`` does not lower."""
    if math.isnan(_KINDS[g.kind].cnots(g)):
        raise CompileError(_KINDS[g.kind].refusal)


def cnot_counts(batch) -> list[int | None]:
    """``Circuit.cnot_count`` of each circuit of a batch with one skeleton, None
    where it raises, raising nothing. Every kind's count but an ``mry``'s
    follows the gate's shape, so the first circuit gives it; an ``mry``'s
    comes from one :func:`_subset_angles` call over the stacked tables (B, 2^k)."""
    fixed, tables = 0.0, []
    for i, g in enumerate(batch[0].gates):
        if g.kind == "mry":
            tables.append([c.gates[i].params for c in batch])
        else:
            fixed += _KINDS[g.kind].cnots(g)
    if math.isnan(fixed):  # no circuit lowers, whatever its angles
        return [None] * len(batch)
    total = sum(map(_mry_cnots, tables), np.full(len(batch), fixed))
    return [None if math.isnan(t) else int(t) for t in total.tolist()]


def compile_circuit(circuit: Circuit) -> Circuit:
    """Lower every gate to {CNOT + 1-qubit gates} and simplify, keeping the
    roles and the measured qubits.

    The composed unitary of the output matches the source up to global phase
    (asserted by the test suite, not at runtime). The first gate that
    cannot lower raises CompileError, as in ``Circuit.cnot_count``.
    """
    lowered = tuple(simplify(b for g in circuit.gates for b in _lower(g)))
    return Circuit._trusted(circuit.num_qubits, lowered, dict(circuit.roles), circuit.measured)


# ---------------------------------------------------------------------------
# serialization

def emit_qasm(compiled: Circuit) -> str:
    """Deterministic OpenQASM 2.0 text for a compiled circuit."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{compiled.num_qubits}];"]
    measured: list[tuple[str, int, int]] = []  # (creg, creg index, qubit)
    creg_sizes: dict[str, int] = {}
    qubit_role = {}
    for role, qubits in compiled.roles.items():
        for q in qubits:
            qubit_role[q] = role
    for q in compiled.measured:
        role = qubit_role.get(q, "c")
        idx = creg_sizes.get(role, 0)
        creg_sizes[role] = idx + 1
        measured.append((role, idx, q))
    for role in creg_sizes:
        lines.append(f"creg {role}[{creg_sizes[role]}];")
    for g in compiled.gates:
        name = _KINDS[g.kind].qasm
        if name is None:
            raise CompileError(f"gate kind {g.kind!r} is not in the emission basis")
        args = ",".join(f"q[{q}]" for q in g.qubits)
        angle = f"({g.params[0]:.15g})" if g.params else ""
        lines.append(f"{name}{angle} {args};")
    for role, idx, q in measured:
        lines.append(f"measure q[{q}] -> {role}[{idx}];")
    return "\n".join(lines) + "\n"
