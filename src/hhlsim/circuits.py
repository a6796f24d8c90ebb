"""Gate-level IR, lowering to the {CNOT, 1-qubit rotation} basis, and OpenQASM output.

Gate kinds fall into two tiers. Basis kinds survive compilation: ``h``,
``ry``, ``rz``, ``cnot``. Structured kinds are lowered by
:func:`compile_circuit` straight to basis gates: ``swap``, ``cphase``,
``unitary`` (explicit 1-qubit matrix), ``cunitary`` (controlled powers, as in
QPE, on ``(*controls, *targets)``: the stack of the powers U^x, x = 0..2^c-1,
of an explicit unitary U, block x applied where the c controls read x; one
control is the controlled U; its one parameter, a sign, orders the lowering),
``mry`` (multiplexed Ry: qubits ``(*controls, target)``, one angle per
control pattern), ``qft`` (the QFT on one or more wires, its one parameter a
sign s: s = -1 is the inverse QFT with the bit reversal folded in, P F^+, and
s = +1 its adjoint F P, with F the DFT and P the bit reversal; its lowering
is the documented cphase/h sequence). Each kind is one ``_KINDS`` record:
signature, matrix, lowering, CNOTs and OpenQASM name. No gate measures: every
measurement is deferred to the end (Nielsen & Chuang 4.4), on the qubits
``Circuit.measured`` lists.

The executor (:func:`noise.run_noisy`) applies every kind directly through
:func:`gate_matrix`, on a density matrix only basis kinds. A multiplexed kind
(``cunitary``, ``mry``) gives the stack of its blocks, never its dense
matrix, so an ``mry`` runs for any number of controls, while its lowering
supports at most two. A compiled circuit is a :class:`Circuit` of basis
gates; :func:`cnot_count` gives its CNOT count, or that of a source circuit,
without compiling (``Circuit.cnot_count``).

A gate is checked once, when :func:`gate` makes it, or, for b's
preparation and the unitary powers of QPE, by its problem. Lowerings build
their basis gates as :class:`Gate` directly, on the checked gate's qubits
with finite angles derived from its own, and so does QPE its ``h``, ``qft``
and ``swap`` gates, on distinct wires of a register that
:func:`qstate.check_width` has admitted; adjoints and the executor do not
check again, and :class:`Circuit` range-checks every wire.
:func:`simplify` is the one place zero rotations are dropped.

Documented decomposition set (gate-count accounting relies on it), exact up
to global phase, so a diagonal phase on one qubit is emitted as ``rz``:
controlled 1-qubit unitaries use the two-CNOT ABC construction, and a
``cunitary`` on c controls and one target is c of them, 2c CNOTs; a
controlled phase costs 2 CNOTs; a SWAP costs 3 CNOTs when physical, 0 when
absorbed by wire relabeling; a multiplexed Ry is a sum over control subsets,
where a single control costs 2 CNOTs and a pair is a Toffoli conjugation (two
6-CNOT Toffolis), 12 CNOTs; a QFT on n wires is n(n-1)/2 controlled phases
and n ``h``, n(n-1) CNOTs.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import qstate
from .errors import CompileError, DomainError, ValidationError

_ANGLE_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate; make it with :func:`gate`, which checks it."""

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

    @property
    def cnot_count(self) -> int:
        """:func:`cnot_count` of this circuit."""
        return cnot_count(self)


# ---------------------------------------------------------------------------
# gate matrices

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def _ry(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t):
    return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]])


def _mry(angles) -> np.ndarray:
    """The Ry(angles[p]) block of each control pattern p, a (2^c, 2, 2) stack."""
    half = np.asarray(angles) / 2
    c, s = np.cos(half), np.sin(half)
    return np.array([[c, -s], [s, c]], dtype=complex).transpose(2, 0, 1)


def _qft(g: Gate) -> np.ndarray:
    """P F^+ (s = -1) or F P (s = +1) on ``g``'s wires: entry (r, x) of
    P F^+ is w^(-rev(r) x) / sqrt(N), with w = e^(2 pi i / N) and rev the
    bit reversal of n bits (the qubit axes of 0..N-1 in reverse order), and
    F P is its adjoint."""
    n, s = len(g.qubits), g.params[0]
    x = np.arange(2**n, dtype=np.int32)  # rev(r) x < 2^31 for every register MAX_QUBITS admits
    roots = np.exp((s * 2j * np.pi / 2**n) * x) * 2 ** (-n / 2)
    index = x.reshape((2,) * n).T.reshape(-1, 1) * x
    index &= 2**n - 1  # mod 2^n, in place: at n = 11 the indices take 16 MiB, the matrix 64
    m = roots[index]
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
    parameters are negated; a gate with neither is its own inverse."""
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

def zyz_angles(u: np.ndarray):
    """(alpha, beta, gamma, delta) with u = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise DomainError("zyz decomposition needs a 2x2 unitary")
    alpha = np.angle(np.linalg.det(u)) / 2
    v = u * np.exp(-1j * alpha)
    gamma = 2 * np.arctan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[0, 0]) > 1e-12 and abs(v[1, 0]) > 1e-12:
        plus = 2 * np.angle(v[1, 1])
        minus = 2 * np.angle(v[1, 0])
        beta = (plus + minus) / 2
        delta = (plus - minus) / 2
    elif abs(v[0, 0]) > 1e-12:  # gamma ~ 0
        beta = 2 * np.angle(v[1, 1])
        delta = 0.0
    else:  # gamma ~ pi
        beta = 2 * np.angle(v[1, 0])
        delta = 0.0
    return float(alpha), float(beta), float(gamma), float(delta)


def decompose_controlled_unitary(u, control: int, target: int) -> list[Gate]:
    """Two-CNOT ABC construction of a controlled 1-qubit unitary.

    Always emits the full skeleton, zero angles included (:func:`simplify`
    drops them), so the entangling cost is uniform across a circuit family.
    Exact up to global phase: the determinant phase e^{i alpha} on the
    control's 1 branch is emitted as rz(alpha) on the control.
    """
    alpha, beta, gamma, delta = zyz_angles(u)
    # application order: C, CX, B, CX, A; A B C = I and A X B X C = u (phase aside)
    return [
        Gate("rz", (target,), ((delta - beta) / 2,)),
        Gate("cnot", (control, target)),
        Gate("rz", (target,), (-(delta + beta) / 2,)),
        Gate("ry", (target,), (-gamma / 2,)),
        Gate("cnot", (control, target)),
        Gate("ry", (target,), (gamma / 2,)),
        Gate("rz", (target,), (beta,)),
        Gate("rz", (control,), (alpha,)),
    ]


def _cphase_gates(g: Gate) -> list[Gate]:
    half, (control, target) = g.params[0] / 2, g.qubits
    return [
        Gate("rz", (control,), (half,)),
        Gate("rz", (target,), (half,)),
        Gate("cnot", (control, target)),
        Gate("rz", (target,), (-half,)),
        Gate("cnot", (control, target)),
    ]


def _zyz_gates(g: Gate) -> list[Gate]:
    """rz, ry, rz of a 1-qubit unitary, its global phase dropped."""
    _, beta, gamma, delta = zyz_angles(g.matrix)
    rotations = (("rz", delta), ("ry", gamma), ("rz", beta))
    return [Gate(r, g.qubits, (angle,)) for r, angle in rotations]


def _swap_gates(g: Gate) -> list[Gate]:
    a, b = g.qubits
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
    ``physical_swap`` the swaps are emitted, then the gate on the wires
    reversed, which is F^+ P on ``wires``, and the wire order is unchanged.
    """
    wires = list(wires)
    if not physical_swap:
        return [Gate("qft", tuple(wires), (-1,))], wires[::-1]
    n = len(wires)
    swaps = [Gate("swap", (wires[i], wires[n - 1 - i])) for i in range(n // 2)]
    return swaps + [Gate("qft", tuple(reversed(wires)), (-1,))], wires


def _qft_gates(g: Gate) -> list[Gate]:
    """The inverse QFT P F^+ on ``g``'s wires as cphase and h gates on the
    wires reversed (its adjoint for s = +1), each then lowered."""
    w = g.qubits[::-1]
    n = len(w)
    sequence = []
    for i in reversed(range(n)):
        for j in reversed(range(i + 1, n)):
            sequence.append(Gate("cphase", (w[j], w[i]), (-2 * np.pi / 2 ** (j - i + 1),)))
        sequence.append(Gate("h", (w[i],)))
    if g.params[0] > 0:
        sequence = adjoint(sequence)
    return [b for h in sequence for b in _lower(h)]


def _cunitary_gates(g: Gate) -> list[Gate]:
    """The ABC construction of block 2^(c-1-i) controlled by control i, for
    each of the c: in control order for s = +1, reversed for s = -1."""
    c = len(g.qubits) - 1
    order = range(c) if g.params[0] > 0 else reversed(range(c))
    return [b for i in order for b in
            decompose_controlled_unitary(g.matrix[2 ** (c - 1 - i)], g.qubits[i], g.qubits[c])]


def _subset_angles(angles, k: int) -> list[tuple[int, float]]:
    """(subset, angle) of each control subset of a k-control multiplexed Ry
    whose angle is not zero. The subset angles are the Moebius inversion of
    the pattern angles: those over the subsets of pattern p sum to
    ``angles[p]``; skipping a zero one saves its CNOTs, which :func:`simplify`
    never removes. More than two controls raise CompileError."""
    if k > 2:
        raise CompileError("multiplexed Ry supports at most two control qubits")
    out = []
    for s in range(2**k):
        phi = sum(
            (-1) ** bin(s ^ t).count("1") * float(angles[t])
            for t in range(s, -1, -1)
            if t & s == t
        )
        if abs(phi) > _ANGLE_TOL:
            out.append((s, phi))
    return out


def controlled_ry_chain(angles, controls, target: int) -> list[Gate]:
    """Basis gates of a multiplexed Ry on ``target``: control pattern p
    (bits over ``controls`` in order, the first the most significant)
    receives angle ``angles[p]``.

    Realized by inclusion-exclusion over control subsets: the empty subset is a
    bare Ry, singletons are 2-CNOT controlled-Ry multiplexors, pairs are
    Toffoli-conjugated Ry. More than two controls is not supported.
    """
    controls = list(controls)
    k = len(controls)
    out: list[Gate] = []
    for s, phi in _subset_angles(angles, k):
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
    2^c blocks has c >= 1). ``lower`` (None for a basis kind) gives a gate's
    basis gates, ``cnots`` their CNOTs without lowering, raising CompileError
    where the lowering would."""

    qubits: int | None
    params: int | None
    matrix: Callable[[Gate], np.ndarray]
    controls: int | None = None
    cnots: Callable[[Gate], int] = lambda g: 0
    lower: Callable[[Gate], list[Gate]] | None = None
    qasm: str | None = None  # the OpenQASM name of a basis kind


def _unitary_cnots(g: Gate) -> int:
    if len(g.qubits) != 1:
        raise CompileError("unitary lowering supports exactly one qubit")
    return 0


def _cunitary_cnots(g: Gate) -> int:
    # one two-CNOT ABC construction per control
    if g.matrix.shape[-1] != 2:
        raise CompileError("cunitary lowering supports exactly one target qubit")
    return 2 * (len(g.qubits) - 1)


def _mry_cnots(g: Gate) -> int:
    # per non-zero subset angle: bare Ry 0, controlled Ry 2, Toffoli-conjugated Ry 12
    subsets = _subset_angles(g.params, len(g.qubits) - 1)
    return sum((0, 2, 12)[bin(s).count("1")] for s, _ in subsets)


_KINDS = {
    "h": _Kind(1, 0, lambda g: _H, qasm="h"),
    "ry": _Kind(1, 1, lambda g: _ry(g.params[0]), qasm="ry"),
    "rz": _Kind(1, 1, lambda g: _rz(g.params[0]), qasm="rz"),
    "cnot": _Kind(2, 0, lambda g: _CNOT, cnots=lambda g: 1, qasm="cx"),
    "swap": _Kind(2, 0, lambda g: _SWAP, cnots=lambda g: 3, lower=_swap_gates),
    "cphase": _Kind(2, 1, lambda g: np.diag([1, 1, 1, np.exp(1j * g.params[0])]),
                    cnots=lambda g: 2, lower=_cphase_gates),
    "unitary": _Kind(None, 0, lambda g: g.matrix, controls=0, cnots=_unitary_cnots,
                     lower=_zyz_gates),
    "cunitary": _Kind(None, 1, lambda g: g.matrix, controls=1, cnots=_cunitary_cnots,
                      lower=_cunitary_gates),
    "mry": _Kind(None, None, lambda g: _mry(g.params), cnots=_mry_cnots,
                 lower=lambda g: controlled_ry_chain(g.params, g.qubits[:-1], g.qubits[-1])),
    "qft": _Kind(None, 1, _qft, cnots=lambda g: len(g.qubits) * (len(g.qubits) - 1),
                 lower=_qft_gates),
}


def is_basis(kind: str) -> bool:
    """Whether gates of ``kind`` survive compilation."""
    return _KINDS[kind].lower is None


# ---------------------------------------------------------------------------
# compilation

def simplify(gates) -> list[Gate]:
    """Drop zero rotations (only here) and cancel adjacent self-inverse pairs:
    on one qubit, a gate with a parameter and no matrix is a rotation, and
    one with neither is its own inverse (as in :func:`adjoint`). CNOT/SWAP
    pairs are kept, so the compiled entangling-gate count reflects the fixed
    skeleton, independent of the problem parameters. One stack pass
    suffices: a cancellation exposes a gate checked against its predecessor.
    """
    kept: list[Gate] = []
    for g in gates:
        if len(g.qubits) == 1 and g.matrix is None:
            if g.params and abs(g.params[0]) <= _ANGLE_TOL:
                continue
            if not g.params and kept and (kept[-1].kind, kept[-1].qubits) == (g.kind, g.qubits):
                kept.pop()
                continue
        kept.append(g)
    return kept


def _lower(g: Gate) -> list[Gate]:
    """Basis gates of one gate, up to global phase; :func:`cnot_count` has
    rejected the shapes this cannot lower."""
    lower = _KINDS[g.kind].lower
    return [g] if lower is None else lower(g)


def cnot_count(circuit) -> int:
    """CNOTs in the compiled form of ``circuit``, counted per gate without
    lowering it. Raises the CompileError that :func:`compile_circuit` raises
    on a gate it cannot lower. :func:`simplify` drops rotations and h pairs,
    never a CNOT, so the count equals the compiled one."""
    return sum(_KINDS[g.kind].cnots(g) for g in circuit.gates)


def compile_circuit(circuit: Circuit) -> Circuit:
    """Lower every gate to {CNOT + 1-qubit gates} and simplify, keeping the
    roles and the measured qubits.

    The composed unitary of the output matches the source up to global phase
    (asserted by the test suite, not at runtime).
    """
    cnot_count(circuit)  # raises CompileError on a gate that cannot lower
    lowered = simplify(b for g in circuit.gates for b in _lower(g))
    return Circuit(circuit.num_qubits, tuple(lowered), dict(circuit.roles), circuit.measured)


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
