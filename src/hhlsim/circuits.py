"""Gate-level IR, lowering to the {CNOT, 1-qubit rotation} basis, and OpenQASM output.

Gate kinds fall into two tiers. Basis kinds survive compilation: ``h``, ``x``,
``rx``, ``ry``, ``rz``, ``cnot``. Structured kinds are lowered by
:func:`compile_circuit` straight to basis gates: ``swap``, ``cphase``,
``unitary`` (explicit 1-qubit matrix), ``cunitary`` (one control, explicit
1-qubit matrix), ``mry`` (multiplexed Ry: qubits ``(*controls, target)``, one
angle per control pattern). No gate measures: every measurement is deferred
to the end (Nielsen & Chuang 4.4), on the qubits ``Circuit.measured`` lists.

The executor (:func:`noise.run_noisy`) applies every kind directly through
:func:`gate_matrix`; an ``mry`` is the block-diagonal matrix of its Ry
blocks, so it runs for any number of controls, while its lowering supports
at most two. A compiled circuit is a :class:`Circuit` of basis gates;
:func:`cnot_count` gives its CNOT count, or that of a source circuit,
without compiling (``Circuit.cnot_count`` returns it).

A gate is checked once, when :func:`gate` makes it (lowerings do too), or,
for b's preparation, by its problem. Adjoints and the executor do not check
again. :func:`simplify` is the one place zero rotations are dropped.

Documented decomposition set (gate-count accounting relies on it), exact up
to global phase, so a diagonal phase on one qubit is emitted as ``rz``:
controlled 1-qubit unitaries use the two-CNOT ABC construction; a controlled
phase costs 2 CNOTs; a SWAP costs 3 CNOTs when physical, 0 when absorbed by
wire relabeling; a multiplexed Ry is a sum over control subsets, where a
single control costs 2 CNOTs and a pair is a Toffoli conjugation (two 6-CNOT
Toffolis), 12 CNOTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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


# kind -> (qubits, parameters); None means as many qubits as the matrix fits
# (unitary, cunitary) or, for mry, one angle per pattern of its controls
_SIGNATURES = {
    "h": (1, 0), "x": (1, 0),
    "rx": (1, 1), "ry": (1, 1), "rz": (1, 1),
    "cnot": (2, 0), "swap": (2, 0), "cphase": (2, 1),
    "unitary": (None, 0), "cunitary": (None, 0), "mry": (None, None),
}


def gate(kind, *qubits, params=(), matrix=None) -> Gate:
    """A checked gate: a known kind with its number of qubits and of finite
    parameters (``mry``: one angle per control pattern), distinct qubits, and
    a ``matrix`` exactly for ``unitary`` and ``cunitary``, unitary and fitting
    its target qubits (all of them, or all but the control of a
    ``cunitary``); the matrix is stored read-only."""
    if kind not in _SIGNATURES:
        raise ValidationError(f"unknown gate kind {kind!r}")
    width, arity = _SIGNATURES[kind]
    if len(set(qubits)) != len(qubits):
        raise ValidationError(f"gate {kind} repeats a qubit: {qubits}")
    params = tuple(params)
    for p in params:
        if not math.isfinite(p):
            raise ValidationError(f"non-finite gate parameter {p}")
    if kind == "mry":
        width, arity = len(qubits), 2 ** (len(qubits) - 1)
        if len(params) != arity:
            raise ValidationError("an mry gate needs one angle per control pattern")
    needs_matrix = kind in ("unitary", "cunitary")
    if (matrix is not None) != needs_matrix:
        raise ValidationError(f"gate {kind} {'needs a' if needs_matrix else 'takes no'} matrix")
    if matrix is not None:
        matrix = qstate._check_unitary(matrix)
        targets = len(qubits) - (kind == "cunitary")
        if targets < 1 or matrix.shape[0] != 2**targets:
            raise ValidationError(
                f"a {matrix.shape[0]}x{matrix.shape[0]} matrix does not fit "
                f"{targets} target qubit(s) of gate {kind}"
            )
        matrix.setflags(write=False)
        width = len(qubits)
    if len(qubits) != width:
        raise ValidationError(f"gate {kind} acts on {width} qubit(s), got {len(qubits)}")
    if len(params) != arity:
        raise ValidationError(f"gate {kind} takes {arity} parameter(s), got {len(params)}")
    return Gate(kind, qubits, params, matrix)


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
# gate matrices and circuit evaluation

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _rx(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t):
    return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]])


def _mry(angles) -> np.ndarray:
    """Block-diagonal Ry(angles[p]) over control patterns p (target last)."""
    half = np.asarray(angles) / 2
    c, s = np.cos(half), np.sin(half)
    idx = 2 * np.arange(len(angles))
    m = np.zeros((2 * len(angles), 2 * len(angles)), dtype=complex)
    m[idx, idx] = m[idx + 1, idx + 1] = c
    m[idx, idx + 1] = -s
    m[idx + 1, idx] = s
    return m


def _controlled(u: np.ndarray) -> np.ndarray:
    d = u.shape[0]
    big = np.eye(2 * d, dtype=complex)
    big[d:, d:] = u
    return big


_CNOT = _controlled(_X)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def gate_matrix(g: Gate) -> np.ndarray:
    """Unitary of a single gate on its own qubits (MSB = first listed qubit)."""
    k, p = g.kind, g.params
    if k == "h":
        return _H
    if k == "x":
        return _X
    if k == "rx":
        return _rx(p[0])
    if k == "ry":
        return _ry(p[0])
    if k == "rz":
        return _rz(p[0])
    if k == "cnot":
        return _CNOT
    if k == "swap":
        return _SWAP
    if k == "cphase":
        return np.diag([1, 1, 1, np.exp(1j * p[0])])
    if k == "unitary":
        return g.matrix
    if k == "cunitary":
        return _controlled(g.matrix)
    return _mry(p)  # mry, the last kind


def circuit_unitary(gates, num_qubits: int) -> np.ndarray:
    """Composed unitary of a gate sequence."""
    u = np.eye(2**num_qubits, dtype=complex)[None]
    for g in gates:
        u = qstate.apply_operator(u, gate_matrix(g), g.qubits, num_qubits)
    return u[0]


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < atol:
        return qstate.within_atol(a, b, atol)
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > atol:
        return False
    return qstate.within_atol(a, phase * b, atol)


def adjoint(gates) -> list[Gate]:
    """Adjoint of a gate sequence (reversed order, each gate inverted)."""
    out = []
    for g in reversed(list(gates)):
        if g.kind in ("h", "x", "cnot", "swap"):
            out.append(g)
        elif g.kind in ("rx", "ry", "rz", "cphase", "mry"):
            out.append(replace(g, params=tuple(-p for p in g.params)))
        elif g.kind in ("unitary", "cunitary"):
            m = g.matrix.conj().T
            m.setflags(write=False)
            out.append(replace(g, matrix=m))
        else:
            raise DomainError(f"cannot take adjoint of gate kind {g.kind!r}")
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
        gate("rz", target, params=((delta - beta) / 2,)),
        gate("cnot", control, target),
        gate("rz", target, params=(-(delta + beta) / 2,)),
        gate("ry", target, params=(-gamma / 2,)),
        gate("cnot", control, target),
        gate("ry", target, params=(gamma / 2,)),
        gate("rz", target, params=(beta,)),
        gate("rz", control, params=(alpha,)),
    ]


def _cphase_gates(angle: float, control: int, target: int) -> list[Gate]:
    half = angle / 2
    return [
        gate("rz", control, params=(half,)),
        gate("rz", target, params=(half,)),
        gate("cnot", control, target),
        gate("rz", target, params=(-half,)),
        gate("cnot", control, target),
    ]


def _swap_gates(a: int, b: int) -> list[Gate]:
    return [gate("cnot", a, b), gate("cnot", b, a), gate("cnot", a, b)]


def _cry_gates(angle: float, control: int, target: int) -> list[Gate]:
    return [
        gate("ry", target, params=(angle / 2,)),
        gate("cnot", control, target),
        gate("ry", target, params=(-angle / 2,)),
        gate("cnot", control, target),
    ]


def _toffoli_gates(a: int, b: int, t: int) -> list[Gate]:
    """Standard six-CNOT Toffoli with T = rz(pi/4), up to global phase."""
    T = np.pi / 4
    return [
        gate("h", t),
        gate("cnot", b, t),
        gate("rz", t, params=(-T,)),
        gate("cnot", a, t),
        gate("rz", t, params=(T,)),
        gate("cnot", b, t),
        gate("rz", t, params=(-T,)),
        gate("cnot", a, t),
        gate("rz", b, params=(T,)),
        gate("rz", t, params=(T,)),
        gate("h", t),
        gate("cnot", a, b),
        gate("rz", a, params=(T,)),
        gate("rz", b, params=(-T,)),
        gate("cnot", a, b),
    ]


def _ccry_gates(angle: float, c1: int, c2: int, target: int) -> list[Gate]:
    """Toffoli conjugation: Ry(angle) on the target iff both controls are set."""
    return (
        [gate("ry", target, params=(angle / 2,))]
        + _toffoli_gates(c1, c2, target)
        + [gate("ry", target, params=(-angle / 2,))]
        + _toffoli_gates(c1, c2, target)
    )


def inverse_qft_gates(wires, physical_swap: bool = False):
    """Inverse QFT on the listed wires (MSB first).

    Returns ``(gates, out_wires)``. The bit-reversal SWAP layer is absorbed by
    relabeling by default: ``out_wires[i]`` is the wire holding logical bit i
    afterwards. With ``physical_swap`` the swaps are emitted and the wire
    order is unchanged.
    """
    wires = list(wires)
    n = len(wires)
    gates_out: list[Gate] = []
    if physical_swap:
        for i in range(n // 2):
            gates_out.append(gate("swap", wires[i], wires[n - 1 - i]))
        w = wires
    else:
        w = list(reversed(wires))
    for i in reversed(range(n)):
        for j in reversed(range(i + 1, n)):
            angle = -2 * np.pi / 2 ** (j - i + 1)
            gates_out.append(gate("cphase", w[j], w[i], params=(angle,)))
        gates_out.append(gate("h", w[i]))
    return gates_out, w


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
            out.append(gate("ry", target, params=(phi,)))
        elif len(members) == 1:
            out.extend(_cry_gates(phi, members[0], target))
        else:
            out.extend(_ccry_gates(phi, *members, target))
    return out


# ---------------------------------------------------------------------------
# compilation

_BASIS_KINDS = {"h", "x", "rx", "ry", "rz", "cnot"}
# Only single-qubit involutions are cancelled: adjacent CNOT/SWAP pairs are
# kept so that the compiled entangling-gate count reflects the fixed circuit
# skeleton a device would execute, independent of the problem parameters.
_INVOLUTIONS = {"h", "x"}
_ROTATIONS = {"rx", "ry", "rz"}


def simplify(gates) -> list[Gate]:
    """Drop zero rotations (only here) and cancel adjacent self-inverse pairs.

    One stack pass suffices: a gate is kept only if it does not cancel the
    kept gate before it, and a cancellation exposes a gate already checked
    against its own predecessor.
    """
    kept: list[Gate] = []
    for g in gates:
        if g.kind in _ROTATIONS and abs(g.params[0]) <= _ANGLE_TOL:
            continue
        if kept and g.kind in _INVOLUTIONS and (kept[-1].kind, kept[-1].qubits) == (g.kind, g.qubits):
            kept.pop()
        else:
            kept.append(g)
    return kept


def _lower(g: Gate) -> list[Gate]:
    """Basis gates of one gate, up to global phase; :func:`cnot_count` has
    rejected the shapes this cannot lower."""
    k = g.kind
    if k in _BASIS_KINDS:
        return [g]
    if k == "swap":
        return _swap_gates(*g.qubits)
    if k == "cphase":
        return _cphase_gates(g.params[0], *g.qubits)
    if k == "unitary":
        _, beta, gamma, delta = zyz_angles(g.matrix)  # global phase dropped
        rotations = (("rz", delta), ("ry", gamma), ("rz", beta))
        return [gate(r, *g.qubits, params=(angle,)) for r, angle in rotations]
    if k == "cunitary":
        return decompose_controlled_unitary(g.matrix, g.qubits[0], g.qubits[1])
    *controls, target = g.qubits  # mry, the last structured kind
    return controlled_ry_chain(g.params, controls, target)


# CNOTs in the lowering of each kind; an mry costs per non-zero subset angle
_CNOTS = {"cnot": 1, "swap": 3, "cphase": 2, "cunitary": 2}
_SUBSET_CNOTS = (0, 2, 12)  # bare Ry, controlled Ry, Toffoli-conjugated Ry


def _gate_cnots(g: Gate) -> int:
    if g.kind == "mry":
        subsets = _subset_angles(g.params, len(g.qubits) - 1)
        return sum(_SUBSET_CNOTS[bin(s).count("1")] for s, _ in subsets)
    if g.kind == "unitary" and len(g.qubits) != 1:
        raise CompileError("unitary lowering supports exactly one qubit")
    if g.kind == "cunitary" and len(g.qubits) != 2:
        raise CompileError("cunitary lowering supports exactly one control and one target")
    return _CNOTS.get(g.kind, 0)


def cnot_count(circuit) -> int:
    """CNOTs in the compiled form of ``circuit``, counted per gate without
    lowering it. Raises the CompileError that :func:`compile_circuit` raises
    on a gate it cannot lower. :func:`simplify` drops rotations and h/x pairs,
    never a CNOT, so the count equals the compiled one."""
    return sum(_gate_cnots(g) for g in circuit.gates)


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

_QASM_NAMES = {"h": "h", "x": "x", "rx": "rx", "ry": "ry", "rz": "rz", "cnot": "cx"}


def _fmt(x: float) -> str:
    return f"{x:.15g}"


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
        name = _QASM_NAMES.get(g.kind)
        if name is None:
            raise CompileError(f"gate kind {g.kind!r} is not in the emission basis")
        args = ",".join(f"q[{q}]" for q in g.qubits)
        if g.params:
            lines.append(f"{name}({_fmt(g.params[0])}) {args};")
        else:
            lines.append(f"{name} {args};")
    for role, idx, q in measured:
        lines.append(f"measure q[{q}] -> {role}[{idx}];")
    return "\n".join(lines) + "\n"
