"""The noise model and the circuit executor, :func:`run_noisy`: without
noise on a statevector, with amplitude damping (T1) on a density matrix,
for one circuit or a batch. Readout errors are per-bit flips of the
measured distribution.

:class:`NoiseParams` owns the gate durations, which only basis kinds have.
Under noise each gate of a compiled circuit advances one clock by its
duration, and each qubit (only the gate's own, if ``idle_damping`` is off)
decays for that long. A density matrix is run as its Pauli coefficients
(:func:`qstate.to_pauli`), a real vector over 2n qubit indices, on which
every gate and decay is a real matrix, its Pauli transfer matrix (PTM,
Greenbaum, arXiv:1509.02921): rz and ry are plane rotations by their angle,
h a signed swap, a CNOT a signed permutation of the 16 two-qubit Paulis, and
the decay keeps I, scales X and Y by sqrt(1 - gamma) and Z by 1 - gamma and
adds gamma I to Z. The run takes three steps (after Haner & Steiger, SC'17).
A plan in plain Python gives each qubit its chain of 1-qubit gates and
decays (Nielsen & Chuang 8.3.5), each decay over the clock since the qubit
last settled, and groups the CNOTs into blocks: maximal runs on one qubit
pair with no other 2-qubit gate on either qubit between them. Every PTM is
then made in a fixed number of calls per run, none per gate: the 1-qubit
ones, one stack from constant tables by kind, the decays, the chain products, the chains before
each CNOT joined to it (one gather and one sign table, as its PTM is a
signed permutation), each qubit's last chain joined to its last block, the
product of each block. Last, each block takes one call of
:func:`qstate.apply_operator`, which keeps the coefficients in lazy axis
order, and each qubit that meets no CNOT but owes work one more. This is
exact: damping on one qubit commutes with gates on others, and damping for
t1 then t2 is damping for t1 + t2. The run starts from the closed form of
|0...0> (every Z string 1, every other coefficient 0) and returns its
coefficients; readout and post-selection read them, and no complex rho is
made unless its entries are read. A statevector run is not fused: that made
``hybrid_random`` 15 % slower (188 -> 161 ops per kref), as a 2x2 on at
most 256 amplitudes costs less than the Kronecker products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qstate
from .circuits import gate, gate_matrix, is_basis
from .errors import CompileError, DomainError, ValidationError
from .problem import read_json
from .qstate import DensityMatrix, MeasurementHistogram, StateVector


@dataclass(frozen=True)
class NoiseParams:
    t1_ns: float = 50_000.0  # T1 ~ 50 us
    cnot_ns: float = 200.0
    rz_ns: float = 0.0
    single_ns: float = 60.0
    readout_flip: float = 0.0
    idle_damping: bool = True

    def __post_init__(self):
        if not self.t1_ns > 0:  # NaN fails too
            raise ValidationError("t1_ns must be positive")
        for t in (self.cnot_ns, self.rz_ns, self.single_ns):
            if not (math.isfinite(t) and t >= 0):
                raise ValidationError("gate durations must be finite and nonnegative")
        if not (0.0 <= self.readout_flip <= 0.5):
            raise ValidationError("readout_flip must be in [0, 0.5]")

    def durations(self) -> dict:
        """Wall-clock time in nanoseconds of a gate of each basis kind, by kind."""
        return {"h": self.single_ns, "ry": self.single_ns, "rz": self.rz_ns, "cnot": self.cnot_ns}

    @classmethod
    def from_dict(cls, d) -> "NoiseParams":
        """Parameters from a JSON object, absent keys at their defaults. An
        unknown key, or a value that is not a JSON number (``idle_damping``:
        not a JSON boolean), raises ValidationError."""
        if not isinstance(d, dict):
            raise ValidationError("a noise description must be a JSON object")
        for key, v in d.items():
            if key not in cls.__dataclass_fields__:
                raise ValidationError(f"unknown noise parameter {key!r}")
            if key == "idle_damping":
                ok, want = isinstance(v, bool), "true or false"
            else:
                ok, want = isinstance(v, (int, float)) and not isinstance(v, bool), "a number"
            if not ok:
                raise ValidationError(f"noise parameter {key!r} must be {want}, got {v!r}")
        return cls(**{k: v if k == "idle_damping" else float(v) for k, v in d.items()})

    @classmethod
    def load(cls, path) -> "NoiseParams":
        return cls.from_dict(read_json(path))


def damping_channel(rho: DensityMatrix, qubit: int, t: float, t1: float) -> DensityMatrix:
    """Single-qubit amplitude damping for duration ``t`` with decay time
    ``t1``: :func:`_decay` on the qubit's Pauli coefficients, or, on a state
    held as its entries, the same map over the qubit's row and column bits."""
    if t < 0:
        raise DomainError("elapsed time must be nonnegative")
    if t == 0:
        return rho
    n, qubits, held = rho.num_qubits, tuple(range(2 * rho.num_qubits)), rho._pauli is not None
    data = rho.pauli if held else rho.entries.reshape(-1)
    m = _decay(t, t1) if held else qstate._FROM_PAULI @ _decay(t, t1) @ qstate._TO_PAULI
    out = qstate.reorder(*qstate.apply_operator(data[None], m, (qubit, qubit + n), qubits), qubits)
    if held:
        return DensityMatrix._from_pauli(n, out[0])
    return DensityMatrix._trusted(n, out.reshape(2**n, 2**n))


def _decay(t, t1: float) -> np.ndarray:
    """The PTM of the Kraus sum K0 rho K0^+ + K1 rho K1^+ over (I, X, Z, Y),
    for a time ``t`` or a stack over an array of them: I stays, X and Y
    scale by sqrt(1 - gamma), Z by 1 - gamma and gains gamma I, where
    gamma = 1 - exp(-t / t1)."""
    gamma = 1.0 - np.exp(-np.asarray(t, dtype=float) / t1)
    d = np.zeros(gamma.shape + (4, 4))
    d[..., 0, 0], d[..., 2, 0], d[..., 2, 2] = 1.0, gamma, 1.0 - gamma
    d[..., 1, 1] = d[..., 3, 3] = np.sqrt(1.0 - gamma)
    return d


# The PTM of each 1-qubit basis kind, by its index in _ONE, over (I, X, Z, Y) is
# _FIXED + cos(t) _COS + sin(t) _SIN at its angle t (h has none): h swaps X and
# Z and negates Y, ry turns Z toward X, rz turns X toward Y
_ONE = {"h": 0, "ry": 1, "rz": 2}
_FIXED, _COS, _SIN = np.zeros((3, 3, 4, 4))
_FIXED[:, 0, 0] = 1.0
_FIXED[0, 1, 2] = _FIXED[0, 2, 1] = 1.0
_FIXED[0, 3, 3], _FIXED[1, 3, 3], _FIXED[2, 2, 2] = -1.0, 1.0, 1.0
_COS[1, 1, 1] = _COS[1, 2, 2] = _COS[2, 1, 1] = _COS[2, 3, 3] = 1.0
_SIN[1, 1, 2], _SIN[1, 2, 1] = 1.0, -1.0  # ry: Z toward X
_SIN[2, 3, 1], _SIN[2, 1, 3] = 1.0, -1.0  # rz: X toward Y


def _ptms(gates) -> np.ndarray:
    """The PTM of each of a list of 1-qubit basis gates, as one (k, 4, 4)
    stack made in a fixed number of calls."""
    kinds = np.array([_ONE[g.kind] for g in gates], dtype=np.intp)
    angles = np.array([g.params[0] if g.params else 0.0 for g in gates])[:, None, None]
    return _FIXED[kinds] + np.cos(angles) * _COS[kinds] + np.sin(angles) * _SIN[kinds]


def survival_bound(cnot_count: int, noise: NoiseParams = NoiseParams()) -> float:
    """exp(-(cnot_count * t_CNOT) / T1): the excited-population survival after
    a CNOT-dominated sequence. 50 CNOTs at the defaults give e^{-1/5} ~ 0.819."""
    if cnot_count < 0:
        raise DomainError("cnot_count must be nonnegative")
    return float(np.exp(-(cnot_count * noise.cnot_ns) / noise.t1_ns))


def run_noisy(circuit, noise: NoiseParams | None = None, initial=None):
    """The one circuit executor: apply the gates of a Circuit, source or
    compiled, in order, to ``initial`` (default |0...0>) and return the
    final, pre-measurement state. ``initial`` has the circuit's width
    (DomainError otherwise). Without ``noise`` nothing decays and a
    statevector stays one; with it the run is on a density matrix under
    amplitude damping. On a density matrix a gate of a non-basis kind
    raises CompileError; one wider than :func:`qstate.widest` admits raises
    ValidationError before it is made. Each circuit makes its own from a
    statevector ``initial``, held by nothing after the first kernel call.

    ``circuit`` may also be a sequence of circuits, all run from ``initial``;
    a list of final states is returned then, in circuit order. A batch has
    one width (DomainError otherwise). On a density matrix the circuits run
    one by one. On a statevector they share one skeleton, the same kind on
    the same qubits at every position (DomainError otherwise), and run in one
    pass over a leading batch axis, gate position by gate position: equal
    gates share one call, and others take one call with a stack of one
    matrix per item. So a shared prefix runs once, on a batch of one.
    """
    single = hasattr(circuit, "gates")
    items = [circuit] if single else list(circuit)
    if not items:
        raise DomainError("no circuit to run")
    first = items[0]
    n = first.num_qubits
    if any(c.num_qubits != n for c in items):
        raise DomainError("the circuits of a batch differ in width")
    if initial is not None and initial.num_qubits != n:
        raise DomainError(f"a {initial.num_qubits}-qubit initial state for a {n}-qubit circuit")
    state = qstate.basis_state(n, 0) if initial is None else initial
    if noise is not None and isinstance(state, StateVector) and n > qstate.widest(0, True):
        raise ValidationError(f"a {n}-qubit {qstate.EXCEEDS[True]}")
    if noise is not None or isinstance(state, DensityMatrix):
        for kind in dict.fromkeys(g.kind for c in items for g in c.gates):
            if not is_basis(kind):
                raise CompileError(f"gate kind {kind!r} has no duration: compile first")
        states = [DensityMatrix._from_pauli(n, _run_density(c, noise, initial)) for c in items]
        return states[0] if single else states
    skeleton = [(g.kind, g.qubits) for g in first.gates]
    if any([(g.kind, g.qubits) for g in c.gates] != skeleton for c in items[1:]):
        raise DomainError("the circuits of a statevector batch differ in skeleton")
    data, order = state.amplitudes[None], tuple(range(n))
    for i, g in enumerate(first.gates):
        others = [c.gates[i] for c in items[1:]]
        same = all(_same(h, g) for h in others)
        m = gate_matrix(g) if same else np.stack([gate_matrix(h) for h in (g, *others)])
        data, order = qstate.apply_operator(data, m, g.qubits, order)
    data = np.broadcast_to(qstate.reorder(data, order, tuple(range(n))), (len(items), 2**n))
    states = [StateVector._trusted(n, item) for item in data]
    return states[0] if single else states


def _run_density(circuit, noise: NoiseParams | None, initial) -> np.ndarray:
    """The Pauli coefficients (4^n,) of a compiled circuit run on ``initial``
    (None: |0...0>, made here in closed form; a statevector's are made here
    too), as a batch of one: planned, its PTMs built in a fixed number of
    calls, one kernel call per CNOT block, the axes in qubit order at the end."""
    n, idle = circuit.num_qubits, noise is None or noise.idle_damping
    duration = {} if noise is None else noise.durations()
    clock, since, last = 0.0, [0.0] * n, [0.0] * n  # per qubit: settled at, last gate's time
    chains = [[] for _ in range(n)]  # each qubit's items since its last CNOT
    ones, times, runs, flips, blocks, last_block = [], [], [], [], [], [None] * n
    for g in circuit.gates:
        dt, qubits = duration.get(g.kind, 0.0), g.qubits
        for q in qubits:  # q settles: decay j is item ~j, ops[~j] at the end of the stack
            if (t := clock - since[q] if idle else last[q]) > 0:
                chains[q].append(~len(times))
                times.append(t)
            since[q], last[q] = clock, dt
        clock += dt
        if len(qubits) == 1:
            chains[qubits[0]].append(len(ones))
            ones.append(g)
            continue
        a, b = qubits
        block = last_block[a]
        if block is None or block is not last_block[b]:
            block = last_block[a] = last_block[b] = (qubits, [])
            blocks.append(block)
        block[1].append(len(flips))
        flips.append(int(block[0] != qubits))  # an int: a list of bools would be a mask
        for q in block[0]:
            runs.append(chains[q])
            chains[q] = []
    for q, t in enumerate([clock - s for s in since] if idle else last):
        if t > 0:
            chains[q].append(~len(times))
            times.append(t)
    for block in blocks:  # a qubit's last chain joins its last block, as no later one touches it
        tails = [chains[q] if last_block[q] is block else [] for q in block[0]]
        if any(tails):
            block[1].append(len(flips))
            flips.append(2)
            runs += tails
    lone = [q for q in range(n) if chains[q] and last_block[q] is None]
    runs += [chains[q] for q in lone]
    decays = _decay(times[::-1], noise.t1_ns) if times else np.empty((0, 4, 4))
    ops = np.concatenate([_ptms(ones), np.eye(4)[None], decays])
    products = _products(ops, runs, len(ones))
    order = qubits = tuple(range(2 * n))
    if initial is None:  # |0...0>: 1 on the Z strings, those with every "X or Y" bit 0
        data = np.zeros((1, 2**n, 2**n))
        data[0, :, 0] = 1.0
        data = data.reshape(1, -1)
    elif isinstance(initial, DensityMatrix):
        data = initial.pauli[None]
    else:  # a statevector's rho, held by nothing after the first kernel call
        data = initial.to_density_matrix().pauli[None]
    if flips:  # each step a signed gather from the outer product of its pair's chains
        m = len(flips)
        pairs = products[: 2 * m].reshape(m, 2, 16)
        outer = pairs[:, 0, :, None] * pairs[:, 1, None, :]
        steps = outer.reshape(-1)[_STEP[flips] + np.arange(0, 256 * m, 256)[:, None]]
        steps = np.concatenate([(steps * _SIGN[flips]).reshape(m, 16, 16), np.eye(16)[None]])
        for (pair, _), op in zip(blocks, _products(steps, [run for _, run in blocks], m)):
            data, order = qstate.apply_operator(data, op, (*pair, *(q + n for q in pair)), order)
    for q, op in zip(lone, products[len(runs) - len(lone) :]):
        data, order = qstate.apply_operator(data, op, (q, q + n), order)
    return qstate.reorder(data, order, qubits)[0]


def _products(ops: np.ndarray, runs, identity: int) -> np.ndarray:
    """The product of each run of indices into the stack ``ops``, its first
    applied first: the runs, padded with ``identity`` into one table with the
    longest first, are scanned column by column, each step one batched
    matmul over the runs that long."""
    lengths = np.array([len(run) for run in runs], dtype=np.intp)
    filled = np.arange(max(1, lengths.max(initial=0))) < lengths[:, None]
    table = np.full(filled.shape, identity)
    table[filled] = [i for run in runs for i in run]
    order, active = np.argsort(-lengths, kind="stable"), filled.sum(axis=0).tolist()
    columns = table[order].T
    out = ops[columns[0]]
    for column, a in zip(columns[1:], active[1:]):
        np.matmul(ops[column[:a]], out[:a], out=out[:a])
    return out[np.argsort(order)]


# kron(F_a, F_b) indexes (Pauli a, Pauli b), bits ("Z or Y" a, "X or Y" a,
# "Z or Y" b, "X or Y" b); the kernel's targets (a, b, a + n, b + n) index
# ("Z or Y" a, "Z or Y" b, "X or Y" a, "X or Y" b), as they index (row a,
# row b, column a, column b) of the entries
_PAIR = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1)


def _cnot_ptms() -> np.ndarray:
    """The PTMs over the kernel's targets of cnot(a, b), of cnot(b, a),
    which is the same with a's and b's bits exchanged, and of no gate, for
    the step that joins a qubit's last chain to its last block: M (u (x) u*)
    M^-1, with M :func:`qstate.to_pauli`'s matrix on both qubits."""
    cnot = gate_matrix(gate("cnot", 0, 1))
    m = np.kron(qstate._TO_PAULI, qstate._TO_PAULI)[_PAIR[:, None], _PAIR]
    ptm = (m @ np.kron(cnot, cnot.conj()) @ m.conj().T / 4).real
    flip = np.arange(16).reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(-1)
    return np.stack([ptm, ptm[flip[:, None], flip], np.eye(16)])


# Each CNOT PTM is a signed permutation, so the step _CNOT_PTM[f] @
# kron(F_a, F_b)[_PAIR[:, None], _PAIR] only moves entries and flips signs:
# its entry 16 i + j is _SIGN[f, 16 i + j] times entry _STEP[f, 16 i + j] of
# the outer product of F_a's and F_b's entries, in which kron entry (r, c)
# lies at _OUTER[r, c]
_CNOT_PTM = _cnot_ptms()
_R, _C = np.arange(16)[:, None], np.arange(16)
_OUTER = 64 * (_R >> 2) + 16 * (_C >> 2) + 4 * (_R & 3) + (_C & 3)
_SOURCE = np.abs(_CNOT_PTM).argmax(-1)
_STEP = _OUTER[_PAIR[_SOURCE][..., None], _PAIR].reshape(3, 256)
_SIGN = np.take_along_axis(_CNOT_PTM, _SOURCE[..., None], -1).repeat(16, axis=-1).reshape(3, 256)


def _same(h, g) -> bool:
    """Whether two gates at one position of a skeleton are equal: equal
    parameters and one matrix object, as batch builders share their matrices
    (a copied matrix only costs its gate a stacked call)."""
    return h is g or (h.params == g.params and h.matrix is g.matrix)


def readout_distribution(state, circuit, noise: NoiseParams | None) -> MeasurementHistogram:
    """Exact outcome probabilities, readout flips included (none without
    ``noise``), of the qubits ``circuit`` measures, in readout order (all
    qubits, MSB first, if none), in its final ``state`` from :func:`run_noisy`.
    Each bit flips on its own, a binary symmetric channel: one kernel call each."""
    targets = list(circuit.measured) or list(range(state.num_qubits))
    probs = qstate._marginal_probabilities(state, targets)
    probs, qubits = (probs / probs.sum())[None], tuple(range(len(targets)))
    if noise is not None and (flip := noise.readout_flip):
        m = np.array([[1 - flip, flip], [flip, 1 - flip]])
        for q in qubits:  # one target always lies in place, so the order stays
            probs, _ = qstate.apply_operator(probs, m, (q,), qubits)
    labels = qstate._labels(len(targets))
    return MeasurementHistogram({k: float(p) for k, p in zip(labels, probs[0])}, None)
