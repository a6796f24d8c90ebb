"""The noise model and the circuit executor, :func:`run_noisy`: without
noise on a statevector, with amplitude damping (T1) on a density matrix,
for one circuit or a batch. Readout errors are per-bit flips of the
measured distribution.

:class:`NoiseParams` owns the gate durations, which only basis kinds have.
Under noise each gate of a compiled circuit advances one clock by its
duration, and each qubit (only the gate's own, if ``idle_damping`` is off)
decays for that long. A density matrix is run as a vector over 2n qubit
indices, row bits then column bits, where a gate u is u (x) u* (Havel,
J. Math. Phys. 44, 534, 2003), in three steps (after Haner & Steiger,
SC'17). A plan in plain Python gives each qubit its chain of 1-qubit gates
and decays (Nielsen & Chuang 8.3.5), each decay over the clock since the
qubit last settled, and groups the CNOTs into blocks: maximal runs on one
qubit pair with no other 2-qubit gate on either qubit between them. Every
superoperator is then made in a fixed number of calls per run, none per
gate: the 1-qubit matrices, one stack per kind (:func:`circuits.gate_matrices`),
their u (x) u*, the decays, the chain products, the chains before each
CNOT joined to it (a CNOT's u (x) u* is a permutation, so that is one
gather), each qubit's last chain joined to its last block, the product of
each block. Last, each block takes one call of :func:`qstate.apply_operator`,
which keeps rho in lazy axis order, and each qubit that meets no CNOT but
owes work one more. This is exact: damping on one qubit commutes with
gates on others, and damping for t1 then t2 is damping for t1 + t2. A
statevector run is not fused: that made ``hybrid_random`` 15 % slower
(188 -> 161 ops per kref), as a 2x2 on at most 256 amplitudes costs less
than the Kronecker products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qstate
from .circuits import gate, gate_matrices, gate_matrix, is_basis
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
    ``t1``: :func:`_decay` on the qubit's row and column bits."""
    if t < 0:
        raise DomainError("elapsed time must be nonnegative")
    if t == 0:
        return rho
    n, qubits = rho.num_qubits, tuple(range(2 * rho.num_qubits))
    out = qstate.apply_operator(rho.entries[None], _decay(t, t1), (qubit, qubit + n), qubits)
    return DensityMatrix._trusted(n, qstate.reorder(*out, qubits).reshape(2**n, 2**n))


def _decay(t, t1: float) -> np.ndarray:
    """The Kraus sum K0 rho K0^+ + K1 rho K1^+ over (row bit, column bit),
    for a time ``t`` or a stack over an array of them: rho_00 += gamma rho_11,
    the coherences scale by sqrt(1 - gamma) and rho_11 by 1 - gamma, where
    gamma = 1 - exp(-t / t1)."""
    gamma = 1.0 - np.exp(-np.asarray(t, dtype=float) / t1)
    d = np.zeros(gamma.shape + (4, 4), dtype=complex)
    d[..., 0, 0], d[..., 0, 3], d[..., 3, 3] = 1.0, gamma, 1.0 - gamma
    d[..., 1, 1] = d[..., 2, 2] = np.sqrt(1.0 - gamma)
    return d


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
        states = [DensityMatrix._trusted(n, _run_density(c, noise, state)[0]) for c in items]
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


def _run_density(circuit, noise: NoiseParams | None, state) -> np.ndarray:
    """A compiled circuit on the density matrix of ``state`` (made here for
    a statevector), as a batch of one: planned, its superoperators built in
    a fixed number of calls, one kernel call per CNOT block, the axes in
    qubit order at the end."""
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
    u = gate_matrices(ones)
    decays = _decay(times[::-1], noise.t1_ns) if times else np.empty((0, 4, 4))
    ops = np.concatenate([_kron(u, u.conj()), np.eye(4)[None], decays])
    products = _products(ops, runs, len(ones))
    order = qubits = tuple(range(2 * n))
    data = (state if isinstance(state, DensityMatrix) else state.to_density_matrix()).entries[None]
    if flips:  # each step a gather from the outer product of its pair's chains
        m = len(flips)
        pairs = products[: 2 * m].reshape(m, 2, 16)
        outer = pairs[:, 0, :, None] * pairs[:, 1, None, :]
        steps = outer.reshape(-1)[_STEP[flips] + np.arange(0, 256 * m, 256)[:, None]]
        steps = np.concatenate([steps.reshape(m, 16, 16), np.eye(16)[None]])
        for (pair, _), op in zip(blocks, _products(steps, [run for _, run in blocks], m)):
            data, order = qstate.apply_operator(data, op, (*pair, *(q + n for q in pair)), order)
    for q, op in zip(lone, products[len(runs) - len(lone) :]):
        data, order = qstate.apply_operator(data, op, (q, q + n), order)
    return qstate.reorder(data, order, qubits).reshape(-1, 2**n, 2**n)


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


# kron(F_a, F_b) indexes (row a, column a, row b, column b); the kernel's
# targets (a, b, a + n, b + n) index (row a, row b, column a, column b)
_PAIR = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of square matrices, or of stacks of them."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-1] * out.shape[-3],) * 2)


# u (x) u* over (row a, row b, column a, column b) of cnot(a, b), of
# cnot(b, a), which is the same with a's and b's bits exchanged, and of no
# gate, for the step that joins a qubit's last chain to its last block
_FLIP = np.arange(16).reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(-1)
_CNOT = gate_matrix(gate("cnot", 0, 1))
_CNOT_SUPER = _kron(_CNOT, _CNOT.conj())
_CNOT_SUPER = np.stack([_CNOT_SUPER, _CNOT_SUPER[_FLIP[:, None], _FLIP], np.eye(16)])
# The step _CNOT_SUPER[f] @ kron(F_a, F_b)[_PAIR[:, None], _PAIR] only moves
# entries, as _CNOT_SUPER[f] is a permutation: its entry 16 i + j is entry
# _STEP[f, 16 i + j] of the outer product of F_a's and F_b's entries, in which
# kron entry (r, c) lies at _OUTER[r, c]
_R, _C = np.arange(16)[:, None], np.arange(16)
_OUTER = 64 * (_R >> 2) + 16 * (_C >> 2) + 4 * (_R & 3) + (_C & 3)
_STEP = _OUTER[_PAIR[_CNOT_SUPER.argmax(-1)][..., None], _PAIR].reshape(3, 256)


def _same(h, g) -> bool:
    """Whether two gates are equal: one kind on the same qubits, with equal
    parameters and matrices."""
    return h is g or (
        h.params == g.params and h.qubits == g.qubits and h.kind == g.kind
        and (h.matrix is g.matrix or np.array_equal(h.matrix, g.matrix))
    )


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
