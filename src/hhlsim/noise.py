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
superoperator is then made in a few batched calls: the 1-qubit u (x) u*,
the decays, the chain products, the chains before each CNOT joined to it,
the product of each block. Last, each block takes one kernel call, and
each qubit that still owes work one more. This is exact: damping on one
qubit commutes with gates on others, and damping for t1 then t2 is damping
for t1 + t2. A statevector run is not fused: that made ``hybrid_random``
15 % slower (188 -> 161 ops per kref), as a 2x2 on at most 256 amplitudes
costs less than the Kronecker products.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import qstate
from .circuits import gate, gate_matrix, is_basis
from .errors import CompileError, DomainError, ValidationError
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

    def duration(self, g) -> float:
        """Wall-clock time of gate ``g`` in nanoseconds."""
        if g.kind == "cnot":
            return self.cnot_ns
        if g.kind == "rz":
            return self.rz_ns
        return self.single_ns

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

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
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def damping_channel(rho: DensityMatrix, qubit: int, t: float, t1: float) -> DensityMatrix:
    """Single-qubit amplitude damping for duration ``t`` with decay time
    ``t1``: :func:`_decay` on the qubit's row and column bits."""
    if t < 0:
        raise DomainError("elapsed time must be nonnegative")
    if t == 0:
        return rho
    n = rho.num_qubits
    out = qstate.apply_operator(rho.entries[None], _decay(t, t1), (qubit, qubit + n), 2 * n)
    return DensityMatrix._trusted(n, out[0])


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


def _flip_distribution(probs: np.ndarray, k: int, flip: float) -> np.ndarray:
    """Apply an independent binary symmetric channel to each of k outcome bits."""
    if flip == 0.0:
        return probs
    m = np.array([[1 - flip, flip], [flip, 1 - flip]])
    t = probs[None]
    for q in range(k):
        t = qstate.apply_operator(t, m, (q,), k)
    return t[0]


def run_noisy(circuit, noise: NoiseParams | None = None, initial=None):
    """The one circuit executor: apply the gates of a Circuit, source or
    compiled, in order, to ``initial`` (default |0...0>) and return the
    final, pre-measurement state. Without ``noise`` nothing decays and a
    statevector stays one; with it the run is on a density matrix under
    amplitude damping. On a density matrix a gate of a non-basis kind
    raises CompileError; one over ``qstate.MAX_DENSITY_BYTES`` raises
    ValidationError before it is made.

    ``circuit`` may also be a sequence of circuits, all run from ``initial``;
    a list of final states is returned then, in circuit order. A batch has
    one width and, on a statevector, one length (DomainError otherwise). On a
    density matrix the circuits run one by one. On a statevector they run in
    one pass over a leading batch axis, gate position by gate position: equal
    gates share one call, gates of one kind on the same qubits take one call
    with a stack of one matrix per item, and any others are applied item by
    item on their own rows. So a shared prefix runs once, on a batch of one.
    """
    single = hasattr(circuit, "gates")
    items = [circuit] if single else list(circuit)
    if not items:
        raise DomainError("no circuit to run")
    first = items[0]
    n = first.num_qubits
    if any(c.num_qubits != n for c in items):
        raise DomainError("the circuits of a batch differ in width")
    state = qstate.basis_state(n, 0) if initial is None else initial
    if noise is not None and isinstance(state, StateVector):
        if 16 * 4**n > qstate.MAX_DENSITY_BYTES:
            limit = qstate.MAX_DENSITY_BYTES >> 20
            raise ValidationError(f"a {n}-qubit density matrix exceeds the limit of {limit} MiB")
        state = state.to_density_matrix()
    if isinstance(state, DensityMatrix):
        for kind in dict.fromkeys(g.kind for c in items for g in c.gates):
            if not is_basis(kind):
                raise CompileError(f"gate kind {kind!r} has no duration: compile first")
        data = state.entries[None]
        states = [DensityMatrix._trusted(n, _run_density(c, noise, data)[0]) for c in items]
        return states[0] if single else states
    if any(len(c.gates) != len(first.gates) for c in items):
        raise DomainError("the circuits of a statevector batch differ in length")
    data = state.amplitudes[None]
    for i, g in enumerate(first.gates):
        others = [c.gates[i] for c in items[1:]]
        if all(_same(h, g) for h in others):
            data = qstate.apply_operator(data, gate_matrix(g), g.qubits, n)
        elif all((h.kind, h.qubits) == (g.kind, g.qubits) for h in others):
            data = qstate.apply_operator(data, _stacked(gate_matrix(g), others), g.qubits, n)
        else:
            rows = np.broadcast_to(data, (len(items), 2**n))
            data = np.concatenate([
                qstate.apply_operator(rows[b : b + 1], gate_matrix(h), h.qubits, n)
                for b, h in enumerate([g, *others])
            ])
    states = [StateVector._trusted(n, item) for item in np.broadcast_to(data, (len(items), 2**n))]
    return states[0] if single else states


def _run_density(circuit, noise: NoiseParams | None, data: np.ndarray) -> np.ndarray:
    """A compiled circuit on a batch of one vectorized density matrix:
    planned, its superoperators batched, one kernel call per CNOT block."""
    n, idle = circuit.num_qubits, noise is None or noise.idle_damping
    clock, since, last = 0.0, [0.0] * n, [0.0] * n  # per qubit: settled at, last gate's time
    chains = [[] for _ in range(n)]  # each qubit's items since its last CNOT
    ones, times, runs, flips, blocks, open_block = [], [], [], [], [], [None] * n

    def settle(q):  # decay j is item ~j: ops[~j], at the end of the stack
        if (t := clock - since[q] if idle else last[q]) > 0:
            chains[q].append(~len(times))
            times.append(t)

    for g in circuit.gates:
        dt = 0.0 if noise is None else noise.duration(g)
        for q in g.qubits:
            settle(q)
            since[q], last[q] = clock, dt
        clock += dt
        if len(g.qubits) == 1:
            chains[g.qubits[0]].append(len(ones))
            ones.append(gate_matrix(g))
            continue
        a, b = g.qubits
        block = open_block[a]
        if block is None or block is not open_block[b]:
            for closed in (open_block[a], open_block[b]):
                for q in closed[0] if closed else ():
                    open_block[q] = None
            block = open_block[a] = open_block[b] = (g.qubits, [])
            blocks.append(block)
        block[1].append(len(flips))
        flips.append(block[0] != g.qubits)
        for q in block[0]:
            runs.append(chains[q])
            chains[q] = []
    for q in range(n):
        settle(q)
    owing = [q for q in range(n) if chains[q]]
    runs += [chains[q] for q in owing]
    u = np.array(ones).reshape(-1, 2, 2)
    decays = _decay(times[::-1], noise.t1_ns) if times else np.empty((0, 4, 4))
    ops = np.concatenate([_kron(u, u.conj()), np.eye(4)[None], decays])
    products = _products(ops, runs, len(ones))
    if flips:
        before = _kron(products[0 : 2 * len(flips) : 2], products[1 : 2 * len(flips) : 2])
        steps = _CNOT_SUPER[np.array(flips, dtype=np.intp)] @ before[:, _PAIR[:, None], _PAIR]
        steps = np.concatenate([steps, np.eye(16)[None]])
        for (pair, _), op in zip(blocks, _products(steps, [m for _, m in blocks], len(flips))):
            data = qstate.apply_operator(data, op, (*pair, *(q + n for q in pair)), 2 * n)
    for q, op in zip(owing, products[len(runs) - len(owing) :]):
        data = qstate.apply_operator(data, op, (q, q + n), 2 * n)
    return data


def _products(ops: np.ndarray, runs, identity: int) -> np.ndarray:
    """The product of each run of indices into the stack ``ops``, its first
    applied first: the runs, padded with ``identity`` into one table with the
    longest first, are scanned column by column, each step one batched
    matmul over the runs that long."""
    lengths = np.array([len(run) for run in runs], dtype=np.intp)
    filled = np.arange(max(1, lengths.max(initial=0))) < lengths[:, None]
    table = np.full(filled.shape, identity)
    table[filled] = [i for run in runs for i in run]
    order, active = np.argsort(-lengths, kind="stable"), filled.sum(axis=0)
    table = table[order]
    out = ops[table[:, 0]]
    for j in range(1, table.shape[1]):
        out[: active[j]] = ops[table[: active[j], j]] @ out[: active[j]]
    return out[np.argsort(order)]


# kron(F_a, F_b) indexes (row a, column a, row b, column b); the kernel's
# targets (a, b, a + n, b + n) index (row a, row b, column a, column b)
_PAIR = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of square matrices, or of stacks of them."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-1] * out.shape[-3],) * 2)


# u (x) u* over (row a, row b, column a, column b) of cnot(a, b), and of
# cnot(b, a), which is the same with a's and b's bits exchanged
_FLIP = np.arange(16).reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(-1)
_CNOT = gate_matrix(gate("cnot", 0, 1))
_CNOT_SUPER = _kron(_CNOT, _CNOT.conj())
_CNOT_SUPER = np.stack([_CNOT_SUPER, _CNOT_SUPER[_FLIP[:, None], _FLIP]])


def _stacked(first: np.ndarray, others) -> np.ndarray:
    """The matrices of one gate position, one per item, filled into a
    single array (no list of per-item arrays held beside it)."""
    out = np.empty((1 + len(others),) + first.shape, dtype=complex)
    out[0] = first
    for b, h in enumerate(others, 1):
        out[b] = gate_matrix(h)
    return out


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
    qubits, MSB first, if none), in its final ``state`` from :func:`run_noisy`."""
    targets = list(circuit.measured) or list(range(state.num_qubits))
    probs = qstate._marginal_probabilities(state, targets)
    flip = 0.0 if noise is None else noise.readout_flip
    probs = _flip_distribution(probs / probs.sum(), len(targets), flip)
    labels = qstate._labels(len(targets))
    return MeasurementHistogram({k: float(p) for k, p in zip(labels, probs)}, None)
