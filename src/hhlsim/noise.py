"""The noise model and the circuit executor, :func:`run_noisy`: without
noise on a statevector, with amplitude damping (T1) on a density matrix,
for one circuit or, over a leading batch axis, several that share one
skeleton. Readout errors are per-bit flips of the measured distribution.

:class:`NoiseParams` owns the gate durations, which only basis kinds have.
Under noise each gate of a compiled circuit advances the clock by its
duration, and each qubit (only the gate's own, if ``idle_damping`` is off)
decays for that long. A density matrix is run as a vector over 2n qubit
indices, row bits then column bits, where a gate u is u (x) u* (Havel,
J. Math. Phys. 44, 534, 2003). Each qubit owes one 4x4 superoperator: its
1-qubit gates join it, with no kernel call, after its decay (Nielsen &
Chuang 8.3.5) over the time it has aged. A 2-qubit gate runs its qubits'
entries and itself in one kernel call; a wider one (only in a noiseless
run) runs its qubits' entries, then u on the row and u* on the column bits
(no 16^k operator); after the last gate each qubit that owes work gets one
call.
This fusion (Haner & Steiger, SC'17) is exact: damping on one qubit
commutes with gates on others, and damping for t1 then t2 is damping for
t1 + t2. A statevector run is not fused: that made ``hybrid_random`` 15 %
slower (188 -> 161 ops per kref), as a 2x2 on at most 256 amplitudes costs
less than the Kronecker products.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import qstate
from .circuits import gate_matrix, is_basis
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


def _decay(t: float, t1: float) -> np.ndarray:
    """The Kraus sum K0 rho K0^+ + K1 rho K1^+ over (row bit, column bit):
    rho_00 += gamma rho_11, the coherences scale by sqrt(1 - gamma) and
    rho_11 by 1 - gamma, where gamma = 1 - exp(-t / t1)."""
    gamma = 1.0 - math.exp(-t / t1)
    d = np.zeros((4, 4), dtype=complex)
    d[0, 0], d[0, 3], d[3, 3] = 1.0, gamma, 1.0 - gamma
    d[1, 1] = d[2, 2] = math.sqrt(1.0 - gamma)
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
    amplitude damping, and a gate of a non-basis kind raises CompileError.

    ``circuit`` may also be a sequence of circuits that share one skeleton
    (the same gate kinds on the same qubits; DomainError otherwise), all run
    from ``initial`` in one pass over a leading batch axis: where the items'
    gates are equal one matrix serves all, elsewhere a stack of one matrix
    per item. A list of final states is returned then, in circuit order.
    """
    single = hasattr(circuit, "gates")
    items = [circuit] if single else list(circuit)
    if not items:
        raise DomainError("no circuit to run")
    first = items[0]
    n = first.num_qubits
    skeleton = [(g.kind, g.qubits) for g in first.gates]
    for c in items[1:]:
        if c.num_qubits != n or [(g.kind, g.qubits) for g in c.gates] != skeleton:
            raise DomainError("the circuits of a batch do not share one skeleton")
    if noise is not None:
        for g in first.gates:
            if not is_basis(g.kind):
                raise CompileError(f"gate kind {g.kind!r} has no duration: compile first")
    state = qstate.basis_state(n, 0) if initial is None else initial
    if noise is not None and isinstance(state, StateVector):
        state = state.to_density_matrix()
    density = isinstance(state, DensityMatrix)
    data = (state.entries if density else state.amplitudes)[None]
    pending = _Pending(n, noise)
    for i, g in enumerate(first.gates):
        others = [c.gates[i] for c in items[1:]]
        u = gate_matrix(g)
        if not all(_same(h, g) for h in others):
            u = _stacked(u, others)
        data = pending.apply(data, g, u) if density else qstate.apply_operator(data, u, g.qubits, n)
    data = pending.flush(data, range(n))  # a statevector run owes nothing
    data = np.broadcast_to(data, (len(items),) + data.shape[1:])
    states = [type(state)._trusted(n, item) for item in data]
    return states[0] if single else states


# kron(F_a, F_b) indexes (row a, column a, row b, column b); the kernel's
# targets (a, b, a + n, b + n) index (row a, row b, column a, column b)
_PAIR = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1)
_IDENTITY = np.eye(4, dtype=complex)


class _Pending:
    """What each qubit of a density-matrix run owes: a superoperator over its
    (row bit, column bit) or None, and the time it has decayed since."""

    def __init__(self, n: int, noise: NoiseParams | None):
        self.n, self.noise, self.ops, self.times = n, noise, [None] * n, [0.0] * n

    def take(self, q: int):
        """Qubit q's superoperator, its decay applied last, or None; q then owes nothing."""
        op, t = self.ops[q], self.times[q]
        if t > 0:
            decay = _decay(t, self.noise.t1_ns)
            op = decay if op is None else decay @ op
        self.ops[q], self.times[q] = None, 0.0
        return op

    def apply(self, data: np.ndarray, g, u: np.ndarray) -> np.ndarray:
        """Gate ``g`` with matrix (or stack) ``u``, fused as the module says."""
        n, qubits = self.n, g.qubits
        if len(qubits) > 2:
            data = qstate.apply_on_both_sides(self.flush(data, qubits), u, qubits, n)
        else:
            owed = [self.take(q) for q in qubits]
            op = _kron(u, u.conj())
            if len(qubits) == 1:
                self.ops[qubits[0]] = op if owed[0] is None else op @ owed[0]
            else:
                before = _kron(*(_IDENTITY if f is None else f for f in owed))
                op = op @ before[..., _PAIR[:, None], _PAIR]
                data = qstate.apply_operator(data, op, (*qubits, *(q + n for q in qubits)), 2 * n)
        if self.noise is not None and (dt := self.noise.duration(g)) > 0:
            for q in range(n) if self.noise.idle_damping else qubits:
                self.times[q] += dt
        return data

    def flush(self, data: np.ndarray, qubits) -> np.ndarray:
        """Apply what each of ``qubits`` owes, one kernel call per qubit."""
        for q in qubits:
            if (op := self.take(q)) is not None:
                data = qstate.apply_operator(data, op, (q, q + self.n), 2 * self.n)
        return data


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of square matrices, or of stacks of them."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-1] * out.shape[-3],) * 2)


def _stacked(first: np.ndarray, others) -> np.ndarray:
    """The matrices of one skeleton position, one per item, filled into a
    single array (no list of per-item arrays held beside it)."""
    out = np.empty((1 + len(others),) + first.shape, dtype=complex)
    out[0] = first
    for b, h in enumerate(others, 1):
        out[b] = gate_matrix(h)
    return out


def _same(h, g) -> bool:
    """Whether gates of one skeleton position have equal parameters and matrices."""
    return h.params == g.params and (h.matrix is g.matrix or np.array_equal(h.matrix, g.matrix))


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
