"""The noise model and the circuit executor, :func:`run_noisy`: without
noise on a statevector, with amplitude damping (T1) on a density matrix,
for one circuit or, over a leading batch axis, several that share one
skeleton.

:class:`NoiseParams` owns the gate durations: a CNOT, a virtual ``rz`` and
every other 1-qubit gate each take their own time, a measure none. Under
noise every gate advances the wall clock by its duration; each qubit
decays for that long (idle qubits too, unless ``idle_damping`` is off). The
decay is applied lazily: a qubit's pending time is applied in one damping
step when a gate next touches it, and once more after the last gate. This is
exact, not an approximation: damping on one qubit commutes with gates on
other qubits, and damping for t1 then t2 equals damping for t1 + t2, since
(1 - gamma1)(1 - gamma2) = exp(-(t1 + t2) / T1). Readout errors are
independent per-bit flips applied to the measured distribution.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import qstate
from .circuits import gate_matrix
from .errors import DomainError, ValidationError
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
        return 0.0 if g.kind == "measure" else self.single_ns

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
    """Single-qubit amplitude damping for duration ``t`` with decay time ``t1``.

    Closed form of the Kraus sum K0 rho K0^+ + K1 rho K1^+ (Nielsen & Chuang
    8.3.5) on the qubit's row/column slices: rho_00 += gamma rho_11, the
    coherences rho_01 and rho_10 scale by sqrt(1 - gamma), rho_11 by 1 - gamma.
    """
    if t < 0:
        raise DomainError("elapsed time must be nonnegative")
    if t == 0:
        return rho
    n = rho.num_qubits
    return DensityMatrix._trusted(n, _damp(rho.entries[None], n, qubit, t, t1)[0])


def _damp(entries: np.ndarray, n: int, qubit: int, t: float, t1: float) -> np.ndarray:
    """:func:`damping_channel` on a batch of density matrices (B, 2^n, 2^n),
    the same for every item; returns new entries."""
    gamma = 1.0 - np.exp(-t / t1)
    hi, lo = 2**qubit, 2 ** (n - qubit - 1)
    out = entries.copy()
    v = out.reshape(-1, hi, 2, lo, hi, 2, lo)
    v[:, :, 0, :, :, 0, :] += gamma * v[:, :, 1, :, :, 1, :]
    v[:, :, 1, :, :, 1, :] *= 1.0 - gamma
    v[:, :, 0, :, :, 1, :] *= np.sqrt(1.0 - gamma)
    v[:, :, 1, :, :, 0, :] *= np.sqrt(1.0 - gamma)
    return out


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
    compiled, in order, measure gates aside, to ``initial`` (default
    |0...0>) and return the final, pre-measurement state. Without ``noise``
    nothing decays and a statevector stays one; with it the run is on a
    density matrix under amplitude damping.

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
    state = qstate.basis_state(n, 0) if initial is None else initial
    if noise is not None and isinstance(state, StateVector):
        state = state.to_density_matrix()
    density = isinstance(state, DensityMatrix)
    data = (state.entries if density else state.amplitudes)[None]
    measured: set[int] = set()
    pending = [0.0] * n  # decay time owed by each qubit, applied when next touched
    for i, g in enumerate(first.gates):
        if g.kind == "measure":
            if g.qubits[0] in measured:
                raise DomainError(f"qubit {g.qubits[0]} is measured more than once")
            measured.add(g.qubits[0])
            continue
        if noise is not None:
            for q in g.qubits:
                if pending[q] > 0:
                    data = _damp(data, n, q, pending[q], noise.t1_ns)
                    pending[q] = 0.0
        others = [c.gates[i] for c in items[1:]]
        u = gate_matrix(g)
        if not all(_same(h, g) for h in others):
            u = _stacked(u, others)
        if density:
            data = qstate._apply_to_entries(data, u, g.qubits, n)
        else:
            data = qstate.apply_operator(data, u, g.qubits, n)
        if noise is not None and (dt := noise.duration(g)) > 0:
            for q in range(n) if noise.idle_damping else g.qubits:
                pending[q] += dt
    for q in range(n):
        if pending[q] > 0:
            data = _damp(data, n, q, pending[q], noise.t1_ns)
    data = np.broadcast_to(data, (len(items),) + data.shape[1:])
    states = [type(state)._trusted(n, item) for item in data]
    return states[0] if single else states


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
    return h.params == g.params and (
        h.matrix is g.matrix or np.array_equal(h.matrix, g.matrix)
    )


def readout_distribution(state, circuit, noise: NoiseParams | None) -> MeasurementHistogram:
    """Exact outcome probabilities, readout flips included (none without
    ``noise``), of the qubits ``circuit`` measures, in gate order (all
    qubits, MSB first, if none), in its final ``state`` from :func:`run_noisy`."""
    targets = [g.qubits[0] for g in circuit.gates if g.kind == "measure"]
    targets = targets or list(range(state.num_qubits))
    probs = qstate._marginal_probabilities(state, targets)
    flip = 0.0 if noise is None else noise.readout_flip
    probs = _flip_distribution(probs / probs.sum(), len(targets), flip)
    labels = qstate._labels(len(targets))
    return MeasurementHistogram({k: float(p) for k, p in zip(labels, probs)}, None)
