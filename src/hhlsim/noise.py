"""The noise model and the circuit executor, :func:`run_noisy`: without noise
on a statevector, with amplitude damping (T1) on a density matrix, for one
circuit or a batch. Readout errors are per-bit flips of the measured
distribution.

:class:`NoiseParams` owns the gate durations, which only basis kinds have.
Under noise each gate of a compiled circuit advances one clock by its
duration, and each qubit (only the gate's own, if ``idle_damping`` is off)
decays for that long. A density matrix is held as its Pauli coefficients
(:mod:`qstate`), on which every gate and decay is a real matrix, its Pauli
transfer matrix (PTM, Greenbaum, arXiv:1509.02921); a run works on them as a
plan and its execution (after Haner & Steiger, SC'17). :func:`_plan`, the one
walk over the gates, gives each qubit its chain of 1-qubit gates and decays
(Nielsen & Chuang 8.3.5) and groups the CNOTs into blocks: maximal runs on one
qubit pair with no other 2-qubit gate on either qubit between them. It stores
each item once, in the order the run reads it, so a chain or a block is its
length. :func:`_execute` makes every 1-qubit gate's and decay's PTM in one
stack from one formula, multiplies the chains as a log-depth tree, joins each
chain to its CNOT (a signed gather: a CNOT's PTM is a signed permutation),
multiplies each block as a second tree and applies it in one
:func:`qstate.apply_operator` call, and one more per qubit that meets no CNOT
but owes work: about 50 NumPy operations,
3 more per tree level (log2 of the longest chain and block) and 1 kernel call
per block, so the count grows with the blocks, not the gates. This is exact:
damping on one qubit commutes with gates on others, and damping for t1 then t2
is damping for t1 + t2.
Readout and post-selection read the coefficients, so a run makes no complex
rho. A statevector run is not fused: that made ``hybrid_random`` 15 % slower,
as a 2x2 on at most 256 amplitudes costs less than the Kronecker products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qstate
from .circuits import gate, gate_matrix
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
    ``t1``: :func:`_decay` on the qubit's Pauli coefficients."""
    if t < 0:
        raise DomainError("elapsed time must be nonnegative")
    if t == 0:
        return rho
    n, qubits = rho.num_qubits, tuple(range(2 * rho.num_qubits))
    out, order = qstate.apply_operator(rho.pauli[None], _decay(t, t1), (qubit, qubit + n), qubits)
    return DensityMatrix._trusted(n, qstate.reorder(out, order, qubits)[0])


def _decay(t, t1: float) -> np.ndarray:
    """The PTM of the Kraus sum K0 rho K0^+ + K1 rho K1^+ over (I, X, Z, Y),
    for a time ``t`` or a stack over an array of them: :func:`_ptms` of decays."""
    return _ptms(np.full(np.shape(t), _DECAY), np.asarray(t, dtype=float), t1)


# The PTM over (I, X, Z, Y) of a 1-qubit item of code k is _BASE[k] + x _A[k]
# + y _B[k]. h, ry, rz (k in _ONE) at an angle t take x, y = cos t, sin t: h
# swaps X and Z and negates Y, ry turns Z toward X, rz X toward Y. A decay
# for a time t takes x, y = gamma, sqrt(1 - gamma), gamma = 1 - exp(-t / t1):
# I stays, Z scales by 1 - gamma and gains gamma I, X and Y by sqrt(1 - gamma)
_ONE = {"h": 0, "ry": 1, "rz": 2}
_IDENTITY, _DECAY = 3, 4
_BASE, _A, _B = np.zeros((3, 5, 4, 4))
_BASE[:, 0, 0] = 1.0
_BASE[0, 1, 2] = _BASE[0, 2, 1] = 1.0
_BASE[0, 3, 3], _BASE[1, 3, 3], _BASE[2, 2, 2] = -1.0, 1.0, 1.0
_BASE[_IDENTITY], _BASE[_DECAY, 2, 2] = np.eye(4), 1.0
_A[1, 1, 1] = _A[1, 2, 2] = _A[2, 1, 1] = _A[2, 3, 3] = 1.0
_B[1, 1, 2], _B[1, 2, 1] = 1.0, -1.0  # ry: Z toward X
_B[2, 3, 1], _B[2, 1, 3] = 1.0, -1.0  # rz: X toward Y
_A[_DECAY, 2, 0], _A[_DECAY, 2, 2] = 1.0, -1.0
_B[_DECAY, 1, 1] = _B[_DECAY, 3, 3] = 1.0


def _ptms(codes: np.ndarray, values: np.ndarray, t1: float) -> np.ndarray:
    """The PTM of each 1-qubit item, by its code and value (a gate's angle, a
    decay's time; the identity's is ignored), as one stack made in a fixed
    number of calls from one formula."""
    # t / t1 beyond the largest float: gamma = 1, its limit; an item reads only its kind's x, y
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = 1.0 - np.exp(-values / t1)
        cos, sin = np.cos(values), np.sin(values)
    decay = codes == _DECAY
    x = np.where(decay, gamma, cos)[..., None, None]
    y = np.where(decay, np.sqrt(1.0 - gamma), sin)[..., None, None]
    return _BASE[codes] + x * _A[codes] + y * _B[codes]


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
    one width (DomainError otherwise). On a density matrix all are planned,
    so checked, before they run one by one. On a statevector they share one
    skeleton, the same kind on the same qubits at every position
    (DomainError otherwise), and run in one pass over a leading batch axis,
    gate position by gate position: equal gates share one call, and others
    take one call with a stack of one matrix per item. So a shared prefix
    runs once, on a batch of one.
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
        if noise is None:  # no gate takes time, and nothing would decay if one did
            noise = NoiseParams(t1_ns=math.inf, cnot_ns=0.0, rz_ns=0.0, single_ns=0.0)
        plans = [_plan(c, noise) for c in items]  # each checked before any runs
        states = [DensityMatrix._trusted(n, _execute(p, noise.t1_ns, initial)) for p in plans]
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


def _plan(circuit, noise: NoiseParams) -> tuple:
    """The one walk over a compiled circuit's gates, which reads only them and
    ``noise``'s durations and ``idle_damping`` (CompileError for a kind with
    none). Each item is stored once, in the order the run reads it: n; the
    1-qubit items as code, value, code, value, ... (:func:`_ptms`), chain by
    chain, the identity last; the chains' lengths; the CNOT flips, block by
    block; the blocks, each (its pair, its number of steps); and the lone qubits."""
    n, idle = circuit.num_qubits, noise.idle_damping
    kinds = {kind: (dt, _ONE.get(kind)) for kind, dt in noise.durations().items()}
    clock, since, last = 0.0, [0.0] * n, [0.0] * n  # per qubit: settled at, last gate's time
    chains = [[] for _ in range(n)]  # each qubit's codes and values since its last CNOT
    blocks, last_block = [], [None] * n  # a block: its pair, flips and two chains per flip
    for g in circuit.gates:
        if (spec := kinds.get(g.kind)) is None:
            raise CompileError(f"gate kind {g.kind!r} has no duration: compile first")
        dt, code = spec
        qubits = g.qubits
        for q in qubits:  # q settles; past a clock that overflowed, inf - inf is NaN
            if not (t := clock - since[q] if idle else last[q]) <= 0:
                chains[q] += _DECAY, t if t == t else math.inf  # an overflowed time decays fully
            since[q], last[q] = clock, dt
        clock += dt
        if code is not None:
            chains[qubits[0]] += code, g.params[0] if g.params else 0.0
            continue
        a, b = qubits
        block = last_block[a]
        if block is None or block is not last_block[b]:
            block = last_block[a] = last_block[b] = (qubits, [], [])
            blocks.append(block)
        pair, flips, runs = block
        flips.append(pair != qubits)
        runs += chains[pair[0]], chains[pair[1]]
        chains[a], chains[b] = [], []
    for q, t in enumerate([clock - s for s in since] if idle else last):
        if not t <= 0:
            chains[q] += _DECAY, t if t == t else math.inf
    for block in blocks:  # a qubit's last chain joins its last block, as no later one touches it
        tails = [chains[q] if last_block[q] is block else [] for q in block[0]]
        if any(tails):
            block[1].append(2)
            block[2].extend(tails)
    lone = [q for q in range(n) if chains[q] and last_block[q] is None]
    runs = [run for *_, block_runs in blocks for run in block_runs] + [chains[q] for q in lone]
    items = []
    for run in runs:
        items += run
    items += _IDENTITY, 0.0
    flips = [flip for _, block_flips, _ in blocks for flip in block_flips]
    blocks = [(pair, len(block_flips)) for pair, block_flips, _ in blocks]
    return n, items, [len(run) // 2 for run in runs], flips, blocks, lone


def _execute(plan: tuple, t1: float, initial) -> np.ndarray:
    """The Pauli coefficients (4^n,) of a :func:`_plan` run with decay time ``t1``
    on ``initial`` (None: |0...0>, in closed form), as a batch of one: PTMs made
    in one stack, both products as trees, one kernel call per block and per lone qubit."""
    n, items, lengths, flips, blocks, lone = plan
    items = np.array(items).reshape(-1, 2)
    products = _products(_ptms(items[:, 0].astype(np.intp), items[:, 1], t1), lengths)
    order = qubits = tuple(range(2 * n))
    if initial is None:  # |0...0>: 1 on the Z strings, those with every "X or Y" bit 0
        data = np.zeros((1, 4**n))
        data[:, :: 2**n] = 1.0
    else:  # a statevector's are derived on this read, held by nothing after the first kernel call
        data = initial.pauli[None]
    m, flips = len(flips), np.array(flips, dtype=np.intp)
    pairs = products[: 2 * m].reshape(m, 2, 16)  # each step a signed gather from the
    outer = pairs[:, 0, :, None] * pairs[:, 1, None, :]  # outer product of its pair's chains
    steps = outer.reshape(-1)[_STEP[flips] + np.arange(0, 256 * m, 256)[:, None]]
    # the identity, no gate's PTM, pads the blocks' runs
    steps = np.concatenate([(steps * _SIGN[flips]).reshape(m, 16, 16), _CNOT_PTM[2:]])
    for (pair, _), op in zip(blocks, _products(steps, [count for _, count in blocks])):
        data, order = qstate.apply_operator(data, op, (*pair, *(q + n for q in pair)), order)
    for q, op in zip(lone, products[2 * m :]):
        data, order = qstate.apply_operator(data, op, (q, q + n), order)
    return qstate.reorder(data, order, qubits)[0]


def _products(ops: np.ndarray, lengths) -> np.ndarray:
    """The product of each run of the stack ``ops``, run i its ``lengths[i]``
    items after run i - 1's, its first applied first, as a tree: the runs,
    padded with the last item of ``ops``, the identity, to one power-of-two
    width, are gathered in one call, and each level multiplies every odd
    column onto the even one before it in one batched matmul."""
    lengths = np.array(lengths, dtype=np.intp)
    width = 1 << (int(lengths.max(initial=1)) - 1).bit_length()
    column = np.arange(width)
    start = lengths.cumsum() - lengths
    out = ops[np.where(column < lengths[:, None], start[:, None] + column, -1)]
    while out.shape[1] > 1:
        out = out[:, 1::2] @ out[:, ::2]
    return out[:, 0]


# kron(F_a, F_b) indexes (Pauli a, Pauli b), bits ("Z or Y" a, "X or Y" a,
# "Z or Y" b, "X or Y" b); the kernel's targets (a, b, a + n, b + n) index
# ("Z or Y" a, "Z or Y" b, "X or Y" a, "X or Y" b), as they index (row a,
# row b, column a, column b) of the entries
_PAIR = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(-1)


def _cnot_ptms() -> np.ndarray:
    """The PTMs over the kernel's targets of cnot(a, b), of cnot(b, a),
    which is the same with a's and b's bits exchanged, and of no gate, for
    the step that joins a qubit's last chain to its last block: M (u (x) u*)
    M^-1, with M :func:`qstate.pauli_of`'s matrix on both qubits."""
    cnot = gate_matrix(gate("cnot", 0, 1))
    m = qstate._conversion(2, False)
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
    return MeasurementHistogram._trusted(dict(zip(labels, probs[0].tolist())), None)
