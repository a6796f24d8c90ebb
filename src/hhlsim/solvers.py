"""The original HHL pipeline and the hybrid variant with classical feed-forward.

Pipeline qubit layout: ancilla on wire 0, register bits 1..n (bit 1 most
significant), input system after. The conditional-rotation encoding uses the
integer register-value convention: register value x >= 1 receives the ancilla
rotation 2*arcsin(c/x) with c = 1 / ||A^{-1} b||; the x = 0 branch is left
untouched (it carries no weight for spectra inside (0,1) under perfect
estimation, and post-selection discards it otherwise).

There is one HHL circuit, :func:`build_hhl_circuit`: state preparation, QPE,
the encoding as a single multiplexed Ry (``mry``) on the ancilla, controlled
by every register wire for the full and the reduced encoding, inverse QPE.
Both runs execute it with :func:`noise.run_noisy`: the exact run its source
gates on a statevector, the noisy run its compiled form on a density matrix.
The exact run, which never compiles, counts the CNOTs of its source
circuits, a batch's in one :func:`circuits.cnot_counts` pass, and the noisy
run its compiled ones: either takes its ``mry``'s subset angles once.
:func:`run_original_hhl_batch` runs the circuits of many problems in one
executor call; :func:`run_original_hhl` is its one-problem case. The final
states of a batch are then scored in one pass, in the one form a state is
held in from post-selection to ``rho_v``, its Pauli coefficients: one
post-selection, :func:`postselect_hhl`, gives both estimators of every item
as coefficient stacks, read from a statevector's amplitudes without forming
its density matrix, and one :func:`qstate.overlaps` call each gives their
fidelities against the solutions' coefficients. For a one-qubit solution
the x-basis weights are (1 +- <X>) / 2, read from the X coefficient
(:func:`x_basis_weights` for one state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import circuits, noise as noise_mod, qpe, qstate
from .circuits import Circuit, Gate
from .errors import (
    ConstraintError,
    DomainError,
    ImpossibleOutcomeError,
    NotReducibleError,
    ValidationError,
)
from .problem import HermitianProblem, binary_estimate, classical_solution
from .qstate import DensityMatrix, MeasurementHistogram, StateVector


@dataclass(frozen=True)
class AqeSpec:
    """Conditional-rotation table for the ancilla encoding.

    ``angle_table`` maps the weighted free-bit value y (so the effective
    register integer is y' + y) to the rotation angle 2*arcsin(c / (y' + y));
    an effective integer of 0 gets no rotation. Register value x reads the
    angle of y = x & mask, the free positions' bits, so the fixed bits are
    ignored. The full encoding is the special case with every position free
    and y' = 0.
    """

    n: int
    c: float
    y_prime: int
    free_positions: tuple  # 1-based register positions, ascending
    angle_table: dict


def build_aqe(problem: HermitianProblem, n: int) -> AqeSpec:
    """Full encoding over every register value x in [1, 2^n - 1], its
    register size checked (:func:`qstate.check_width`) before it is built."""
    qstate.check_width(n, 1 + problem.num_qubits)
    return _full_encoding(problem, n)


def _full_encoding(problem: HermitianProblem, n: int) -> AqeSpec:
    """:func:`build_aqe` on a register size already checked."""
    return _encoding(n, 1.0 / classical_solution(problem)[1], 0, tuple(range(1, n + 1)))


def synthesize_reduced_aqe(estimate: "EigenEstimate", c: float) -> AqeSpec:
    """Reduced-rotation synthesis: fold fixed bits into y', keep free bits as
    controls. Raises :class:`NotReducibleError`, carrying ``estimate``, when
    the estimate certifies no reduction."""
    n = estimate.n
    if not estimate.reducible:
        message = f"no reduced encoding certified at register size {n}"
        raise NotReducibleError(message, estimate=estimate)
    y_prime = sum(int(estimate.means[i - 1]) * 2 ** (n - i) for i in estimate.fixed_positions)
    return _encoding(n, c, y_prime, estimate.free_positions)


def _encoding(n: int, c: float, y_prime: int, free: tuple) -> AqeSpec:
    """The one constructor of :class:`AqeSpec`: fixed bits worth y', free
    positions ``free``, a free-bit value y being a register value x & mask."""
    mask = sum(2 ** (n - pos) for pos in free)  # position 1 is the register's MSB
    values = sorted({x & mask for x in range(2**n)})
    table = {y: 2.0 * np.arcsin(c / (y_prime + y)) for y in values if y_prime + y}
    return AqeSpec(n, c, y_prime, free, table)


# ---------------------------------------------------------------------------
# eigenvalue-bit analysis

@dataclass(frozen=True, slots=True)
class EigenEstimate:
    """Detected eigenvalue bitstrings, their per-position bit means and the
    reducibility verdict."""

    n: int
    peaks: dict  # bitstring -> empirical probability
    means: tuple  # means[k-1]: mean of bit k (1-based) over the peaks; () if none
    reducible: bool
    coverage: float

    @property
    def fixed_positions(self) -> tuple:
        """1-based register positions where every peak has the same bit."""
        return tuple(k for k, m in enumerate(self.means, 1) if m in (0.0, 1.0))

    @property
    def free_positions(self) -> tuple:
        return tuple(k for k, m in enumerate(self.means, 1) if m not in (0.0, 1.0))


@dataclass(frozen=True)
class HybridPolicy:
    """The hybrid solver's thresholds and restarts: the one home of their defaults."""

    tau: float = 0.05
    coverage: float = 0.9
    max_n: int = 4
    n_step = 1  # not a field: each restart widens the register by one bit

    def __post_init__(self):
        for name, value in (("tau", self.tau), ("coverage", self.coverage)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        if self.max_n < 1:
            raise ValidationError(f"max_n must be >= 1, got {self.max_n}")


def analyze_qpea(
    histogram: MeasurementHistogram, n: int,
    tau: float = HybridPolicy.tau, coverage_bound: float = HybridPolicy.coverage,
) -> EigenEstimate:
    """Classify register outcomes with probability >= tau as eigenvalue peaks.

    Reducible requires at least one fixed eigenmean over the peaks and total
    peak mass >= ``coverage_bound``.
    """
    probs = histogram.probabilities()
    if not probs:
        raise DomainError("empty histogram")
    if not 0 <= n <= qstate.MAX_QUBITS or probs.keys() - qstate._labels(n):
        for key in probs:
            if len(key) != n or set(key) - {"0", "1"}:
                raise DomainError(f"outcome {key!r} is not an {n}-bit string")
    peaks = {k: p for k, p in sorted(probs.items()) if p >= tau}
    coverage = sum(peaks.values())
    if not peaks:
        return EigenEstimate(n, {}, (), False, 0.0)
    means = tuple(column.count("1") / len(peaks) for column in zip(*peaks))
    fixed = EigenEstimate(n, peaks, means, False, coverage).fixed_positions
    return EigenEstimate(n, peaks, means, bool(fixed) and coverage >= coverage_bound, coverage)


def estimate_from_spectral(problem: HermitianProblem, n: int) -> EigenEstimate:
    """:func:`analyze_qpea` of a perfect QPEA: each eigenvalue's binary
    estimate weighted by |alpha_j|^2, every string a peak."""
    spectral = problem.spectral
    weights: dict[str, float] = {}
    for lam, alpha in zip(spectral.eigenvalues, spectral.amplitudes):
        s = binary_estimate(float(lam), n)
        weights[s] = weights.get(s, 0.0) + float(abs(alpha) ** 2)
    return analyze_qpea(MeasurementHistogram(weights, None), n, tau=0.0, coverage_bound=0.0)


# ---------------------------------------------------------------------------
# HHL runs

@dataclass(slots=True)
class HHLOutcome:
    """Post-selected solver result plus diagnostics.

    ``ancilla`` and ``uncomputed`` are the two estimators of
    :func:`postselect_hhl` as (fidelity, success probability); ``uncomputed``
    is None when no run's register returned to 0...0.
    ``fidelity``, ``success_probability`` and ``rho_v`` are those named by
    ``postselection``: ``ancilla`` for exact runs (the closed-form curves),
    ``uncomputed`` under noise (as hardware runs discard the runs whose
    register did not return to 0).
    """

    mode: str
    n: int
    success_probability: float
    rho_v: DensityMatrix
    fidelity: float
    c_plus_sq: float | None
    c_minus_sq: float | None
    cnot_count: int | None
    postselection: str
    ancilla: tuple[float, float]
    uncomputed: tuple[float, float] | None
    histograms: dict = field(default_factory=dict)
    estimate: EigenEstimate | None = None


def x_basis_weights(state):
    """(|<+|v>|^2, |<-|v>|^2) of a one-qubit state, pure or mixed;
    (None, None) for a wider one."""
    if state.num_qubits != 1:
        return None, None
    return tuple(float(w) for w in _x_weights(state.pauli[None])[0])


def _x_weights(coefficients: np.ndarray) -> np.ndarray:
    """The x-basis weights (1 +- <X>) / 2, clamped to [0, 1], of each item of
    a stack of one-qubit Pauli coefficients (B, 4), (B, 2): <X> is its X coefficient."""
    return np.clip((1.0 + coefficients[:, 1, None] * [1.0, -1.0]) / 2, 0.0, 1.0)


def postselect_hhl(states, n: int) -> dict:
    """Post-select the final states of one batch of HHL runs, all
    statevectors or all density matrices, on ancilla = 1. Returns
    ``{"ancilla": (rho_v, p), "uncomputed": (rho_v, p)}``, each rho_v a stack
    of the input's Pauli coefficients (B, 4^q) and p the success
    probabilities (B,), each its stack's I coefficient before normalizing:
    with the register traced out, and with only its 0...0 block kept (p = 0
    and rho_v = 0 for an item where that block has no weight). A
    statevector's ancilla-1 amplitudes phi, as (register, input), give
    rho_v = phi^T phi* / p (Nielsen & Chuang 2.4.3), so no density matrix of
    the whole run is made; both stacks then convert in one
    :func:`qstate.pauli_of` call. A density matrix is read through its Pauli
    coefficients, the one form it is held in: only the input's with the
    ancilla and the register at I or Z are copied, and nothing converts.
    """
    q, r = states[0].num_qubits - 1 - n, 2**n
    if isinstance(states[0], StateVector):
        phi = np.array([s.amplitudes.reshape(2, r, 2**q)[1] for s in states])
        traced = np.einsum("brx,bry->bxy", phi, phi.conj())
        block = phi[:, 0, :, None] * phi[:, 0, None, :].conj()
        c = qstate.pauli_of(np.concatenate([traced, block])).reshape(2, len(phi), -1)
    else:
        # Pauli coefficients over ("Z or Y", "X or Y") bits of (ancilla, register,
        # input), the ancilla and the register at I or Z only: the ancilla's |1><1|
        # is (I - Z) / 2, tracing the register out keeps its I, and its
        # |0...0><0...0| block is the mean of its Z strings
        c = np.array([s.pauli.reshape(2, r, 2**q, 2, r, 2**q)[:, :, :, 0, 0] for s in states])
        branch = ((c[:, 0] - c[:, 1]) / 2).reshape(len(c), r, -1)
        c = np.stack([branch[:, 0], branch.sum(1) / r])
    (traced, block), (p, p_reset) = c, c[:, :, 0]
    if p.min() <= qstate.ZERO_PROBABILITY:
        raise ImpossibleOutcomeError("outcome 1 on qubit 0 has zero probability")
    p_reset = np.where(p_reset > qstate.ZERO_PROBABILITY * p, p_reset, 0.0)
    scale = np.divide(1.0, p_reset, out=np.zeros_like(p), where=p_reset > 0)
    return {"ancilla": (traced / p[:, None], p), "uncomputed": (block * scale[:, None], p_reset)}


def _solve(mode, problems, n, specs, shots, seed, noise) -> list[HHLOutcome]:
    """Build one HHL circuit per problem, run them all in one executor call,
    exactly or under noise, post-select and score all final states in one
    pass, and return one outcome per problem.

    The exact runs apply the source gates, which share one skeleton, in one
    statevector pass and count their CNOTs in one :func:`circuits.cnot_counts`
    pass, None where a circuit does not lower. Under noise the compiled
    circuits run, which may differ in length, as compilation drops zero
    angles; they run and count their CNOTs one by one, each a batch of one,
    so the ``mry``'s subset angles are taken once, by the compilation.
    Both estimators are scored against each problem's classical solution by
    their Pauli coefficients; the one named by ``postselection`` heads the
    outcome, with its x-basis weights and their seeded histogram.
    """
    built = [build_hhl_circuit(p, n, spec) for p, spec in zip(problems, specs)]
    if noise is not None:
        built = [circuits.compile_circuit(c) for c in built]
    states = noise_mod.run_noisy(built, noise)  # checks an exact batch's one skeleton
    cnot_counts = (circuits.cnot_counts(built) if noise is None
                   else [c.cnot_count for c in built])
    postselection = "ancilla" if noise is None else "uncomputed"
    estimators = postselect_hhl(states, n)
    rho, named = estimators[postselection]
    if not named.all():
        raise ImpossibleOutcomeError("register outcome 0...0 has zero probability")
    x = np.array([classical_solution(p)[0] for p in problems])
    solutions = qstate.pauli_of(x[:, :, None] * x[:, None, :].conj())
    fids = {name: qstate.overlaps(r, solutions) for name, (r, _) in estimators.items()}
    q = problems[0].num_qubits
    weights = _x_weights(rho) if q == 1 else None
    outcomes = []
    for i, count in enumerate(cnot_counts):
        scores = {
            name: (float(fids[name][i]), float(p[i])) if p[i] else None
            for name, (_, p) in estimators.items()
        }
        cplus, cminus = (None, None) if weights is None else map(float, weights[i])
        histograms = {}
        if shots > 0 and cplus is not None:
            rng = np.random.default_rng(seed)
            draws = rng.multinomial(shots, [cplus, max(1.0 - cplus, 0.0)])
            histograms["v_x_basis"] = MeasurementHistogram(
                {"+": int(draws[0]), "-": int(draws[1])}, shots
            )
        fid, prob = scores[postselection]
        rho_v = DensityMatrix._trusted(q, rho[i].copy())  # owned, not a view into the stack
        outcomes.append(HHLOutcome(
            mode, n, prob, rho_v, fid, cplus, cminus, count, postselection,
            scores["ancilla"], scores["uncomputed"], histograms,
        ))
    return outcomes


def build_hhl_circuit(
    problem: HermitianProblem,
    n: int,
    aqe_spec: AqeSpec | list[AqeSpec],
    physical_swap: bool = False,
) -> Circuit | list[Circuit]:
    """Gate-level HHL circuit: QPE, conditional-rotation encoding, inverse QPE.

    The inverse-QFT swap layers are absorbed by wire relabeling by default;
    the encoding's controls follow the relabeled wires, and the inverse QPE is
    the literal adjoint of the forward block, so the relabelings cancel.
    Every encoding is one ``mry`` on every register wire and the ancilla: a
    reduced table ignores the certified bits, whose controls the lowering
    drops. ``aqe_spec`` is one :class:`AqeSpec`, which gives its circuit, or
    a list of them, which gives one circuit per spec; those share one
    skeleton and the gates of one QPE block, so a batch of them runs those
    once. A spec for another register size raises DomainError, a non-finite
    angle ValidationError, both checked here; the circuits are built unchecked.
    """
    specs = [aqe_spec] if isinstance(aqe_spec, AqeSpec) else aqe_spec
    tables = []
    for spec in specs:
        if spec.n != n:
            raise DomainError(f"an encoding for register size {spec.n} in a circuit of size {n}")
        # register value x gets the angle of its free-bit value x & mask
        mask = sum(2 ** (n - pos) for pos in spec.free_positions)
        tables.append(tuple(float(spec.angle_table.get(x & mask, 0.0)) for x in range(2**n)))
    if not np.isfinite(tables).all():
        raise ValidationError("non-finite gate parameter in an encoding's angle table")
    q = problem.num_qubits
    ancilla = 0
    reg = list(range(1, n + 1))
    v = list(range(n + 1, n + 1 + q))
    prep = qpe.prepare_b(problem, v)
    qpe_gates, out_reg = qpe.qpe_block(problem, n, reg, v, physical_swap=physical_swap)
    inverse = circuits.adjoint(qpe_gates)
    roles = {"ancilla": (ancilla,), "register": tuple(reg), "input": tuple(v)}
    built = []
    for angles in tables:
        # one multiplexed Ry on the ancilla, controlled by every register wire
        gates = (*prep, *qpe_gates, Gate("mry", (*out_reg, ancilla), angles), *inverse)
        built.append(Circuit._trusted(1 + n + q, gates, roles, (ancilla, *reg)))
    return built[0] if isinstance(aqe_spec, AqeSpec) else built


def run_original_hhl_batch(
    problems,
    n: int,
    shots: int = 0,
    seed: int | None = None,
    noise: noise_mod.NoiseParams | None = None,
) -> list[HHLOutcome]:
    """Full-register HHL on several problems at one register size; outcomes
    in problem order, each as :func:`run_original_hhl` gives it. All circuits
    run in one executor call, so they must have one width, and without noise
    one skeleton (DomainError otherwise): the problems share a dimension, and
    b is |0...0> for all of them or for none (:func:`qpe.prepare_b` emits no
    gate for it). Their gates differ only in the unitary powers of QPE and
    the encoding's angles, each position taking one executor call. The
    register size is checked once, for the widest problem, before anything
    is built (under noise for a density matrix), as is ``shots``."""
    qstate.check_shots(shots)
    others = 1 + max((p.num_qubits for p in problems), default=0)
    qstate.check_width(n, others, noise is not None)
    specs = [_full_encoding(p, n) for p in problems]
    return _solve("original", problems, n, specs, shots, seed, noise)


def run_original_hhl(
    problem: HermitianProblem,
    n: int,
    shots: int = 0,
    seed: int | None = None,
    noise: noise_mod.NoiseParams | None = None,
) -> HHLOutcome:
    """Full-register HHL; exact statevector run, or density-matrix run under noise."""
    return run_original_hhl_batch([problem], n, shots, seed, noise)[0]


def run_hybrid_hhl(
    problem: HermitianProblem,
    n_init: int,
    shots: int = 0,
    seed: int | None = None,
    policy: HybridPolicy = HybridPolicy(),
    noise: noise_mod.NoiseParams | None = None,
) -> HHLOutcome:
    """QPEA, classical eigenvalue-bit analysis, then the reduced pipeline.

    Restarts with a register one bit wider, up to policy.max_n or the
    widest that :func:`qstate.widest` admits for the HHL circuit, whichever
    is smaller, when the analysis cannot certify a reduction; raises
    :class:`NotReducibleError` carrying the last estimate once exhausted.
    The first register size is checked once, for the HHL circuit; the
    ceiling admits every QPEA after it, so none checks its own.
    """
    if n_init > policy.max_n:
        raise ValidationError(
            f"initial register size {n_init} exceeds the largest allowed, {policy.max_n}"
        )
    qstate.check_width(n_init, 1 + problem.num_qubits, noise is not None)
    top = min(policy.max_n, qstate.widest(1 + problem.num_qubits, noise is not None))
    problem.powers(top)  # one product: every restart reads its leading slice
    c = 1.0 / classical_solution(problem)[1]
    last_estimate = None
    for n in range(n_init, top + 1):
        hist = qpe._run_qpea(problem, n, shots, seed, noise)  # top admits every n
        estimate = analyze_qpea(hist, n, policy.tau, policy.coverage)
        if estimate.reducible:
            aqe_spec = synthesize_reduced_aqe(estimate, c)
            (outcome,) = _solve("hybrid", [problem], n, [aqe_spec], shots, seed, noise)
            outcome.histograms["qpea"], outcome.estimate = hist, estimate
            return outcome
        last_estimate = estimate
    if top < policy.max_n:
        top = f"{top}, the widest the simulation limits admit below --max-n {policy.max_n}"
    raise NotReducibleError(
        f"no reduced encoding certified up to register size {top}", estimate=last_estimate
    )


# ---------------------------------------------------------------------------
# Reduced-encoding property machinery

def random_perfectly_estimated_problem(
    rng: np.random.Generator, d: int, n: int, k: int
) -> HermitianProblem:
    """Random Hermitian problem that is perfectly n-estimated with exactly k
    fixed eigenmeans; raises ConstraintError when the combination is impossible."""
    if not (1 <= k <= n):
        raise ConstraintError(f"k must be in [1, {n}], got {k}")
    values = list(range(1, 2**n))
    if k == n:
        chosen = [int(rng.choice(values))]
    else:
        chosen = None
        for _ in range(2000):
            l = int(rng.integers(2, min(d, len(values)) + 1))
            cand = sorted(rng.choice(values, size=l, replace=False).tolist())
            strings = [format(v, f"0{n}b") for v in cand]
            fixed = sum(
                1 for pos in range(n) if len({s[pos] for s in strings}) == 1
            )
            if fixed == k:
                chosen = cand
                break
        if chosen is None:
            raise ConstraintError(
                f"could not realize k={k} fixed eigenmeans with d={d}, n={n}"
            )
    eigenvalues = [v / 2**n for v in chosen]
    while len(eigenvalues) < d:
        eigenvalues.append(float(rng.choice(eigenvalues)))
    rng.shuffle(eigenvalues)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q_mat, r = np.linalg.qr(z)
    q_mat = q_mat * (np.diagonal(r) / np.abs(np.diagonal(r)))
    a = (q_mat * np.array(eigenvalues)) @ q_mat.conj().T
    a = (a + a.conj().T) / 2
    b = rng.normal(size=d) + 1j * rng.normal(size=d)
    b = b / np.linalg.norm(b)
    return HermitianProblem(a, b)


def reduced_encoding_equivalence_check(problem: HermitianProblem, n: int) -> bool:
    """Full vs reduced encoding on a perfectly n-estimated problem: identical
    post-selected states (fidelity >= 1 - 1e-9) and success probabilities
    (within 1e-10)."""
    estimate = estimate_from_spectral(problem, n)
    specs = [build_aqe(problem, n)]
    # with no fixed bit the reduced encoding is the full one: run it once
    if estimate.reducible:
        specs.append(synthesize_reduced_aqe(estimate, specs[0].c))
    # one batch on one QPE block: the circuits differ only in their mry's
    # angles, so every other gate runs once and the mry as one stacked call
    states = noise_mod.run_noisy(build_hhl_circuit(problem, n, specs))
    rho, p = postselect_hhl(states, n)["ancilla"]
    # both states are pure here, so the trace overlap is the fidelity
    overlap, purity = qstate.overlaps(rho[0], rho[-1]), qstate.overlaps(rho, rho).min()
    fid = float(overlap / purity) if purity > 0 else 0.0
    return fid >= 1.0 - 1e-9 and float(abs(p[0] - p[-1])) <= 1e-10
