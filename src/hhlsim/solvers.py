"""The original HHL pipeline and the hybrid variant with classical feed-forward.

Pipeline qubit layout: ancilla on wire 0, register bits 1..n (bit 1 most
significant), input system after. The conditional-rotation encoding uses the
integer register-value convention: register value x >= 1 receives the ancilla
rotation 2*arcsin(c/x) with c = 1 / ||A^{-1} b||; the x = 0 branch is left
untouched (it carries no weight for spectra inside (0,1) under perfect
estimation, and post-selection discards it otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import circuits, noise as noise_mod, qpe, qstate
from .circuits import Circuit, gate
from .errors import (
    CompileError,
    ConstraintError,
    DomainError,
    NotReducibleError,
    ValidationError,
)
from .problem import (
    EigenmeanProfile,
    HermitianProblem,
    binary_estimate,
    classical_solution,
    profile_from_bitstrings,
    unitary_power,
)
from .qstate import DensityMatrix, MeasurementHistogram, StateVector


@dataclass(frozen=True)
class AqeSpec:
    """Conditional-rotation table for the ancilla encoding.

    ``angle_table`` maps the weighted free-bit value y (so the effective
    register integer is y' + y) to the rotation angle 2*arcsin(c / (y' + y)).
    The full encoding is the special case with every position free and y' = 0.
    """

    n: int
    c: float
    y_prime: int
    free_positions: tuple  # 1-based register positions, ascending
    angle_table: dict

    @property
    def register_width(self) -> int:
        return len(self.free_positions)

    def angle_for_register_value(self, x: int) -> float | None:
        """Rotation received by full-register value x; None means identity."""
        bits = format(x, f"0{self.n}b")
        y = sum(2 ** (self.n - i) for i in self.free_positions if bits[i - 1] == "1")
        x_eff = self.y_prime + y
        if x_eff == 0:
            return None
        return 2.0 * np.arcsin(self.c / x_eff)


def build_aqe(problem: HermitianProblem, n: int) -> AqeSpec:
    """Full encoding over every register value x in [1, 2^n - 1]."""
    _, norm = classical_solution(problem)
    c = 1.0 / norm
    table = {x: 2.0 * np.arcsin(c / x) for x in range(1, 2**n)}
    return AqeSpec(n, c, 0, tuple(range(1, n + 1)), table)


def synthesize_reduced_aqe(estimate: "EigenEstimate", c: float, force: bool = False) -> AqeSpec:
    """Reduced-rotation synthesis: fold fixed bits into y', keep free bits as controls.

    With zero fixed positions (``force``) the result coincides with the full
    encoding.
    """
    if not estimate.reducible and not force:
        raise DomainError("estimate is not reducible; cannot synthesize a reduced encoding")
    profile = estimate.profile
    if profile is None:
        raise DomainError("estimate carries no eigenmean profile")
    n = estimate.n
    y_prime = sum(
        int(profile.means[i - 1]) * 2 ** (n - i) for i in profile.fixed_positions
    )
    free = profile.free_positions
    table = {}
    for bits in range(2 ** len(free)):
        y = sum(
            2 ** (n - pos)
            for j, pos in enumerate(free)
            if bits & (1 << (len(free) - 1 - j))
        )
        x_eff = y_prime + y
        if x_eff == 0:
            continue
        table[y] = 2.0 * np.arcsin(c / x_eff)
    return AqeSpec(n, c, y_prime, free, table)


def aqe_unitary(spec: AqeSpec) -> np.ndarray:
    """Block unitary on (ancilla, register), ancilla most significant."""
    n = spec.n
    dim = 2 ** (n + 1)
    m = np.zeros((dim, dim), dtype=complex)
    for x in range(2**n):
        theta = spec.angle_for_register_value(x)
        if theta is None:
            r = np.eye(2)
        else:
            ct, st = np.cos(theta / 2), np.sin(theta / 2)
            r = np.array([[ct, -st], [st, ct]])
        for a in (0, 1):
            for a2 in (0, 1):
                m[a * 2**n + x, a2 * 2**n + x] = r[a, a2]
    return m


# ---------------------------------------------------------------------------
# eigenvalue-bit analysis

@dataclass(frozen=True)
class EigenEstimate:
    """Detected eigenvalue bitstrings plus the reducibility verdict."""

    n: int
    peaks: dict  # bitstring -> empirical probability
    profile: EigenmeanProfile | None
    reducible: bool
    coverage: float


def analyze_qpea(
    histogram: MeasurementHistogram, n: int, tau: float = 0.05, coverage_bound: float = 0.9
) -> EigenEstimate:
    """Classify register outcomes with probability >= tau as eigenvalue peaks.

    Reducible requires at least one fixed eigenmean over the peaks and total
    peak mass >= ``coverage_bound``.
    """
    probs = histogram.probabilities()
    if not probs:
        raise DomainError("empty histogram")
    for key in probs:
        if len(key) != n or set(key) - {"0", "1"}:
            raise DomainError(f"outcome {key!r} is not an {n}-bit string")
    peaks = {k: p for k, p in sorted(probs.items()) if p >= tau}
    coverage = sum(peaks.values())
    if not peaks:
        return EigenEstimate(n, {}, None, False, 0.0)
    profile = profile_from_bitstrings(sorted(peaks), n)
    reducible = bool(profile.fixed_positions) and coverage >= coverage_bound
    return EigenEstimate(n, peaks, profile, reducible, coverage)


def estimate_from_spectral(problem: HermitianProblem, n: int) -> EigenEstimate:
    """Estimate built from the true spectrum (used by equivalence checks)."""
    spectral = problem.spectral
    weights: dict[str, float] = {}
    for lam, alpha in zip(spectral.eigenvalues, spectral.amplitudes):
        s = binary_estimate(float(lam), n)
        weights[s] = weights.get(s, 0.0) + float(abs(alpha) ** 2)
    profile = profile_from_bitstrings(sorted(weights), n)
    return EigenEstimate(n, weights, profile, bool(profile.fixed_positions), 1.0)


# ---------------------------------------------------------------------------
# exact pipelines

def _iqft_matrix(n: int) -> np.ndarray:
    x, y = np.meshgrid(np.arange(2**n), np.arange(2**n), indexing="ij")
    return np.exp(-2j * np.pi * x * y / 2**n) / np.sqrt(2**n)


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def _initial_state(problem: HermitianProblem, n: int) -> StateVector:
    q = problem.num_qubits
    amps = np.zeros(2 ** (1 + n + q), dtype=complex)
    amps[: problem.dimension] = 0  # ancilla 0, register 0 block comes first
    amps[0 : problem.dimension] = problem.b
    return StateVector(1 + n + q, amps)


def _qpe_exact(state: StateVector, problem: HermitianProblem, n: int, inverse=False) -> StateVector:
    reg = list(range(1, n + 1))
    v = list(range(n + 1, n + 1 + problem.num_qubits))
    spectral = problem.spectral
    if not inverse:
        for w in reg:
            state = qstate.apply_unitary(state, _H, [w])
        for i, w in enumerate(reg):
            state = qstate.apply_controlled(
                state, unitary_power(spectral, 2 ** (n - 1 - i)), [w], v
            )
        return qstate.apply_unitary(state, _iqft_matrix(n), reg)
    state = qstate.apply_unitary(state, _iqft_matrix(n).conj().T, reg)
    for i, w in reversed(list(enumerate(reg))):
        state = qstate.apply_controlled(
            state, unitary_power(spectral, -(2 ** (n - 1 - i))), [w], v
        )
    for w in reg:
        state = qstate.apply_unitary(state, _H, [w])
    return state


@dataclass
class HHLOutcome:
    """Post-selected solver result plus diagnostics."""

    mode: str
    n: int
    success_probability: float
    rho_v: DensityMatrix
    fidelity: float
    c_plus_sq: float | None
    c_minus_sq: float | None
    cnot_count: int | None
    register_reset_mass: float | None
    histograms: dict = field(default_factory=dict)
    shots: int = 0
    seed: int | None = None
    estimate: EigenEstimate | None = None


def _x_basis_weights(rho_v: DensityMatrix):
    if rho_v.num_qubits != 1:
        return None, None
    plus = StateVector(1, np.array([1, 1]) / np.sqrt(2))
    minus = StateVector(1, np.array([1, -1]) / np.sqrt(2))
    return (
        qstate.fidelity_overlap(rho_v, plus),
        qstate.fidelity_overlap(rho_v, minus),
    )


def _finish_outcome(
    mode, problem, n, rho_v, success, reset_mass, aqe_spec, shots, seed, estimate, noise
) -> HHLOutcome:
    x_exact, _ = classical_solution(problem)
    psi = StateVector(problem.num_qubits, x_exact)
    fid = qstate.fidelity_pure(rho_v, psi)
    cplus, cminus = _x_basis_weights(rho_v)
    cnot_count = _try_cnot_count(problem, n, aqe_spec)
    histograms = {}
    if shots > 0 and rho_v.num_qubits == 1 and cplus is not None:
        rng = np.random.default_rng(seed)
        draws = rng.multinomial(shots, [cplus, max(1.0 - cplus, 0.0)])
        histograms["v_x_basis"] = MeasurementHistogram(
            {"+": int(draws[0]), "-": int(draws[1])}, shots
        )
    return HHLOutcome(
        mode,
        n,
        success,
        rho_v,
        fid,
        cplus,
        cminus,
        cnot_count,
        reset_mass,
        histograms,
        shots,
        seed,
        estimate,
    )


def _run_exact_pipeline(problem: HermitianProblem, n: int, aqe_spec: AqeSpec):
    """Statevector pipeline; returns (rho_v, success probability, reset mass)."""
    state = _initial_state(problem, n)
    state = _qpe_exact(state, problem, n)
    state = qstate.apply_unitary(
        state, aqe_unitary(aqe_spec), list(range(0, n + 1))
    )
    state = _qpe_exact(state, problem, n, inverse=True)
    post, prob = qstate.postselect(state, 0, 1)
    reg_dist = qstate.exact_distribution(post, list(range(n)))
    reset_mass = 1.0 - reg_dist.outcomes["0" * n]
    rho_v = qstate.partial_trace(
        post.to_density_matrix(), list(range(n, n + problem.num_qubits))
    )
    return rho_v, prob, reset_mass


def _run_noisy_pipeline(problem, n, aqe_spec, noise, shots, seed):
    """Density-matrix run of the compiled circuit.

    Successful runs are those where the ancilla reads 1 *and* the register
    returns to |0...0| (certifying that the estimation block was uncomputed);
    errors propagated through the circuit populate other register outcomes,
    which are discarded here exactly as hardware runs discard them.
    """
    compiled = circuits.compile_circuit(
        build_hhl_circuit(problem, n, aqe_spec), noise.durations
    )
    rho, _ = noise_mod.run_noisy(compiled, noise, shots=0, seed=seed)
    post, prob = qstate.postselect(rho, 0, 1)
    reg_dist = qstate.exact_distribution(post, list(range(n)))
    reset_mass = 1.0 - reg_dist.outcomes["0" * n]
    for _ in range(n):
        post, p_reg = qstate.postselect(post, 0, 0)
        prob *= p_reg
    return post, prob, reset_mass


def _try_cnot_count(problem, n, aqe_spec) -> int | None:
    try:
        compiled = circuits.compile_circuit(build_hhl_circuit(problem, n, aqe_spec))
    except CompileError:
        return None
    return compiled.cnot_count


def build_hhl_circuit(
    problem: HermitianProblem,
    n: int,
    aqe_spec: AqeSpec,
    physical_swap: bool = False,
) -> Circuit:
    """Gate-level HHL circuit: QPE, conditional-rotation encoding, inverse QPE.

    The inverse-QFT swap layers are absorbed by wire relabeling by default;
    the encoding's controls follow the relabeled wires, and the inverse QPE is
    the literal adjoint of the forward block, so the relabelings cancel.
    """
    q = problem.num_qubits
    ancilla = 0
    reg = list(range(1, n + 1))
    v = list(range(n + 1, n + 1 + q))
    gates: list = []
    if not np.allclose(problem.b, np.eye(problem.dimension)[:, 0], atol=1e-12):
        gates.append(circuits.gate("unitary", *v, matrix=_prep_matrix(problem.b)))
    qpe_gates, out_reg = qpe.qpe_block(problem, n, reg, v, physical_swap=physical_swap)
    gates.extend(qpe_gates)
    # conditional rotations controlled by the wires of the free register bits
    free = aqe_spec.free_positions
    controls = [out_reg[pos - 1] for pos in free]
    pattern_angles = {}
    for bits in range(2 ** len(free)):
        pattern = format(bits, f"0{len(free)}b") if free else ""
        y = sum(
            2 ** (aqe_spec.n - pos)
            for j, pos in enumerate(free)
            if bits & (1 << (len(free) - 1 - j))
        )
        if y in aqe_spec.angle_table:
            pattern_angles[pattern] = aqe_spec.angle_table[y]
    gates.extend(circuits.controlled_ry_chain(pattern_angles, controls, ancilla))
    gates.extend(circuits.adjoint(qpe_gates))
    gates.append(gate("measure", ancilla))
    for w in reg:
        gates.append(gate("measure", w))
    roles = {"ancilla": (ancilla,), "register": tuple(reg), "input": tuple(v)}
    return Circuit(1 + n + q, tuple(gates), roles)


def _prep_matrix(b: np.ndarray) -> np.ndarray:
    """A unitary whose first column is b, so it sends |0...0> to b."""
    d = b.size
    seed = np.column_stack([b, np.eye(d, dtype=complex)])
    q_mat, _ = np.linalg.qr(seed)
    q_mat = q_mat[:, :d]
    q_mat[:, 0] *= np.vdot(q_mat[:, 0], b)  # undo QR's column phase
    return q_mat


def run_original_hhl(
    problem: HermitianProblem,
    n: int,
    shots: int = 0,
    seed: int | None = None,
    noise: noise_mod.NoiseParams | None = None,
) -> HHLOutcome:
    """Full-register HHL; exact statevector run, or density-matrix run under noise."""
    if n < 1:
        raise DomainError("register size must be >= 1")
    aqe_spec = build_aqe(problem, n)
    if noise is None:
        rho_v, prob, reset = _run_exact_pipeline(problem, n, aqe_spec)
    else:
        rho_v, prob, reset = _run_noisy_pipeline(problem, n, aqe_spec, noise, shots, seed)
    return _finish_outcome(
        "original", problem, n, rho_v, prob, reset, aqe_spec, shots, seed, None, noise
    )


@dataclass(frozen=True)
class HybridPolicy:
    tau: float = 0.05
    coverage: float = 0.9
    max_n: int = 4
    n_step: int = 1


def run_hybrid_hhl(
    problem: HermitianProblem,
    n_init: int,
    shots: int = 0,
    seed: int | None = None,
    policy: HybridPolicy = HybridPolicy(),
    noise: noise_mod.NoiseParams | None = None,
) -> HHLOutcome:
    """QPEA, classical eigenvalue-bit analysis, then the reduced pipeline.

    Restarts with a larger register (policy.n_step increments up to
    policy.max_n) when the analysis cannot certify a reduction; raises
    :class:`NotReducibleError` carrying the last estimate once exhausted.
    """
    if n_init < 1:
        raise DomainError("register size must be >= 1")
    _, norm = classical_solution(problem)
    c = 1.0 / norm
    n = n_init
    last_estimate = None
    while n <= policy.max_n:
        if shots == 0:
            hist = (
                qpe.register_distribution_exact(problem, n)
                if noise is None
                else qpe.qpea_distribution_noisy(problem, n, noise)
            )
        else:
            hist = qpe.run_qpea(problem, n, shots, seed, noise=noise)
        estimate = analyze_qpea(hist, n, policy.tau, policy.coverage)
        if estimate.reducible:
            aqe_spec = synthesize_reduced_aqe(estimate, c)
            if noise is None:
                rho_v, prob, reset = _run_exact_pipeline(problem, n, aqe_spec)
            else:
                rho_v, prob, reset = _run_noisy_pipeline(
                    problem, n, aqe_spec, noise, shots, seed
                )
            outcome = _finish_outcome(
                "hybrid", problem, n, rho_v, prob, reset, aqe_spec, shots, seed, estimate, noise
            )
            outcome.histograms["qpea"] = hist
            return outcome
        last_estimate = estimate
        n += policy.n_step
    raise NotReducibleError(
        f"no reduced encoding certified up to register size {policy.max_n}",
        estimate=last_estimate,
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
    full_spec = build_aqe(problem, n)
    reduced_spec = synthesize_reduced_aqe(estimate, full_spec.c, force=True)
    rho_full, p_full, _ = _run_exact_pipeline(problem, n, full_spec)
    rho_red, p_red, _ = _run_exact_pipeline(problem, n, reduced_spec)
    overlap = float(np.real(np.trace(rho_full.entries @ rho_red.entries)))
    # both states are pure here, so the trace overlap is the fidelity
    purity = min(rho_full.purity(), rho_red.purity())
    fid = overlap / purity if purity > 0 else 0.0
    return fid >= 1.0 - 1e-9 and abs(p_full - p_red) <= 1e-10
