"""The benchmark's three workloads.

Each workload is a closed loop with one caller. Its inputs are built from the
benchmark seed before anything is timed; the program receives only those
inputs. An *op* is one top-level call that the loop times:

- ``sweep``: one in-process ``hhlsim sweep --points 199 --k 1,2,3`` pass
  (597 exact solves, closed forms and CSV). The grid is fixed by the paper,
  so the seed does not change it.
- ``noisy``: one noisy solver call, ``run_original_hhl(n=2)`` or
  ``run_hybrid_hhl(n_init in {2, 3, 4})`` at a lambda drawn from
  {j/32 : j = 1..31}.
- ``hybrid_random``: one randomized perfectly estimated problem,
  ``run_hybrid_hhl(problem, 1, shots=1024)`` followed by
  ``reduced_encoding_equivalence_check(problem, n)``.

``prepare(i)`` builds op ``i`` outside the timed region and returns the
callable the loop times; ``collect`` extracts what the checks need, also
untimed; ``check`` runs the correctness checks after the loop and returns one
failure message (or None) per op; ``verdict`` names a record's outcome for
the report. ``round_size`` is the number of ops after which a timed loop may
stop, and ``reference_samples`` the number of reference-kernel timings taken
after each op.
"""

from __future__ import annotations

import json
import os

import numpy as np

from hhlsim import cli, noise, oracles, problem, qpe, qstate, solvers
from hhlsim.errors import HhlError, ImpossibleOutcomeError, NotReducibleError

HERE = os.path.dirname(os.path.abspath(__file__))
NOISY_REFERENCE = os.path.join(HERE, "data", "noisy_reference.json")

# abs_err tolerance of the paper's fidelity-curve criterion (acceptance 3)
SWEEP_TOL = 1e-8
# noisy results must match the recorded reference to this tolerance
NOISY_TOL = 1e-12
# brute-force agreement of hybrid_random results whose peaks are exact
ORACLE_F_TOL = 1e-9
ORACLE_P_TOL = 1e-10
# validity of returned density matrices
RHO_TOL = 1e-10

NOISY_LAMBDA_DENOMINATOR = 32
# (mode, register size): the original runs only at n=2 because the gate path
# cannot build it beyond two free register bits yet (CompileError).
NOISY_CONFIGS = (("original", 2), ("hybrid", 2), ("hybrid", 3), ("hybrid", 4))

HYBRID_CLASSES = ((2, 2, 1), (4, 3, 1), (4, 3, 2), (8, 4, 2))  # (d, n, k)
HYBRID_POOL = 1024
HYBRID_SHOTS = 1024


def noisy_key(mode: str, n: int, j: int) -> str:
    return f"{mode}:{n}:{j}"


def density_matrix_problem(rho: np.ndarray) -> str | None:
    """Why ``rho`` is not a valid density matrix, or None if it is."""
    if not np.allclose(rho, rho.conj().T, atol=RHO_TOL):
        return "rho_v is not Hermitian"
    trace = np.trace(rho).real
    if abs(trace - 1.0) > RHO_TOL:
        return f"rho_v has trace {trace!r}"
    low = float(np.linalg.eigvalsh(rho).min())
    if low < -RHO_TOL:
        return f"rho_v has eigenvalue {low!r}"
    return None


def outcome_invariants(fidelity: float, success: float, rho: np.ndarray) -> str | None:
    if not 0.0 <= fidelity <= 1.0:
        return f"fidelity {fidelity!r} outside [0, 1]"
    if not 0.0 < success <= 1.0:
        return f"success probability {success!r} outside (0, 1]"
    return density_matrix_problem(rho)


class Sweep:
    name = "sweep"
    round_size = 1
    # reference-kernel samples after each op; more for the long sweep pass
    reference_samples = 20

    def __init__(self, seed: int, quick: bool, out_dir: str):
        self.points = 9 if quick else 199
        self.ks = (1, 2, 3)
        self.out_path = os.path.join(out_dir, f"sweep-{os.getpid()}.csv")
        self.argv = [
            "sweep",
            "--points", str(self.points),
            "--k", ",".join(map(str, self.ks)),
            "--out", self.out_path,
        ]
        self.reference: bytes | None = None  # CSV of the first pass checked

    def prepare(self, i: int):
        return lambda: cli.main(self.argv)

    def collect(self, i: int, result):
        with open(self.out_path, "rb") as fh:
            return result, fh.read()

    def verdict(self, record) -> str:
        return "ok" if record[0] == 0 else f"exit {record[0]}"

    def _check_csv(self, data: bytes) -> str | None:
        lines = data.decode("ascii").splitlines() or [""]
        if lines[0] != "lambda,k,F_analytic,F_simulated,abs_err":
            return f"unexpected CSV header {lines[0]!r}"
        rows = lines[1:]
        if len(rows) != self.points * len(self.ks):
            return f"{len(rows)} rows, expected {self.points * len(self.ks)}"
        for row in rows:
            lam, k, fa, fs, err = row.split(",")
            if float(err) > SWEEP_TOL or abs(float(fa) - float(fs)) > SWEEP_TOL:
                return f"abs_err {err} above {SWEEP_TOL} at lambda={lam}, k={k}"
        return None

    def check(self, records) -> list[str | None]:
        """The first pass's CSV gets the full check; every later pass must be
        byte-identical to it (and so shares its verdict)."""
        out = []
        first_problem = None
        for code, data in records:
            if code != 0:
                out.append(f"exit code {code}")
            elif self.reference is None:
                self.reference = data
                first_problem = self._check_csv(data)
                out.append(first_problem)
            elif data != self.reference:
                out.append("CSV differs from the first pass (not byte-identical)")
            else:
                out.append(first_problem)
        return out

    def close(self) -> None:
        if os.path.exists(self.out_path):
            os.remove(self.out_path)


def noisy_sequence(seed: int):
    """Endless op sequence: successive seeded permutations of every
    (config, j) pair, so a run covers the pool evenly whatever the seed."""
    rng = np.random.default_rng(seed)
    pairs = [(mode, n, j) for mode, n in NOISY_CONFIGS for j in range(1, NOISY_LAMBDA_DENOMINATOR)]
    while True:
        for index in rng.permutation(len(pairs)):
            yield pairs[index]


def noisy_call(mode: str, n: int, j: int):
    """One noisy solver call; an ``HhlError`` it raises is its verdict."""
    lam_problem = problem.build_a_lambda(j / NOISY_LAMBDA_DENOMINATOR)
    params = noise.NoiseParams()

    def op():
        try:
            if mode == "original":
                return solvers.run_original_hhl(lam_problem, n, noise=params)
            return solvers.run_hybrid_hhl(lam_problem, n, noise=params)
        except HhlError as exc:
            return exc

    return op


def noisy_summary(result) -> dict:
    """The values a noisy op is checked on."""
    if isinstance(result, HhlError):
        return {"verdict": type(result).__name__}
    return {
        "verdict": "ok",
        "n": result.n,
        "fidelity": float(result.fidelity),
        "success_prob": float(result.success_probability),
        "cnot_count": result.cnot_count,
    }


class Noisy:
    name = "noisy"
    # timed loops stop only after whole permutations of the pool, so every
    # seed times the same mix of configs and verdicts
    round_size = len(NOISY_CONFIGS) * (NOISY_LAMBDA_DENOMINATOR - 1)
    reference_samples = 2

    def __init__(self, seed: int, quick: bool, out_dir: str):
        with open(NOISY_REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)["results"]
        self.ops: list[tuple] = []
        self._sequence = noisy_sequence(seed)

    def _op_input(self, i: int):
        while len(self.ops) <= i:
            self.ops.append(next(self._sequence))
        return self.ops[i]

    def prepare(self, i: int):
        return noisy_call(*self._op_input(i))

    def collect(self, i: int, result):
        summary = noisy_summary(result)
        rho = None if isinstance(result, HhlError) else np.array(result.rho_v.entries)
        return noisy_key(*self._op_input(i)), summary, rho

    def verdict(self, record) -> str:
        return record[1]["verdict"]

    def check(self, records) -> list[str | None]:
        out = []
        for key, got, rho in records:
            want = self.reference[key]
            if got["verdict"] != want["verdict"]:
                out.append(f"{key}: verdict {got['verdict']}, reference {want['verdict']}")
                continue
            if got["verdict"] != "ok":
                out.append(None)
                continue
            problem_text = outcome_invariants(got["fidelity"], got["success_prob"], rho)
            if problem_text is None:
                for field in ("n", "cnot_count"):
                    if got[field] != want[field]:
                        problem_text = f"{field} {got[field]}, reference {want[field]}"
                for field in ("fidelity", "success_prob"):
                    if abs(got[field] - want[field]) > NOISY_TOL:
                        problem_text = f"{field} {got[field]!r}, reference {want[field]!r}"
            out.append(None if problem_text is None else f"{key}: {problem_text}")
        return out

    def close(self) -> None:
        pass


def hybrid_pool(seed: int, size: int) -> list[tuple]:
    """``size`` seeded problems, round-robin over HYBRID_CLASSES, stored as
    ``(d, n, k, matrix, b)`` so each op builds a fresh problem object."""
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(size):
        d, n, k = HYBRID_CLASSES[i % len(HYBRID_CLASSES)]
        generated = solvers.random_perfectly_estimated_problem(rng, d, n, k)
        pool.append((d, n, k, generated.matrix, generated.b))
    return pool


class HybridRandom:
    name = "hybrid_random"
    round_size = len(HYBRID_CLASSES)
    reference_samples = 1

    def __init__(self, seed: int, quick: bool, out_dir: str):
        self.pool = hybrid_pool(seed, 8 if quick else HYBRID_POOL)
        self.shot_seed = int(np.random.default_rng(seed).integers(1 << 30))
        self._oracle: dict[int, tuple] = {}

    def prepare(self, i: int):
        _, n, _, matrix, b = self.pool[i % len(self.pool)]
        fresh = problem.HermitianProblem(matrix, b)
        shot_seed = self.shot_seed + i

        def op():
            try:
                outcome = solvers.run_hybrid_hhl(fresh, 1, shots=HYBRID_SHOTS, seed=shot_seed)
            except (NotReducibleError, ImpossibleOutcomeError) as exc:
                outcome = exc
            return outcome, solvers.reduced_encoding_equivalence_check(fresh, n)

        return op

    def collect(self, i: int, result):
        outcome, equivalent = result
        return i % len(self.pool), outcome, equivalent, self.shot_seed + i

    def verdict(self, record) -> str:
        outcome = record[1]
        return type(outcome).__name__ if isinstance(outcome, HhlError) else "ok"

    def _certifies_empty_encoding(self, index: int, shot_seed: int) -> bool:
        """Replays the hybrid's QPEA analysis: True when the encoding it
        certifies has no rotation at all (every peak reads 0...0), the known
        defect that makes post-selection raise ImpossibleOutcomeError."""
        _, _, _, matrix, b = self.pool[index]
        exact = problem.HermitianProblem(matrix, b)
        policy = solvers.HybridPolicy()
        _, norm = problem.classical_solution(exact)
        for n in range(1, policy.max_n + 1, policy.n_step):
            hist = qpe.run_qpea(exact, n, HYBRID_SHOTS, shot_seed)
            estimate = solvers.analyze_qpea(hist, n, policy.tau, policy.coverage)
            if estimate.reducible:
                return not solvers.synthesize_reduced_aqe(estimate, 1.0 / norm).angle_table
        return False

    def _oracle_for(self, index: int):
        if index not in self._oracle:
            _, n, _, matrix, b = self.pool[index]
            exact = problem.HermitianProblem(matrix, b)
            rho, success = oracles.brute_force_hhl(exact, n)
            x, _ = problem.classical_solution(exact)
            fid = qstate.fidelity_pure(rho, qstate.StateVector(exact.num_qubits, x))
            true_peaks = {
                problem.binary_estimate(float(lam), n) for lam in exact.spectral.eigenvalues
            }
            self._oracle[index] = (fid, success, true_peaks)
        return self._oracle[index]

    def check(self, records) -> list[str | None]:
        out = []
        for index, outcome, equivalent, shot_seed in records:
            d, n, k = self.pool[index][:3]
            label = f"problem {index} (d={d}, n={n}, k={k})"
            if not equivalent:
                out.append(f"{label}: reduced and full encodings differ")
                continue
            if isinstance(outcome, NotReducibleError):
                out.append(None if outcome.estimate is not None else f"{label}: verdict without estimate")
                continue
            if isinstance(outcome, ImpossibleOutcomeError):
                known = self._certifies_empty_encoding(index, shot_seed)
                out.append(None if known else f"{label}: {outcome}")
                continue
            problem_text = outcome_invariants(
                float(outcome.fidelity), float(outcome.success_probability), outcome.rho_v.entries
            )
            if problem_text is None and not (1 <= outcome.n <= solvers.HybridPolicy().max_n):
                problem_text = f"stopped at n={outcome.n}"
            if problem_text is None and outcome.n == n:
                fid, success, true_peaks = self._oracle_for(index)
                if set(outcome.estimate.peaks) == true_peaks:
                    if abs(outcome.fidelity - fid) > ORACLE_F_TOL:
                        problem_text = f"fidelity {outcome.fidelity!r}, oracle {fid!r}"
                    elif abs(outcome.success_probability - success) > ORACLE_P_TOL:
                        problem_text = (
                            f"success {outcome.success_probability!r}, oracle {success!r}"
                        )
            out.append(None if problem_text is None else f"{label}: {problem_text}")
        return out

    def oracle_matches(self, records) -> int:
        """How many records were compared against the brute-force oracle."""
        count = 0
        for index, outcome, *_ in records:
            if not isinstance(outcome, HhlError) and outcome.n == self.pool[index][1]:
                count += set(outcome.estimate.peaks) == self._oracle_for(index)[2]
        return count

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (Sweep, Noisy, HybridRandom)}


def build(name: str, seed: int, quick: bool, out_dir: str):
    """Build a workload's inputs (the part of set-up after the import)."""
    return WORKLOADS[name](seed, quick, out_dir)
