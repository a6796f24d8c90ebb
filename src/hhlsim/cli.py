"""Command-line frontend: solve / sweep / qpea / compare / emit-qasm.

All commands write deterministic bytes for a given configuration and seed
(JSON with sorted keys, CSV with fixed column order and repr-stable floats),
so repeated invocations are byte-identical. Exit codes: 0 success, 1 invalid
configuration, 2 hybrid reduction not certified (``compare`` still writes
every row, the uncertified hybrid as a ``not_reducible`` verdict).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import circuits, noise as noise_mod, oracles, qpe, solvers
from .errors import HhlError, NotReducibleError, ValidationError
from .problem import SPECTRUM_MARGIN, build_a_lambda, classical_solution, load_problem
from .qstate import MeasurementHistogram, StateVector

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NOT_REDUCIBLE = 2

# Most lambdas ``sweep`` solves in one batched pass (about 3.5 MB live at
# k = 3); the paper's 199-point grid stays one pass per register size.
SWEEP_BATCH = 256


def _float(x) -> float:
    return float(np.asarray(x).item())


def _problem_from_args(args):
    if (args.lam is None) == (args.problem_file is None):
        raise ValidationError("exactly one of --lambda / --problem-file is required")
    if args.lam is not None:
        return build_a_lambda(args.lam), {"kind": "lambda", "lambda": args.lam}
    problem = load_problem(args.problem_file)
    return problem, {"kind": "file", "path": args.problem_file}


def _noise_from_args(args):
    if getattr(args, "noise", None) is None:
        return None
    return noise_mod.NoiseParams.load(args.noise)


def _histogram_json(hist: MeasurementHistogram) -> dict:
    return {
        "outcomes": {k: _float(v) for k, v in sorted(hist.outcomes.items())},
        "shots": hist.shots,
    }


def _optional(x):
    return None if x is None else _float(x)


def _outcome_json(outcome) -> dict:
    """The keys a solve record and a compare mode share: the estimator named
    by ``postselection`` at the top, both named estimators under ``estimators``."""
    named = (("ancilla", outcome.ancilla), ("uncomputed", outcome.uncomputed))
    return {
        "fidelity": _float(outcome.fidelity),
        "success_prob": _float(outcome.success_probability),
        "c_plus_sq": _optional(outcome.c_plus_sq),
        "c_minus_sq": _optional(outcome.c_minus_sq),
        "cnot_count": outcome.cnot_count,
        "postselection": outcome.postselection,
        "estimators": {
            name: None
            if est is None
            else {"fidelity": _float(est[0]), "success_prob": _float(est[1])}
            for name, est in named
        },
    }


def _write(out_path, text: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _check_shots(args) -> None:
    if args.shots < 0:
        raise ValidationError("--shots must be >= 0")
    if args.seed is not None and args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    if args.shots > 0 and args.seed is None:
        raise ValidationError("--seed is required when --shots > 0")


def cmd_solve(args) -> int:
    problem, problem_desc = _problem_from_args(args)
    _check_shots(args)
    noise = _noise_from_args(args)
    if args.mode == "original":
        outcome = solvers.run_original_hhl(
            problem, args.n, shots=args.shots, seed=args.seed, noise=noise
        )
    else:
        policy = solvers.HybridPolicy(
            tau=args.tau, coverage=args.coverage, max_n=args.max_n
        )
        outcome = solvers.run_hybrid_hhl(
            problem, args.n, shots=args.shots, seed=args.seed, policy=policy, noise=noise
        )
    record = {
        "schema": 1,
        "command": "solve",
        "problem": problem_desc,
        "n": outcome.n,
        "mode": outcome.mode,
        "seed": args.seed,
        "shots": args.shots,
        "histograms": {k: _histogram_json(h) for k, h in sorted(outcome.histograms.items())},
        **_outcome_json(outcome),
    }
    if outcome.estimate is not None:
        record["qpea_analysis"] = {
            "coverage": _float(outcome.estimate.coverage),
            "peaks": {k: _float(v) for k, v in sorted(outcome.estimate.peaks.items())},
            "fixed_positions": list(outcome.estimate.fixed_positions),
        }
    _write(args.out, _dump_json(record))
    return EXIT_OK


def cmd_sweep(args) -> int:
    ks = _parse_list(args.k, int, "--k")
    if not ks:
        raise ValidationError("--k list must not be empty")
    if any(k not in (1, 2, 3) for k in ks):
        raise ValidationError("register sizes in --k must be in {1, 2, 3}")
    if len(set(ks)) < len(ks):
        raise ValidationError(f"register sizes in --k must be distinct, got {args.k}")
    if args.points < 1:
        raise ValidationError("--points must be >= 1")
    # the first lambda, 1/(points + 1), must lie above the spectrum margin:
    # at the margin itself eigh's rounding falls below it
    max_points = math.ceil(1 / SPECTRUM_MARGIN) - 2
    if args.points > max_points:
        raise ValidationError(
            f"--points must be <= {max_points}, got {args.points}: the grid's"
            f" first lambda, 1/(points + 1), must lie above {SPECTRUM_MARGIN}"
        )
    grid = range(1, args.points + 1)  # lazy: each batch makes its own floats
    lines = ["lambda,k,F_analytic,F_simulated,abs_err"]
    for k in sorted(ks):
        for start in range(0, args.points, SWEEP_BATCH):
            chunk = [i / (args.points + 1) for i in grid[start:start + SWEEP_BATCH]]
            outcomes = solvers.run_original_hhl_batch([build_a_lambda(lam) for lam in chunk], k)
            for lam, outcome in zip(chunk, outcomes):
                fs = _float(outcome.fidelity)
                fa = oracles.fidelity_closed_form(lam, k)
                lines.append(f"{lam!r},{k},{fa!r},{fs!r},{abs(fa - fs)!r}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_qpea(args) -> int:
    problem, _ = _problem_from_args(args)
    noise = _noise_from_args(args)
    _check_shots(args)
    hist = qpe.run_qpea(problem, args.n, args.shots, args.seed, noise=noise)
    lines = ["outcome,value"]
    for key in sorted(hist.outcomes):
        lines.append(f"{key},{_float(hist.outcomes[key])!r}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    lambdas = _parse_list(args.lambdas, float, "--lambdas")
    if not lambdas:
        raise ValidationError("--lambdas list must not be empty")
    noise = _noise_from_args(args)
    entries = []
    code = EXIT_OK
    for lam in lambdas:
        problem = build_a_lambda(lam)
        x_exact, _ = classical_solution(problem)
        weights = solvers.x_basis_weights(StateVector(problem.num_qubits, x_exact))
        theoretical = dict(zip(("c_plus_sq", "c_minus_sq"), weights))
        modes = {}
        runs = (("original", solvers.run_original_hhl), ("hybrid", solvers.run_hybrid_hhl))
        for mode, run in runs:
            try:
                outcome = run(problem, args.n, noise=noise)
            except NotReducibleError as exc:
                modes[mode] = {"verdict": "not_reducible", "message": str(exc)}
                print(f"not reducible: {mode} at lambda {lam!r}: {exc}", file=sys.stderr)
                code = EXIT_NOT_REDUCIBLE
                continue
            bound = None if outcome.cnot_count is None else noise_mod.survival_bound(
                outcome.cnot_count, noise or noise_mod.NoiseParams()
            )
            modes[mode] = {**_outcome_json(outcome), "survival_bound": _optional(bound)}
        entries.append({"lambda": lam, "theoretical": theoretical, "modes": modes})
    payload = {"schema": 1, "command": "compare", "noise": args.noise, "rows": entries}
    _write(args.out, _dump_json(payload))
    return code


def cmd_emit_qasm(args) -> int:
    problem, _ = _problem_from_args(args)
    if args.circuit == "qpea":
        circuit = qpe.build_qpe(qpe.QpeConfig(args.n, problem))
    else:
        aqe_spec = solvers.build_aqe(problem, args.n)
        if args.circuit == "hybrid":
            estimate = solvers.estimate_from_spectral(problem, args.n)
            aqe_spec = solvers.synthesize_reduced_aqe(estimate, aqe_spec.c)
        circuit = solvers.build_hhl_circuit(problem, args.n, aqe_spec)
    compiled = circuits.compile_circuit(circuit)
    _write(args.out, circuits.emit_qasm(compiled))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing

def _parse_list(raw: str, convert, flag: str):
    out = []
    for tok in filter(str.strip, raw.split(",")):
        try:
            out.append(convert(tok))
        except ValueError:
            raise ValidationError(f"{flag} takes {convert.__name__} values, got {tok!r}") from None
    return out


def _add_problem_flags(p):
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="parameter of the built-in 2x2 problem family")
    p.add_argument("--problem-file", default=None, help="JSON problem description")


def _add_common_flags(p):
    p.add_argument("--n", type=int, default=2, help="register size")
    p.add_argument("--shots", type=int, default=0, help="0 = exact probabilities")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise", default=None, help="path to noise-parameter JSON")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhlsim",
        description="Simulator for the conditional-rotation linear-system "
        "solver and its hybrid variant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver instance")
    _add_problem_flags(p)
    _add_common_flags(p)
    p.add_argument("--mode", choices=("original", "hybrid"), default="original")
    policy = solvers.HybridPolicy
    p.add_argument("--tau", type=float, default=policy.tau, help="peak threshold")
    p.add_argument("--coverage", type=float, default=policy.coverage, help="peak-mass bound")
    p.add_argument("--max-n", type=int, default=policy.max_n, help="largest register to try")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="fidelity curves over a lambda grid")
    p.add_argument("--points", type=int, default=199, help="interior grid points")
    p.add_argument("--k", default="1,2,3", help="register sizes, comma separated")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("qpea", help="phase-estimation register distribution on b")
    _add_problem_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_qpea)

    p = sub.add_parser("compare", help="original vs hybrid under noise")
    p.add_argument("--lambdas", default="0.25,0.5", help="comma-separated values")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--noise", default=None, help="path to noise-parameter JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("emit-qasm", help="write an OpenQASM 2.0 file")
    _add_problem_flags(p)
    p.add_argument("--circuit", choices=("original", "hybrid", "qpea"), default="original")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_emit_qasm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except NotReducibleError as exc:
        print(f"not reducible: {exc}", file=sys.stderr)
        return EXIT_NOT_REDUCIBLE
    except (HhlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
