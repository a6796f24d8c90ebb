"""Command-line interface: exit codes, file outputs, determinism."""

import json
import tracemalloc
import warnings

import pytest

from hhlsim import circuits, cli, solvers
from hhlsim.errors import CompileError
from hhlsim.cli import EXIT_NOT_REDUCIBLE, EXIT_OK, EXIT_VALIDATION, main
from hhlsim.noise import survival_bound
from hhlsim.problem import build_a_lambda, classical_solution
from hhlsim.qstate import StateVector


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


# problem files whose checks all compare with a non-finite entry
INFINITE_A = (
    '{"kind": "matrix", "dim": 2, "a_real": [[Infinity, 0.1], [0.1, 0.5]],'
    ' "a_imag": [[0, 0], [0, 0]], "b_real": [1, 0], "b_imag": [0, 0]}'
)
NAN_B = (
    '{"kind": "matrix", "dim": 2, "a_real": [[0.5, 0.1], [0.1, 0.5]],'
    ' "a_imag": [[0, 0], [0, 0]], "b_real": [NaN, 0], "b_imag": [0, 0]}'
)


class TestSolve:
    def test_hybrid_quarter(self, tmp_path):
        code, raw = run(
            tmp_path, "solve", "--lambda", "0.25", "--n", "2",
            "--mode", "hybrid", "--shots", "1024", "--seed", "7",
        )
        assert code == EXIT_OK
        record = json.loads(raw)
        assert record["schema"] == 1
        assert record["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert record["cnot_count"] == 14
        assert record["mode"] == "hybrid"
        for hist in record["histograms"].values():  # counts print as the drawn integers
            assert all(type(v) is int for v in hist["outcomes"].values())
            assert sum(hist["outcomes"].values()) == hist["shots"] == 1024

    def test_original_half_exact(self, tmp_path):
        code, raw = run(tmp_path, "solve", "--lambda", "0.5", "--n", "2", "--mode", "original")
        assert code == EXIT_OK
        assert json.loads(raw)["success_prob"] == pytest.approx(0.0625, abs=1e-12)

    def test_not_reducible_exit_code(self, tmp_path):
        code, _ = run(
            tmp_path, "solve", "--lambda", "0.3", "--n", "2",
            "--mode", "hybrid", "--max-n", "2",
        )
        assert code == EXIT_NOT_REDUCIBLE

    @pytest.mark.parametrize("lam,code", [("0.3", EXIT_NOT_REDUCIBLE), ("0.25", EXIT_OK)])
    def test_restarts_end_at_the_widest_register(self, tmp_path, capsys, lam, code):
        """Under noise the HHL circuit at n = 10 would hold a 12-qubit density
        matrix: the restarts stop at n = 9 with a verdict, not a width error."""
        noise = tmp_path / "noise.json"
        noise.write_text('{"t1_ns": 30000}')
        argv = ["solve", "--lambda", lam, "--mode", "hybrid", "--max-n", "40"]
        assert run(tmp_path, *argv, "--noise", str(noise))[0] == code
        if code == EXIT_NOT_REDUCIBLE:
            assert capsys.readouterr().err == (
                "not reducible: no reduced encoding certified up to register size 9,"
                " the widest the simulation limits admit below --max-n 40\n"
            )

    @pytest.mark.parametrize(
        "argv", [["solve", "--lambda", "1e-7"], ["compare", "--lambdas", "0.9999999"]]
    )
    def test_spectrum_message_names_the_margin(self, tmp_path, capsys, argv):
        """Both eigenvalues lie inside (0, 1); the check refuses them for the
        margin, and its message names the interval it checks."""
        code, raw = run(tmp_path, *argv)
        assert (code, raw) == (EXIT_VALIDATION, b"")
        err = capsys.readouterr().err
        assert err.startswith("error: eigenvalues [") and "must lie in [1e-06, 0.999999]" in err

    def test_shots_require_seed(self, tmp_path):
        code, _ = run(tmp_path, "solve", "--lambda", "0.25", "--shots", "100")
        assert code == EXIT_VALIDATION

    def test_lambda_and_file_mutually_exclusive(self, tmp_path):
        code, _ = run(tmp_path, "solve")
        assert code == EXIT_VALIDATION

    def test_invalid_lambda(self, tmp_path):
        code, _ = run(tmp_path, "solve", "--lambda", "1.5")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "text",
        ['{"kind":"matrix","dim":2}', '{"kind":"lambda"}', "[1,2]", INFINITE_A, NAN_B],
        ids=["matrix-missing-entries", "lambda-missing-value", "not-an-object",
             "a-infinite", "b-nan"],
    )
    def test_malformed_problem_file(self, tmp_path, capsys, text):
        path = tmp_path / "problem.json"
        path.write_text(text)
        code, _ = run(tmp_path, "solve", "--problem-file", str(path))
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag,value",
        [("--tau", "2"), ("--coverage", "-0.5"), ("--max-n", "0"), ("--n", "5")],
    )
    def test_policy_out_of_range(self, tmp_path, capsys, flag, value):
        code, _ = run(tmp_path, "solve", "--lambda", "0.25", "--mode", "hybrid", flag, value)
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "text",
        ["[1]", '{"t1_ns": null}', '{"t1_ns": NaN}', '{"cnot_ns": NaN}',
         '{"idle_damping": "false"}', '{"t1": 10}'],
        ids=["not-an-object", "null-number", "nan-t1", "nan-duration",
             "string-boolean", "unknown-key"],
    )
    def test_malformed_noise_file(self, tmp_path, capsys, text):
        path = tmp_path / "noise.json"
        path.write_text(text)
        code, _ = run(tmp_path, "solve", "--lambda", "0.25", "--noise", str(path))
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--problem-file", "--noise"])
    @pytest.mark.parametrize(
        "content",
        [b'{"kind": "lambda" "lambda": 0.3}', b"\xff{}", b"[" * 100_000 + b"]" * 100_000],
        ids=["truncated", "not-utf-8", "too-deep"],
    )
    def test_file_that_is_not_json_names_itself(self, tmp_path, capsys, flag, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        problem = ["--problem-file", str(path)] if flag == "--problem-file" else ["--lambda", "0.25"]
        noise = ["--noise", str(path)] if flag == "--noise" else []
        code, raw = run(tmp_path, "solve", *problem, *noise)
        assert code == EXIT_VALIDATION and raw == b""
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {str(path)!r} as JSON: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["original", "hybrid"])
    def test_register_too_wide(self, tmp_path, capsys, mode):
        code, raw = run(
            tmp_path, "solve", "--lambda", "0.3", "--n", "40", "--max-n", "40", "--mode", mode
        )
        assert code == EXIT_VALIDATION and raw == b""
        assert capsys.readouterr().err == (
            "error: a 42-qubit circuit exceeds the limit of 12 qubits:"
            " --n must be at most 10\n"
        )

    @pytest.mark.parametrize("extra", [(), ("--mode", "hybrid", "--max-n", "11")])
    def test_widest_register_named(self, tmp_path, capsys, extra):
        """The refusal names --n and the largest register that fits."""
        code, raw = run(tmp_path, "solve", "--lambda", "0.3", "--n", "11", *extra)
        assert code == EXIT_VALIDATION and raw == b""
        assert capsys.readouterr().err == (
            "error: a 13-qubit circuit exceeds the limit of 12 qubits:"
            " --n must be at most 10\n"
        )

    @pytest.mark.parametrize("mode", ["original", "hybrid"])
    def test_density_budget_names_widest_register(self, tmp_path, capsys, mode):
        noise = tmp_path / "noise.json"
        noise.write_text('{"t1_ns": 30000}')
        code, raw = run(
            tmp_path, "solve", "--lambda", "0.3", "--n", "10", "--max-n", "10",
            "--mode", mode, "--noise", str(noise),
        )
        assert code == EXIT_VALIDATION and raw == b""
        assert capsys.readouterr().err == (
            "error: a 12-qubit density matrix exceeds the limit of 64 MiB:"
            " --n must be at most 9\n"
        )

    def test_named_estimators_agree_at_zero_noise(self, tmp_path):
        f = _files(tmp_path, noise=ZERO_NOISE)
        records = []
        for extra in ((), ("--noise", f["noise"])):
            code, raw = run(tmp_path, "solve", "--lambda", "0.3", "--n", "2", *extra)
            assert code == EXIT_OK
            records.append(json.loads(raw))
        exact, noisy = records
        assert (exact["postselection"], noisy["postselection"]) == ("ancilla", "uncomputed")
        for record in records:
            named = record["estimators"][record["postselection"]]
            assert named == {"fidelity": record["fidelity"], "success_prob": record["success_prob"]}
        for name in ("ancilla", "uncomputed"):
            assert noisy["estimators"][name]["fidelity"] == pytest.approx(
                exact["estimators"][name]["fidelity"], abs=1e-9
            )

    def test_negative_shots(self, tmp_path, capsys):
        code, raw = run(tmp_path, "solve", "--lambda", "0.25", "--shots", "-5")
        assert code == EXIT_VALIDATION
        assert raw == b""
        assert capsys.readouterr().err.startswith("error: --shots")

    @pytest.mark.parametrize("shots", ["10", "0"])
    def test_negative_seed(self, tmp_path, capsys, shots):
        code, raw = run(
            tmp_path, "solve", "--lambda", "0.3", "--mode", "hybrid",
            "--shots", shots, "--seed", "-1",
        )
        assert (code, raw) == (EXIT_VALIDATION, b"")
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


class TestSweep:
    def test_curves_hit_dyadic_points(self, tmp_path):
        code, raw = run(tmp_path, "sweep", "--points", "7", "--k", "1,2,3")
        assert code == EXIT_OK
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "lambda,k,F_analytic,F_simulated,abs_err"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 21
        for lam, k, fa, fs, err in rows:
            assert float(err) < 1e-8
            if float(lam) in (0.25, 0.5, 0.75) and k in ("2", "3"):
                assert float(fa) == pytest.approx(1.0, abs=1e-9)

    def test_k_one_exact_at_half(self, tmp_path):
        code, raw = run(tmp_path, "sweep", "--points", "7", "--k", "1")
        assert code == EXIT_OK
        rows = [line.split(",") for line in raw.decode().strip().split("\n")[1:]]
        half = [r for r in rows if float(r[0]) == 0.5]
        assert float(half[0][2]) == pytest.approx(1.0, abs=1e-9)

    def test_solved_in_bounded_batches(self, tmp_path, monkeypatch):
        """A grid larger than one batch is solved in chunks, row for row."""
        sizes = []
        batch = solvers.run_original_hhl_batch
        monkeypatch.setattr(
            solvers, "run_original_hhl_batch",
            lambda problems, k: sizes.append(len(problems)) or batch(problems, k),
        )
        code, raw = run(tmp_path, "sweep", "--points", "300", "--k", "1")
        assert code == EXIT_OK
        assert sizes and max(sizes) <= 256 and sum(sizes) == 300
        rows = [line.split(",") for line in raw.decode().strip().split("\n")[1:]]
        assert len(rows) == 300
        assert all(float(row[4]) <= 1e-8 for row in rows)

    def test_per_batch_work_done_once(self, tmp_path, monkeypatch):
        """The paper's pass, 597 exact solves in three batches, takes one
        subset-angle inversion per batch and raises no CompileError, though
        no original circuit lowers at k = 3."""
        inversions, raised = [], []
        subset_angles, init = circuits._subset_angles, CompileError.__init__
        monkeypatch.setattr(circuits, "_subset_angles",
                            lambda *a: inversions.append(a) or subset_angles(*a))
        monkeypatch.setattr(CompileError, "__init__",
                            lambda self, *a: raised.append(a) or init(self, *a))
        code, raw = run(tmp_path, "sweep", "--points", "199", "--k", "1,2,3")
        assert code == EXIT_OK and raw.count(b"\n") == 598
        assert (len(inversions), len(raised)) == (3, 0)

    def test_one_classical_solution_per_problem(self, tmp_path, monkeypatch):
        """Each of the pass's 199 problems computes A^-1 b once: its 6 reads
        (an encoding and a scoring per k) return one array."""
        solutions, solve = [], solvers.classical_solution
        monkeypatch.setattr(solvers, "classical_solution",
                            lambda p: solutions.append(solve(p)) or solutions[-1])
        code, _ = run(tmp_path, "sweep", "--points", "199", "--k", "1,2,3")
        assert code == EXIT_OK
        assert (len(solutions), len({id(x) for x, _ in solutions})) == (1194, 199)

    def test_grid_made_batch_by_batch(self, monkeypatch):
        """The largest grid accepted is never held as one list of floats
        (about 32 MB at 999998 points): the first batch reaches its first
        problem, which stops the run, having allocated little."""
        class Reached(Exception):
            pass

        def stop(lam):
            raise Reached

        monkeypatch.setattr(cli, "build_a_lambda", stop)
        tracemalloc.start()
        try:
            with pytest.raises(Reached):
                main(["sweep", "--points", "999998", "--k", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_points_past_the_spectrum_margin_rejected(self, tmp_path, capsys):
        """At 999999 points the first lambda, 1e-6, is no longer inside the
        spectrum margin; the message names the flag, not a matrix."""
        code, raw = run(tmp_path, "sweep", "--points", "999999", "--k", "1")
        assert (code, raw) == (EXIT_VALIDATION, b"")
        err = capsys.readouterr().err
        assert err.startswith("error: --points must be <= 999998, got 999999")

    def test_largest_points_reaches_first_batch(self, monkeypatch):
        class Reached(Exception):
            pass

        def stop(problems, k):
            raise Reached(len(problems))

        monkeypatch.setattr(solvers, "run_original_hhl_batch", stop)
        with pytest.raises(Reached) as info:
            main(["sweep", "--points", "999998", "--k", "1"])
        assert info.value.args == (256,)

    def test_empty_k_rejected(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--k", "")
        assert code == EXIT_VALIDATION

    def test_repeated_k_rejected(self, tmp_path, capsys):
        code, raw = run(tmp_path, "sweep", "--points", "3", "--k", "1,1")
        assert (code, raw) == (EXIT_VALIDATION, b"")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--k" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["sweep", "--points", "3", "--k", "1,x"], "--k"),
            (["compare", "--lambdas", "x"], "--lambdas"),
        ],
        ids=["k", "lambdas"],
    )
    def test_list_entry_that_does_not_convert_names_its_flag(self, tmp_path, capsys, argv, flag):
        code, raw = run(tmp_path, *argv)
        assert (code, raw) == (EXIT_VALIDATION, b"")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} takes ") and err.rstrip().endswith("got 'x'")


# A = diag(1/4, 3/4), b = |+>: the QPEA must see both eigenvalues, on every path
DIAG_PLUS = (
    '{"kind": "matrix", "dim": 2, "a_real": [[0.25, 0], [0, 0.75]],'
    ' "a_imag": [[0, 0], [0, 0]], "b_real": [0.7071067811865476, 0.7071067811865476],'
    ' "b_imag": [0, 0]}'
)
ZERO_NOISE = '{"t1_ns": 1e18}'


def _files(tmp_path, **texts):
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    return {k: str(v) for k, v in paths.items()}


class TestPreparedB:
    def test_hybrid_zero_noise_matches_noiseless(self, tmp_path):
        f = _files(tmp_path, problem=DIAG_PLUS, noise=ZERO_NOISE)
        args = ("solve", "--problem-file", f["problem"], "--mode", "hybrid")
        code, raw = run(tmp_path, *args)
        assert code == EXIT_OK
        noiseless = json.loads(raw)
        code, raw = run(tmp_path, *args, "--noise", f["noise"])
        assert code == EXIT_OK
        noisy = json.loads(raw)
        assert noiseless["qpea_analysis"]["fixed_positions"] == [2]
        assert noisy["qpea_analysis"]["fixed_positions"] == [2]
        assert noisy["fidelity"] == pytest.approx(noiseless["fidelity"], abs=1e-9)

    def test_qpea_zero_noise_matches_noiseless(self, tmp_path):
        f = _files(tmp_path, problem=DIAG_PLUS, noise=ZERO_NOISE)
        rows = []
        for extra in ((), ("--noise", f["noise"])):
            code, raw = run(tmp_path, "qpea", "--problem-file", f["problem"], *extra)
            assert code == EXIT_OK
            rows.append(dict(line.split(",") for line in raw.decode().split()[1:]))
        for row in rows:
            assert float(row["01"]) == pytest.approx(0.5, abs=1e-12)
            assert float(row["11"]) == pytest.approx(0.5, abs=1e-12)

    def test_emit_qpea_prepares_b(self, tmp_path):
        f = _files(tmp_path, problem=DIAG_PLUS)
        code, raw = run(tmp_path, "emit-qasm", "--problem-file", f["problem"], "--circuit", "qpea")
        assert code == EXIT_OK
        # the first gate after the headers sends the input qubit to |+>
        assert raw.decode().splitlines()[4] == "ry(1.5707963267949) q[2];"

    def test_noisy_qpea_d4_does_not_lower(self, tmp_path, capsys):
        # a 4x4 diagonal A with b = |++>: the 2-qubit prep gate, the circuit's
        # first, has no lowering (nor has the 2-target controlled power after it)
        h = [0.5, 0.5, 0.5, 0.5]
        problem = json.dumps({
            "kind": "matrix", "dim": 4,
            "a_real": [[0.125 * (i + 1) * (i == j) for j in range(4)] for i in range(4)],
            "a_imag": [[0] * 4] * 4, "b_real": h, "b_imag": [0] * 4,
        })
        f = _files(tmp_path, problem=problem, noise=ZERO_NOISE)
        code, raw = run(tmp_path, "qpea", "--problem-file", f["problem"], "--noise", f["noise"])
        assert code == EXIT_VALIDATION and raw == b""
        assert capsys.readouterr().err == "error: unitary lowering supports exactly one qubit\n"


class TestQpea:
    def test_quarter_rows(self, tmp_path):
        code, raw = run(tmp_path, "qpea", "--lambda", "0.25", "--n", "2")
        assert code == EXIT_OK
        rows = dict(line.split(",") for line in raw.decode().strip().split("\n")[1:])
        assert float(rows["01"]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows["11"]) == pytest.approx(0.5, abs=1e-12)

    def test_half_peak(self, tmp_path):
        code, raw = run(tmp_path, "qpea", "--lambda", "0.5", "--n", "2")
        rows = dict(line.split(",") for line in raw.decode().strip().split("\n")[1:])
        assert float(rows["10"]) == pytest.approx(1.0, abs=1e-12)

    def test_noisy_keeps_peaks(self, tmp_path):
        noise = tmp_path / "noise.json"
        noise.write_text(
            '{"t1_ns":50000,"cnot_ns":200,"rz_ns":0,"single_ns":60,'
            '"readout_flip":0.0,"idle_damping":true}'
        )
        code, raw = run(
            tmp_path, "qpea", "--lambda", "0.25", "--n", "2", "--noise", str(noise)
        )
        assert code == EXIT_OK
        rows = dict(line.split(",") for line in raw.decode().strip().split("\n")[1:])
        assert float(rows["01"]) >= 0.3
        assert float(rows["11"]) >= 0.3

    def test_counts_print_as_the_drawn_integers(self, tmp_path):
        """Counts print as integers, exact beyond 2^53 where a float is not:
        the largest draw NumPy makes prints counts that sum to its shots."""
        shots = 2**63 - 1
        argv = ["qpea", "--lambda", "0.25", "--n", "1", "--shots", str(shots), "--seed", "1"]
        code, raw = run(tmp_path, *argv)
        rows = [line.split(",") for line in raw.decode().split("\n")[1:-1]]
        assert code == EXIT_OK and [key for key, _ in rows] == ["0", "1"]
        assert all(v.isdigit() for _, v in rows) and sum(int(v) for _, v in rows) == shots

    def test_register_too_wide(self, tmp_path, capsys):
        code, raw = run(tmp_path, "qpea", "--lambda", "0.3", "--n", "40")
        assert code == EXIT_VALIDATION and raw == b""
        assert capsys.readouterr().err == (
            "error: a 41-qubit circuit exceeds the limit of 12 qubits:"
            " --n must be at most 11\n"
        )

    def test_widest_exact_qpea_holds_no_dense_controlled_powers(self, tmp_path):
        """qpea --n 11, 12 qubits: its controlled powers are 2048 blocks of
        2x2 (64 KiB), not a 4096 x 4096 matrix (256 MiB); the largest array
        is the QFT's 2048 x 2048 matrix (64 MiB). The peak stays at or below
        the 96.4 MiB it read when the powers were 11 controlled gates."""
        tracemalloc.start()
        try:
            code, raw = run(tmp_path, "qpea", "--lambda", "0.3", "--n", "11")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and raw.count(b"\n") == 2**11 + 1
        assert peak <= 96.4 * 2**20

    def test_density_matrix_over_budget_refused_before_allocation(self, tmp_path, capsys):
        """11 register bits and 1 input qubit pass the width limit, but their
        density matrix, 256 MiB, is refused before it is made."""
        noise = tmp_path / "noise.json"
        noise.write_text('{"t1_ns": 30000}')
        tracemalloc.start()
        try:
            code, raw = run(tmp_path, "qpea", "--lambda", "0.3", "--n", "11", "--noise", str(noise))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, raw) == (EXIT_VALIDATION, b"")
        assert capsys.readouterr().err == (
            "error: a 12-qubit density matrix exceeds the limit of 64 MiB:"
            " --n must be at most 10\n"
        )
        assert peak < 10_000_000

    @pytest.mark.parametrize("text", [INFINITE_A, NAN_B], ids=["a-infinite", "b-nan"])
    def test_non_finite_problem_file(self, tmp_path, capsys, text):
        path = tmp_path / "problem.json"
        path.write_text(text)
        code, raw = run(tmp_path, "qpea", "--problem-file", str(path))
        assert code == EXIT_VALIDATION and raw == b""
        assert capsys.readouterr().err == "error: matrix and b must have finite entries\n"

    def test_negative_shots(self, tmp_path, capsys):
        code, raw = run(tmp_path, "qpea", "--lambda", "0.25", "--shots", "-3")
        assert code == EXIT_VALIDATION
        assert raw == b""
        assert capsys.readouterr().err.startswith("error: --shots")

    def test_negative_seed(self, tmp_path, capsys):
        code, raw = run(tmp_path, "qpea", "--lambda", "0.3", "--shots", "10", "--seed", "-1")
        assert (code, raw) == (EXIT_VALIDATION, b"")
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


class TestCompare:
    def test_zero_noise_fidelities(self, tmp_path):
        code, raw = run(tmp_path, "compare")
        assert code == EXIT_OK
        payload = json.loads(raw)
        for row in payload["rows"]:
            for mode in ("original", "hybrid"):
                assert row["modes"][mode]["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_noisy_ordering_and_theory_rows(self, tmp_path):
        noise = tmp_path / "noise.json"
        noise.write_text(
            '{"t1_ns":50000,"cnot_ns":200,"rz_ns":0,"single_ns":60,'
            '"readout_flip":0.0,"idle_damping":true}'
        )
        code, raw = run(tmp_path, "compare", "--noise", str(noise))
        assert code == EXIT_OK
        payload = json.loads(raw)
        by_lambda = {row["lambda"]: row for row in payload["rows"]}
        assert by_lambda[0.25]["modes"]["hybrid"]["fidelity"] > by_lambda[0.25]["modes"]["original"]["fidelity"]
        assert by_lambda[0.25]["theoretical"]["c_plus_sq"] == pytest.approx(0.9, abs=1e-9)
        assert by_lambda[0.5]["theoretical"]["c_plus_sq"] == pytest.approx(0.5, abs=1e-9)

    def test_theory_rows_use_the_shared_x_basis_helper(self, tmp_path):
        lambdas = (0.125, 0.3, 0.5, 0.7)
        code, raw = run(tmp_path, "compare", "--lambdas", ",".join(map(str, lambdas)))
        assert code == EXIT_NOT_REDUCIBLE  # the hybrid at 0.3 and 0.7 is not certified
        for lam, row in zip(lambdas, json.loads(raw)["rows"]):
            x, _ = classical_solution(build_a_lambda(lam))
            plus, minus = solvers.x_basis_weights(StateVector(1, x))
            assert row["theoretical"]["c_plus_sq"] == pytest.approx(plus, abs=1e-15)
            assert row["theoretical"]["c_minus_sq"] == pytest.approx(minus, abs=1e-15)

    def test_modes_report_both_estimators(self, tmp_path):
        f = _files(tmp_path, noise='{"t1_ns": 50000}')
        for extra, rule in (((), "ancilla"), (("--noise", f["noise"]), "uncomputed")):
            code, raw = run(tmp_path, "compare", *extra)
            assert code == EXIT_OK
            for row in json.loads(raw)["rows"]:
                for record in row["modes"].values():
                    assert record["postselection"] == rule
                    assert set(record["estimators"]) == {"ancilla", "uncomputed"}
                    assert record["estimators"][rule]["fidelity"] == record["fidelity"]

    def test_density_budget_names_widest_register(self, tmp_path, capsys):
        f = _files(tmp_path, noise='{"t1_ns": 50000}')
        code, raw = run(tmp_path, "compare", "--n", "10", "--noise", f["noise"])
        assert code == EXIT_VALIDATION and raw == b""
        assert capsys.readouterr().err == (
            "error: a 12-qubit density matrix exceeds the limit of 64 MiB:"
            " --n must be at most 9\n"
        )

    def test_n3_without_noise_reports_null_bound(self, tmp_path):
        code, raw = run(tmp_path, "compare", "--n", "3")
        assert code == EXIT_OK
        for row in json.loads(raw)["rows"]:
            original, hybrid = row["modes"]["original"], row["modes"]["hybrid"]
            assert original["cnot_count"] is None
            assert original["survival_bound"] is None
            assert hybrid["survival_bound"] == pytest.approx(
                survival_bound(hybrid["cnot_count"]), abs=1e-15
            )

    def test_uncertified_hybrid_keeps_every_row(self, tmp_path, capsys):
        code, raw = run(tmp_path, "compare", "--lambdas", "0.25,0.3")
        assert code == EXIT_NOT_REDUCIBLE
        rows = {row["lambda"]: row["modes"] for row in json.loads(raw)["rows"]}
        assert set(rows) == {0.25, 0.3}
        assert rows[0.25]["hybrid"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert rows[0.3]["original"]["cnot_count"] == 28
        assert rows[0.3]["hybrid"]["verdict"] == "not_reducible"
        assert "register size 4" in rows[0.3]["hybrid"]["message"]
        assert capsys.readouterr().err.startswith("not reducible: hybrid at lambda 0.3")

    def test_impossible_outcome_keeps_every_row(self, tmp_path, capsys):
        """Under a T1 so short that every qubit decays fully, no run's ancilla
        reads 1: each mode's row records the error, one error line each,
        and the command exits 1 after writing every row."""
        f = _files(tmp_path, noise='{"t1_ns": 5e-324}')
        code, raw = run(tmp_path, "compare", "--lambdas", "0.25,0.5", "--noise", f["noise"])
        assert code == EXIT_VALIDATION
        rows = {row["lambda"]: row["modes"] for row in json.loads(raw)["rows"]}
        assert set(rows) == {0.25, 0.5}
        for modes in rows.values():
            assert set(modes) == {"original", "hybrid"}
            for record in modes.values():
                assert record == {"verdict": "impossible_outcome",
                                  "message": "outcome 1 on qubit 0 has zero probability"}
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4 and all(line.startswith("error: ") for line in err)
        assert err[0] == "error: original at lambda 0.25: outcome 1 on qubit 0 has zero probability"

    @pytest.mark.parametrize("lambdas", ["0.3,0.03125", "0.03125,0.3"])
    def test_a_row_that_raised_ranks_above_not_reducible(self, tmp_path, lambdas):
        """The hybrid at 0.3 is not certified (exit 2); at 1/32 it certifies a
        register peak on 0...0, which no rotation encodes: exit 1 in either order."""
        code, raw = run(tmp_path, "compare", "--lambdas", lambdas)
        assert code == EXIT_VALIDATION
        rows = {row["lambda"]: row["modes"]["hybrid"] for row in json.loads(raw)["rows"]}
        assert rows[0.3]["verdict"] == "not_reducible"
        assert rows[0.03125]["verdict"] == "impossible_outcome"

    def test_n3_noisy_original_is_a_config_error(self, tmp_path, capsys):
        noise = tmp_path / "noise.json"
        noise.write_text('{"t1_ns":50000}')
        code, _ = run(tmp_path, "compare", "--n", "3", "--noise", str(noise))
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestEmitQasm:
    @pytest.mark.parametrize(
        "circuit,expected", [("original", 28), ("hybrid", 14), ("qpea", 6)]
    )
    def test_cx_line_counts(self, tmp_path, circuit, expected):
        code, raw = run(
            tmp_path, "emit-qasm", "--lambda", "0.25", "--circuit", circuit, "--n", "2"
        )
        assert code == EXIT_OK
        text = raw.decode()
        assert text.startswith("OPENQASM 2.0;")
        assert sum(1 for line in text.splitlines() if line.startswith("cx ")) == expected

    @pytest.mark.parametrize("circuit", ["original", "hybrid"])
    @pytest.mark.parametrize(
        "n,message",
        [("0", "register size must be >= 1"), ("-2", "register size must be >= 1"),
         ("40", "a 42-qubit circuit exceeds the limit of 12 qubits")],
    )
    def test_register_size_checked(self, tmp_path, capsys, circuit, n, message):
        code, raw = run(tmp_path, "emit-qasm", "--lambda", "0.3", "--circuit", circuit, "--n", n)
        assert code == EXIT_VALIDATION and raw == b""
        # a register too wide is refused with the largest that fits
        tail = ": --n must be at most 10" if n == "40" else ""
        assert capsys.readouterr().err == f"error: {message}{tail}\n"

    @pytest.mark.parametrize("n", ["1100", "12"])
    def test_qpea_register_too_wide(self, tmp_path, capsys, n):
        """e^{2 pi i 2^(n-1) A} is never formed: the width check comes first."""
        code, raw = run(tmp_path, "emit-qasm", "--lambda", "0.3", "--circuit", "qpea", "--n", n)
        assert code == EXIT_VALIDATION and raw == b""
        width = int(n) + 1
        assert capsys.readouterr().err == (
            f"error: a {width}-qubit circuit exceeds the limit of 12 qubits:"
            " --n must be at most 11\n"
        )

    def test_qpea_widest_register(self, tmp_path):
        code, raw = run(tmp_path, "emit-qasm", "--lambda", "0.3", "--circuit", "qpea", "--n", "11")
        assert code == EXIT_OK
        assert raw.startswith(b"OPENQASM 2.0;")

    def test_hybrid_not_reducible(self, capsys):
        """At lambda = 0.3, n = 2 the eigenvalue bits 01 and 10 fix no
        position: exit 2, nothing on stdout, the register size named."""
        code = main(["emit-qasm", "--circuit", "hybrid", "--lambda", "0.3", "--n", "2"])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_NOT_REDUCIBLE, "")
        assert err.startswith("not reducible:") and "register size 2" in err

    def test_original_n3_does_not_lower(self, tmp_path, capsys):
        code, raw = run(
            tmp_path, "emit-qasm", "--lambda", "0.3", "--circuit", "original", "--n", "3"
        )
        assert code == EXIT_VALIDATION and raw == b""
        err = capsys.readouterr().err
        assert err == "error: multiplexed Ry supports at most two control qubits\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--lambda", "0.25", "--mode", "hybrid", "--shots", "256", "--seed", "3"],
            ["sweep", "--points", "5", "--k", "2"],
            ["qpea", "--lambda", "0.25", "--n", "2", "--shots", "128", "--seed", "5"],
            ["compare"],
            ["emit-qasm", "--lambda", "0.25", "--circuit", "original"],
        ],
    )
    def test_repeated_invocations_byte_identical(self, tmp_path, argv):
        _, first = run(tmp_path, *argv)
        out_b = tmp_path / "b.txt"
        main(list(argv) + ["--out", str(out_b)])
        assert first == out_b.read_bytes()

    @pytest.mark.parametrize(
        "argv", [["compare", "--lambdas", "0.25,0.5"], ["qpea", "--lambda", "0.3", "--n", "3"]]
    )
    def test_noisy_invocations_byte_identical_with_a_warm_memo(self, tmp_path, argv):
        """A noisy command run twice in one process, first with the shared QFT
        lowerings and DFTs cleared, then with them made, writes the same bytes."""
        noise = tmp_path / "noise.json"
        noise.write_text('{"t1_ns": 30000}')
        circuits._qft_gates.cache_clear()
        circuits._dft.cache_clear()
        cold, warm = (run(tmp_path, *argv, "--noise", str(noise)) for _ in range(2))
        assert cold == warm and cold[0] == EXIT_OK and cold[1]


class TestLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["qpea", "--lambda", "0.25", "--n", "1", "--shots", "10000000000000000000000"],
            ["solve", "--lambda", "0.25", "--mode", "hybrid", "--shots", "100000000000000000000"],
            ["solve", "--lambda", "0.25", "--mode", "original", "--shots", "9223372036854775808"],
        ],
        ids=["qpea", "hybrid", "original-2^63"],
    )
    def test_shots_beyond_the_multinomial(self, tmp_path, capsys, argv):
        """More draws than NumPy's multinomial counts in int64 ended in an
        OverflowError traceback; the flag check refuses them."""
        code, raw = run(tmp_path, *argv, "--seed", "1")
        assert (code, raw) == (EXIT_VALIDATION, b"")
        assert capsys.readouterr().err == f"error: --shots must be in [0, 2^63 - 1], got {argv[-1]}\n"

    def test_largest_shots_drawn(self, tmp_path):
        code, raw = run(tmp_path, "qpea", "--lambda", "0.25", "--n", "1",
                        "--shots", "9223372036854775807", "--seed", "1")
        assert code == EXIT_OK and raw.startswith(b"outcome,value\n0,")

    def test_tiny_t1_decays_without_a_warning(self, tmp_path, capsys):
        """t / T1 beyond the largest float is full decay, gamma = 1, with no
        overflow warning: the QPEA runs, and the original HHL, whose ancilla
        then never reads 1, ends in one error line."""
        noise = tmp_path / "noise.json"
        noise.write_text('{"t1_ns": 5e-324}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(tmp_path, "qpea", "--lambda", "0.25", "--n", "2", "--noise", str(noise))
            assert (code, capsys.readouterr().err) == (EXIT_OK, "")
            code, _ = run(tmp_path, "solve", "--lambda", "0.25", "--mode", "original",
                          "--noise", str(noise))
            err = capsys.readouterr().err
            assert code == EXIT_VALIDATION
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("ns", ["1e300", "1e308"])
    def test_overflowing_durations_decay_fully(self, tmp_path, capsys, ns):
        """Gate durations whose sum overflows the noise clock (1e308) decay
        fully, as those that stay just below it (1e300) do: the QPEA reads
        00 with certainty, and the original HHL, whose ancilla then never
        reads 1, ends in one error line."""
        noise = tmp_path / "noise.json"
        noise.write_text(f'{{"cnot_ns": {ns}, "single_ns": {ns}}}')
        code, raw = run(tmp_path, "qpea", "--lambda", "0.3", "--n", "2", "--noise", str(noise))
        assert (code, raw) == (EXIT_OK, b"outcome,value\n00,1.0\n01,0.0\n10,0.0\n11,0.0\n")
        code, _ = run(tmp_path, "solve", "--lambda", "0.25", "--n", "2", "--noise", str(noise))
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: outcome 1 on qubit 0 has zero probability\n"
