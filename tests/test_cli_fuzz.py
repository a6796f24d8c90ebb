"""Fuzz the command line: every argv ends in a documented exit code.

``cli.main`` runs in process on argv drawn from a grammar of valid, edge and
malformed values for each subcommand's flags. Whatever the input, the exit
code is 0, 1 or 2, no exception escapes, exit 1 leaves an ``error:`` line and
exit 2 a ``not reducible:`` line on stderr.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhlsim import cli


def _matrix(a, b):
    return {
        "kind": "matrix", "dim": len(b),
        "a_real": a, "a_imag": [[0] * len(b) for _ in b],
        "b_real": b, "b_imag": [0] * len(b),
    }


_D4 = [[0.3, 0.05, 0, 0], [0.05, 0.4, 0, 0], [0, 0, 0.6, 0.1], [0, 0, 0.1, 0.7]]
PROBLEM_FILES = {
    "lambda": {"kind": "lambda", "lambda": 0.25},
    "diag-plus": _matrix([[0.25, 0], [0, 0.75]], [0.5**0.5, 0.5**0.5]),
    "d4-zero-b": _matrix(_D4, [1, 0, 0, 0]),
    "d4-spread-b": _matrix(_D4, [0.5, 0.5, 0.5, 0.5]),
    "singular": _matrix([[0.5, 0.5], [0.5, 0.5]], [1, 0]),
    "malformed": "{not json",
}
NOISE_FILES = {
    "valid": {"t1_ns": 30000, "readout_flip": 0.01},
    "zero-noise": {"t1_ns": 1e18},
    "tiny-t1": {"t1_ns": 1e-300},
    "huge-durations": {"cnot_ns": 1e308, "single_ns": 1e308},
    "not-an-object": [1],
    "negative-t1": {"t1_ns": -5},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths of the problem and noise files by name, plus a missing one."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"missing": str(root / "missing.json")}
    for group, specs in (("problem", PROBLEM_FILES), ("noise", NOISE_FILES)):
        for name, spec in specs.items():
            path = root / f"{group}-{name}.json"
            path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
            paths[f"{group}:{name}"] = str(path)
    return paths


def _flag(name, values):
    """``[name, value]`` for a drawn value, or nothing."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, str(v)]))


LAMBDAS = ["0.25", "0.3", "0.5", "0.03125", "0.7", "0", "1", "-0.5", "nan", "inf", "abc"]
REGISTERS = [-2, -1, 0, 1, 2, 3, 4, 5, 13, 40, "two"]
SHOTS = [0, 10, -1, 2**63]
SEEDS = [0, 7, -1]
PROBLEMS = ["problem:" + name for name in PROBLEM_FILES] + ["missing"]
NOISES = ["noise:" + name for name in NOISE_FILES] + ["missing"]


@st.composite
def argvs(draw, files):
    command = draw(st.sampled_from(["solve", "sweep", "qpea", "compare", "emit-qasm", "bogus"]))
    argv = [command]
    if command in ("solve", "qpea", "emit-qasm"):
        argv += draw(_flag("--lambda", LAMBDAS))
        argv += draw(_flag("--problem-file", [files[k] for k in PROBLEMS]))
        argv += draw(_flag("--n", REGISTERS))
    if command in ("solve", "qpea"):
        argv += draw(_flag("--shots", SHOTS))
        argv += draw(_flag("--seed", SEEDS))
    if command in ("solve", "qpea", "compare"):
        argv += draw(_flag("--noise", [files[k] for k in NOISES]))
    if command == "solve":
        argv += draw(_flag("--mode", ["original", "hybrid", "classical"]))
        argv += draw(_flag("--tau", [0.05, 0.5, 0, -1, 2, "nan"]))
        argv += draw(_flag("--coverage", [0.9, 0.5, 0, 1.5, "nan"]))
        argv += draw(_flag("--max-n", [-1, 0, 2, 4, 6]))
    if command == "sweep":
        argv += draw(_flag("--points", [-1, 0, *range(1, 21), "many"]))
        argv += draw(_flag("--k", ["1", "3", "1,2,3", "2,2", "", "0", "4", "1,x"]))
    if command == "compare":
        argv += draw(_flag("--lambdas", ["0.25,0.5", "0.3", "0.125,0.75", "", "1.5", "nan", "x"]))
        argv += draw(_flag("--n", REGISTERS))
    if command == "emit-qasm":
        argv += draw(_flag("--circuit", ["original", "hybrid", "qpea", "bogus"]))
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_argv_ends_in_a_documented_exit(files, data):
    argv = data.draw(argvs(files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NOT_REDUCIBLE), (argv, code)
    if code == cli.EXIT_VALIDATION:
        assert "error:" in stderr, (argv, stderr)
    if code == cli.EXIT_NOT_REDUCIBLE:
        assert "not reducible:" in stderr, (argv, stderr)
