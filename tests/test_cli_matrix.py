"""The paper's commands over the paper's grid: every lambda = j/32,
j = 1..31, at register sizes 1..4, exactly and under the noise G below.

``cli.main`` runs each case in process. A case passes when it ends in exit
0 or 2, with no ``error:`` line on stderr and no exception. A case that ends
in exit 1 today for an open ROADMAP item carries a strict xfail naming it,
one mark per lambda, so the mark turns red the day that item lands.
"""

import contextlib
import io
import json

import pytest

from hhlsim import cli

G = {"t1_ns": 30000, "readout_flip": 0.01}
LAMBDAS = range(1, 32)  # j of lambda = j/32
REGISTERS = range(1, 5)
COMMANDS = {
    "original": ["solve", "--mode", "original"],
    "original-G": ["solve", "--mode", "original", "--noise", "G"],
    "hybrid": ["solve", "--mode", "hybrid"],
    "hybrid-G": ["solve", "--mode", "hybrid", "--noise", "G"],
    "qpea-G": ["qpea", "--noise", "G"],
    "emit-qasm-original": ["emit-qasm", "--circuit", "original"],
    "emit-qasm-hybrid": ["emit-qasm", "--circuit", "hybrid"],
}

# "outcome 1 on qubit 0 has zero probability": the hybrid certifies a
# register peak on 0...0, which no rotation encodes
ZERO_PEAK = "ROADMAP item 2 (b)"
# "multiplexed Ry supports at most two control qubits": the original
# encoding does not lower at n >= 3, nor the hybrid's with three free bits
# (n = 4, j = 2 mod 4)
MRY_CONTROLS = "ROADMAP item 9"
ALL = frozenset(LAMBDAS)
KNOWN = {  # (command, n) -> (the js that end in exit 1, why)
    ("original-G", 3): (ALL, MRY_CONTROLS),
    ("original-G", 4): (ALL, MRY_CONTROLS),
    ("hybrid", 1): ({1, 2, 30, 31}, ZERO_PEAK),
    ("hybrid", 2): ({1, 31}, ZERO_PEAK),
    ("hybrid-G", 1): ({1, 31}, ZERO_PEAK),
    ("hybrid-G", 2): ({1, 31}, ZERO_PEAK),
    ("emit-qasm-original", 3): (ALL, MRY_CONTROLS),
    ("emit-qasm-original", 4): (ALL, MRY_CONTROLS),
    ("emit-qasm-hybrid", 4): (set(range(2, 32, 4)), MRY_CONTROLS),
    # compare runs the whole grid, and stops at its first lambda in exit 1
    ("compare", 1): ({"grid"}, ZERO_PEAK),
    ("compare", 2): ({"grid"}, ZERO_PEAK),
    ("compare-G", 1): ({"grid"}, ZERO_PEAK),
    ("compare-G", 2): ({"grid"}, ZERO_PEAK),
    ("compare-G", 3): ({"grid"}, MRY_CONTROLS),
    ("compare-G", 4): ({"grid"}, MRY_CONTROLS),
}


def _case(command, n, j, argv):
    js, reason = KNOWN.get((command, n), ((), None))
    marks = [pytest.mark.xfail(strict=True, reason=reason, raises=AssertionError)]
    return pytest.param(argv, id=f"{command}-n{n}-j{j}", marks=marks if j in js else [])


CASES = [
    _case(command, n, j, [*argv, "--lambda", repr(j / 32), "--n", str(n)])
    for command, argv in COMMANDS.items()
    for n in REGISTERS
    for j in LAMBDAS
]
GRID = ",".join(repr(j / 32) for j in LAMBDAS)
COMPARES = [
    _case(command, n, "grid", ["compare", "--lambdas", GRID, "--n", str(n), *noise])
    for command, noise in (("compare", []), ("compare-G", ["--noise", "G"]))
    for n in REGISTERS
]


@pytest.fixture(scope="module")
def noise_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("matrix") / "g.json"
    path.write_text(json.dumps(G))
    return str(path)


@pytest.mark.parametrize("argv", CASES + COMPARES)
def test_ends_in_exit_0_or_2(argv, noise_file):
    argv = [noise_file if a == "G" else a for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception here is a traceback, not an xfail
    lines = err.getvalue().splitlines()
    assert (code == 1) == any(line.startswith("error:") for line in lines), lines
    assert code in (0, 2), lines
