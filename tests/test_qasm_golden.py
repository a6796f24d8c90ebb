"""Compiled circuits pinned to recorded OpenQASM.

Each file under ``data/qasm`` is ``hhlsim emit-qasm --lambda L --circuit C
--n N`` as recorded, named ``C_nN_lambdaL.qasm``. Each file under
``data/qasm_swap`` is the same circuit built with ``physical_swap=True``,
so its bit-reversal swaps are emitted, which no CLI command does. Emitting
it again must give the same lines: the same gate names on the same qubits,
with angles within 1e-12, and every other line (header, registers,
measures) identical.
"""

import re
from pathlib import Path

import pytest

from hhlsim import circuits, cli, qpe, solvers
from hhlsim.circuits import compile_circuit, emit_qasm
from hhlsim.problem import build_a_lambda

_DATA = Path(__file__).parent / "data" / "qasm"
_FILES = sorted(_DATA.glob("*.qasm"))
_SWAP_FILES = sorted((Path(__file__).parent / "data" / "qasm_swap").glob("*.qasm"))
_NAME = re.compile(r"(original|hybrid|qpea)_n(\d+)_lambda([0-9.]+)\.qasm")
_GATE = re.compile(r"(\w+)\(([^)]*)\) (.*);")


def _split(line):
    """(name and qubits, angle) of a parametric gate line, else (line, None)."""
    m = _GATE.fullmatch(line)
    if m is None:
        return line, None
    return f"{m.group(1)} {m.group(3)}", float(m.group(2))


def test_all_recorded_circuits_present():
    assert len(_FILES) == 15
    assert len(_SWAP_FILES) == 2


@pytest.mark.parametrize("path", _FILES, ids=lambda p: p.stem)
def test_emit_qasm_matches_recording(path, tmp_path):
    circuit, n, lam = _NAME.fullmatch(path.name).groups()
    out = tmp_path / "out.qasm"
    argv = ["emit-qasm", "--lambda", lam, "--circuit", circuit, "--n", n, "--out", str(out)]
    assert cli.main(argv) == 0
    _assert_same_qasm(out.read_text(), path.read_text())


@pytest.mark.parametrize("path", _SWAP_FILES, ids=lambda p: p.stem)
def test_physical_swap_lowering_matches_recording(path):
    circuit, n, lam = _NAME.fullmatch(path.name).groups()
    problem, n = build_a_lambda(float(lam)), int(n)
    if circuit == "qpea":
        built = qpe.build_qpe(problem, n, physical_swap=True)
    else:
        spec = solvers.build_aqe(problem, n)
        built = solvers.build_hhl_circuit(problem, n, spec, physical_swap=True)
    _assert_same_qasm(emit_qasm(compile_circuit(built)), path.read_text())


@pytest.mark.parametrize("path", _FILES + _SWAP_FILES, ids=lambda p: f"{p.parent.name}-{p.stem}")
def test_compiles_alike_with_a_cold_and_a_warm_memo(path):
    """The QFT's lowering is made once per shape and shared: every recorded
    circuit compiles to the same gates with the memo cleared and with it
    filled, and emits its recording."""
    circuit, n, lam = _NAME.fullmatch(path.name).groups()
    problem, n, swap = build_a_lambda(float(lam)), int(n), path in _SWAP_FILES
    if circuit == "qpea":
        built = qpe.build_qpe(problem, n, physical_swap=swap)
    else:
        spec = solvers.build_aqe(problem, n)
        if circuit == "hybrid":
            spec = solvers.synthesize_reduced_aqe(solvers.estimate_from_spectral(problem, n), spec.c)
        built = solvers.build_hhl_circuit(problem, n, spec, physical_swap=swap)
    circuits._qft_gates.cache_clear()
    cold = compile_circuit(built)
    warm = compile_circuit(built)
    assert cold.gates == warm.gates
    _assert_same_qasm(emit_qasm(warm), path.read_text())


def _assert_same_qasm(got_text, want_text):
    got, want = got_text.splitlines(), want_text.splitlines()
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        (g_op, g_angle), (w_op, w_angle) = _split(g), _split(w)
        assert g_op == w_op, (i, g, w)
        if w_angle is not None:
            assert abs(g_angle - w_angle) <= 1e-12, (i, g, w)
