"""Fixed reference kernel that measures the machine's current speed.

On a shared machine the wall-clock speed of a single thread can drift by up
to 2x for tens of seconds at a time (co-tenant contention), and it drifts
alike for every kind of code. The benchmark times this kernel next to the
ops and reports op costs in units of the kernel's time measured in the same
stretch of the run, which cancels the drift.

The kernel does what the simulator's hot path does: small complex tensor
contractions with ``moveaxis`` / ``reshape`` and Python-level bookkeeping. It
uses only NumPy and fixed inputs, never ``hhlsim``, so no change to the
program can change its cost.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

QUBITS = 6
ROUNDS = 6

_rng = np.random.default_rng(20180731)
_STATE = _rng.normal(size=2**QUBITS) + 1j * _rng.normal(size=2**QUBITS)
_STATE /= np.linalg.norm(_STATE)
_GATE, _ = np.linalg.qr(_rng.normal(size=(2, 2)) + 1j * _rng.normal(size=(2, 2)))


def kernel() -> float:
    """Apply the fixed gate to every qubit ROUNDS times; returns a checksum."""
    psi = _STATE
    for _ in range(ROUNDS):
        for q in range(QUBITS):
            t = np.moveaxis(psi.reshape((2,) * QUBITS), q, 0)
            t = (_GATE @ t.reshape(2, -1)).reshape((2,) * QUBITS)
            psi = np.moveaxis(t, 0, q).reshape(-1)
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            raise ArithmeticError("reference kernel lost normalization")
    return float(abs(psi[0]))


def timed() -> float:
    """Wall time of one kernel call, in seconds."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
