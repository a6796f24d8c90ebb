"""The noisy solves against their recorded reference.

``bench/data/noisy_reference.json`` holds, for each of 124 noisy solves
(key ``mode:register size:j``, lambda = j / 32, default ``NoiseParams``),
the verdict: ``ok`` or the name of the error raised, and for ``ok`` the
final register size, the CNOT count, F and P. The file is only read here.
"""

import json
from pathlib import Path

from hhlsim import solvers
from hhlsim.errors import HhlError
from hhlsim.noise import NoiseParams
from hhlsim.problem import build_a_lambda

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "data" / "noisy_reference.json"
TOLERANCE = 1e-12


def test_every_noisy_solve_matches_its_reference():
    results = json.loads(REFERENCE.read_text(encoding="utf-8"))["results"]
    assert len(results) == 124
    mismatches = []
    for key, want in sorted(results.items()):
        mode, n, j = key.split(":")
        run = {"original": solvers.run_original_hhl, "hybrid": solvers.run_hybrid_hhl}[mode]
        try:
            outcome = run(build_a_lambda(int(j) / 32), int(n), noise=NoiseParams())
        except HhlError as exc:
            got = {"verdict": type(exc).__name__}
        else:
            got = {
                "verdict": "ok", "n": outcome.n, "cnot_count": outcome.cnot_count,
                "fidelity": outcome.fidelity, "success_prob": outcome.success_probability,
            }
        if got.keys() != want.keys():
            mismatches.append((key, got, want))
            continue
        for field, value in want.items():
            exact = field in ("verdict", "n", "cnot_count")
            if (got[field] != value) if exact else abs(got[field] - value) > TOLERANCE:
                mismatches.append((key, field, got[field], value))
    assert not mismatches, mismatches[:5]

