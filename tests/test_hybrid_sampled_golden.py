"""The sampled hybrid pinned to a recording.

``data/hybrid_sampled.json`` holds, for 32 random perfectly estimated
problems (8 per class (d, n, k), drawn in order from one seeded generator),
``run_hybrid_hhl(p, 1, shots=1024, seed=i)`` on problem i and
``reduced_encoding_equivalence_check(p, n)``: the verdict (``ok`` or the
name of the error raised), the final register size, the QPEA counts, the
estimate's peaks, the CNOT count and the equivalence result exactly, F and
P within 1e-12. Record it again with ``python tests/test_hybrid_sampled_golden.py``.
"""

import json
from pathlib import Path

import numpy as np

from hhlsim import solvers
from hhlsim.errors import HhlError

RECORDED = Path(__file__).parent / "data" / "hybrid_sampled.json"
CLASSES = ((2, 2, 1), (4, 3, 1), (4, 3, 2), (8, 4, 2))
PER_CLASS, SHOTS, TOLERANCE = 8, 1024, 1e-12


def problems():
    """(label, problem, n, seed) of each recorded run, in order."""
    rng = np.random.default_rng(2018)
    for d, n, k in CLASSES:
        for _ in range(PER_CLASS):
            yield f"{d}:{n}:{k}", solvers.random_perfectly_estimated_problem(rng, d, n, k), n


def record() -> list[dict]:
    """One entry per run, as the recording holds it."""
    out = []
    for seed, (label, problem, n) in enumerate(problems()):
        entry = {"class": label, "seed": seed}
        try:
            outcome = solvers.run_hybrid_hhl(problem, 1, shots=SHOTS, seed=seed)
        except HhlError as exc:
            estimate = getattr(exc, "estimate", None)
            entry.update(verdict=type(exc).__name__,
                         peaks=None if estimate is None else estimate.peaks)
        else:
            entry.update(
                verdict="ok", n=outcome.n, counts=outcome.histograms["qpea"].outcomes,
                peaks=outcome.estimate.peaks, cnot_count=outcome.cnot_count,
                fidelity=outcome.fidelity, success_probability=outcome.success_probability,
            )
        entry["equivalent"] = solvers.reduced_encoding_equivalence_check(problem, n)
        out.append(entry)
    return out


def test_sampled_hybrid_matches_recording():
    want = json.loads(RECORDED.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(record()))  # the recording's own types
    assert len(got) == len(want) == len(CLASSES) * PER_CLASS
    for g, w in zip(got, want):
        assert g.keys() == w.keys(), (g, w)
        for field, value in w.items():
            if field in ("fidelity", "success_probability"):
                assert abs(g[field] - value) <= TOLERANCE, (w["seed"], field, g[field], value)
            else:
                assert g[field] == value, (w["seed"], field, g[field], value)


if __name__ == "__main__":
    RECORDED.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
