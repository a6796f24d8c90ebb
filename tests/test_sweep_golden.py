"""The paper's fidelity curves pinned to a recorded CSV.

``data/sweep_199.csv`` is ``hhlsim sweep --points 199 --k 1,2,3`` as
recorded. Running it again must give the same header, the same ``lambda``,
``k`` and ``F_analytic`` fields byte for byte, and ``F_simulated`` and
``abs_err`` within 1e-12.
"""

from pathlib import Path

from hhlsim import cli

_RECORDED = Path(__file__).parent / "data" / "sweep_199.csv"


def test_sweep_matches_recording(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--points", "199", "--k", "1,2,3", "--out", str(out)]) == 0
    got = out.read_text().splitlines()
    want = _RECORDED.read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want) == 1 + 3 * 199
    for g, w in zip(got[1:], want[1:]):
        g_fields, w_fields = g.split(","), w.split(",")
        assert g_fields[:3] == w_fields[:3], (g, w)
        for g_x, w_x in zip(g_fields[3:], w_fields[3:]):
            assert abs(float(g_x) - float(w_x)) <= 1e-12, (g, w)
