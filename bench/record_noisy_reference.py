"""Record the reference values the ``noisy`` workload is checked against.

Runs every (config, lambda) pair of the noisy pool once and writes
``bench/data/noisy_reference.json``: per pair the verdict (``ok`` or the
name of the ``HhlError`` raised) and, for ``ok``, the final register size,
F, P and the CNOT count. Run from the root of a source checkout::

    python3 bench/record_noisy_reference.py

Re-recording is a change to the benchmark: do it only when the program's
noisy results are meant to change, and say why.
"""

from __future__ import annotations

import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import workloads  # noqa: E402


def main() -> int:
    results = {}
    for mode, n in workloads.NOISY_CONFIGS:
        for j in range(1, workloads.NOISY_LAMBDA_DENOMINATOR):
            summary = workloads.noisy_summary(workloads.noisy_call(mode, n, j)())
            results[workloads.noisy_key(mode, n, j)] = summary
    payload = {
        "description": "noisy workload reference: verdict, n, F, P, cnot_count per "
        "(mode:register size:j), lambda = j/32, default NoiseParams",
        "results": results,
    }
    with open(workloads.NOISY_REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
