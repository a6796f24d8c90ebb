"""hhlsim benchmark: end-to-end metrics per workload, or per-layer metrics
from a separate traced run.

Run from the root of a source checkout (needs ``src/hhlsim``)::

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload noisy --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload hybrid_random --quick

Workloads (see ``workloads.py`` and ``design.json``): ``sweep``, ``noisy``,
``hybrid_random``. Each is a closed loop with one caller in this process.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:
``setup_s`` (median over fresh interpreters of importing ``hhlsim.cli`` and
building the workload's inputs), ``ops_per_kref``, ``op_ref_p50``,
``op_ref_tail`` (p95 where at least 10 samples lie beyond it, else the
median), ``peak_rss_mb`` and ``ok_frac`` (1 - failed/attempted).

Op times are reported in units of a fixed reference kernel (``ref``; see
``reference.py``) timed right before and after each op: on a shared machine
single-thread speed drifts by up to 2x for tens of seconds, alike for all
code, and the ratio cancels that drift. One ``kref`` is 1000 kernel times.
The raw wall-clock figures (ops/s, ms) are in the report line.

``--trace 1`` runs the ops with every wrapped layer function traced (see
``tracer.py``), runs each op once more untraced right next to it to measure
the tracing overhead, and reports per-op layer metrics. The spans are written to
``.bench_out/<workload>-spans.jsonl``.

``--quick`` runs a few small ops with no time budget; it is the benchmark's
smoke test (``test_bench.py``) and sets no timing bound.

Correctness checks run outside the timed region and feed ``failed``. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the machine, the environment, the seed and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import reference
from tracer import Tracer, layer_metric_unit

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("sweep", "noisy", "hybrid_random")
# ops run before timing so that lazy imports and caches are warm; sweep's
# warm-up pass is also the reference for the byte-identity check
WARMUP_OPS = {"sweep": 1, "noisy": 4, "hybrid_random": 4}
QUICK_OPS = {"sweep": 2, "noisy": 8, "hybrid_random": 8}
SETUP_REPEATS = 5
# the tail metric's percentile, reported only where at least 10 samples lie
# beyond it (p90 sits on a gap between op kinds in noisy's cost distribution,
# where one rank moves it by 10%)
TAIL_PERCENTILE = 95
SUBPROCESS_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "op_ref_p50": "ref",
    "op_ref_tail": "ref",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import ``hhlsim`` from this checkout's ``src`` (never from elsewhere)."""
    if not os.path.isfile(os.path.join(SRC, "hhlsim", "cli.py")):
        fail(f"no hhlsim sources under {SRC}; run from the root of a source checkout")
    sys.path[:0] = [SRC, BENCH]
    import hhlsim.cli  # noqa: F401  (the import set-up time measures)

    if not os.path.abspath(sys.modules["hhlsim"].__file__).startswith(SRC + os.sep):
        fail("hhlsim was imported from outside this checkout")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# environment record


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hhlsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _blas() -> dict | None:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy older than 1.26 has no dict mode
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment(args, hhl_threads: str | None) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_vars": {
            var: os.environ.get(var)
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS",
            )
        },
        "HHL_THREADS_removed": hhl_threads,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(name: str, seed: int, quick: bool, repeats: int) -> list[float]:
    """Time from starting a fresh interpreter until it has imported
    ``hhlsim.cli`` and built the workload's inputs (interpreter exit is not
    counted). One untimed run first fills the bytecode cache. perf_counter is
    the system-wide monotonic clock, so the child's reading compares with ours."""
    code = (
        f"import sys; sys.path[:0] = [{SRC!r}, {BENCH!r}]; import hhlsim.cli, workloads; "
        f"workloads.build({name!r}, {seed}, {quick}, {OUT_DIR!r}).close(); "
        "import time; print(repr(time.perf_counter()))"
    )
    times = []
    for attempt in range(repeats + 1):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            check=True,
            stdout=subprocess.PIPE,
            text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        if attempt:
            times.append(float(proc.stdout) - start)
    return times


@dataclass
class Loop:
    """What one closed loop measured: per op its latency, its record for the
    checks (None when it raised) and the traceback of a raise; and, in timed
    runs, the reference-kernel times taken before the first op and after
    every op."""

    latencies: list = field(default_factory=list)
    references: list = field(default_factory=list)
    records: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    wall_s: float = 0.0

    def __len__(self) -> int:
        return len(self.latencies)

    def costs(self) -> list[float]:
        """Each op's latency in reference-kernel units: over the median of the
        kernel times taken just before and just after it."""
        return [
            latency / statistics.median(self.references[i] + self.references[i + 1])
            for i, latency in enumerate(self.latencies)
        ]


def _keep_going(workload, i: int, begin: float, seconds: float | None, count: int | None) -> bool:
    """``count`` ops, or whole rounds of ``workload.round_size`` ops until
    ``seconds`` of wall time have passed (at least one round)."""
    if count is not None:
        return i < count
    return i % workload.round_size != 0 or i == 0 or perf_counter() - begin < seconds


def _time_op(workload, i: int, loop: Loop, tracer=None) -> None:
    """Prepare op ``i`` untimed, time it (traced when ``tracer`` is given) and
    collect its record into ``loop``."""
    op = workload.prepare(i)
    if tracer is not None:
        tracer.op = i
    start = perf_counter()
    try:
        result = op()
    except Exception:  # an unexpected raise is a failed op, not a crash
        loop.errors[len(loop.records)] = traceback.format_exc(limit=4)
    end = perf_counter()
    if tracer is not None:
        tracer.op = None
    loop.latencies.append(end - start)
    raised = len(loop.records) in loop.errors
    loop.records.append(None if raised else workload.collect(i, result))


def run_loop(workload, seconds: float | None, count: int | None) -> Loop:
    """Closed loop over ops 0, 1, ... (see ``_keep_going``). The reference
    kernel runs before the first op and after every op, outside the op's
    timer."""
    loop = Loop()
    samples = workload.reference_samples
    loop.references.append([reference.timed() for _ in range(samples)])
    begin = perf_counter()
    i = 0
    while _keep_going(workload, i, begin, seconds, count):
        _time_op(workload, i, loop)
        loop.references.append([reference.timed() for _ in range(samples)])
        i += 1
    loop.wall_s = perf_counter() - begin
    return loop


def run_traced_pairs(workload, seconds: float | None, count: int | None, tracer):
    """Closed loop that runs every op twice, traced and untraced, in
    alternating order, so the tracing overhead compares the same ops at the
    same machine speed. Returns the traced and the untraced Loop."""
    traced, plain = Loop(), Loop()
    begin = perf_counter()
    i = 0
    while _keep_going(workload, i, begin, seconds, count):
        if i % 2:
            _time_op(workload, i, plain)
            _time_op(workload, i, traced, tracer)
        else:
            _time_op(workload, i, traced, tracer)
            _time_op(workload, i, plain)
        i += 1
    return traced, plain


def check_loops(workload, loops: list[Loop]) -> list[list[str | None]]:
    """Correctness checks over the records of several loops, in order, on one
    workload object (sweep compares every pass with the first). Returns one
    failure message (or None) per op of each loop; an op that raised fails."""
    records = [r for loop in loops for r in loop.records if r is not None]
    checked = iter(workload.check(records))
    out = []
    for loop in loops:
        messages = []
        for i, record in enumerate(loop.records):
            if record is None:
                messages.append("raised: " + loop.errors[i].strip().splitlines()[-1])
            else:
                messages.append(next(checked))
        out.append(messages)
    return out


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); a single sample is its own percentile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(n_samples: int) -> int:
    """TAIL_PERCENTILE when at least 10 samples lie beyond it, else the median."""
    beyond = n_samples * (100 - TAIL_PERCENTILE) / 100
    return TAIL_PERCENTILE if beyond >= 10 else 50


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(args, workloads_mod):
    repeats = 1 if args.quick else SETUP_REPEATS
    setup_times = measure_setup(args.workload, args.seed, args.quick, repeats)
    workload = workloads_mod.build(args.workload, args.seed, args.quick, OUT_DIR)
    try:
        warm = run_loop(workload, None, WARMUP_OPS[args.workload])
        count = QUICK_OPS[args.workload] if args.quick else None
        timed = run_loop(workload, args.seconds, count)
        warm_failures, failures = check_loops(workload, [warm, timed])
    finally:
        workload.close()
    attempted = len(timed)
    failed = sum(f is not None for f in failures)
    costs = timed.costs()
    tail = tail_percentile(attempted)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_kref": 1e3 * attempted / sum(costs),
        "op_ref_p50": statistics.median(costs),
        "op_ref_tail": percentile(costs, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - failed / attempted,
    }
    metrics = {name: metric(value, END_TO_END_UNITS[name]) for name, value in values.items()}
    report = {
        "setup_samples_s": setup_times,
        "op_samples": attempted,
        "tail_percentile": tail,
        "samples_beyond_tail": sum(c > values["op_ref_tail"] for c in costs),
        "failed_frac": failed / attempted,
        "raw": {
            "ops_per_s": attempted / timed.wall_s,
            "op_ms_p50": 1e3 * statistics.median(timed.latencies),
            "op_ms_tail": 1e3 * percentile(timed.latencies, tail),
            "reference_ms_p50": 1e3 * statistics.median(
                t for sample in timed.references for t in sample
            ),
            "loop_wall_s": timed.wall_s,
        },
    }
    return metrics, report, warm_failures + failures, attempted, failed, workload, [warm, timed]


def traced_run(args, workloads_mod):
    workload = workloads_mod.build(args.workload, args.seed, args.quick, OUT_DIR)
    tracer = Tracer()
    try:
        warm = run_loop(workload, None, WARMUP_OPS[args.workload])
        count = QUICK_OPS[args.workload] if args.quick else None
        tracer.install()
        try:
            traced, plain = run_traced_pairs(workload, args.seconds, count, tracer)
            bindings = tracer.bindings()
        finally:
            tracer.uninstall()
        warm_failures, *failures = check_loops(workload, [warm, traced, plain])
    finally:
        workload.close()
    failures = failures[0] + failures[1]
    overhead = sum(traced.latencies) / sum(plain.latencies) - 1.0
    metrics = {
        name: metric(value, layer_metric_unit(name))
        for name, value in tracer.layer_metrics(len(traced), overhead).items()
    }
    spans_path = os.path.join(OUT_DIR, f"{args.workload}-spans.jsonl")
    tracer.write_spans(spans_path)
    attempted = len(traced) + len(plain)
    failed = sum(f is not None for f in failures)
    report = {
        "traced_ops": len(traced),
        "traced_wall_s": sum(traced.latencies),
        "untraced_wall_s": sum(plain.latencies),
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "cross_thread_parents": tracer.cross_thread_parents(),
        "rebound_bindings": bindings,
        "failed_frac": failed / attempted,
    }
    return metrics, report, warm_failures + failures, attempted, failed, workload, [warm, traced, plain]


def verdicts(workload, loops: list[Loop]) -> dict:
    """Tally of verdicts over every op run, so known behaviour stays visible."""
    tally: dict[str, int] = {}
    for loop in loops:
        for record in loop.records:
            verdict = "raised" if record is None else workload.verdict(record)
            tally[verdict] = tally.get(verdict, 0) + 1
    return tally


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="hhlsim benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="a few small ops, no time budget (smoke test)"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads_mod = import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    # the sweep's default pool size is what gets measured (set-up children
    # inherit the environment without it too)
    hhl_threads = os.environ.pop("HHL_THREADS", None)
    run = traced_run if args.trace else timed_run
    metrics, report, failures, attempted, failed, workload, loops = run(args, workloads_mod)
    report["verdicts"] = verdicts(workload, loops)
    if workload.name == "hybrid_random":
        report["oracle_compared"] = workload.oracle_matches(
            [r for loop in loops for r in loop.records if r is not None]
        )
    report["failures"] = [f for f in failures if f is not None][:20]
    report = {"environment": environment(args, hhl_threads), **report}
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": all(f is None for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
