"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``hhlsim`` modules from the outside:
for each listed function it rebinds *every* module-level binding of that
function object, so names imported with ``from ... import`` (for example
``classical_solution`` in ``solvers`` and ``cli``) are traced too. Nothing
under ``src/`` is edited.

Each call becomes one span ``(id, name, start, end, parent, op, thread,
failed)``. Spans are kept in memory and summarized (and written out) when the
run ends. A span opened on a thread that has no open span of its own (a
worker of the sweep's thread pool) is parented to the innermost span open on
the caller's thread at that moment, which in ``sweep`` is ``cli.main``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# Layer -> public functions wrapped in the traced run. Layer names are the
# package modules.
WRAPPED = {
    "cli": ("main",),
    "solvers": (
        "run_original_hhl",
        "run_hybrid_hhl",
        "analyze_qpea",
        "synthesize_reduced_aqe",
        "build_hhl_circuit",
        "reduced_encoding_equivalence_check",
    ),
    "qpe": ("register_distribution_exact", "run_qpea", "qpea_distribution_noisy"),
    "circuits": ("compile_circuit",),
    "noise": ("run_noisy", "damping_channel"),
    "qstate": (
        "apply_unitary",
        "apply_controlled",
        "postselect",
        "partial_trace",
        "exact_distribution",
    ),
    "problem": (
        "build_a_lambda",
        "spectral_decompose",
        "classical_solution",
        "unitary_power",
    ),
    "oracles": ("fidelity_closed_form",),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns)

UNITS = {
    "calls": "count/op",
    "self_ms": "ms/op",
    "failed": "count/op",
    "gates_out": "count/op",
    "qpea_per_solve": "count",
    "reducible_frac": "fraction",
    "overhead_frac": "fraction",
}


def layer_metric_unit(name: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    return UNITS[name.rsplit(".", 1)[1]]


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None  # id of the op being timed; None records nothing
        self.gates_out = 0
        self.reducible = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._hook_lock = threading.Lock()
        self._caller_thread = None
        self._caller_stack: list[int] = []
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _hooks(self, name, result) -> bool:
        """Count derived quantities; returns whether the call counts as failed."""
        if name == "cli.main":
            return result != 0
        if name == "circuits.compile_circuit":
            with self._hook_lock:
                self.gates_out += len(result.gates)
        elif name == "solvers.analyze_qpea" and result.reducible:
            with self._hook_lock:
                self.reducible += 1
        return False

    def _wrap(self, name: str, fn):
        index = FUNCTIONS.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._caller_thread and self._caller_stack:
                parent = self._caller_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                if not failed:
                    failed = self._hooks(name, result)
                self.spans.append(
                    (sid, index, start, end, parent, self.op, threading.get_ident(), failed)
                )
            return result

        return traced

    def install(self) -> None:
        """Rebind every module-level binding of each wrapped function."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self._caller_thread = threading.get_ident()
        self._caller_stack = self._stack()
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "hhlsim" or key.startswith("hhlsim."))
        ]
        for layer, fns in WRAPPED.items():
            home = sys.modules[f"hhlsim.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def bindings(self) -> list[str]:
        """``module.attr`` of every rebound binding (for the run report)."""
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._restore)

    # -----------------------------------------------------------------------
    # summary

    def self_times(self) -> list[float]:
        """Self time of each span: its duration minus the union of its
        children's intervals (children may overlap when they run on several
        threads)."""
        children = defaultdict(list)
        for sid, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for sid, _, start, end, *_ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out.append(end - start - covered)
        return out

    def cross_thread_parents(self) -> dict:
        """Name of the parent of every span whose parent ran on another thread,
        counted by parent name."""
        by_id = {span[0]: span for span in self.spans}
        counts: dict[str, int] = defaultdict(int)
        for _, _, _, _, parent, _, thread, _ in self.spans:
            if parent is not None and by_id[parent][6] != thread:
                counts[FUNCTIONS[by_id[parent][1]]] += 1
        return dict(counts)

    def layer_metrics(self, n_ops: int, overhead_frac: float) -> dict[str, float]:
        """Per-op layer metrics: calls, self_ms and failed of every wrapped
        function, and the derived counters."""
        calls = [0] * len(FUNCTIONS)
        failed = [0] * len(FUNCTIONS)
        self_s = [0.0] * len(FUNCTIONS)
        for span, own in zip(self.spans, self.self_times()):
            index = span[1]
            calls[index] += 1
            failed[index] += span[7]
            self_s[index] += own
        metrics = {}
        for index, name in enumerate(FUNCTIONS):
            metrics[f"{name}.calls"] = calls[index] / n_ops
            metrics[f"{name}.self_ms"] = 1e3 * self_s[index] / n_ops
            metrics[f"{name}.failed"] = failed[index] / n_ops
        hybrid_calls = calls[FUNCTIONS.index("solvers.run_hybrid_hhl")]
        analyses = calls[FUNCTIONS.index("solvers.analyze_qpea")]
        metrics["circuits.compile_circuit.gates_out"] = self.gates_out / n_ops
        metrics["solvers.hybrid.qpea_per_solve"] = (
            analyses / hybrid_calls if hybrid_calls else 0.0
        )
        metrics["solvers.hybrid.reducible_frac"] = (
            self.reducible / analyses if analyses else 0.0
        )
        metrics["trace.overhead_frac"] = overhead_frac
        return metrics

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start_s, end_s, id, parent, op,
        thread, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, index, start, end, parent, op, thread, failed in self.spans:
                fh.write(
                    json.dumps(
                        [FUNCTIONS[index], start, end, sid, parent, op, thread, failed]
                    )
                    + "\n"
                )
