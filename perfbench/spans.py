"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the program from the
outside: a module-level function is replaced in every ``repro`` module
that holds a reference to it (and in ``os`` for ``os.fsync``), a method is
replaced on the class that defines it.  Nothing under ``src/`` changes.

Spans nest.  Each one records its name, start, end, the span that caused
it and the op it belongs to; a span's self time is its duration minus the
time its child spans cover.  Spans are recorded only inside an op and only
on the main thread, and are kept in memory until :meth:`write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from array import array
from collections import defaultdict

#: Span name -> (module, attribute path).  ``kernels.dijkstra`` is resolved
#: at install time to the active compute kernel's class.
SPAN_TARGETS = {
    "lp.solve_fractional_ufp": ("repro.lp.fractional_ufp", "solve_fractional_ufp"),
    "lp.solve_lp": ("repro.lp.solver", "solve_lp"),
    "core.bounded_ufp": ("repro.core.bounded_ufp", "bounded_ufp"),
    "core.PathPricingEngine.select": ("repro.core.pricing_engine", "PathPricingEngine.select"),
    "core.PathPricingEngine.commit": ("repro.core.pricing_engine", "PathPricingEngine.commit"),
    "core.PathPricingEngine.add_requests": (
        "repro.core.pricing_engine",
        "PathPricingEngine.add_requests",
    ),
    "core.DualWeights.apply_selection": ("repro.core.dual_state", "DualWeights.apply_selection"),
    "core.TraceReplayer.probe_selected": ("repro.core.trace", "TraceReplayer.probe_selected"),
    "mechanism.compute_ufp_payments": ("repro.mechanism.payments", "compute_ufp_payments"),
    "kernels.dijkstra": ("repro.kernels", None),
    "partition.partitioned_bounded_ufp": ("repro.partition.solver", "partitioned_bounded_ufp"),
    "scenarios.build_cell_instance": ("repro.scenarios.regimes", "build_cell_instance"),
    "scenarios.run_cell": ("repro.scenarios.runner", "run_cell"),
    "scenarios.ResultStore.append": ("repro.scenarios.store", "ResultStore.append"),
    "online.OnlineAuction.submit": ("repro.online.auction", "OnlineAuction.submit"),
    "service.JobQueue.submit": ("repro.service.queue", "JobQueue.submit"),
    "service.JobQueue.lease": ("repro.service.queue", "JobQueue.lease"),
    "service.JobQueue.complete": ("repro.service.queue", "JobQueue.complete"),
    "service.WriteAheadLog.append": ("repro.service.wal", "WriteAheadLog.append"),
    "service.Supervisor.load_result": ("repro.service.supervisor", "Supervisor.load_result"),
    "os.fsync": ("os", "fsync"),
}

#: Solvers whose returned allocation carries the engine counters.
SOLVER_SPANS = ("core.bounded_ufp", "partition.partitioned_bounded_ufp")

ENGINE_COUNTERS = (
    "dijkstra_calls",
    "tree_reuses",
    "warm_start_hits",
    "repricings",
    "trees_invalidated",
    "memo_evictions",
)


def _resolve(name):
    """``(owner, attribute, original)`` for one span target, or ``None``
    when the program no longer has it (the span then reports zero)."""
    module_name, path = SPAN_TARGETS[name]
    try:
        owner = importlib.import_module(module_name)
        if path is None:  # the active kernel's dijkstra
            owner, path = type(owner.get_kernel()), "dijkstra"
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        return owner, attribute, getattr(owner, attribute)
    except (ImportError, AttributeError):
        return None


class SpanRecorder:
    """Records nested spans inside ops and aggregates them per name."""

    def __init__(self):
        self.names = list(SPAN_TARGETS)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.main_thread().ident
        self._stack: list[list] = []  # [span index, seconds in child spans]
        self.op = -1
        self._in_op = False
        self._op_start = 0.0
        # Kept spans, one entry per array: name id, op, parent span index
        # (-1 at the top of an op), start and end in seconds.
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.op_s = 0.0
        self.ops = 0
        self.counters: dict[str, float] = defaultdict(float)
        self._op_counters: dict[str, float] = {}
        self._solver_depth = 0

    # -------------------------------------------------------------- #
    # Installation
    # -------------------------------------------------------------- #
    def install(self) -> None:
        for name_id, name in enumerate(self.names):
            resolved = _resolve(name)
            if resolved is None:
                self.missing.append(name)
                continue
            owner, attribute, original = resolved
            wrapper = self._wrap(name_id, name, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, wrapper)
                continue
            # A module-level function: replace every reference to it.
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == "repro" or module_name.startswith("repro.")
                    or module is owner
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attribute, wrapper) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _wrap(self, name_id: int, name: str, fn):
        recorder = self
        stack = self._stack
        clock = time.perf_counter
        is_solver = name in SOLVER_SPANS
        is_lp = name == "lp.solve_lp"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder._in_op or threading.get_ident() != recorder._main:
                return fn(*args, **kwargs)
            if is_lp and args:
                recorder._count_lp(args[0])
            if is_solver:
                recorder._solver_depth += 1
            index = len(recorder.span_start)
            parent = stack[-1][0] if stack else -1
            recorder.span_name.append(name_id)
            recorder.span_op.append(recorder.op)
            recorder.span_parent.append(parent)
            start = clock()
            recorder.span_start.append(start)
            recorder.span_end.append(start)
            frame = [index, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                recorder.span_end[index] = end
                recorder.calls[name_id] += 1
                recorder.self_s[name_id] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if is_solver:
                    recorder._solver_depth -= 1
            if is_solver and recorder._solver_depth == 0:
                recorder._count_engine(result)
            return result

        return wrapper

    # -------------------------------------------------------------- #
    # Ops and counters
    # -------------------------------------------------------------- #
    def begin_op(self) -> None:
        self.op += 1
        self._op_counters = defaultdict(float)
        self._op_calls = list(self.calls)
        self._in_op = True
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self.op_s += time.perf_counter() - self._op_start
        self._in_op = False
        self.ops += 1
        for key, value in self._op_counters.items():
            self.counters[key] += value

    def add(self, key: str, value: float) -> None:
        """Add an op counter read from a public output (call inside or
        right after an op, before the next :meth:`begin_op`)."""
        self._op_counters[key] += float(value)
        if not self._in_op:
            self.counters[key] += float(value)

    def last_op_counts(self) -> dict[str, float]:
        """The last op's counters and span call counts (exact values)."""
        counts = {f"{name}.calls": float(self.calls[i] - self._op_calls[i])
                  for i, name in enumerate(self.names)}
        counts.update(self._op_counters)
        return counts

    def _count_lp(self, program) -> None:
        self._op_counters["lp.variables"] += float(program.num_variables)
        self._op_counters["lp.rows"] += float(
            program.num_le_constraints + program.num_eq_constraints
        )

    def _count_engine(self, allocation) -> None:
        extra = getattr(getattr(allocation, "stats", None), "extra", None) or {}
        for key in ENGINE_COUNTERS:
            self._op_counters[f"engine.{key}"] += float(extra.get(f"pricing_{key}", 0.0))

    # -------------------------------------------------------------- #
    # Output
    # -------------------------------------------------------------- #
    def span_metrics(self) -> dict[str, float]:
        ops = max(1, self.ops)
        metrics: dict[str, float] = {}
        for i, name in enumerate(self.names):
            metrics[f"{name}.calls_per_op"] = self.calls[i] / ops
            metrics[f"{name}.self_ms_per_op"] = 1e3 * self.self_s[i] / ops
        metrics["trace.unattributed_ms_per_op"] = (
            1e3 * (self.op_s - sum(self.self_s)) / ops
        )
        return metrics

    def write(self, path) -> None:
        """Write the kept spans as JSON lines: a header object, then one
        ``[name, op, parent, start_us, dur_us]`` row per span, where
        ``name`` indexes the header's names and ``parent`` the rows."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "names": self.names,
                "missing": self.missing,
                "columns": ["name", "op", "parent", "start_us", "dur_us"],
            }) + "\n")
            for i in range(len(self.span_start)):
                start = self.span_start[i]
                handle.write(
                    f"[{self.span_name[i]},{self.span_op[i]},{self.span_parent[i]},"
                    f"{1e6 * start:.1f},{1e6 * (self.span_end[i] - start):.1f}]\n"
                )
