"""Per-layer tracing by attribute replacement.

``Tracer.install`` replaces public functions of the six secalloc modules
with timing wrappers and ``Tracer.uninstall`` puts the originals back;
nothing under ``src/`` changes. Two kinds of wrapper are used:

* span wrappers at the coarse boundaries (``cli.main``, solver entry
  points, ADMM subproblems and bus, water-filling, parse and write) record
  one span ``(id, name, start, end, parent)`` per call, kept in memory;
* kernel wrappers (probability weighting, marginals, losses, projections,
  thresholds) only add to aggregated counts and times, because a run makes
  millions of these calls.

Self time is a call's duration minus the time its wrapped children took.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Tuple

import secalloc.admm
import secalloc.centralized
import secalloc.cli
import secalloc.model
import secalloc.scenario_io
import secalloc.waterfill

_MODULES = {
    "model": secalloc.model,
    "centralized": secalloc.centralized,
    "admm": secalloc.admm,
    "waterfill": secalloc.waterfill,
    "scenario_io": secalloc.scenario_io,
    "cli": secalloc.cli,
}

# (metric name, function's home module, attribute, modules that call it by
# that name). A function imported by name into another module is replaced
# there too, or calls made from that module would escape the trace.
_KERNELS = [
    ("model.marginal", "model", "marginal_perceived_cost", ("centralized", "admm", "waterfill")),
    ("model.prelec_weight", "model", "prelec_weight", ("model", "centralized", "admm")),
    ("model.perceived_loss", "model", "perceived_loss", ("centralized", "admm")),
    ("model.true_loss", "model", "true_loss", ("centralized", "admm")),
    ("centralized.project_box_sum", "centralized", "project_box_sum", ("centralized", "admm")),
    ("centralized.project_capped_sum", "centralized", "project_capped_sum", ("centralized",)),
    ("waterfill.threshold", "waterfill", "threshold", ("waterfill",)),
]
_SPANS = [
    ("cli.main", "cli", "main"),
    ("centralized.solve_op_a", "centralized", "solve_op_a"),
    ("centralized.solve_op_b", "centralized", "solve_op_b"),
    ("admm.run_admm", "admm", "run_admm"),
    ("admm.target_subproblem", "admm", "target_subproblem"),
    ("admm.source_subproblem", "admm", "source_subproblem"),
    ("admm.message_bus_round", "admm", "message_bus_round"),
    ("waterfill.waterfill_allocate", "waterfill", "waterfill_allocate"),
    ("waterfill.build_threshold_table", "waterfill", "build_threshold_table"),
    ("scenario_io.parse_scenario", "scenario_io", "parse_scenario"),
    ("scenario_io.write_csv", "scenario_io", "write_sweep_csv"),
    ("scenario_io.write_csv", "scenario_io", "write_trace_csv"),
]

# per-layer metrics, in report order: (name, unit)
PER_LAYER: List[Tuple[str, str]] = [
    ("model.marginal.calls", "count"),
    ("model.marginal.self_s", "s"),
    ("model.prelec_weight.calls", "count"),
    ("model.prelec_weight.self_s", "s"),
    ("model.perceived_loss.calls", "count"),
    ("model.perceived_loss.self_s", "s"),
    ("model.true_loss.calls", "count"),
    ("model.true_loss.self_s", "s"),
    ("centralized.project_box_sum.calls", "count"),
    ("centralized.project_box_sum.self_s", "s"),
    ("centralized.project_capped_sum.calls", "count"),
    ("centralized.project_capped_sum.self_s", "s"),
    ("centralized.dykstra_cycles", "count"),
    ("centralized.pgd_iterations", "count"),
    ("centralized.solve_op_a.calls", "count"),
    ("centralized.solve_op_a.self_s", "s"),
    ("centralized.solve_op_b.calls", "count"),
    ("centralized.solve_op_b.self_s", "s"),
    ("waterfill.waterfill_allocate.calls", "count"),
    ("waterfill.waterfill_allocate.self_s", "s"),
    ("waterfill.build_threshold_table.self_s", "s"),
    ("waterfill.threshold.calls", "count"),
    ("waterfill.threshold.self_s", "s"),
    ("waterfill.marginal.calls", "count"),
    ("admm.run_admm.calls", "count"),
    ("admm.run_admm.self_s", "s"),
    ("admm.rounds", "count"),
    ("admm.target_subproblem.calls", "count"),
    ("admm.target_subproblem.self_s", "s"),
    ("admm.source_subproblem.calls", "count"),
    ("admm.source_subproblem.self_s", "s"),
    ("admm.message_bus_round.calls", "count"),
    ("admm.message_bus_round.self_s", "s"),
    ("admm.marginal.calls", "count"),
    ("scenario_io.parse_scenario.calls", "count"),
    ("scenario_io.parse_scenario.self_s", "s"),
    ("scenario_io.parse_scenario.bytes", "B"),
    ("scenario_io.write_csv.calls", "count"),
    ("scenario_io.write_csv.self_s", "s"),
    ("scenario_io.write_csv.bytes", "B"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Timing wrappers, their aggregated stats and the recorded spans."""

    def __init__(self) -> None:
        # each frame is [child seconds, id of the innermost enclosing span]
        self._stack: List[list] = [[0.0, None]]
        self._stats: Dict[str, list] = {}  # name -> [calls, self seconds]
        self._counts: Dict[str, float] = {}
        self.spans: List[tuple] = []
        self._op_b: List[list] = []  # open solve_op_b calls: [box calls, nodes]
        self._originals: List[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self._stats.setdefault(name, [0, 0.0])

    def _count(self, key: str, amount: float) -> None:
        self._counts[key] = self._counts.get(key, 0.0) + amount

    def _kernel(self, name: str, fn: Callable, caller: str) -> Callable:
        stack, stat, clock = self._stack, self._stat(name), time.perf_counter
        if name == "model.marginal" and caller in ("admm", "waterfill"):
            caller_count = self._stat(f"{caller}.marginal")
        else:
            caller_count = None
        op_b = self._op_b if name == "centralized.project_box_sum" else None

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if caller_count is not None:
                    caller_count[0] += 1
                if op_b:
                    op_b[-1][0] += 1

        return wrapper

    def _span(self, name: str, fn: Callable) -> Callable:
        stack, stat, clock, spans = self._stack, self._stat(name), time.perf_counter, self.spans

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled in on return
            frame = [0.0, span_id]
            parent = stack[-1][1]
            if name == "centralized.solve_op_b":
                network = args[0]
                self._op_b.append([0, len(network.targets) + len(network.sources)])
            result, returned = None, False
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                stack[-1][0] += end - start
                stat[0] += 1
                stat[1] += end - start - frame[0]
                spans[span_id] = (span_id, name, start, end, parent)
                self._leave(name, args, result, returned)

        return wrapper

    def _leave(self, name: str, args: tuple, result, returned: bool) -> None:
        """Derived counts; ``returned`` is False when the call raised."""
        if name == "centralized.solve_op_b":
            boxes, nodes = self._op_b.pop()
            self._count("centralized.dykstra_cycles", boxes / nodes)
        if not returned:
            return
        if name in ("centralized.solve_op_a", "centralized.solve_op_b"):
            self._count("centralized.pgd_iterations", result.iterations)
        elif name == "admm.run_admm":
            self._count("admm.rounds", result.iterations)
        elif name == "scenario_io.parse_scenario":
            self._count("scenario_io.parse_scenario.bytes", len(args[0].encode()))
        elif name == "scenario_io.write_csv":
            self._count("scenario_io.write_csv.bytes", os.path.getsize(args[1]))

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        for name, home, attr, callers in _KERNELS:
            fn = getattr(_MODULES[home], attr)
            for caller in callers:
                self._replace(_MODULES[caller], attr, self._kernel(name, fn, caller))
        for name, home, attr in _SPANS:
            module = _MODULES[home]
            self._replace(module, attr, self._span(name, getattr(module, attr)))

    def _replace(self, module, attr: str, wrapper: Callable) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- results ----------------------------------------------------------

    def take_round(self) -> Dict[str, float]:
        """Per-layer values accumulated since the last call, then reset."""
        values: Dict[str, float] = dict(self._counts)
        for name, (calls, self_s) in self._stats.items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        for stat in self._stats.values():
            stat[0], stat[1] = 0, 0.0
        self._counts.clear()
        return values
