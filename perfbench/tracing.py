"""Span tracer that wraps the library's public entry points from outside.

The traced pass of the benchmark installs a :class:`Tracer`: every entry
point in :data:`ENTRY_POINTS` is replaced, in every ``repro`` module that
binds it, by a wrapper that records a span (name, start, end, parent) and
its counts in memory.  :meth:`Tracer.uninstall` puts every original back
and reports any binding it could not restore.

Self time is a span's duration minus the time its child spans cover.
Per-sample entry points (``hot``) are aggregated into time and call
counts instead of one span record per call, but still subtract from
their parent's self time.

Pool workers fork from the traced parent, so they inherit the wrappers.
The worker-side entry point (``repro.runner.registry.execute``) starts a
fresh recording for each task and ships it back inside the task result;
the parent's ``ExperimentRunner.run`` wrapper unwraps the result and
merges the worker's spans, so work done in workers reaches the report.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ENTRY_POINTS", "Tracer"]


@dataclass(frozen=True)
class EntryPoint:
    """One public function or method the traced pass wraps.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``;
    ``span`` names the layer boundary; ``after`` may record counts from
    the call's arguments and result (and may replace the result).
    """

    target: str
    span: str
    hot: bool = False
    after: Optional[Callable[["Tracer", tuple, dict, Any], Any]] = None


class _Shipped:
    """A pool task's result plus the spans its worker recorded."""

    def __init__(self, result: object, recording: dict) -> None:
        self.result = result
        self.recording = recording


# ----------------------------------------------------------------------
# Count hooks (run after the span closed, so they cost no span time)

def _count_rows(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> Any:
    tracer.count("workloads.generate_rows", len(result))
    return result


def _count_chunked_rows(
    tracer: "Tracer", args: tuple, kwargs: dict, result: Any
) -> Any:
    from repro.workloads.datacenters import datacenter_specs

    specs = datacenter_specs(args[0], scale=kwargs.get("scale", 1.0))
    tracer.count("workloads.generate_rows", sum(count for *_, count in specs))
    return result


def _count_manifest(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> Any:
    from repro.workloads.chunked import MANIFEST_NAME

    directory = args[0] if args else kwargs["directory"]
    size = os.path.getsize(os.path.join(str(directory), MANIFEST_NAME))
    tracer.count("workloads.manifest_mb", size / 1e6)
    return result


def _count_cells(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> Any:
    cells = getattr(getattr(result, "cpu_rpe2", None), "size", None)
    tracer.count("sizing.cells", cells if cells is not None else len(result))
    return result


def _count_plan(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> Any:
    context = args[1] if len(args) > 1 else kwargs["context"]
    if context.constraints:
        tracer.count("core.constrained_plans", 1)
    return result


def _count_dynamic_plan(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> Any:
    context = args[1] if len(args) > 1 else kwargs["context"]
    tracer.count(
        "core.dynamic_vm_intervals",
        len(context.evaluation.vm_ids) * context.n_intervals,
    )
    return _count_plan(tracer, args, kwargs, result)


def _count_replay(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> Any:
    tracer.count("emulator.host_hours", int(result.active.sum()))
    return result


def _count_reconcile(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> Any:
    tracer.count("sharding.reconcile_moves", result[1])
    return result


def _count_cycle(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> Any:
    flagged = len(result.overloaded_hosts) + len(result.underloaded_hosts)
    tracer.count("service.flagged_hosts", flagged)
    tracer.count("service.touched_hosts", len(result.touched_hosts))
    if not result.deadline_hit:
        tracer.count("service.vacate_attempts", len(result.underloaded_hosts))
    return result


def _unwrap_run(tracer: "Tracer", args: tuple, kwargs: dict, report: Any) -> Any:
    """Merge worker recordings and hand the caller plain results."""
    results = []
    for result, stat in zip(report.results, report.stats):
        if isinstance(result, _Shipped):
            tracer.absorb(result.recording, stat.worker)
            result = result.result
        results.append(result)
    report = dataclasses.replace(report, results=tuple(results))
    tracer.run_reports.append(report)
    return report


#: Every public call the traced pass times, grouped by layer.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    # workloads
    EntryPoint("repro.workloads.datacenters:generate_datacenter",
               "workloads.generate", after=_count_rows),
    EntryPoint("repro.workloads.datacenters:generate_datacenter_chunked",
               "workloads.generate", after=_count_chunked_rows),
    EntryPoint("repro.workloads.chunked:open_chunked_trace_set",
               "workloads.chunked_open"),
    EntryPoint("repro.workloads.chunked:load_manifest",
               "workloads.manifest_parse", after=_count_manifest),
    EntryPoint("repro.workloads.rolling:RollingTraceStore.append_samples",
               "workloads.rolling", hot=True),
    EntryPoint("repro.workloads.rolling:RollingTraceStore.peak_window",
               "workloads.rolling", hot=True),
    # sizing
    EntryPoint("repro.sizing.prediction:build_peak_table",
               "sizing.peak_table"),
    EntryPoint("repro.sizing.estimator:SizeEstimator.estimate_matrix",
               "sizing.estimate_matrix", after=_count_cells),
    EntryPoint("repro.sizing.estimator:SizeEstimator.estimate_all",
               "sizing.estimate_matrix", after=_count_cells),
    EntryPoint("repro.sizing.estimator:SizeEstimator.estimate_from_values",
               "sizing.estimate_values", hot=True),
    # placement + constraints
    EntryPoint("repro.placement.binpacking:pack", "placement.pack"),
    EntryPoint("repro.constraints.manager:ConstraintSet.feasible",
               "constraints.feasible", hot=True),
    EntryPoint("repro.constraints.manager:ConstraintSet.validate",
               "constraints.validate"),
    # core planners + incremental plan state
    EntryPoint("repro.core.dynamic:DynamicConsolidation.plan",
               "core.dynamic_plan", after=_count_dynamic_plan),
    EntryPoint("repro.core.stochastic:StochasticConsolidation.plan",
               "core.stochastic_plan", after=_count_plan),
    EntryPoint("repro.core.semistatic:SemiStaticConsolidation.plan",
               "core.semistatic_plan", after=_count_plan),
    EntryPoint("repro.core.incremental:IncrementalPlan.from_assignment",
               "core.plan_rebuild"),
    EntryPoint("repro.core.incremental:IncrementalPlan.apply_delta",
               "core.delta", hot=True),
    EntryPoint("repro.core.incremental:IncrementalPlan.set_demand",
               "core.set_demand", hot=True),
    # migration + emulator
    EntryPoint("repro.migration.cost:MigrationCostModel.cost_wh",
               "migration.cost", hot=True),
    EntryPoint("repro.migration.cost:MigrationCostModel.costs_wh",
               "migration.cost", hot=True),
    EntryPoint("repro.emulator.emulator:ConsolidationEmulator.evaluate",
               "emulator.replay", after=_count_replay),
    # sharding
    EntryPoint("repro.sharding.partition:partition_fleet",
               "sharding.partition"),
    EntryPoint("repro.sharding.planner:merge_shard_schedules",
               "sharding.merge"),
    EntryPoint("repro.sharding.planner:build_demand_table",
               "sharding.demand_table"),
    EntryPoint("repro.sharding.reconcile:reconcile_assignment",
               "sharding.reconcile", after=_count_reconcile),
    # runner: the pool boundary on both sides
    EntryPoint("repro.runner.runner:ExperimentRunner.run", "runner.run",
               after=_unwrap_run),
    EntryPoint("repro.runner.registry:execute", "runner.worker_task"),
    # service
    EntryPoint("repro.service.controller:ConsolidationController.ingest",
               "service.ingest", hot=True),
    EntryPoint("repro.service.controller:ConsolidationController.flush_pending",
               "service.ingest", hot=True),
    EntryPoint("repro.service.controller:ConsolidationController.replan_cycle",
               "service.replan", after=_count_cycle),
    EntryPoint("repro.service.detectors:MHODOverloadDetector.detect",
               "service.detect", hot=True),
    EntryPoint("repro.service.detectors:ThresholdUnderloadDetector.detect",
               "service.detect", hot=True),
    EntryPoint("repro.service.protocol:handle_request", "service.query",
               hot=True),
)

#: The tracer whose wrappers are installed in this process, if any.  A
#: forked pool worker finds its inherited copy here.
_ACTIVE: Optional["Tracer"] = None


def _resolve(target: str) -> Tuple[object, str, object]:
    """``(owner, attribute, original)`` for an entry-point target."""
    module_name, _, path = target.partition(":")
    owner: object = import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    original = vars(owner)[name]
    return owner, name, original


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(
        self,
        entry_points: Tuple[EntryPoint, ...] = ENTRY_POINTS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.entry_points = entry_points
        self.clock = clock
        self.pid = os.getpid()
        self._patched: List[Tuple[object, str, object]] = []
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far."""
        #: ``(span_id, name, start, end, parent_id, process)`` records.
        self.spans: List[Tuple[int, str, float, float, int, str]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.total_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.run_reports: List[Any] = []
        self.worker_spans = 0
        self._stack: List[List[float]] = []
        self._next_id = 0

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def call(
        self, point: EntryPoint, original: Callable, args: tuple, kwargs: dict
    ) -> Any:
        """Run ``original`` inside a span named by ``point``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [0.0, float(span_id)]
        self._stack.append(frame)
        start = self.clock()
        try:
            result = original(*args, **kwargs)
        except Exception:
            self.counts[point.span + ".raised"] += 1
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            elapsed = end - start
            if parent is not None:
                parent[0] += elapsed
            self.total_seconds[point.span] += elapsed
            self.self_seconds[point.span] += elapsed - frame[0]
            self.calls[point.span] += 1
            if not point.hot:
                self.spans.append(
                    (
                        span_id,
                        point.span,
                        start,
                        end,
                        -1 if parent is None else int(parent[1]),
                        "parent",
                    )
                )
        if point.after is not None:
            result = point.after(self, args, kwargs, result)
        return result

    def export(self) -> dict:
        """Plain-data copy of the recording (what a worker ships)."""
        return {
            "spans": list(self.spans),
            "self_seconds": dict(self.self_seconds),
            "total_seconds": dict(self.total_seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def absorb(self, recording: dict, worker: str) -> None:
        """Merge a pool worker's recording into this one.

        Worker span ids restart at zero for every task, so they are
        shifted past this recording's ids to stay unique.
        """
        offset = self._next_id
        for span_id, name, start, end, parent, _process in recording["spans"]:
            self.spans.append(
                (
                    span_id + offset,
                    name,
                    start,
                    end,
                    parent + offset if parent >= 0 else -1,
                    worker,
                )
            )
            self._next_id = max(self._next_id, span_id + offset + 1)
            self.worker_spans += 1
        for table, values in (
            (self.self_seconds, recording["self_seconds"]),
            (self.total_seconds, recording["total_seconds"]),
            (self.calls, recording["calls"]),
            (self.counts, recording["counts"]),
        ):
            for name, value in values.items():
                table[name] += value

    # -- patching --------------------------------------------------------

    def _wrapper(self, point: EntryPoint, original: Callable) -> Callable:
        tracer = self
        if point.target == "repro.runner.registry:execute":
            def traced(*args: Any, **kwargs: Any) -> Any:
                # In a forked pool worker: record this task alone and
                # ship the recording back with its result.
                if os.getpid() == tracer.pid:
                    return tracer.call(point, original, args, kwargs)
                tracer.reset()
                result, hit, seconds = tracer.call(
                    point, original, args, kwargs
                )
                return _Shipped(result, tracer.export()), hit, seconds
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return tracer.call(point, original, args, kwargs)
        traced.__name__ = getattr(original, "__name__", point.span)
        traced.__qualname__ = getattr(original, "__qualname__", point.span)
        traced.__doc__ = getattr(original, "__doc__", None)
        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Wrap every entry point wherever a ``repro`` module binds it."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        self.pid = os.getpid()
        replacements: Dict[int, object] = {}
        for point in self.entry_points:
            owner, name, original = _resolve(point.target)
            if isinstance(original, classmethod):
                wrapped: object = classmethod(
                    self._wrapper(point, original.__func__)
                )
            else:
                wrapped = self._wrapper(point, original)  # type: ignore[arg-type]
            setattr(owner, name, wrapped)
            self._patched.append((owner, name, original))
            if not isinstance(owner, type):
                replacements[id(original)] = wrapped
        # Modules that imported a patched function by name hold their own
        # binding; rebind those too so every call site goes through the
        # wrapper.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name.startswith("repro") or module_name.startswith("perfbench")
            ):
                continue
            namespace = vars(module)
            for attribute, value in list(namespace.items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None and namespace[attribute] is not wrapped:
                    self._patched.append((module, attribute, value))
                    namespace[attribute] = wrapped
        _ACTIVE = self

    def uninstall(self) -> List[str]:
        """Restore every original; returns the bindings still patched."""
        global _ACTIVE
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        leftovers = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self._patched
            if vars(owner).get(name) is not original
        ]
        self._patched = []
        _ACTIVE = None
        return leftovers

    # -- reporting -------------------------------------------------------

    def result_megabytes(self) -> float:
        """Pickled size of every pooled task result (pool result traffic)."""
        total = 0
        for report in self.run_reports:
            if report.workers > 1:
                for result in report.results:
                    total += len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        return total / 1e6
