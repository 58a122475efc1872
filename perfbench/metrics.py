"""Metric tables of the benchmark and the per-layer report of a traced pass.

``E2E_METRICS`` are what every untraced run reports; ``LAYER_METRICS``
are what every traced run reports.  ``BENCHMARK.json`` lists exactly
these names and units (the self-test checks it).  The other end-to-end
figures are printed beside these but not gated: the ones not every
workload has (latency percentiles, energy, Fig-7 bands), and
``migrations``, whose spread across seeds comes from the inputs and is
wider than any allowed bound on the ``online`` stream.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from perfbench.tracing import Tracer

__all__ = ["E2E_METRICS", "LAYER_METRICS", "layer_metrics"]

#: name -> unit, for every workload's untraced run.
E2E_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "mean_active_hosts": "hosts",
}

#: name -> unit, for every workload's traced run (zero where a layer
#: does no work on that workload).
LAYER_METRICS: Dict[str, str] = {
    "workloads.generate_s": "s",
    "workloads.generate_rows": "rows",
    "workloads.chunked_open_s": "s",
    "workloads.manifest_parse_s": "s",
    "workloads.manifest_parses": "count",
    "workloads.manifest_mb": "MB",
    "workloads.rolling_s": "s",
    "workloads.rolling_compactions": "count",
    "sizing.peak_table_s": "s",
    "sizing.estimate_matrix_s": "s",
    "sizing.cells": "count",
    "sizing.estimate_values_s": "s",
    "sizing.estimate_values_calls": "count",
    "placement.pack_s": "s",
    "placement.pack_calls": "count",
    "constraints.feasible_s": "s",
    "constraints.feasible_calls": "count",
    "constraints.validate_s": "s",
    "core.dynamic_plan_s": "s",
    "core.dynamic_plans": "count",
    "core.dynamic_vm_intervals_per_s": "1/s",
    "core.constrained_plans": "count",
    "core.stochastic_plan_s": "s",
    "core.semistatic_plan_s": "s",
    "core.plan_rebuild_s": "s",
    "core.plan_rebuilds": "count",
    "core.delta_s": "s",
    "core.deltas": "count",
    "core.delta_rollbacks": "count",
    "core.set_demand_s": "s",
    "core.set_demand_calls": "count",
    "migration.cost_s": "s",
    "emulator.replay_s": "s",
    "emulator.replays": "count",
    "emulator.host_hours": "host-h",
    "sharding.partition_s": "s",
    "sharding.shard_plan_s": "s",
    "sharding.shard_plan_max_s": "s",
    "sharding.merge_s": "s",
    "sharding.demand_table_s": "s",
    "sharding.reconcile_s": "s",
    "sharding.reconcile_moves": "count",
    "sharding.hosts_freed": "host-intervals",
    "sharding.hosts_freed_per_rebuild": "hosts",
    "runner.tasks": "count",
    "runner.task_s": "s",
    "runner.pool_wall_s": "s",
    "runner.busy_frac": "fraction",
    "runner.overhead_s": "s",
    "runner.result_mb": "MB",
    "runner.failed_tasks": "count",
    "runner.worker_task_s": "s",
    "service.ingest_s": "s",
    "service.samples": "count",
    "service.duplicates_ignored": "count",
    "service.late_dropped": "count",
    "service.gaps_filled": "count",
    "service.replan_s": "s",
    "service.detect_s": "s",
    "service.detect_calls": "count",
    "service.flagged_hosts": "count",
    "service.touched_hosts": "count",
    "service.vacate_attempts": "count",
    "service.vacate_failures": "count",
    "service.vacate_success_ratio": "fraction",
    "service.placement_failures": "count",
    "service.query_s": "s",
    "service.detector_errors": "count",
    "service.deadline_aborts": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.worker_spans": "count",
}

#: Metrics that are a span's self time: metric -> span name.
_SELF_TIMES = {
    "workloads.generate_s": "workloads.generate",
    "workloads.chunked_open_s": "workloads.chunked_open",
    "workloads.manifest_parse_s": "workloads.manifest_parse",
    "workloads.rolling_s": "workloads.rolling",
    "sizing.peak_table_s": "sizing.peak_table",
    "sizing.estimate_matrix_s": "sizing.estimate_matrix",
    "sizing.estimate_values_s": "sizing.estimate_values",
    "placement.pack_s": "placement.pack",
    "constraints.feasible_s": "constraints.feasible",
    "constraints.validate_s": "constraints.validate",
    "core.dynamic_plan_s": "core.dynamic_plan",
    "core.stochastic_plan_s": "core.stochastic_plan",
    "core.semistatic_plan_s": "core.semistatic_plan",
    "core.plan_rebuild_s": "core.plan_rebuild",
    "core.delta_s": "core.delta",
    "core.set_demand_s": "core.set_demand",
    "migration.cost_s": "migration.cost",
    "emulator.replay_s": "emulator.replay",
    "sharding.partition_s": "sharding.partition",
    "sharding.merge_s": "sharding.merge",
    "sharding.demand_table_s": "sharding.demand_table",
    "sharding.reconcile_s": "sharding.reconcile",
    "runner.worker_task_s": "runner.worker_task",
    "service.ingest_s": "service.ingest",
    "service.replan_s": "service.replan",
    "service.detect_s": "service.detect",
    "service.query_s": "service.query",
}

#: Metrics that are a span's call count: metric -> span name.
_CALLS = {
    "workloads.manifest_parses": "workloads.manifest_parse",
    "sizing.estimate_values_calls": "sizing.estimate_values",
    "placement.pack_calls": "placement.pack",
    "constraints.feasible_calls": "constraints.feasible",
    "core.dynamic_plans": "core.dynamic_plan",
    "core.plan_rebuilds": "core.plan_rebuild",
    "core.deltas": "core.delta",
    "core.set_demand_calls": "core.set_demand",
    "emulator.replays": "emulator.replay",
    "service.detect_calls": "service.detect",
}

#: Metrics recorded as counts at a span boundary: metric -> count name.
_COUNTS = {
    "workloads.generate_rows": "workloads.generate_rows",
    "workloads.manifest_mb": "workloads.manifest_mb",
    "sizing.cells": "sizing.cells",
    "core.constrained_plans": "core.constrained_plans",
    "core.delta_rollbacks": "core.delta.raised",
    "emulator.host_hours": "emulator.host_hours",
    "sharding.reconcile_moves": "sharding.reconcile_moves",
    "service.flagged_hosts": "service.flagged_hosts",
    "service.touched_hosts": "service.touched_hosts",
    "service.vacate_attempts": "service.vacate_attempts",
}


def _runner_metrics(tracer: Tracer) -> Dict[str, float]:
    """Pool accounting from the RunReports the traced pass saw."""
    tasks = 0
    task_s = 0.0
    pool_wall = 0.0
    busy_capacity = 0.0
    overhead = 0.0
    shard_seconds = []
    for report in tracer.run_reports:
        tasks += len(report.stats)
        task_s += report.task_seconds
        shard_seconds.extend(
            stat.seconds for stat in report.stats if stat.kind == "shard-plan"
        )
        if report.workers > 1:
            pool_wall += report.wall_seconds
            busy_capacity += report.wall_seconds * report.workers
            per_worker: Dict[str, float] = {}
            for stat in report.stats:
                per_worker[stat.worker] = (
                    per_worker.get(stat.worker, 0.0) + stat.seconds
                )
            overhead += report.wall_seconds - max(per_worker.values())
    pooled_task_s = sum(
        report.task_seconds
        for report in tracer.run_reports
        if report.workers > 1
    )
    return {
        "runner.tasks": float(tasks),
        "runner.task_s": task_s,
        "runner.pool_wall_s": pool_wall,
        "runner.busy_frac": (
            pooled_task_s / busy_capacity if busy_capacity else 0.0
        ),
        "runner.overhead_s": overhead,
        "runner.result_mb": tracer.result_megabytes(),
        "sharding.shard_plan_s": float(sum(shard_seconds)),
        "sharding.shard_plan_max_s": max(shard_seconds, default=0.0),
    }


def layer_metrics(
    tracer: Tracer,
    facts: Mapping[str, float],
    untraced_wall_s: float,
    traced_wall_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced pass, as ``name -> (value, unit)``.

    ``facts`` are per-layer figures read from the workload's own outputs
    (controller counters, sharded-plan host counts); a missing fact is a
    layer the workload does not use, reported as zero.
    """
    values: Dict[str, float] = {}
    for metric, span in _SELF_TIMES.items():
        values[metric] = tracer.self_seconds.get(span, 0.0)
    for metric, span in _CALLS.items():
        values[metric] = float(tracer.calls.get(span, 0))
    for metric, name in _COUNTS.items():
        values[metric] = float(tracer.counts.get(name, 0.0))
    values.update(_runner_metrics(tracer))
    dynamic_total = tracer.total_seconds.get("core.dynamic_plan", 0.0)
    values["core.dynamic_vm_intervals_per_s"] = (
        tracer.counts.get("core.dynamic_vm_intervals", 0.0) / dynamic_total
        if dynamic_total
        else 0.0
    )
    rebuilds_in_reconcile = values["core.plan_rebuilds"]
    for metric in LAYER_METRICS:
        if metric in facts:
            values[metric] = float(facts[metric])
    values["sharding.hosts_freed_per_rebuild"] = (
        values["sharding.hosts_freed"] / rebuilds_in_reconcile
        if values.get("sharding.hosts_freed") and rebuilds_in_reconcile
        else 0.0
    )
    attempts = values.get("service.vacate_attempts", 0.0)
    values["service.vacate_success_ratio"] = (
        (attempts - values.get("service.vacate_failures", 0.0)) / attempts
        if attempts
        else 0.0
    )
    values["trace.untraced_wall_s"] = untraced_wall_s
    values["trace.traced_wall_s"] = traced_wall_s
    values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    values["trace.spans"] = float(len(tracer.spans))
    values["trace.worker_spans"] = float(tracer.worker_spans)
    return {
        metric: (values.get(metric, 0.0), unit)
        for metric, unit in LAYER_METRICS.items()
    }
