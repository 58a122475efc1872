"""Runner fan-out for sharded planning.

One ``shard-plan`` task plans one shard: it opens only its own VM rows
of a chunked store — a contiguous row range of a memory-mapped store,
so the worker never touches the rest of the fleet's pages — builds only
its own hosts of the target pool, and runs the dynamic planner.  Shard
tasks are ordinary :class:`~repro.runner.task.ExperimentTask` specs, so
the process pool, the content-addressed result cache, and the
determinism guarantees of :mod:`repro.runner` all apply unchanged — a
warm rerun of a 100k-server plan is ``n_shards`` cache hits.

:func:`run_sharded_plan` is the orchestrator: partition in the parent,
fan the shard tasks out, then merge + reconcile through
:class:`~repro.sharding.planner.ShardedConsolidation` (whose
``plan_shards`` hook is where the pool plugs in).

The fleet is a chunked store directory
(:mod:`repro.workloads.chunked`), named by the declarative document
:func:`chunked_source` returns, so cache keys cover it: the manifest's
content hash is pinned into the task params, so a rewritten store can
never satisfy a stale cache entry.  A calibrated preset is planned
through the pool by writing it with
:func:`~repro.workloads.datacenters.generate_datacenter_chunked` first.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.planner import split_window
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import ConfigurationError
from repro.infrastructure.datacenter import (
    Datacenter,
    build_target_pool,
    target_pool_hosts,
)
from repro.runner.registry import RunnerContext, register_task_kind
from repro.runner.runner import ExperimentRunner, RunReport
from repro.runner.task import ExperimentTask
from repro.sharding.partition import ShardSpec
from repro.sharding.planner import ShardedConsolidation, ShardedPlanReport
from repro.workloads.chunked import MANIFEST_NAME, open_chunked_trace_set

__all__ = [
    "KIND_SHARD_PLAN",
    "ShardedPlanRun",
    "chunked_source",
    "run_sharded_plan",
    "shard_plan_task",
]

KIND_SHARD_PLAN = "shard-plan"


# ----------------------------------------------------------------------
# Source documents

def chunked_source(directory: Union[str, Path]) -> Dict[str, object]:
    """Source document for a chunked on-disk store.

    The manifest hash rides in the document: it addresses the store's
    *content* (VM roster, geometry, matrix files are manifest-pinned),
    so shard-task cache entries are invalidated when the store is
    rewritten, and never by a mere path change.
    """
    path = Path(directory)
    manifest = path / MANIFEST_NAME
    if not manifest.is_file():
        raise ConfigurationError(f"no chunked store at {path}")
    return {
        "kind": "chunked",
        "path": str(path),
        "fingerprint": hashlib.sha256(manifest.read_bytes()).hexdigest(),
    }


def _check_source(source: Mapping[str, object]) -> str:
    """The store directory of a :func:`chunked_source` document.

    Any other document raises :class:`ConfigurationError` before
    anything is read — one without the manifest fingerprint too, whose
    cache keys could not tell a rewritten store from the old one.
    """
    path = source.get("path")
    if (
        source.get("kind") != "chunked"
        or not isinstance(path, str)
        or not isinstance(source.get("fingerprint"), str)
    ):
        raise ConfigurationError(
            "a sharded plan reads a chunked_source() document (kind "
            "'chunked' with a 'path' and the manifest 'fingerprint'), "
            f"got {dict(source)!r}"
        )
    return path


# ----------------------------------------------------------------------
# Task factory + executor

def shard_plan_task(
    source: Mapping[str, object],
    shard: ShardSpec,
    host_positions: Sequence[int],
    *,
    pool_name: str,
    hosts_per_rack: int = 14,
    utilization_bound: float = 0.8,
    interval_hours: float = 2.0,
    evaluation_days: int = 14,
) -> ExperimentTask:
    """Task planning one shard of a sharded consolidation run.

    The shard geometry travels as the VM row range plus the shard's
    hosts as positions in the target pool, in shard order — everything
    a worker needs to rebuild exactly the sub-problem
    :func:`repro.sharding.planner.shard_context` would hand an
    in-process shard, the hosts through
    :func:`~repro.infrastructure.datacenter.target_pool_hosts`.
    """
    return ExperimentTask(
        kind=KIND_SHARD_PLAN,
        params={
            "source": dict(source),
            "vm_start": int(shard.vm_start),
            "vm_stop": int(shard.vm_stop),
            "host_positions": [int(p) for p in host_positions],
            "pool_name": str(pool_name),
            "hosts_per_rack": int(hosts_per_rack),
            "utilization_bound": float(utilization_bound),
            "interval_hours": float(interval_hours),
            "evaluation_days": int(evaluation_days),
        },
        label=f"shard-plan:{shard.index}[{shard.vm_start}:{shard.vm_stop}]",
    )


@register_task_kind(KIND_SHARD_PLAN)
def _execute_shard_plan(
    params: Mapping[str, object], ctx: RunnerContext
) -> PlacementSchedule:
    traces = open_chunked_trace_set(
        _check_source(params["source"]),  # type: ignore[arg-type]
        start=int(params["vm_start"]),  # type: ignore[arg-type]
        stop=int(params["vm_stop"]),  # type: ignore[arg-type]
    )
    history, evaluation = split_window(
        traces, int(params["evaluation_days"])  # type: ignore[arg-type]
    )
    pool_name = str(params["pool_name"])
    datacenter = Datacenter(name=f"{pool_name}-shard")
    for host in target_pool_hosts(
        pool_name,
        params["host_positions"],  # type: ignore[arg-type]
        hosts_per_rack=int(params["hosts_per_rack"]),  # type: ignore[arg-type]
    ):
        datacenter.add_host(host)
    context = PlanningContext(
        history=history,
        evaluation=evaluation,
        datacenter=datacenter,
        config=PlanningConfig(
            utilization_bound=float(params["utilization_bound"]),  # type: ignore[arg-type]
            interval_hours=float(params["interval_hours"]),  # type: ignore[arg-type]
        ),
    )
    return DynamicConsolidation().plan(context)


# ----------------------------------------------------------------------
# Orchestrator

@dataclass(frozen=True)
class ShardedPlanRun:
    """Everything one :func:`run_sharded_plan` call produced."""

    schedule: PlacementSchedule
    report: ShardedPlanReport
    run_report: RunReport


def run_sharded_plan(
    source: Mapping[str, object],
    *,
    n_shards: int,
    pool_hosts: int,
    hosts_per_rack: int = 14,
    pool_name: str = "pool",
    by: str = "rack",
    utilization_bound: float = 0.8,
    interval_hours: float = 2.0,
    evaluation_days: int = 14,
    reconcile: bool = True,
    fill_threshold: float = 0.5,
    max_reconcile_sweeps: int = 2,
    runner: Optional[ExperimentRunner] = None,
) -> ShardedPlanRun:
    """Plan a chunked fleet sharded across the runner's process pool.

    ``source`` must be a :func:`chunked_source` document; anything else
    raises :class:`ConfigurationError` before the store is opened.  The
    parent opens the fleet once (memory-mapped, nothing resident),
    partitions it, and submits one ``shard-plan`` task per shard; merge
    and cross-shard reconciliation then run in the parent on the pooled
    results.  Serial runners give the same schedule as parallel ones —
    shard tasks are pure and results come back in input order.
    """
    traces = open_chunked_trace_set(_check_source(source))
    if runner is None:
        runner = ExperimentRunner()
    history, evaluation = split_window(traces, evaluation_days)
    pool = build_target_pool(
        pool_name, host_count=pool_hosts, hosts_per_rack=hosts_per_rack
    )
    context = PlanningContext(
        history=history,
        evaluation=evaluation,
        datacenter=pool,
        config=PlanningConfig(
            utilization_bound=utilization_bound,
            interval_hours=interval_hours,
        ),
    )

    position_of = {host.host_id: i for i, host in enumerate(pool.hosts)}
    captured: Dict[str, RunReport] = {}

    def fan_out(
        shards: Tuple[ShardSpec, ...], _context: PlanningContext
    ) -> Sequence[PlacementSchedule]:
        tasks = [
            shard_plan_task(
                source,
                shard,
                [position_of[host_id] for host_id in shard.host_ids],
                pool_name=pool_name,
                hosts_per_rack=hosts_per_rack,
                utilization_bound=utilization_bound,
                interval_hours=interval_hours,
                evaluation_days=evaluation_days,
            )
            for shard in shards
        ]
        report = runner.run(tasks)
        captured["run"] = report
        schedules = []
        for task, result in zip(tasks, report.results):
            if not isinstance(result, PlacementSchedule):
                raise ConfigurationError(
                    f"{task.name} returned {type(result).__name__}, "
                    "expected PlacementSchedule"
                )
            schedules.append(result)
        return schedules

    algorithm = ShardedConsolidation(
        n_shards=n_shards,
        by=by,
        reconcile=reconcile,
        fill_threshold=fill_threshold,
        max_reconcile_sweeps=max_reconcile_sweeps,
        plan_shards=fan_out,
    )
    schedule = algorithm.plan(context)
    assert algorithm.last_report is not None
    return ShardedPlanRun(
        schedule=schedule,
        report=algorithm.last_report,
        run_report=captured["run"],
    )
