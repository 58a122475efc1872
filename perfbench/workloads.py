"""The benchmark's four workloads: inputs, timed section, output checks.

Each workload is a :class:`Workload` with three steps:

* ``build(seed)`` makes the inputs from the seed (the set-up, timed as a
  ``setup_s`` sample);
* ``execute(inputs)`` runs the library's public entry points and returns
  the timed seconds plus the raw outputs;
* ``check(inputs, output)`` runs outside the timers: it verifies the
  outputs, digests them and derives the reported figures.

Why each workload exists, and which layers it loads, is recorded in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.constraints import AntiColocate, PinToHost, SameSubnet
from repro.constraints.manager import ConstraintSet
from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.core.planner import split_window
from repro.exceptions import ServiceError
from repro.experiments import paper_targets as targets
from repro.experiments.comparison import SCHEME_DYNAMIC, SCHEME_STOCHASTIC
from repro.experiments.settings import ExperimentSettings
from repro.infrastructure.datacenter import build_target_pool
from repro.runner import (
    ExperimentRunner,
    comparison_task,
    planning_task,
    sensitivity_task,
)
from repro.service import protocol
from repro.service.controller import ConsolidationController
from repro.service.harness import FaultInjector, FaultSpec, ScriptedFeed
from repro.sharding import chunked_source, run_sharded_plan
from repro.sharding.planner import build_demand_table
from repro.workloads.chunked import load_manifest, open_chunked_trace_set
from repro.workloads.datacenters import (
    ALL_DATACENTERS,
    datacenter_specs,
    generate_datacenter,
    generate_datacenter_chunked,
)
from repro.workloads.rolling import RollingTraceStore

__all__ = [
    "WORKLOADS",
    "check_capacity",
    "check_exactly_once",
    "check_plan_consistent",
    "fleet_capacity_table",
    "make_workload",
]

#: Pool size for the pooled workloads: the machines this benchmark was
#: written for have 2 CPUs.
POOL_WORKERS = 2

clock = time.perf_counter


@dataclass
class Iteration:
    """What one pass of a workload produced, after its checks."""

    digest: str
    attempted: int
    failed: int
    failures: List[str]
    #: Plan quality: ``migrations`` and ``mean_active_hosts``.
    quality: Dict[str, float]
    #: Workload-specific end-to-end figures: name -> (value, unit).
    extra: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Per-layer figures read from the outputs (see ``metrics.layer_metrics``).
    facts: Dict[str, float] = field(default_factory=dict)
    #: Raw per-operation latencies, pooled across a run's iterations.
    samples: Dict[str, List[float]] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    build: Callable[[int], Any]
    execute: Callable[[Any], Tuple[float, Any]]
    check: Callable[[Any, Any], Iteration]
    #: Runs in this process alone, with no pool workers.
    serial: bool = False
    #: Summarises pooled per-operation samples into extra figures.
    summarize: Optional[Callable[[Dict[str, List[float]]], Dict[str, Tuple[float, str]]]] = None


def _sub_seed(seed: int, *labels: object) -> int:
    """A seed for one input stream, derived from the workload seed."""
    words = [int(seed)] + [
        int.from_bytes(hashlib.sha256(str(label).encode()).digest()[:4], "big")
        for label in labels
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def _digest_schedule(h: "hashlib._Hash", schedule: Any) -> None:
    for segment in schedule:
        h.update(f"|{segment.start_hour!r}:{segment.end_hour!r}|".encode())
        h.update(
            ";".join(
                f"{vm}={host}"
                for vm, host in sorted(segment.placement.assignment.items())
            ).encode()
        )


def check_exactly_once(
    schedule: Any, vm_ids: Sequence[str], label: str
) -> List[str]:
    """Every segment places every VM of ``vm_ids`` exactly once."""
    expected = set(vm_ids)
    failures = []
    for index, segment in enumerate(schedule):
        placed = segment.placement.assignment
        if len(placed) != len(expected) or set(placed) != expected:
            missing = len(expected - set(placed))
            unknown = len(set(placed) - expected)
            failures.append(
                f"{label}: segment {index} places {len(placed)} VMs "
                f"({missing} missing, {unknown} unknown)"
            )
    return failures


def check_capacity(
    schedule: Any, table: Any, caps: HostCapacities, label: str
) -> List[str]:
    """No host exceeds its bound-scaled capacity in any segment."""
    failures = []
    row_of = {vm: row for row, vm in enumerate(table.vm_ids)}
    limits = (
        (table.cpu_rpe2, caps.cap_cpu_np, "cpu"),
        (table.memory_gb, caps.cap_mem_np, "memory"),
        (table.network_mbps, np.array(caps.cap_net), "network"),
        (table.disk_mbps, np.array(caps.cap_dsk), "disk"),
    )
    for column, segment in enumerate(schedule):
        assignment = segment.placement.assignment
        rows = np.array([row_of[vm] for vm in assignment], dtype=np.intp)
        hosts = np.array(
            [caps.index_of[host] for host in assignment.values()],
            dtype=np.intp,
        )
        for matrix, capacity, resource in limits:
            load = np.bincount(
                hosts, weights=matrix[rows, column], minlength=caps.n
            )
            over = load > capacity * (1.0 + 1e-9) + 1e-9
            if over.any():
                failures.append(
                    f"{label}: segment {column} overfills {int(over.sum())} "
                    f"host(s) on {resource}"
                )
    return failures


def check_plan_consistent(plan: IncrementalPlan) -> List[str]:
    """The live plan equals its canonical from-scratch rebuild."""
    rebuilt = IncrementalPlan.from_assignment(
        plan.caps, plan.vm_ids, plan.cpu, plan.mem, plan.assignment(),
        plan.net, plan.dsk,
    )
    return [
        f"online: live plan {name} differs from its rebuild"
        for name in (
            "assignment_rows", "vm_rows_of_host",
            "body_cpu", "body_mem", "body_net", "body_dsk",
        )
        if getattr(plan, name) != getattr(rebuilt, name)
    ]


def _mean_active_hosts(schedules: Sequence[Any]) -> float:
    counts = [
        segment.placement.active_host_count
        for schedule in schedules
        for segment in schedule
    ]
    return float(np.mean(counts)) if counts else 0.0


def _run_guarded(label: str, call: Callable[[], Any]) -> Tuple[float, Any]:
    """Time one call; a raise is reported and becomes a ``None`` output."""
    started = clock()
    try:
        output = call()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        print(f"{label}: run raised; counted as failed", file=sys.stderr)
        output = None
    return clock() - started, output


# ----------------------------------------------------------------------
# paper: the Section-5 reproduction (Figs. 7-16), pooled

@dataclass
class _PaperInputs:
    settings: ExperimentSettings
    tasks: list
    runner: ExperimentRunner
    vm_counts: Dict[str, int]


def _paper_build(scale: float) -> Callable[[int], _PaperInputs]:
    def build(seed: int) -> _PaperInputs:
        settings = ExperimentSettings(scale=scale)
        keys = [config.key for config in ALL_DATACENTERS]
        seeds = {key: _sub_seed(seed, "paper", key) for key in keys}
        tasks = [
            comparison_task(key, settings, seed=seeds[key]) for key in keys
        ] + [
            sensitivity_task(key, settings, seed=seeds[key]) for key in keys
        ]
        vm_counts = {
            key: sum(count for *_, count in datacenter_specs(key, scale=scale))
            for key in keys
        }
        runner = ExperimentRunner(workers=POOL_WORKERS, use_cache=False)
        return _PaperInputs(settings, tasks, runner, vm_counts)

    return build


def _paper_execute(inputs: _PaperInputs) -> Tuple[float, Any]:
    return _run_guarded("paper", lambda: inputs.runner.run(inputs.tasks))


def _fig7_bands_in(comparisons: Sequence[Any]) -> int:
    """Fig-7 checks in band, as ``validate._comparison_checks`` counts them."""
    slack = targets.SPACE_ORDERING["stochastic_not_worse_than_dynamic_slack"]
    exceptions = targets.SPACE_ORDERING["dynamic_beats_vanilla_except"]
    inside = 0
    for comparison in comparisons:
        key = comparison.workload
        space = comparison.normalized_space_cost()
        power = comparison.normalized_power_cost()
        checks = (
            (space[SCHEME_STOCHASTIC], targets.STOCHASTIC_SPACE_VS_VANILLA[key]),
            (space[SCHEME_STOCHASTIC] - space[SCHEME_DYNAMIC], (-10.0, slack)),
            (
                space[SCHEME_DYNAMIC],
                (1.0, 10.0) if key in exceptions else (0.0, 1.0),
            ),
            (
                power[SCHEME_DYNAMIC] / power[SCHEME_STOCHASTIC],
                targets.DYNAMIC_POWER_VS_STOCHASTIC[key],
            ),
        )
        inside += sum(1 for value, (low, high) in checks if low <= value <= high)
    return inside


def _paper_check(inputs: _PaperInputs, report: Any) -> Iteration:
    n_tasks = len(inputs.tasks)
    if report is None:
        return Iteration("", n_tasks, n_tasks, ["paper: run raised"], {},
                         facts={"runner.failed_tasks": n_tasks})
    n_dc = len(inputs.vm_counts)
    comparisons = report.results[:n_dc]
    sensitivities = report.results[n_dc:]
    failures: List[str] = []
    h = hashlib.sha256()
    schedules = []
    for comparison in comparisons:
        key = comparison.workload
        reference: Optional[set] = None
        for scheme, result in sorted(comparison.results.items()):
            first = result.schedule.segments[0].placement.assignment
            reference = reference or set(first)
            if len(reference) != inputs.vm_counts[key]:
                failures.append(f"paper/{key}: plans {len(reference)} VMs")
            failures += check_exactly_once(
                result.schedule, sorted(reference), f"paper/{key}/{scheme}"
            )
            h.update(
                f"{key}/{scheme}:{result.provisioned_servers}:"
                f"{result.energy_kwh!r}:{result.total_migrations()}".encode()
            )
            _digest_schedule(h, result.schedule)
            schedules.append(result.schedule)
    provisioned = 0
    for sensitivity in sensitivities:
        h.update(json.dumps(sensitivity.rows(), sort_keys=True).encode())
        provisioned += sensitivity.semi_static_servers
        provisioned += sensitivity.stochastic_servers
        provisioned += sum(sensitivity.dynamic_servers_by_bound.values())
    results = [r for c in comparisons for r in c.results.values()]
    provisioned += sum(r.provisioned_servers for r in results)
    return Iteration(
        digest=h.hexdigest(),
        attempted=n_tasks + len(results),
        failed=len(failures),
        failures=failures,
        quality={
            "migrations": float(sum(r.total_migrations() for r in results)),
            "mean_active_hosts": _mean_active_hosts(schedules),
        },
        extra={
            "provisioned_servers": (float(provisioned), "hosts"),
            "energy_kwh": (float(sum(r.energy_kwh for r in results)), "kWh"),
            "fig7_bands_in": (float(_fig7_bands_in(comparisons)), "count"),
        },
        facts={"runner.failed_tasks": 0.0},
    )


# ----------------------------------------------------------------------
# fleet: a sharded plan of a large fleet from a chunked store, pooled

@dataclass
class _FleetInputs:
    directory: Path
    source: dict
    vm_ids: Tuple[str, ...]
    shards: int
    runner: ExperimentRunner


FLEET_DAYS = 16
FLEET_EVALUATION_DAYS = 14


def _fleet_build(scale: float, shards: int, workdir: Path) -> Callable[[int], _FleetInputs]:
    def build(seed: int) -> _FleetInputs:
        directory = workdir / f"fleet-{seed}"
        if directory.exists():
            shutil.rmtree(directory)
        generate_datacenter_chunked(
            "banking",
            directory,
            scale=scale,
            days=FLEET_DAYS,
            seed=_sub_seed(seed, "fleet"),
        )
        return _FleetInputs(
            directory=directory,
            source=chunked_source(directory),
            vm_ids=load_manifest(directory).vm_ids,
            shards=shards,
            runner=ExperimentRunner(workers=POOL_WORKERS, use_cache=False),
        )

    return build


def _fleet_pool_hosts(inputs: _FleetInputs) -> int:
    return len(inputs.vm_ids) // 2


def _fleet_execute(inputs: _FleetInputs) -> Tuple[float, Any]:
    return _run_guarded(
        "fleet",
        lambda: run_sharded_plan(
            inputs.source,
            n_shards=inputs.shards,
            pool_hosts=_fleet_pool_hosts(inputs),
            pool_name="fleet",
            evaluation_days=FLEET_EVALUATION_DAYS,
            runner=inputs.runner,
        ),
    )


def fleet_capacity_table(inputs: _FleetInputs) -> Tuple[Any, HostCapacities]:
    """The fleet's sized demand table and bound-scaled host capacities."""
    traces = open_chunked_trace_set(inputs.directory)
    history, evaluation = split_window(traces, FLEET_EVALUATION_DAYS)
    pool = build_target_pool("fleet", host_count=_fleet_pool_hosts(inputs))
    context = PlanningContext(
        history=history,
        evaluation=evaluation,
        datacenter=pool,
        config=PlanningConfig(),
    )
    table = build_demand_table(
        DynamicConsolidation(),
        history.store,
        evaluation.store,
        [trace.vm.workload_class for trace in evaluation],
        context,
    )
    caps = HostCapacities(
        list(pool.hosts), context.config.utilization_bound
    )
    return table, caps


def _fleet_check(inputs: _FleetInputs, run: Any) -> Iteration:
    try:
        if run is None:
            return Iteration("", inputs.shards, inputs.shards,
                             ["fleet: run raised"], {},
                             facts={"runner.failed_tasks": inputs.shards})
        failures = check_exactly_once(run.schedule, inputs.vm_ids, "fleet")
        table, caps = fleet_capacity_table(inputs)
        failures += check_capacity(run.schedule, table, caps, "fleet")
        h = hashlib.sha256()
        _digest_schedule(h, run.schedule)
        report = run.report
        before = sum(report.active_hosts_before)
        after = sum(report.active_hosts_after)
        return Iteration(
            digest=h.hexdigest(),
            attempted=len(run.run_report.stats) + 2,
            failed=len(failures),
            failures=failures,
            quality={
                "migrations": float(run.schedule.total_migrations()),
                "mean_active_hosts": float(np.mean(report.active_hosts_after)),
            },
            extra={
                "reconcile_moves": (float(report.reconcile_moves), "count"),
            },
            facts={
                "sharding.hosts_freed": float(before - after),
                "runner.failed_tasks": 0.0,
            },
        )
    finally:
        shutil.rmtree(inputs.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# online: the controller serving a faulty monitoring stream, closed loop

SEED_HOURS = 48
RETENTION_POINTS = 168
QUERIES_PER_TICK = 8


@dataclass
class _OnlineInputs:
    controller: ConsolidationController
    feed: ScriptedFeed
    injector: FaultInjector
    query_rows: np.ndarray
    compactions_at_start: int


def _online_build(scale: float, ticks: int) -> Callable[[int], _OnlineInputs]:
    def build(seed: int) -> _OnlineInputs:
        days = (SEED_HOURS + ticks + 23) // 24
        traces = generate_datacenter(
            "banking", scale=scale, days=days, seed=_sub_seed(seed, "online")
        )
        pool = build_target_pool(
            "online", host_count=max(12, len(traces) // 2)
        )
        store = RollingTraceStore.from_traces(
            list(traces.window(0, SEED_HOURS)),
            retention_points=RETENTION_POINTS,
        )
        controller = ConsolidationController(list(pool.hosts), store)
        controller.bootstrap()
        stream = slice(SEED_HOURS, SEED_HOURS + ticks)
        feed = ScriptedFeed(
            traces.vm_ids,
            traces.store.cpu_util[:, stream],
            traces.store.memory_gb[:, stream],
            start_tick=store.total_points,
        )
        injector = FaultInjector(
            FaultSpec(
                drop_rate=0.01,
                duplicate_rate=0.01,
                delay_rate=0.01,
                seed=_sub_seed(seed, "faults"),
            )
        )
        rng = np.random.default_rng(_sub_seed(seed, "queries"))
        query_rows = rng.integers(
            0, len(traces.vm_ids), (ticks, QUERIES_PER_TICK)
        )
        return _OnlineInputs(
            controller, feed, injector, query_rows, store.n_compactions
        )

    return build


@dataclass
class _OnlineOutput:
    ingest_s: float
    delivered: int
    ingest_errors: int
    bad_responses: int
    replan_latencies: List[float]
    query_latencies: List[float]
    active_hosts: List[int]
    reports: list
    answers: List[Optional[str]]


def _online_execute(inputs: _OnlineInputs) -> Tuple[float, Any]:
    """Closed loop: each tick's samples, a replan, then the queries.

    Only the ingest, replan and query calls are timed; building each
    tick's batch, mangling it and encoding the queries stay outside.
    """
    controller = inputs.controller
    vm_ids = inputs.feed.vm_ids
    ingest_s = 0.0
    delivered = ingest_errors = bad = 0
    replan_latencies: List[float] = []
    query_latencies: List[float] = []
    active_hosts: List[int] = []
    reports = []
    answers: List[Optional[str]] = []

    def deliver(batch: Sequence[Any]) -> float:
        nonlocal delivered, ingest_errors
        started = clock()
        for sample in batch:
            try:
                controller.ingest(sample)
            except ServiceError:
                ingest_errors += 1
        # The end-of-tick watermark: flush whatever arrived, so a tick
        # with a dropped sample does not hold the stream back.
        controller.flush_pending()
        elapsed = clock() - started
        delivered += len(batch)
        return elapsed

    for index in range(inputs.feed.n_ticks):
        batch = inputs.injector.mangle(inputs.feed.tick_batch(index))
        lines = [
            json.dumps({"op": "place", "vm_id": vm_ids[row]})
            for row in inputs.query_rows[index]
        ]
        ingest_s += deliver(batch)
        started = clock()
        report = controller.replan_cycle()
        replan_latencies.append(clock() - started)
        reports.append(report)
        active_hosts.append(len(controller.plan.active_hosts()))
        for line in lines:
            started = clock()
            response = protocol.handle_request(controller, line)
            query_latencies.append(clock() - started)
            if not response.get("ok"):
                bad += 1
            answers.append(response.get("host"))
    ingest_s += deliver(inputs.injector.drain())
    wall = ingest_s + sum(replan_latencies) + sum(query_latencies)
    return wall, _OnlineOutput(
        ingest_s, delivered, ingest_errors, bad, replan_latencies,
        query_latencies, active_hosts, reports, answers,
    )


def _online_check(inputs: _OnlineInputs, out: _OnlineOutput) -> Iteration:
    controller = inputs.controller
    stats = controller.stats
    failures = check_plan_consistent(controller.plan)
    accounted = (
        stats.samples_ingested + stats.duplicates_ignored + stats.late_dropped
    )
    if accounted != out.delivered - out.ingest_errors:
        failures.append(
            f"online: {out.delivered - out.ingest_errors} samples delivered "
            f"but {accounted} accounted for"
        )
    assignment = controller.plan.assignment()
    if set(assignment) != set(controller.store.vm_ids):
        failures.append("online: the live plan does not place every VM")
    h = hashlib.sha256()
    h.update(json.dumps(sorted(assignment.items())).encode())
    for report in out.reports:
        h.update(json.dumps(report.migrations).encode())
    h.update(json.dumps(out.answers).encode())
    cycles = len(out.reports)
    queries = len(out.answers)
    op_failures = (
        out.ingest_errors + out.bad_responses
        + stats.detector_errors + stats.deadline_aborts
    )
    return Iteration(
        digest=h.hexdigest(),
        attempted=out.delivered + queries + cycles + 3,
        failed=op_failures + len(failures),
        failures=failures,
        quality={
            "migrations": float(stats.migrations_total),
            "mean_active_hosts": float(np.mean(out.active_hosts)),
        },
        extra={
            "ingest_samples_per_s": (out.delivered / out.ingest_s, "samples/s"),
        },
        facts={
            "service.samples": float(stats.samples_ingested),
            "service.duplicates_ignored": float(stats.duplicates_ignored),
            "service.late_dropped": float(stats.late_dropped),
            "service.gaps_filled": float(stats.gaps_filled),
            "service.vacate_failures": float(stats.vacate_failures),
            "service.placement_failures": float(stats.placement_failures),
            "service.detector_errors": float(stats.detector_errors),
            "service.deadline_aborts": float(stats.deadline_aborts),
            "workloads.rolling_compactions": float(
                controller.store.n_compactions - inputs.compactions_at_start
            ),
        },
        samples={
            "replan": list(out.replan_latencies),
            "query": list(out.query_latencies),
        },
    )


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _online_summary(
    samples: Dict[str, List[float]]
) -> Dict[str, Tuple[float, str]]:
    replan = samples.get("replan", [])
    query = samples.get("query", [])
    return {
        "replan_p50_ms": (_percentile(replan, 50) * 1e3, "ms"),
        "replan_p99_ms": (_percentile(replan, 99) * 1e3, "ms"),
        "replan_samples": (float(len(replan)), "count"),
        "query_p50_us": (_percentile(query, 50) * 1e6, "us"),
        "query_p99_us": (_percentile(query, 99) * 1e6, "us"),
        "query_samples": (float(len(query)), "count"),
    }


# ----------------------------------------------------------------------
# engagement: the constrained planning engagement, serial

BASELINE_SCHEMES = ("semi-static", "stochastic", "dynamic")
RESERVATION_BOUNDS = (0.7, 0.8, 0.9, 1.0)


@dataclass
class _EngagementInputs:
    tasks: list
    runner: ExperimentRunner
    vm_ids: Tuple[str, ...]
    constraints: ConstraintSet
    pool: Any


def _engagement_build(scale: float) -> Callable[[int], _EngagementInputs]:
    """``examples/datacenter_planning.py`` for banking, seeded."""

    def build(seed: int) -> _EngagementInputs:
        trace_seed = _sub_seed(seed, "engagement")
        traces = generate_datacenter("banking", scale=scale, seed=trace_seed)
        pool_hosts = max(12, len(traces) // 2)
        pool = build_target_pool(
            "banking-pool", host_count=pool_hosts, hosts_per_rack=14
        )
        vm_ids = traces.vm_ids
        specs = (
            {"type": "anti-colocate", "vms": [vm_ids[0], vm_ids[1]]},
            {"type": "anti-colocate", "vms": [vm_ids[2], vm_ids[3]]},
            {"type": "pin", "vm": vm_ids[4], "host": pool.hosts[0].host_id},
            {"type": "same-subnet", "vms": [vm_ids[5], vm_ids[6], vm_ids[7]]},
        )
        constraints = ConstraintSet(
            [
                AntiColocate(vm_ids[0], vm_ids[1]),
                AntiColocate(vm_ids[2], vm_ids[3]),
                PinToHost(vm_ids[4], pool.hosts[0].host_id),
                SameSubnet(vm_ids[5], vm_ids[6], vm_ids[7]),
            ]
        )

        def plan(scheme: str, bound: float = 0.8) -> Any:
            return planning_task(
                "banking",
                scale=scale,
                algorithm=scheme,
                utilization_bound=bound,
                pool_hosts=pool_hosts,
                constraints=specs,
                seed=trace_seed,
            )

        tasks = [plan(scheme) for scheme in BASELINE_SCHEMES]
        tasks += [plan("dynamic", bound) for bound in RESERVATION_BOUNDS]
        runner = ExperimentRunner(serial=True, use_cache=False)
        return _EngagementInputs(tasks, runner, tuple(vm_ids), constraints, pool)

    return build


def _engagement_execute(inputs: _EngagementInputs) -> Tuple[float, Any]:
    return _run_guarded("engagement", lambda: inputs.runner.run(inputs.tasks))


def _engagement_check(inputs: _EngagementInputs, report: Any) -> Iteration:
    n_tasks = len(inputs.tasks)
    if report is None:
        return Iteration("", n_tasks, n_tasks, ["engagement: run raised"],
                         {}, facts={"runner.failed_tasks": n_tasks})
    failures: List[str] = []
    h = hashlib.sha256()
    for task, result in zip(inputs.tasks, report.results):
        failures += check_exactly_once(result.schedule, inputs.vm_ids, task.name)
        for index, segment in enumerate(result.schedule):
            broken = inputs.constraints.violations(
                segment.placement.assignment, inputs.pool
            )
            if broken:
                failures.append(
                    f"{task.name}: segment {index} violates {broken}"
                )
        h.update(
            f"{task.name}:{result.provisioned_servers}:"
            f"{result.energy_kwh!r}:{result.total_migrations()}".encode()
        )
        _digest_schedule(h, result.schedule)
    results = list(report.results)
    return Iteration(
        digest=h.hexdigest(),
        attempted=n_tasks + 2 * len(results),
        failed=len(failures),
        failures=failures,
        quality={
            "migrations": float(sum(r.total_migrations() for r in results)),
            "mean_active_hosts": _mean_active_hosts(
                [r.schedule for r in results]
            ),
        },
        extra={
            "provisioned_servers": (
                float(sum(r.provisioned_servers for r in results)), "hosts"
            ),
            "energy_kwh": (float(sum(r.energy_kwh for r in results)), "kWh"),
        },
        facts={"runner.failed_tasks": 0.0},
    )


# ----------------------------------------------------------------------

#: Workload sizes: ``full`` is what the benchmark measures, ``toy`` is
#: the self-test's seconds-long version of the same code paths.
SIZES: Mapping[str, Mapping[str, Mapping[str, float]]] = {
    "paper": {"full": {"scale": 0.25}, "toy": {"scale": 0.02}},
    "fleet": {
        "full": {"scale": 3.0, "shards": 16},
        "toy": {"scale": 0.25, "shards": 4},
    },
    "online": {
        "full": {"scale": 0.5, "ticks": 1000},
        "toy": {"scale": 0.05, "ticks": 60},
    },
    "engagement": {"full": {"scale": 0.25}, "toy": {"scale": 0.03}},
}

WORKLOADS = tuple(SIZES)


def make_workload(name: str, size: str, workdir: Path) -> Workload:
    """The named workload at the named size."""
    params = SIZES[name][size]
    if name == "paper":
        return Workload(
            name, _paper_build(params["scale"]), _paper_execute, _paper_check
        )
    if name == "fleet":
        return Workload(
            name,
            _fleet_build(params["scale"], int(params["shards"]), workdir),
            _fleet_execute,
            _fleet_check,
        )
    if name == "online":
        return Workload(
            name,
            _online_build(params["scale"], int(params["ticks"])),
            _online_execute,
            _online_check,
            serial=True,
            summarize=_online_summary,
        )
    if name == "engagement":
        return Workload(
            name,
            _engagement_build(params["scale"]),
            _engagement_execute,
            _engagement_check,
            serial=True,
        )
    raise KeyError(name)
