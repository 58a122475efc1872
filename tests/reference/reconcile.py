"""Dict-based sharded merge and reconciliation, kept as an oracle.

The library keeps a sharded plan's fleet assignment as one
``(intervals × VMs)`` host-index matrix, reconciles every interval on
one :class:`~repro.core.incremental.IncrementalPlan` bulk-reloaded from
the interval's row, and keeps the sweeps' active list current as
vacates commit (:mod:`repro.sharding`).  This module keeps the
straightforward pipeline that replaced: each segment's merged
placement is the union of the shard dicts; each interval rebuilds a
plan from scratch from its dict (rows appended host by host, each
host's bodies folded over its rows in ascending order); the sweeps
rescan every host for the active ones after each commit; and the
result is read back as a dict.  ``tests/sharding/
test_reconcile_equivalence.py`` pins the two to each other.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import ConfigurationError, PlacementError
from repro.sharding.partition import host_groups
from repro.sharding.planner import ShardedConsolidation, build_demand_table
from repro.sizing.estimator import DemandTable

__all__ = [
    "plan_from_assignment_reference",
    "reconcile_assignment_reference",
    "sharded_plan_reference",
]


def plan_from_assignment_reference(
    caps: HostCapacities,
    vm_ids: Sequence[str],
    cpu: Sequence[float],
    mem: Sequence[float],
    assignment: Mapping[str, str],
    net: Optional[Sequence[float]] = None,
    dsk: Optional[Sequence[float]] = None,
) -> IncrementalPlan:
    """A canonical-fold plan built from scratch, one host at a time.

    Rows are appended to their hosts in ``assignment`` order, then each
    host's rows are sorted and its four bodies folded left over them.
    """
    plan = IncrementalPlan(caps, vm_ids, cpu, mem, net, dsk)
    for vm_id, host_id in assignment.items():
        row = plan.row_of(vm_id)
        host = caps.index_of[host_id]
        plan.assignment_rows[row] = host
        plan.vm_rows_of_host[host].append(row)
    for host, rows in enumerate(plan.vm_rows_of_host):
        rows.sort()
        body_cpu = body_mem = body_net = body_dsk = 0.0
        for row in rows:
            body_cpu += plan.cpu[row]
            body_mem += plan.mem[row]
            body_net += plan.net[row]
            body_dsk += plan.dsk[row]
        plan.body_cpu[host] = body_cpu
        plan.body_mem[host] = body_mem
        plan.body_net[host] = body_net
        plan.body_dsk[host] = body_dsk
    return plan


def merge_reference(
    schedules: Sequence[PlacementSchedule],
) -> List[Dict[str, str]]:
    """Each segment's merged assignment: the union of the shard dicts."""
    if not schedules:
        raise ConfigurationError("no shard schedules to merge")
    boundaries = [
        tuple((s.start_hour, s.end_hour) for s in schedule)
        for schedule in schedules
    ]
    if len(set(boundaries)) != 1:
        raise ConfigurationError(
            "shard schedules tile the window differently; cannot merge"
        )
    merged = []
    for index in range(len(schedules[0])):
        assignment: Dict[str, str] = {}
        for schedule in schedules:
            part = schedule.segments[index].placement.assignment
            overlap = assignment.keys() & part.keys()
            if overlap:
                raise ConfigurationError(
                    f"shards overlap on VMs {sorted(overlap)[:3]}"
                )
            assignment.update(part)
        merged.append(assignment)
    return merged


def _try_vacate(
    plan: IncrementalPlan, source: int, targets: List[int]
) -> int:
    moves = plan.vacate_targets(
        source,
        sorted(
            plan.vm_rows_of_host[source], key=plan.cpu.__getitem__,
            reverse=True,
        ),
        sorted(targets, key=plan.residual),
    )
    if not moves:
        return 0
    try:
        plan.apply_delta(
            [plan.vm_ids[row] for row, _ in moves],
            [plan.caps.host_ids[target] for _, target in moves],
        )
    except PlacementError:
        return 0
    return len(moves)


def reconcile_plan_reference(
    plan: IncrementalPlan,
    group_of_host: Sequence[int],
    *,
    fill_threshold: float = 0.5,
    max_sweeps: int = 2,
) -> int:
    """Rack-local then cross-rack vacate sweeps, rescanning every host
    for the active ones at each sweep and after each cross-rack commit."""
    if not 0 < fill_threshold <= 1:
        raise PlacementError(
            f"fill_threshold must be in (0, 1], got {fill_threshold}"
        )
    moves = 0
    for _ in range(max_sweeps):
        changed = False
        active = plan.active_hosts()
        if len(active) <= 1:
            break
        under = [host for host in active if plan.fill(host) < fill_threshold]
        if not under:
            break
        under.sort(
            key=lambda h: (len(plan.vm_rows_of_host[h]), plan.body_cpu[h])
        )
        active_in_group: Dict[int, List[int]] = {}
        for host in active:
            active_in_group.setdefault(group_of_host[host], []).append(host)
        for source in under:
            peers = [
                host
                for host in active_in_group[group_of_host[source]]
                if plan.vm_rows_of_host[host]
            ]
            if len(peers) <= 1:
                continue
            moved = _try_vacate(plan, source, peers)
            if moved:
                moves += moved
                changed = True
        active = plan.active_hosts()
        survivors = [
            host
            for host in under
            if plan.vm_rows_of_host[host]
            and plan.fill(host) < fill_threshold
        ]
        for source in survivors:
            moved = _try_vacate(plan, source, active)
            if moved:
                moves += moved
                changed = True
                active = plan.active_hosts()
        if not changed:
            break
    return moves


def reconcile_assignment_reference(
    assignment: Dict[str, str],
    table: DemandTable,
    column: int,
    caps: HostCapacities,
    group_of_host: Sequence[int],
    *,
    fill_threshold: float = 0.5,
    max_sweeps: int = 2,
) -> Tuple[Dict[str, str], int]:
    """One interval: bincount prefilter, from-scratch plan, sweeps, dict."""
    rows_host = np.array(
        [caps.index_of[assignment[vm_id]] for vm_id in table.vm_ids],
        dtype=np.intp,
    )
    cpu_col = table.cpu_rpe2[:, column]
    mem_col = table.memory_gb[:, column]
    body_cpu = np.bincount(rows_host, weights=cpu_col, minlength=caps.n)
    body_mem = np.bincount(rows_host, weights=mem_col, minlength=caps.n)
    active = np.bincount(rows_host, minlength=caps.n) > 0
    fills = np.maximum(
        body_cpu / caps.cap_cpu_np, body_mem / caps.cap_mem_np
    )
    if active.sum() <= 1 or not (fills[active] < fill_threshold).any():
        return dict(assignment), 0
    plan = plan_from_assignment_reference(
        caps,
        list(table.vm_ids),
        cpu_col.tolist(),
        mem_col.tolist(),
        assignment,
        table.network_mbps[:, column].tolist(),
        table.disk_mbps[:, column].tolist(),
    )
    moves = reconcile_plan_reference(
        plan,
        group_of_host,
        fill_threshold=fill_threshold,
        max_sweeps=max_sweeps,
    )
    return plan.assignment(), moves


def sharded_plan_reference(
    algorithm: ShardedConsolidation,
    context: PlanningContext,
    schedules: Sequence[PlacementSchedule],
) -> Tuple[List[Dict[str, str]], int, Tuple[int, ...], Tuple[int, ...]]:
    """Merge and reconcile already-planned shard schedules the dict way.

    Returns each interval's assignment, the reconcile moves and the
    active-host counts before and after reconciliation, for the
    settings of ``algorithm`` (reconciliation runs only with more than
    one shard).
    """
    merged = merge_reference(schedules)
    before = tuple(len(set(m.values())) for m in merged)
    moves = 0
    if algorithm.reconcile and len(schedules) > 1:
        table = build_demand_table(
            DynamicConsolidation(),
            context.history.store,
            context.evaluation.store,
            [vm.workload_class for vm, _ in context.evaluation.identities],
            context,
        )
        caps = HostCapacities(
            list(context.datacenter.hosts),
            context.config.utilization_bound,
        )
        group_of_host = [0] * caps.n
        for group, (_, hosts) in enumerate(
            host_groups(context.datacenter, algorithm.by)
        ):
            for host in hosts:
                group_of_host[caps.index_of[host.host_id]] = group
        for column, assignment in enumerate(merged):
            merged[column], moved = reconcile_assignment_reference(
                assignment,
                table,
                column,
                caps,
                group_of_host,
                fill_threshold=algorithm.fill_threshold,
                max_sweeps=algorithm.max_reconcile_sweeps,
            )
            moves += moved
    after = tuple(len(set(m.values())) for m in merged)
    return merged, moves, before, after
