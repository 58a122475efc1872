"""Scalar reference planner for :class:`DynamicConsolidation`.

Per interval: size every VM at its predicted peak, pack from scratch
with the scalar FFD scan (``pack_reference``, never the library's
``pack()``, which runs the loop under test) and the previous placement
as the preferred hosts, vacate lightly-loaded hosts with ``Bin`` folds,
then hand the placement to the algorithm's ``_finish_interval`` hook —
the same hook the library's columnar planner calls, so subclasses such
as :class:`~repro.core.powercap.PowerBudgetedConsolidation` are pinned
through their real override.  Deployment constraints go through
``pack_reference`` and a ``feasible`` check on every vacate target.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.base import PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.emulator.schedule import PlacementSchedule
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.placement.plan import Placement
from repro.sizing.estimator import DemandTable, SizeEstimator
from repro.sizing.functions import MaxSizing
from tests.reference.packing import Bin, pack_reference
from tests.reference.sizing import estimate_from_values_reference

__all__ = ["host_order", "plan_reference", "predict_interval"]

#: Idle draw of a host with no catalog model attached (W).
_UNCATALOGUED_IDLE_WATTS = 160.0


def plan_reference(
    algorithm: DynamicConsolidation, context: PlanningContext
) -> PlacementSchedule:
    """What ``algorithm.plan(context)`` must return, computed per VM."""
    points = context.points_per_interval
    history_points = context.history.n_points
    vm_ids = list(context.evaluation.vm_ids)
    class_of = {
        trace.vm_id: trace.vm.workload_class
        for trace in context.evaluation
    }
    cpu_full = np.hstack(
        [
            context.history.cpu_rpe2_matrix(),
            context.evaluation.cpu_rpe2_matrix(),
        ]
    )
    memory_full = np.hstack(
        [
            context.history.memory_gb_matrix(),
            context.evaluation.memory_gb_matrix(),
        ]
    )
    estimator = SizeEstimator(
        sizing=MaxSizing(),
        overhead=context.config.overhead,
        network=context.config.network,
        disk=context.config.disk,
    )
    placements: List[Placement] = []
    previous: Optional[Placement] = None
    for interval in range(context.n_intervals):
        now = history_points + interval * points
        demands = predict_interval(
            algorithm, vm_ids, cpu_full, memory_full, now, points,
            estimator, class_of,
        )
        placement = _place_interval(algorithm, demands, context, previous)
        placement = algorithm._finish_interval(
            placement, _one_column_table(vm_ids, demands), 0, context
        )
        placements.append(placement)
        previous = placement
    return PlacementSchedule.periodic(
        placements, context.config.interval_hours
    )


def _one_column_table(
    vm_ids: Sequence[str], demands: Sequence[VMDemand]
) -> DemandTable:
    """The interval's demand list as the table the hook reads."""

    def column(name: str) -> np.ndarray:
        return np.array([[getattr(d, name)] for d in demands])

    return DemandTable(
        vm_ids=tuple(vm_ids),
        cpu_rpe2=column("cpu_rpe2"),
        memory_gb=column("memory_gb"),
        network_mbps=column("network_mbps"),
        disk_mbps=column("disk_mbps"),
    )


def predict_interval(
    algorithm: DynamicConsolidation,
    vm_ids: Sequence[str],
    cpu_full: np.ndarray,
    memory_full: np.ndarray,
    now: int,
    points: int,
    estimator: SizeEstimator,
    class_of: Mapping[str, str],
) -> List[VMDemand]:
    """Size every VM at its predicted peak for the next interval."""
    predictor = algorithm.predictor
    cpu_peaks = algorithm.cpu_burst_factor * predictor.predict_peak_table(
        cpu_full, points, [now]
    )[:, 0]
    memory_peaks = predictor.predict_peak_table(
        memory_full, points, [now]
    )[:, 0]
    return [
        estimate_from_values_reference(
            estimator,
            vm_id,
            float(cpu_peaks[row]),
            float(memory_peaks[row]),
            class_of.get(vm_id),
        )
        for row, vm_id in enumerate(vm_ids)
    ]


def _place_interval(
    algorithm: DynamicConsolidation,
    demands: List[VMDemand],
    context: PlanningContext,
    previous: Optional[Placement],
) -> Placement:
    """One interval's placement: sticky pack, then cost-aware vacate."""
    datacenter = context.datacenter
    bound = context.config.utilization_bound
    hosts = host_order(datacenter, previous)
    placement = pack_reference(
        demands,
        hosts,
        utilization_bound=bound,
        constraints=context.constraints or None,
        datacenter=datacenter,
        preferred=previous.assignment if previous is not None else None,
    )
    return _vacate_hosts(algorithm, placement, demands, context)


def host_order(
    datacenter: Datacenter, previous: Optional[Placement]
) -> List[PhysicalServer]:
    """Previously-active hosts first so new load lands on warm iron."""
    if previous is None:
        return list(datacenter.hosts)
    active = previous.hosts_used
    warm = [h for h in datacenter if h.host_id in active]
    cold = [h for h in datacenter if h.host_id not in active]
    return warm + cold


def _vacate_hosts(
    algorithm: DynamicConsolidation,
    placement: Placement,
    demands: List[VMDemand],
    context: PlanningContext,
) -> Placement:
    """Empty lightly-loaded hosts into loaded ones when it pays off."""
    datacenter = context.datacenter
    bound = context.config.utilization_bound
    demand_of = {d.vm_id: d for d in demands}
    bins: Dict[str, Bin] = {}
    assignment = dict(placement.assignment)
    for vm_id, host_id in assignment.items():
        target = bins.get(host_id)
        if target is None:
            target = Bin.for_host(datacenter.host(host_id), bound)
            bins[host_id] = target
        target.add(demand_of[vm_id])

    for _ in range(algorithm.max_vacate_sweeps):
        changed = False
        # Visit candidates emptiest-first; the cheapest hosts to
        # vacate free a whole idle-power quantum each.
        for source in sorted(
            bins.values(), key=lambda b: (len(b.vm_ids), b.used_cpu)
        ):
            if source.is_empty or len(bins) <= 1:
                continue
            if _try_vacate(
                algorithm, source, bins, assignment, demand_of, context
            ):
                changed = True
        empty = [host_id for host_id, b in bins.items() if b.is_empty]
        for host_id in empty:
            del bins[host_id]
        if not changed:
            break
    return Placement(assignment=assignment)


def _try_vacate(
    algorithm: DynamicConsolidation,
    source: Bin,
    bins: Dict[str, Bin],
    assignment: Dict[str, str],
    demand_of: Mapping[str, VMDemand],
    context: PlanningContext,
) -> bool:
    """Move all of ``source``'s VMs elsewhere if benefit > cost."""
    moves: List[tuple] = []
    # Candidate order computed once per vacate attempt: residuals
    # only drift via this attempt's own pending moves, which the fit
    # check accounts for exactly.
    candidates = sorted(
        (b for b in bins.values() if b is not source and not b.is_empty),
        key=lambda b: b.residual(),
    )
    for vm_id in sorted(
        source.vm_ids,
        key=lambda v: demand_of[v].cpu_rpe2,
        reverse=True,
    ):
        target = _find_target(
            algorithm,
            vm_id,
            demand_of[vm_id],
            candidates,
            assignment,
            moves,
            context,
            demand_of,
        )
        if target is None:
            return False
        moves.append((vm_id, target))

    if algorithm.consider_migration_cost:
        cost_wh = sum(
            algorithm._cached_cost(demand_of[vm_id].memory_gb)
            for vm_id, _ in moves
        )
        benefit_wh = (
            _idle_watts(source.host) * context.config.interval_hours
        )
        if benefit_wh <= cost_wh:
            return False

    for vm_id, target in moves:
        target.add(demand_of[vm_id])
        assignment[vm_id] = target.host.host_id
    source.body_cpu = 0.0
    source.body_memory = 0.0
    source.body_network = 0.0
    source.body_disk = 0.0
    source.max_tail_cpu = 0.0
    source.max_tail_memory = 0.0
    source.vm_ids.clear()
    return True


def _find_target(
    algorithm: DynamicConsolidation,
    vm_id: str,
    demand: VMDemand,
    candidates: List[Bin],
    assignment: Mapping[str, str],
    pending_moves: List[tuple],
    context: PlanningContext,
    demand_of: Mapping[str, VMDemand],
) -> Optional[Bin]:
    """Fullest other host that admits the VM (constraints included)."""
    shadow: Optional[Dict[str, str]] = None
    if context.constraints:
        shadow = dict(assignment)
        for moved_vm, target in pending_moves:
            shadow[moved_vm] = target.host.host_id
    for candidate in candidates:
        if not _fits_with_pending(
            candidate, demand, pending_moves, demand_of
        ):
            continue
        if context.constraints and not context.constraints.feasible(
            vm_id, candidate.host, shadow, context.datacenter
        ):
            continue
        return candidate
    return None


def _fits_with_pending(
    candidate: Bin,
    demand: VMDemand,
    pending_moves: List[tuple],
    demand_of: Mapping[str, VMDemand],
) -> bool:
    """Fit check that also counts not-yet-committed moves.

    While a vacate attempt is being evaluated, earlier VMs of the same
    source may already be aimed at ``candidate``; their demand must
    count or the vacate could overcommit the target.
    """
    pending_cpu = 0.0
    pending_memory = 0.0
    pending_network = 0.0
    pending_disk = 0.0
    for moved_vm, target in pending_moves:
        if target is candidate:
            moved = demand_of[moved_vm]
            pending_cpu += moved.cpu_rpe2
            pending_memory += moved.memory_gb
            pending_network += moved.network_mbps
            pending_disk += moved.disk_mbps
    cpu_after = (
        candidate.body_cpu
        + pending_cpu
        + demand.cpu_rpe2
        + max(candidate.max_tail_cpu, demand.tail_cpu_rpe2)
    )
    memory_after = (
        candidate.body_memory
        + pending_memory
        + demand.memory_gb
        + max(candidate.max_tail_memory, demand.tail_memory_gb)
    )
    network_after = (
        candidate.body_network + pending_network + demand.network_mbps
    )
    disk_after = candidate.body_disk + pending_disk + demand.disk_mbps
    return (
        cpu_after <= candidate.cpu_capacity + 1e-9
        and memory_after <= candidate.memory_capacity + 1e-9
        and network_after <= candidate.network_capacity + 1e-9
        and disk_after <= candidate.disk_capacity + 1e-9
    )


def _idle_watts(host: PhysicalServer) -> float:
    if host.model is not None:
        return host.model.idle_watts
    return _UNCATALOGUED_IDLE_WATTS
