"""Reference power-budget hook for :class:`PowerBudgetedConsolidation`.

The library enforces the budget on an
:class:`~repro.core.incremental.IncrementalPlan` at full physical
capacity and finds each forced vacate's targets with the plan's shared
search.  This subclass keeps the straightforward version: one ``Bin``
per active host, rebuilt from the placement in its own order, a
force-vacate that re-sorts the candidates for every VM and re-counts
the attempt's pending moves per check, and ``feasible`` against the
whole assignment.  Planned by the same planner, both must shed the same
hosts and report the same overshoot, interval for interval.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.core.base import PlanningContext
from repro.core.powercap import PowerBudgetedConsolidation
from repro.infrastructure.power import LinearPowerModel
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.placement.plan import Placement
from repro.sizing.estimator import DemandTable
from tests.reference.dynamic import _fits_with_pending
from tests.reference.packing import Bin

__all__ = ["ReferencePowerBudget"]

#: Power curve of a host with no catalog model attached.
_DEFAULT_POWER = LinearPowerModel(idle_watts=160.0, peak_watts=400.0)


def _power_model(host: PhysicalServer) -> LinearPowerModel:
    if host.model is not None:
        return LinearPowerModel.from_model(host.model)
    return _DEFAULT_POWER


class ReferencePowerBudget(PowerBudgetedConsolidation):
    """The power budget with its ``Bin``-based enforcement."""

    def _finish_interval(
        self,
        placement: Placement,
        table: DemandTable,
        column: int,
        context: PlanningContext,
    ) -> Placement:
        placement, overshoot = self._enforce_budget_bins(
            placement, table.column(column), context
        )
        self.overshoot_watts.append(overshoot)
        return placement

    @staticmethod
    def _estimated_power_bins(bins: Mapping[str, Bin]) -> float:
        """Planned power: active hosts at their packed CPU utilization."""
        total = 0.0
        for bin_ in bins.values():
            if bin_.is_empty:
                continue
            utilization = min(bin_.used_cpu / bin_.host.cpu_rpe2, 1.0)
            total += _power_model(bin_.host).power_watts(utilization)
        return total

    def _enforce_budget_bins(
        self,
        placement: Placement,
        demands: List[VMDemand],
        context: PlanningContext,
    ) -> "tuple[Placement, float]":
        """Force-vacate hosts until the power estimate meets the budget."""
        if self.budget_watts == float("inf"):
            return placement, 0.0
        demand_of = {d.vm_id: d for d in demands}
        # Bins at full physical capacity: the budget may eat into the
        # migration reservation.
        bins: Dict[str, Bin] = {}
        assignment = dict(placement.assignment)
        for vm_id, host_id in assignment.items():
            bin_ = bins.get(host_id)
            if bin_ is None:
                bin_ = Bin.for_host(context.datacenter.host(host_id), 1.0)
                bins[host_id] = bin_
            bin_.add(demand_of[vm_id])

        while self._estimated_power_bins(bins) > self.budget_watts:
            active = [b for b in bins.values() if not b.is_empty]
            if len(active) <= 1:
                break
            source = min(active, key=lambda b: (len(b.vm_ids), b.used_cpu))
            if not self._force_vacate_bins(
                source, bins, assignment, demand_of, context
            ):
                break
        overshoot = max(
            0.0, self._estimated_power_bins(bins) - self.budget_watts
        )
        return Placement(assignment=assignment), overshoot

    @staticmethod
    def _force_vacate_bins(
        source: Bin,
        bins: Dict[str, Bin],
        assignment: Dict[str, str],
        demand_of: Mapping[str, VMDemand],
        context: PlanningContext,
    ) -> bool:
        """Vacate ignoring the cost-benefit rule (budget compliance)."""
        moves: List[tuple] = []
        for vm_id in sorted(
            source.vm_ids,
            key=lambda v: demand_of[v].cpu_rpe2,
            reverse=True,
        ):
            demand = demand_of[vm_id]
            shadow = dict(assignment)
            for moved_vm, moved_target in moves:
                shadow[moved_vm] = moved_target.host.host_id
            target = None
            candidates = sorted(
                (
                    b
                    for b in bins.values()
                    if b is not source and not b.is_empty
                ),
                key=lambda b: b.residual(),
            )
            for candidate in candidates:
                if not _fits_with_pending(
                    candidate, demand, moves, demand_of
                ):
                    continue
                if context.constraints and not context.constraints.feasible(
                    vm_id, candidate.host, shadow, context.datacenter
                ):
                    continue
                target = candidate
                break
            if target is None:
                return False
            moves.append((vm_id, target))
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
