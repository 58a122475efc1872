"""Power-budgeted dynamic consolidation (BrownMap-style).

The paper's tooling lineage includes BrownMap (Verma et al.,
Middleware 2010, reference [28]): "enforcing power budget in shared
data centers".  This module extends :class:`DynamicConsolidation` with a
per-interval power budget — the brown-out scenario where the facility
caps draw and the consolidation layer must shed active servers even
when the cost-benefit rule would keep them on.

Mechanism per interval, after normal cost-aware placement:

1. estimate the interval's power from active hosts and their packed
   utilization (same linear model the emulator applies),
2. while the estimate exceeds the budget, *force-vacate* the emptiest
   active host into the remaining ones — allowed to overshoot the
   migration-reservation bound but never a host's full physical
   capacity,
3. stop when the budget is met or nothing can be vacated; the residual
   overshoot is reported so callers can alert.

Forced consolidation trades SLA risk (packing into the reservation)
for power compliance — exactly BrownMap's graceful-degradation deal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.core.base import PlanningContext
from repro.core.dynamic import DynamicConsolidation, _DEFAULT_IDLE_WATTS
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import ConfigurationError
from repro.infrastructure.power import LinearPowerModel
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.placement.binpacking import Bin
from repro.placement.plan import Placement
from repro.sizing.estimator import DemandTable

__all__ = ["PowerBudgetedConsolidation"]

_DEFAULT_POWER = LinearPowerModel(
    idle_watts=_DEFAULT_IDLE_WATTS, peak_watts=400.0
)


def _power_model(host: PhysicalServer) -> LinearPowerModel:
    if host.model is not None:
        return LinearPowerModel.from_model(host.model)
    return _DEFAULT_POWER


@dataclass
class PowerBudgetedConsolidation(DynamicConsolidation):
    """Dynamic consolidation under a hard per-interval power budget."""

    name: str = "power-budgeted"
    #: Facility power cap in watts; ``inf`` degenerates to plain dynamic.
    budget_watts: float = float("inf")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.budget_watts <= 0:
            raise ConfigurationError(
                f"budget_watts must be > 0, got {self.budget_watts}"
            )
        #: Per-interval budget overshoot (W) observed during planning;
        #: reset at each plan() call, indexed by interval.
        self.overshoot_watts: List[float] = []

    def plan(self, context: PlanningContext) -> PlacementSchedule:
        self.overshoot_watts = []
        return super().plan(context)

    def _finish_interval(
        self,
        placement: Placement,
        table: DemandTable,
        column: int,
        context: PlanningContext,
    ) -> Placement:
        placement, overshoot = self._enforce_budget(
            placement, table.column(column), context
        )
        self.overshoot_watts.append(overshoot)
        return placement

    # ------------------------------------------------------------------

    def _estimated_power(
        self, bins: Mapping[str, Bin]
    ) -> float:
        """Planned power: active hosts at their packed CPU utilization."""
        total = 0.0
        for bin_ in bins.values():
            if bin_.is_empty:
                continue
            utilization = min(
                bin_.used_cpu / bin_.host.cpu_rpe2, 1.0
            )
            total += _power_model(bin_.host).power_watts(utilization)
        return total

    def _enforce_budget(
        self,
        placement: Placement,
        demands: List[VMDemand],
        context: PlanningContext,
    ) -> "tuple[Placement, float]":
        """Force-vacate hosts until the power estimate meets the budget."""
        if self.budget_watts == float("inf"):
            return placement, 0.0
        demand_of = {d.vm_id: d for d in demands}
        # Rebuild bins at FULL physical capacity: the budget enforcer may
        # eat into the migration reservation (the documented SLA trade).
        bins: Dict[str, Bin] = {}
        assignment = dict(placement.assignment)
        for vm_id, host_id in assignment.items():
            bin_ = bins.get(host_id)
            if bin_ is None:
                bin_ = Bin.for_host(context.datacenter.host(host_id), 1.0)
                bins[host_id] = bin_
            bin_.add(demand_of[vm_id])

        while self._estimated_power(bins) > self.budget_watts:
            active = [b for b in bins.values() if not b.is_empty]
            if len(active) <= 1:
                break
            source = min(active, key=lambda b: (len(b.vm_ids), b.used_cpu))
            if not self._force_vacate(
                source, bins, assignment, demand_of, context
            ):
                break
        overshoot = max(
            0.0, self._estimated_power(bins) - self.budget_watts
        )
        return Placement(assignment=assignment), overshoot

    def _force_vacate(
        self,
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
                if not self._fits_with_pending(
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
