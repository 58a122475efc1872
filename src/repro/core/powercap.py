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
   active host into the remaining ones, fullest first — allowed to
   overshoot the migration-reservation bound but never a host's full
   physical capacity,
3. stop when the budget is met or nothing can be vacated; the residual
   overshoot is reported so callers can alert.

Forced consolidation trades SLA risk (packing into the reservation)
for power compliance — exactly BrownMap's graceful-degradation deal.

The first estimate folds each host's demands in the placement's order
with ``np.bincount``; an interval whose hosts all fit at full capacity
and whose estimate meets the budget keeps its placement object as is.
Otherwise the plan's one
:class:`~repro.core.incremental.IncrementalPlan` at full capacity
(bound 1.0) is reset to the interval's demands and the placement is
folded into it in the placement's order, and each forced vacate's
targets come from the plan's shared search,
:meth:`~repro.core.incremental.IncrementalPlan.vacate_targets` — the
dynamic planner's own, cost gate aside.  ``tests/reference/powercap.py``
keeps the version on the scalar ``Bin`` of ``tests/reference/packing.py``
that the hook is pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.dynamic_vector import _Rules
from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.power import LinearPowerModel
from repro.placement.plan import Placement
from repro.sizing.estimator import DemandTable

__all__ = ["PowerBudgetedConsolidation"]

class _Workspace:
    """What the budget reads of one plan's hosts and VMs, built once.

    ``plan`` is at full physical capacity (bound 1.0): the budget
    enforcer may eat into the migration reservation (the documented SLA
    trade).  It is reset and refilled only for an interval the budget
    binds.
    """

    def __init__(
        self, context: PlanningContext, vm_ids: Tuple[str, ...]
    ) -> None:
        hosts = list(context.datacenter.hosts)
        caps = HostCapacities(hosts, 1.0)
        zeros = [0.0] * len(vm_ids)
        self.datacenter = context.datacenter
        self.vm_ids = vm_ids
        self.hosts = hosts
        self.caps = caps
        self.plan = IncrementalPlan(caps, vm_ids, zeros, zeros)
        self.eps = [
            np.array(eps)
            for eps in (caps.eps_cpu, caps.eps_mem, caps.eps_net, caps.eps_dsk)
        ]
        self.cpu_rpe2 = [host.cpu_rpe2 for host in hosts]
        self.power = [LinearPowerModel.for_host(host) for host in hosts]
        #: Placement id lookups, shared by the intervals' placements.
        self.memo: dict = {}

    def planned_power(
        self, body_cpu: Sequence[float], active: Sequence[int]
    ) -> float:
        """``active`` hosts at their packed CPU utilization, in order."""
        total = 0.0
        for host in active:
            utilization = min(body_cpu[host] / self.cpu_rpe2[host], 1.0)
            total += self.power[host].power_watts(utilization)
        return total


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
        self._workspace: Optional[_Workspace] = None

    def plan(self, context: PlanningContext) -> PlacementSchedule:
        self.overshoot_watts = []
        self._workspace = None
        return super().plan(context)

    def _finish_interval(
        self,
        placement: Placement,
        table: DemandTable,
        column: int,
        context: PlanningContext,
    ) -> Placement:
        placement, overshoot = self._enforce_budget(
            placement, table, column, context
        )
        self.overshoot_watts.append(overshoot)
        return placement

    # ------------------------------------------------------------------

    def _enforce_budget(
        self,
        placement: Placement,
        table: DemandTable,
        column: int,
        context: PlanningContext,
    ) -> "tuple[Placement, float]":
        """Force-vacate hosts until the power estimate meets the budget.

        A placement that fits at full capacity and already meets the
        budget comes back as the very same object.
        """
        if self.budget_watts == float("inf"):
            return placement, 0.0
        space = self._workspace
        vm_ids = tuple(table.vm_ids)
        if (
            space is None
            or space.datacenter is not context.datacenter
            or space.vm_ids != vm_ids
        ):
            # Built at first use, so the hook also works outside plan().
            space = self._workspace = _Workspace(context, vm_ids)
        plan = space.plan
        caps = space.caps
        columns = [
            matrix[:, column]
            for matrix in (
                table.cpu_rpe2, table.memory_gb,
                table.network_mbps, table.disk_mbps,
            )
        ]
        vm_rows, host_rows = placement.indices(
            plan.row_index, caps.index_of, space.memo, PlacementError
        )
        # Each host's bodies folded in placement order: bincount adds
        # its weights in input order, the append folds below.  Demands
        # are non-negative, so a fold that ends within capacity fit at
        # every step.
        bodies = [
            np.bincount(host_rows, weights=values[vm_rows], minlength=caps.n)
            for values in columns
        ]
        if all((body <= eps).all() for body, eps in zip(bodies, space.eps)):
            hosts, first = np.unique(host_rows, return_index=True)
            appearance = hosts[np.argsort(first)].tolist()
            power = space.planned_power(bodies[0].tolist(), appearance)
            if power <= self.budget_watts:
                return placement, 0.0

        plan.reset(*columns)
        rules = (
            _Rules(
                context.constraints, context.datacenter, plan.vm_ids,
                space.hosts,
            )
            if context.constraints
            else None
        )
        # Append folds in placement order; hosts in order of appearance
        # (the power sum's order and every tie-break below).
        appearance = []
        for row, host in zip(vm_rows.tolist(), host_rows.tolist()):
            if not plan.fits(row, host):
                raise PlacementError(
                    f"{plan.vm_ids[row]} does not fit on {caps.host_ids[host]}"
                )
            if not plan.vm_rows_of_host[host]:
                appearance.append(host)
            plan.assign(row, host)
            if rules is not None:
                rules.place(row, host)

        vm_rows_of_host = plan.vm_rows_of_host
        while True:
            active = [host for host in appearance if vm_rows_of_host[host]]
            power = space.planned_power(plan.body_cpu, active)
            if power <= self.budget_watts or len(active) <= 1:
                break
            source = min(
                active,
                key=lambda host: (
                    len(vm_rows_of_host[host]), plan.body_cpu[host]
                ),
            )
            moves = plan.vacate_targets(
                source,
                sorted(
                    vm_rows_of_host[source], key=plan.cpu.__getitem__,
                    reverse=True,
                ),
                sorted(active, key=plan.residual),
                rules.allows_after if rules is not None else None,
            )
            if moves is None:
                break
            plan.commit_vacate(source, moves)
            if rules is not None:
                for row, host in moves:
                    rules.place(row, host)
        overshoot = max(0.0, power - self.budget_watts)
        # The same entries in the same order, on the plan's hosts.
        same = caps.host_ids == placement.host_ids  # then share the tuple
        host_ids = placement.host_ids if same else caps.host_ids
        hosts_now = [plan.assignment_rows[row] for row in vm_rows.tolist()]
        result = Placement.from_indices(
            placement.vm_ids, host_ids, placement.rows, hosts_now
        )
        return result, overshoot
