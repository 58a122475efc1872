"""Dynamic VM consolidation (paper §2.2.3, §5.1).

"We use a state-of-the-art dynamic consolidation scheme that compares
various adaptation actions possible and selects the one with least cost.
The actual sizing function used in this case is the estimated peak
demand in the consolidation window."

The implementation captures the salient features of pMapper (Verma et
al., Middleware'08) and the cost-sensitive adaptation engine (Jung et
al., Middleware'09):

* **Prediction** — each VM's peak demand for the next interval is
  predicted from its demand history (default:
  :class:`~repro.sizing.prediction.PeriodicPeakPredictor`).  Prediction
  error, not packing, is what causes the contention of Figs. 8/9.
* **Sticky re-placement** — each interval starts from the previous
  placement; a VM moves only when its current host cannot carry its new
  size, so gratuitous migrations are avoided.
* **Cost-aware host vacating** — lightly-loaded hosts are emptied into
  loaded ones and powered off only when the interval's idle-power saving
  exceeds the live-migration cost of the evicted VMs.
* **Migration reservation** — every host is packed only to the
  utilization bound (Table 3 baseline: 0.8); the reserve keeps the
  migrations this scheme depends on reliable (Observation 4).
* **Deployment constraints** — every placement decision honours the
  context's constraints (paper §2.2.4), checked where ``pack()`` checks
  them.

:meth:`DynamicConsolidation.plan` runs the columnar planner in
:mod:`repro.core.dynamic_vector`; the per-VM reference it is pinned to
lives in ``tests/reference/dynamic.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.core.base import ConsolidationAlgorithm, PlanningContext
from repro.core.dynamic_vector import plan_dynamic_array
from repro.emulator.schedule import PlacementSchedule
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.migration.cost import MigrationCostModel
from repro.placement.binpacking import Bin
from repro.placement.plan import Placement
from repro.sizing.estimator import DemandTable
from repro.sizing.prediction import PeriodicPeakPredictor, Predictor

__all__ = ["DynamicConsolidation"]

#: Idle power assumed when a host has no catalog model attached (W).
_DEFAULT_IDLE_WATTS = 160.0


@dataclass
class DynamicConsolidation(ConsolidationAlgorithm):
    """Predicted-peak sizing + sticky, cost-aware per-interval packing."""

    name: str = "dynamic"
    predictor: Predictor = field(
        default_factory=lambda: PeriodicPeakPredictor(lookback_days=2)
    )
    migration_cost: MigrationCostModel = field(
        default_factory=MigrationCostModel
    )
    #: Disable to vacate hosts whenever physically possible (ablation).
    consider_migration_cost: bool = True
    #: Intra-interval CPU burst premium.  The deployed system provisions
    #: for the peak of fine-grained (minute-level) samples inside each
    #: 2 h window; hourly averages smooth those bursts away.  A
    #: long-window max (semi-static sizing) already sits on a burst hour
    #: and needs no such premium, so this is a dynamic-only factor.
    #: Memory carries no premium — committed memory barely moves at
    #: sub-hour timescales (Observation 2).
    cpu_burst_factor: float = 1.12
    #: Cap on consolidation sweeps per interval (each sweep is a full
    #: pass over active hosts; convergence is quick in practice).
    max_vacate_sweeps: int = 3

    def __post_init__(self) -> None:
        self._cost_cache: Dict[float, float] = {}

    # ------------------------------------------------------------------

    def plan(self, context: PlanningContext) -> PlacementSchedule:
        return plan_dynamic_array(self, context)

    def _finish_interval(
        self,
        placement: Placement,
        table: DemandTable,
        column: int,
        context: PlanningContext,
    ) -> Placement:
        """Last step of each interval, after the sticky pack and vacate.

        ``table.column(column)`` holds the interval's sized demands.
        Returns the interval's final placement, which the next
        interval's sticky pack starts from.  The default keeps
        ``placement``; subclasses post-process it (a power budget sheds
        hosts, :mod:`repro.core.powercap`).
        """
        return placement

    # ------------------------------------------------------------------

    @staticmethod
    def _fits_with_pending(
        candidate: Bin,
        demand: VMDemand,
        pending_moves: List[tuple],
        demand_of: Mapping[str, VMDemand],
    ) -> bool:
        """Fit check that also counts not-yet-committed moves.

        While a vacate attempt is being evaluated, earlier VMs of the
        same source may already be aimed at ``candidate``; their demand
        must count or the vacate could overcommit the target.
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

    def _cached_cost(self, memory_gb: float) -> float:
        key = round(memory_gb, 1)
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = self.migration_cost.cost_wh(max(key, 0.1))
            self._cost_cache[key] = cost
        return cost

    @staticmethod
    def _idle_watts(host: PhysicalServer) -> float:
        if host.model is not None:
            return host.model.idle_watts
        return _DEFAULT_IDLE_WATTS
