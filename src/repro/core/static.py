"""Static consolidation (paper §2.2.1).

"Each virtual machine is sized to the expected peak usage for its
workload and virtual machines are placed on physical servers using
simple bin-packing approaches."

Static consolidation is a one-time placement for the *lifetime* of the
workload, so it must provision for the worst demand ever expected — we
operationalize "lifetime peak" as the history peak inflated by a
provisioning margin (capacity planners add headroom precisely because a
single month of history under-represents the lifetime maximum).  With a
zero margin this degenerates to vanilla semi-static, which is why the
paper's evaluation uses semi-static as the conservative baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import ConsolidationAlgorithm, PlanningContext
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import ConfigurationError
from repro.infrastructure.vm import VMDemand
from repro.placement.binpacking import pack
from repro.sizing.estimator import SizeEstimator
from repro.sizing.functions import MaxSizing

__all__ = ["StaticConsolidation"]


@dataclass
class StaticConsolidation(ConsolidationAlgorithm):
    """Lifetime-peak sizing + FFD; never re-plans."""

    name: str = "static"
    #: Headroom above the observed history peak (lifetime uncertainty).
    provisioning_margin: float = 0.25

    def __post_init__(self) -> None:
        if self.provisioning_margin < 0:
            raise ConfigurationError(
                f"provisioning_margin must be >= 0, got "
                f"{self.provisioning_margin}"
            )

    def plan(self, context: PlanningContext) -> PlacementSchedule:
        estimator = SizeEstimator(
            sizing=MaxSizing(),
            overhead=context.config.overhead,
            network=context.config.network,
            disk=context.config.disk,
        )
        margin = 1.0 + self.provisioning_margin
        demands = [
            VMDemand(
                vm_id=demand.vm_id,
                cpu_rpe2=demand.cpu_rpe2 * margin,
                memory_gb=demand.memory_gb * margin,
                network_mbps=demand.network_mbps * margin,
                disk_mbps=demand.disk_mbps * margin,
            )
            for demand in estimator.estimate_all(context.history)
        ]
        placement = pack(
            demands,
            context.datacenter.hosts,
            utilization_bound=1.0,
            constraints=context.constraints or None,
            datacenter=context.datacenter,
        )
        return PlacementSchedule.static(
            placement, context.evaluation.duration_hours
        )
