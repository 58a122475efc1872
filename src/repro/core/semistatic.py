"""Vanilla semi-static consolidation (paper §2.2.2, §5.1).

"This is vanilla semi-static algorithm that uses peak expected resource
demand for sizing and first-fit-decreasing for placement."

One placement is computed from the history window's peak demand and held
for the whole evaluation window; re-planning happens at the next
(semi-)period with downtime-based relocation, so no live-migration
reservation is taken (the utilization bound is 1.0 regardless of the
dynamic bound in the config).  Contention can still occur when the
evaluation window exceeds the history peak — the paper's isolated
Natural-Resources case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import ConsolidationAlgorithm, PlanningContext
from repro.emulator.schedule import PlacementSchedule
from repro.placement.binpacking import pack
from repro.sizing.estimator import SizeEstimator
from repro.sizing.functions import MaxSizing

__all__ = ["SemiStaticConsolidation"]


@dataclass
class SemiStaticConsolidation(ConsolidationAlgorithm):
    """Peak sizing over the history window + FFD placement."""

    name: str = "semi-static"

    def plan(self, context: PlanningContext) -> PlacementSchedule:
        estimator = SizeEstimator(
            sizing=MaxSizing(),
            overhead=context.config.overhead,
            network=context.config.network,
            disk=context.config.disk,
        )
        demands = estimator.estimate_all(context.history)
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
