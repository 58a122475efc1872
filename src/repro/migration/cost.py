"""Migration cost model for adaptation decisions.

Dynamic consolidation must weigh the benefit of a move (power saved for
one consolidation interval) against its cost, as pMapper (Middleware'08)
and the cost-sensitive adaptation engine of Jung et al. (Middleware'09)
do.  The cost of one live migration has two parts:

* **energy/resource cost** — copying the VM's active memory burns CPU
  and network on both hosts for the migration's duration,
* **SLA risk cost** — the throughput dip during pre-copy and the
  stop-and-copy downtime, priced per second of migration.

Both scale with the VM's active memory, so the model reduces to a
per-GB price expressed in the same unit as interval power savings
(watt-hours), making benefit/cost directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.exceptions import ConfigurationError
from repro.migration.precopy import PreCopyConfig, simulate_migration

__all__ = ["MigrationCostModel"]


@dataclass(frozen=True)
class MigrationCostModel:
    """Prices one live migration in watt-hour-equivalent units."""

    #: Extra power drawn on source + target while the copy runs (W).
    migration_power_watts: float = 80.0
    #: SLA-risk price per second of migration, in watt-hour equivalents.
    sla_cost_per_second: float = 0.15
    #: Dirty rate assumed for cost estimation (MB/s).
    assumed_dirty_rate_mb_s: float = 20.0
    precopy: PreCopyConfig = PreCopyConfig()

    def __post_init__(self) -> None:
        if self.migration_power_watts < 0:
            raise ConfigurationError("migration_power_watts must be >= 0")
        if self.sla_cost_per_second < 0:
            raise ConfigurationError("sla_cost_per_second must be >= 0")
        if self.assumed_dirty_rate_mb_s < 0:
            raise ConfigurationError("assumed_dirty_rate_mb_s must be >= 0")

    def migration_duration_s(self, vm_memory_gb: float) -> float:
        """Expected migration duration at the planning load point.

        Planning assumes the source host is at the utilization bound
        (the reservation exists precisely so this is the worst case).
        """
        outcome = simulate_migration(
            max(vm_memory_gb, 1e-3),
            self.assumed_dirty_rate_mb_s,
            host_cpu_util=0.7,
            host_memory_util=0.7,
            config=self.precopy,
        )
        return outcome.duration_s

    def cost_wh(self, vm_memory_gb: float) -> float:
        """Cost of migrating one VM, in watt-hours."""
        duration_s = self.migration_duration_s(vm_memory_gb)
        energy_wh = self.migration_power_watts * duration_s / 3600.0
        sla_wh = self.sla_cost_per_second * duration_s
        return energy_wh + sla_wh

    def costs_wh(self, vm_memory_gb: Sequence[float]) -> List[float]:
        """:meth:`cost_wh` of each VM, in order."""
        return [self.cost_wh(memory) for memory in vm_memory_gb]
