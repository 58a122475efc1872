"""Multi-period study: static vs semi-static consolidation (paper §2.2).

The paper's taxonomy: *static* consolidation places once, sized for the
workload's lifetime peak; *semi-static* "allows higher resource
utilization by allowing consolidation to be performed at coarse-grained
intervals (e.g., once a month or once a week)", re-sizing from the most
recent window and relocating during planned downtime.

The baseline experiment evaluates a single 14-day period, where the two
coincide; their difference only shows when demand *evolves* across
periods.  This study overlays a shared seasonal factor (think retail
quarters or project phases) on a generated datacenter and rolls a
multi-period window:

* **static** — one plan from the first history window, sized at peak
  with a provisioning margin, held forever;
* **semi-static** — re-planned at every period boundary from the
  immediately preceding period (the paper's re-size + relocate cycle).

Semi-static tracks the season down (fewer active servers in the
trough); static pays the lifetime peak the whole time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.semistatic import SemiStaticConsolidation
from repro.core.static import StaticConsolidation
from repro.emulator.emulator import ConsolidationEmulator
from repro.emulator.results import EmulationResult
from repro.emulator.schedule import PlacementSchedule, ScheduledPlacement
from repro.exceptions import ConfigurationError
from repro.experiments.settings import ExperimentSettings
from repro.workloads.datacenters import generate_datacenter
from repro.workloads.store import TraceStore
from repro.workloads.trace import TraceSet

__all__ = ["MultiPeriodResult", "apply_seasonal_drift", "run_multiperiod"]


def apply_seasonal_drift(
    trace_set: TraceSet,
    *,
    amplitude: float = 0.4,
    period_days: float = 56.0,
    phase: float = 0.0,
) -> TraceSet:
    """Overlay a shared seasonal CPU factor on a trace set.

    ``factor(t) = 1 + amplitude * sin(2*pi*t/period + phase)`` multiplies
    every server's CPU utilization (clipped at the source capacity);
    memory keeps its usual muted response (half the relative swing,
    Obs. 2's sub-linearity).
    """
    if not 0 <= amplitude < 1:
        raise ConfigurationError(
            f"amplitude must be in [0, 1), got {amplitude}"
        )
    if period_days <= 0:
        raise ConfigurationError(
            f"period_days must be > 0, got {period_days}"
        )
    hours = np.arange(trace_set.n_points)
    factor = 1.0 + amplitude * np.sin(
        2.0 * np.pi * hours / (period_days * 24.0) + phase
    )
    memory_factor = 1.0 + (factor - 1.0) * 0.5
    identities = trace_set.identities
    cpu = np.clip(trace_set.cpu_util_matrix() * factor, 0.0, 1.0)
    memory = np.clip(
        trace_set.memory_gb_matrix() * memory_factor,
        0.0,
        np.array([[vm.memory_config_gb] for vm, _spec in identities]),
    )
    store = TraceStore.from_demand(
        trace_set.vm_ids,
        cpu,
        memory,
        [spec.cpu_rpe2 for _vm, spec in identities],
        trace_set.interval_hours,
    )
    return TraceSet.from_store(trace_set.name, store, identities)


@dataclass(frozen=True)
class MultiPeriodResult:
    """Static vs rolling semi-static over several re-planning periods."""

    workload: str
    n_periods: int
    period_days: int
    static: EmulationResult
    semi_static: EmulationResult
    semi_static_servers_per_period: Tuple[int, ...]
    #: Present only when the study also ran the dynamic tier.
    dynamic: Optional[EmulationResult] = None

    @property
    def static_servers(self) -> int:
        return self.static.provisioned_servers

    @property
    def energy_saving(self) -> float:
        """Semi-static's energy saving over static across the horizon."""
        if self.static.energy_kwh == 0:
            return 0.0
        return 1.0 - self.semi_static.energy_kwh / self.static.energy_kwh


def run_multiperiod(
    datacenter_key: str,
    settings: Optional[ExperimentSettings] = None,
    *,
    n_periods: int = 4,
    period_days: int = 14,
    seasonal_amplitude: float = 0.4,
    include_dynamic: bool = False,
) -> MultiPeriodResult:
    """Run the static vs semi-static multi-period comparison.

    With ``include_dynamic`` the study also runs dynamic consolidation
    over the whole horizon (2 h intervals, migration reservation),
    completing the paper's §2.2 taxonomy on one seasonal workload.
    """
    settings = settings or ExperimentSettings()
    if n_periods < 2:
        raise ConfigurationError(f"n_periods must be >= 2, got {n_periods}")
    if period_days <= 0:
        raise ConfigurationError(
            f"period_days must be > 0, got {period_days}"
        )
    total_days = (n_periods + 1) * period_days  # one history period
    traces = apply_seasonal_drift(
        generate_datacenter(
            datacenter_key, scale=settings.scale, days=total_days
        ),
        amplitude=seasonal_amplitude,
        period_days=n_periods * period_days / 1.5,
    )
    pool = settings.build_pool(traces)
    period_hours = period_days * 24
    evaluation = traces.window(period_hours, total_days * 24)
    emulator = ConsolidationEmulator(trace_set=evaluation, datacenter=pool)
    config = PlanningConfig(interval_hours=settings.interval_hours)

    def context_for(history_start: int) -> PlanningContext:
        return PlanningContext(
            history=traces.window(
                history_start, history_start + period_hours
            ),
            evaluation=evaluation,
            datacenter=pool,
            config=config,
        )

    # Static: one lifetime plan from the first history window.
    static_schedule = StaticConsolidation().plan(context_for(0))
    static_result = emulator.evaluate(static_schedule, scheme="static")

    # Semi-static: re-plan each period from the preceding window.
    segments: List[ScheduledPlacement] = []
    servers_per_period: List[int] = []
    for period in range(n_periods):
        history_start = period * period_hours
        schedule = SemiStaticConsolidation().plan(context_for(history_start))
        placement = schedule.segments[0].placement
        servers_per_period.append(placement.active_host_count)
        segments.append(
            ScheduledPlacement(
                placement=placement,
                start_hour=period * period_hours,
                end_hour=(period + 1) * period_hours,
            )
        )
    semi_schedule = PlacementSchedule(segments=tuple(segments))
    semi_result = emulator.evaluate(semi_schedule, scheme="semi-static")

    dynamic_result = None
    if include_dynamic:
        dynamic_schedule = DynamicConsolidation().plan(context_for(0))
        dynamic_result = emulator.evaluate(
            dynamic_schedule, scheme="dynamic"
        )

    return MultiPeriodResult(
        workload=traces.name,
        n_periods=n_periods,
        period_days=period_days,
        static=static_result,
        semi_static=semi_result,
        semi_static_servers_per_period=tuple(servers_per_period),
        dynamic=dynamic_result,
    )
