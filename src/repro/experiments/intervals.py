"""Consolidation-interval length study (paper §7, "Enabling Shorter
Consolidation Intervals").

"Improvements in network bandwidth as well as advances in live migration
implementation can allow shorter dynamic consolidation intervals to
become practical.  This will enable more fine-grained consolidation,
reducing the overall hardware footprint as well as providing more
opportunities for saving power."

:func:`run_interval_study` re-runs dynamic consolidation at several
interval lengths over the same traces and reports servers, energy,
migrations and contention per interval length — quantifying the §7
claim (and its cost: shorter intervals mean more migrations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.planner import split_window
from repro.emulator.emulator import ConsolidationEmulator
from repro.experiments.settings import ExperimentSettings
from repro.workloads.datacenters import generate_datacenter
from repro.workloads.trace import TraceSet

__all__ = ["IntervalPoint", "run_interval_study", "DEFAULT_INTERVAL_SWEEP"]

#: 1 h is the shortest the hourly traces support; 2 h is the paper's
#: baseline; 4/8 h approximate increasingly semi-static behaviour.
DEFAULT_INTERVAL_SWEEP: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class IntervalPoint:
    """Dynamic consolidation outcome at one interval length."""

    interval_hours: float
    provisioned_servers: int
    energy_kwh: float
    total_migrations: int
    contention_time_fraction: float
    mean_active_fraction: float


def run_interval_study(
    datacenter_key: str,
    settings: Optional[ExperimentSettings] = None,
    *,
    intervals_hours: Sequence[float] = DEFAULT_INTERVAL_SWEEP,
    trace_set: Optional[TraceSet] = None,
) -> Tuple[IntervalPoint, ...]:
    """Sweep the dynamic consolidation interval for one datacenter.

    Neither the history/evaluation split nor the emulator depends on the
    interval, so the sweep splits the traces once and replays every
    plan on one emulator; each interval gets its own planning context.
    """
    settings = settings or ExperimentSettings()
    if trace_set is None:
        trace_set = generate_datacenter(datacenter_key, scale=settings.scale)
    history, evaluation = split_window(trace_set, settings.evaluation_days)
    pool = settings.build_pool(trace_set)
    base = PlanningConfig(utilization_bound=settings.utilization_bound)
    emulator = ConsolidationEmulator(
        trace_set=evaluation, datacenter=pool, overhead=base.overhead
    )
    points = []
    for interval in intervals_hours:
        context = PlanningContext(
            history=history,
            evaluation=evaluation,
            datacenter=pool,
            config=replace(base, interval_hours=float(interval)),
        )
        algorithm = DynamicConsolidation()
        result = emulator.evaluate(
            algorithm.plan(context), scheme=algorithm.name
        )
        points.append(
            IntervalPoint(
                interval_hours=float(interval),
                provisioned_servers=result.provisioned_servers,
                energy_kwh=result.energy_kwh,
                total_migrations=result.total_migrations(),
                contention_time_fraction=result.contention_time_fraction(),
                mean_active_fraction=float(
                    result.active_fraction_series().mean()
                ),
            )
        )
    return tuple(points)
