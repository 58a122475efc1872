"""Sensitivity analysis over the live-migration reservation (Figs. 13-16).

"For a utilization bound of U, 1-U fraction of all server resources are
reserved for live migration."  The sweep re-runs dynamic consolidation
at each bound while the semi-static variants (which take no reservation)
stay fixed — the flat reference lines in the paper's figures.

The figures price the reservation in servers only, so the sweep plans
and counts each schedule's hosts; it replays nothing through the
emulator (whose ``provisioned_servers`` counts the same hosts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.core.base import ConsolidationAlgorithm, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.planner import split_window
from repro.core.semistatic import SemiStaticConsolidation
from repro.core.stochastic import StochasticConsolidation
from repro.experiments.settings import (
    UTILIZATION_BOUND_SWEEP,
    ExperimentSettings,
)
from repro.workloads.datacenters import generate_datacenter
from repro.workloads.trace import TraceSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner import ExperimentRunner

__all__ = ["SensitivityResult", "run_sensitivity", "run_sensitivity_all"]


@dataclass(frozen=True)
class SensitivityResult:
    """Server counts across the utilization-bound sweep for one DC."""

    workload: str
    semi_static_servers: int
    stochastic_servers: int
    dynamic_servers_by_bound: Dict[float, int]

    def crossover_bound(self) -> Optional[float]:
        """Smallest bound at which dynamic matches/beats stochastic.

        The paper's Fig. 13 headline: Banking crosses at ~0.85.  Returns
        None if dynamic never reaches stochastic within the sweep.
        """
        for bound in sorted(self.dynamic_servers_by_bound):
            if self.dynamic_servers_by_bound[bound] <= (
                self.stochastic_servers
            ):
                return bound
        return None

    def improvement_at_full_bound(self) -> float:
        """Dynamic's server reduction vs stochastic with no reservation.

        Positive values mean dynamic uses fewer servers (paper: ~18% for
        Banking, ~17% for Natural Resources).
        """
        full = max(self.dynamic_servers_by_bound)
        dynamic = self.dynamic_servers_by_bound[full]
        return 1.0 - dynamic / self.stochastic_servers

    def rows(self) -> Tuple[Dict[str, object], ...]:
        return tuple(
            {
                "workload": self.workload,
                "utilization_bound": bound,
                "dynamic_servers": servers,
                "semi_static_servers": self.semi_static_servers,
                "stochastic_servers": self.stochastic_servers,
            }
            for bound, servers in sorted(
                self.dynamic_servers_by_bound.items()
            )
        )


def run_sensitivity(
    datacenter_key: str,
    settings: Optional[ExperimentSettings] = None,
    *,
    bounds: Sequence[float] = UTILIZATION_BOUND_SWEEP,
    trace_set: Optional[TraceSet] = None,
) -> SensitivityResult:
    """Sweep the dynamic utilization bound for one datacenter.

    Every plan reads one history/evaluation split of the traces, and its
    server count is the hosts its schedule touches
    (:attr:`~repro.emulator.schedule.PlacementSchedule.hosts_used`, the
    set the emulator's ``provisioned_servers`` counts), so no schedule
    is replayed.
    """
    settings = settings or ExperimentSettings()
    if trace_set is None:
        trace_set = generate_datacenter(datacenter_key, scale=settings.scale)
    history, evaluation = split_window(trace_set, settings.evaluation_days)
    pool = settings.build_pool(trace_set)

    def servers(
        algorithm: ConsolidationAlgorithm, bound: Optional[float] = None
    ) -> int:
        context = PlanningContext(
            history=history,
            evaluation=evaluation,
            datacenter=pool,
            config=settings.planning_config(utilization_bound=bound),
        )
        return len(algorithm.plan(context).hosts_used)

    return SensitivityResult(
        workload=trace_set.name,
        semi_static_servers=servers(SemiStaticConsolidation()),
        stochastic_servers=servers(StochasticConsolidation()),
        dynamic_servers_by_bound={
            float(bound): servers(DynamicConsolidation(), bound)
            for bound in bounds
        },
    )


def run_sensitivity_all(
    settings: Optional[ExperimentSettings] = None,
    *,
    bounds: Sequence[float] = UTILIZATION_BOUND_SWEEP,
    datacenters: Optional[Sequence[str]] = None,
    runner: Optional["ExperimentRunner"] = None,
) -> Dict[str, SensitivityResult]:
    """Run the bound sweep for every datacenter (the Figs. 13-16 grid).

    With a :class:`~repro.runner.ExperimentRunner` the per-datacenter
    sweeps fan out over its process pool and content-addressed cache;
    otherwise they run serially in-process.
    """
    from repro.workloads.datacenters import ALL_DATACENTERS

    settings = settings or ExperimentSettings()
    keys = (
        [config.key for config in ALL_DATACENTERS]
        if datacenters is None
        else list(datacenters)
    )
    if runner is not None:
        from repro.runner.tasks import sensitivity_sweep

        report = runner.run(
            sensitivity_sweep(settings, keys, bounds=bounds)
        )
        return dict(zip(keys, report.results))
    return {
        key: run_sensitivity(key, settings, bounds=bounds) for key in keys
    }
