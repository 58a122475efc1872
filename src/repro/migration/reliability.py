"""Migration reliability study — derives the reservation rule (Obs. 4).

"We observed that if the CPU utilization is below 80% and memory
committed is below 85%, we can perform live migration reliably ...
We use a thumb rule of reserving 20% resources for reliable live
migration."

:func:`reliability_sweep` runs a population of migrations at each host
load level, one :func:`~repro.migration.precopy.simulate_migration` call
each, and reports the success rate and duration tail;
:func:`recommended_reservation` finds the highest utilization bound that
still meets a reliability target — the quantitative form of the paper's
20% rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.migration.precopy import PreCopyConfig, simulate_migration

__all__ = [
    "ReliabilityPoint",
    "reliability_sweep",
    "recommended_reservation",
]


@dataclass(frozen=True)
class ReliabilityPoint:
    """Aggregate migration behaviour at one host load level."""

    host_cpu_util: float
    host_memory_util: float
    success_rate: float
    mean_duration_s: float
    p99_duration_s: float
    mean_downtime_s: float

    def reliable(
        self, min_success_rate: float = 0.95, max_p99_duration_s: float = 290.0
    ) -> bool:
        """The paper's operational bar: migrations succeed and stay short."""
        return (
            self.success_rate >= min_success_rate
            and self.p99_duration_s <= max_p99_duration_s
        )


def reliability_sweep(
    utilizations: Sequence[float],
    *,
    n_migrations: int = 200,
    seed: int = 7,
    memory_tracks_cpu: bool = True,
    config: PreCopyConfig = PreCopyConfig(),
) -> Tuple[ReliabilityPoint, ...]:
    """Simulate migration populations across host utilization levels.

    At each utilization ``u``, ``n_migrations`` migrations run with VM
    memory sizes lognormally spread around 2 GB and dirty rates around
    20 MB/s (SpecWeb-class writers per Clark et al.).  With
    ``memory_tracks_cpu`` the host memory commit equals the CPU level —
    the consolidated-host situation the reservation protects.  One
    ``default_rng(seed)`` stream feeds every level in order, so a seed
    fixes every point.
    """
    if n_migrations <= 0:
        raise ConfigurationError(
            f"n_migrations must be > 0, got {n_migrations}"
        )
    rng = np.random.default_rng(seed)
    points = []
    for utilization in utilizations:
        if not 0 <= utilization <= 1:
            raise ConfigurationError(
                f"utilization must be in [0, 1], got {utilization}"
            )
        memory_util = utilization if memory_tracks_cpu else 0.5
        outcomes = []
        for _ in range(n_migrations):
            # Memory, then dirty rate, per migration: this order fixes
            # every point a seed yields.
            memory = float(
                np.clip(rng.lognormal(mean=np.log(2.0), sigma=0.6), 0.25, 16.0)
            )
            dirty_rate = float(
                np.clip(rng.lognormal(mean=np.log(20.0), sigma=0.7), 1.0, 90.0)
            )
            outcomes.append(
                simulate_migration(
                    memory,
                    dirty_rate,
                    host_cpu_util=utilization,
                    host_memory_util=memory_util,
                    config=config,
                )
            )
        durations = np.array([o.duration_s for o in outcomes])
        points.append(
            ReliabilityPoint(
                host_cpu_util=float(utilization),
                host_memory_util=float(memory_util),
                success_rate=float(np.mean([o.success for o in outcomes])),
                mean_duration_s=float(durations.mean()),
                p99_duration_s=float(np.percentile(durations, 99)),
                mean_downtime_s=float(
                    np.mean([o.downtime_s for o in outcomes])
                ),
            )
        )
    return tuple(points)


def recommended_reservation(
    *,
    min_success_rate: float = 0.95,
    max_p99_duration_s: float = 290.0,
    granularity: float = 0.05,
    config: PreCopyConfig = PreCopyConfig(),
    seed: int = 7,
) -> float:
    """Smallest resource reservation that keeps migration reliable.

    Sweeps utilization bounds from high to low and returns ``1 - bound``
    for the highest bound whose :class:`ReliabilityPoint` passes the
    reliability bar.  With default parameters this lands at ~0.20 — the
    paper's Observation 4.
    """
    if not 0 < granularity < 1:
        raise ConfigurationError(
            f"granularity must be in (0, 1), got {granularity}"
        )
    bounds = np.arange(1.0, 0.0, -granularity)
    points = reliability_sweep(
        [float(round(b, 10)) for b in bounds], seed=seed, config=config
    )
    for point in points:
        if point.reliable(min_success_rate, max_p99_duration_s):
            return float(round(1.0 - point.host_cpu_util, 10))
    return float(round(1.0 - points[-1].host_cpu_util, 10))
