"""Pre-copy live migration simulator (paper §4.3).

"Live VM migration consists of a pre-copy phase, where the memory
allocated to a virtual machine is transferred from the source physical
server to the target ... All pages that were made dirty in a pre-copy
round are copied again in the next round.  The pre-copy completes when
either a very small number of dirty pages remain or the number of dirty
pages do not reduce between consecutive rounds."

The simulator follows that design (Clark et al. NSDI'05, Nelson et al.
ATC'05) and adds the resource-contention effects measured by Verma et
al. (CoSMig, MASCOTS'11), which the paper uses to justify the 20%
reservation rule:

* the migration daemon needs CPU headroom on the *source* host; when the
  host runs hot the copy throughput collapses,
* high memory commitment on the source inflates the effective dirty rate
  (page cache churn and ballooning fight the tracer).

A migration *fails* (is aborted by the operator or times out) when the
pre-copy cannot converge within the round and duration budgets —
"prolonged or failed live migrations, which is unacceptable in
production data centers".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "PreCopyConfig",
    "MigrationOutcome",
    "simulate_migration",
]

_MB_PER_GB = 1024.0


@dataclass(frozen=True)
class PreCopyConfig:
    """Infrastructure parameters of the pre-copy implementation."""

    #: Nominal migration link bandwidth (1 GbE with TCP overhead).
    bandwidth_mb_s: float = 110.0
    #: Pre-copy stops when the dirty set falls below this (stop-and-copy).
    stop_threshold_mb: float = 64.0
    #: Give up if the dirty set shrinks by less than this factor per round.
    min_round_shrink: float = 0.95
    max_rounds: int = 30
    #: Operators abort migrations longer than this (seconds).
    max_duration_s: float = 300.0
    #: CPU fraction of the source host the migration daemon wants
    #: (Nelson et al.: ~30% of a server minimizes pre-copy time).
    cpu_demand_frac: float = 0.25
    #: Memory-commit level above which the dirty rate inflates.
    memory_pressure_knee: float = 0.85
    #: Dirty-rate multiplier at 100% memory commit.
    memory_pressure_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.bandwidth_mb_s <= 0:
            raise ConfigurationError("bandwidth_mb_s must be > 0")
        if self.stop_threshold_mb <= 0:
            raise ConfigurationError("stop_threshold_mb must be > 0")
        if not 0 < self.min_round_shrink <= 1:
            raise ConfigurationError("min_round_shrink must be in (0, 1]")
        if self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        if self.max_duration_s <= 0:
            raise ConfigurationError("max_duration_s must be > 0")
        if not 0 < self.cpu_demand_frac < 1:
            raise ConfigurationError("cpu_demand_frac must be in (0, 1)")
        if not 0 < self.memory_pressure_knee <= 1:
            raise ConfigurationError("memory_pressure_knee must be in (0, 1]")
        if self.memory_pressure_factor < 1:
            raise ConfigurationError("memory_pressure_factor must be >= 1")


@dataclass(frozen=True)
class MigrationOutcome:
    """Result of one simulated live migration."""

    success: bool
    duration_s: float
    downtime_s: float
    rounds: int
    copied_mb: float
    vm_memory_mb: float
    effective_bandwidth_mb_s: float

    @property
    def overhead_factor(self) -> float:
        """Total bytes moved relative to the VM's active memory.

        1.0 means a single clean copy; bursty writers re-send dirty pages
        and push this well above 1.
        """
        return self.copied_mb / self.vm_memory_mb


def _effective_bandwidth(
    config: PreCopyConfig, host_cpu_util: float
) -> float:
    """Copy throughput given the source host's CPU utilization.

    The daemon needs ``cpu_demand_frac`` of the host; with less headroom
    it gets throttled proportionally (CoSMig's observed collapse above
    ~75-80% utilization).  A floor of 5% keeps the simulation finite.
    """
    headroom = max(0.0, 1.0 - host_cpu_util)
    share = min(1.0, headroom / config.cpu_demand_frac)
    return config.bandwidth_mb_s * max(share, 0.05)


def _effective_dirty_rate(
    config: PreCopyConfig, dirty_rate_mb_s: float, host_memory_util: float
) -> float:
    """Dirty rate inflated by memory pressure above the knee."""
    if host_memory_util <= config.memory_pressure_knee:
        return dirty_rate_mb_s
    over = (host_memory_util - config.memory_pressure_knee) / max(
        1.0 - config.memory_pressure_knee, 1e-9
    )
    return dirty_rate_mb_s * (1.0 + (config.memory_pressure_factor - 1.0) * min(over, 1.0))


def simulate_migration(
    vm_memory_gb: float,
    dirty_rate_mb_s: float,
    *,
    host_cpu_util: float = 0.5,
    host_memory_util: float = 0.5,
    config: PreCopyConfig = PreCopyConfig(),
) -> MigrationOutcome:
    """Simulate one pre-copy live migration.

    Parameters
    ----------
    vm_memory_gb:
        Active memory of the migrating VM (the first round copies it all).
    dirty_rate_mb_s:
        Rate at which the workload dirties pages while being copied.
    host_cpu_util / host_memory_util:
        Source-host load *excluding* the migration itself; this is what
        the reservation rule controls.
    """
    if vm_memory_gb <= 0:
        raise ConfigurationError(f"vm_memory_gb must be > 0, got {vm_memory_gb}")
    if dirty_rate_mb_s < 0:
        raise ConfigurationError("dirty_rate_mb_s must be >= 0")
    if not 0 <= host_cpu_util <= 1 or not 0 <= host_memory_util <= 1:
        raise ConfigurationError("host utilizations must be in [0, 1]")

    bandwidth = _effective_bandwidth(config, host_cpu_util)
    dirty_rate = _effective_dirty_rate(
        config, dirty_rate_mb_s, host_memory_util
    )

    to_copy_mb = vm_memory_gb * _MB_PER_GB
    elapsed_s = 0.0
    copied_mb = 0.0
    rounds = 0
    converged = False
    while rounds < config.max_rounds:
        rounds += 1
        round_time = to_copy_mb / bandwidth
        elapsed_s += round_time
        copied_mb += to_copy_mb
        dirtied_mb = dirty_rate * round_time
        if elapsed_s > config.max_duration_s:
            return MigrationOutcome(
                success=False,
                duration_s=elapsed_s,
                downtime_s=0.0,
                rounds=rounds,
                copied_mb=copied_mb,
                vm_memory_mb=vm_memory_gb * _MB_PER_GB,
                effective_bandwidth_mb_s=bandwidth,
            )
        if dirtied_mb <= config.stop_threshold_mb:
            converged = True
            to_copy_mb = dirtied_mb
            break
        if dirtied_mb > to_copy_mb * config.min_round_shrink:
            # Dirty set is not shrinking: writable working set exceeds
            # what the link can drain.  Declare non-convergence.
            to_copy_mb = dirtied_mb
            break
        to_copy_mb = dirtied_mb

    downtime_s = to_copy_mb / bandwidth
    elapsed_s += downtime_s
    copied_mb += to_copy_mb
    success = converged and elapsed_s <= config.max_duration_s
    return MigrationOutcome(
        success=success,
        duration_s=elapsed_s,
        downtime_s=downtime_s,
        rounds=rounds,
        copied_mb=copied_mb,
        vm_memory_mb=vm_memory_gb * _MB_PER_GB,
        effective_bandwidth_mb_s=bandwidth,
    )
