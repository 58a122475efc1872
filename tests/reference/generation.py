"""Per-VM reference pipeline for :func:`repro.workloads.generate_trace_set`.

The library generates a fleet on ``(n_vms, n_hours)`` matrices, drawing
each VM's randomness from its own ``SeedSequence(seed, spawn_key=(i,))``
stream.  This module is the straightforward version it is pinned to:
one :class:`~numpy.random.Generator` per server, one 1-D trace at a
time, composed from the per-VM model helpers below (diurnal bump,
Pareto spikes, scheduled jobs, EWMA memory smoothing).  The bitwise
equivalence suite in ``tests/workloads/test_engine_equivalence.py``
compares the two.

CPU pipeline per server:

1. deterministic shape: diurnal bump × weekend dip,
2. multiplicative stochastic texture: i.i.d. lognormal × exp(AR(1)),
3. rescale to the server's target mean utilization,
4. additive scheduled-batch windows and Pareto spikes,
5. clip to [floor, 1.0].

Memory: committed = configured × (base + dynamic × smoothed(load^exponent))
with small multiplicative noise.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.infrastructure.server import ServerSpec
from repro.infrastructure.vm import VirtualMachine
from repro.metrics.catalog import ServerModel
from repro.numerics import approx_eq
from repro.workloads import models
from repro.workloads.generator import (
    _UTIL_FLOOR,
    CorrelationModel,
    WorkloadClassProfile,
    _validate_generation_args,
)
from repro.workloads.models import hour_of_day
from repro.workloads.trace import (
    HOURS_PER_DAY,
    ResourceTrace,
    ServerTrace,
    TraceSet,
)

__all__ = [
    "diurnal_profile",
    "ewma_smooth",
    "generate_server_trace",
    "generate_trace_set_reference",
    "pareto_spike_matrix",
    "pareto_spikes",
    "scheduled_jobs",
]


def generate_trace_set_reference(
    name: str,
    specs: Sequence[Tuple[WorkloadClassProfile, ServerModel, int]],
    n_hours: int,
    seed: int,
    *,
    mean_util_spread_sigma: float = 0.7,
    mean_util_bounds: Tuple[float, float] = (0.002, 0.6),
    correlation: Optional[CorrelationModel] = None,
) -> TraceSet:
    """What ``generate_trace_set(...)`` must return, generated per VM.

    One upfront ``spawn(total + 1)`` replaces per-VM ``spawn(1)`` calls
    — SeedSequence children are a function of the spawn index alone, so
    the streams are the same.
    """
    _validate_generation_args(n_hours, mean_util_spread_sigma)
    total = 0
    for profile, _hardware, count in specs:
        if count < 0:
            raise ConfigurationError(
                f"{profile.name}: count must be >= 0, got {count}"
            )
        total += count
    children = np.random.SeedSequence(seed).spawn(total + 1)
    shared_rng = np.random.default_rng(children[0])
    shared_log_factor = None
    events: Sequence[Tuple[int, int, float]] = ()
    if correlation is not None:
        shared_log_factor = correlation.draw_shared_log_factor(
            n_hours, shared_rng
        )
        events = correlation.draw_events(n_hours, shared_rng)
    traces = []
    server_index = 0
    for profile, hardware, count in specs:
        for _ in range(count):
            rng = np.random.default_rng(children[server_index + 1])
            spread = float(
                rng.lognormal(
                    mean=-0.5 * mean_util_spread_sigma**2,
                    sigma=mean_util_spread_sigma,
                )
            )
            mean_util = float(
                np.clip(profile.mean_util * spread, *mean_util_bounds)
            )
            event_multiplier = None
            if correlation is not None:
                event_multiplier = _event_multiplier(
                    events,
                    n_hours,
                    correlation.event_participation
                    * profile.correlation_sensitivity,
                    rng,
                )
            traces.append(
                generate_server_trace(
                    vm_id=f"{name}-vm{server_index:04d}",
                    profile=profile,
                    source_model=hardware,
                    n_hours=n_hours,
                    rng=rng,
                    mean_util=mean_util,
                    shared_log_factor=shared_log_factor,
                    event_multiplier=event_multiplier,
                )
            )
            server_index += 1
    return TraceSet(name, traces)


def _generate_cpu_util(
    profile: WorkloadClassProfile,
    mean_util: float,
    n_hours: int,
    rng: np.random.Generator,
    shared_log_factor: Optional[np.ndarray] = None,
    event_multiplier: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Generate one server's CPU utilization trace (fractions in [0, 1])."""
    cpu = profile.cpu
    peak_hour = float(rng.uniform(9.0, 18.0))
    shape = diurnal_profile(
        n_hours,
        peak_hour=peak_hour,
        amplitude=cpu.diurnal_amplitude,
        width_hours=cpu.diurnal_width_hours,
    )
    shape = shape * models.weekly_profile(
        n_hours, weekend_factor=cpu.weekend_factor
    )
    shape = shape * models.lognormal_noise(n_hours, cpu.lognormal_sigma, rng)
    shape = shape * np.exp(models.ar1_noise(n_hours, cpu.ar1_phi, cpu.ar1_sigma, rng))
    if shared_log_factor is not None:
        shape = shape * np.exp(
            profile.correlation_sensitivity * shared_log_factor
        )
    util = mean_util * shape / shape.mean()
    if cpu.scheduled is not None:
        job = cpu.scheduled
        util = util + scheduled_jobs(
            n_hours,
            period_hours=job.period_hours,
            start_hour=int(rng.integers(0, job.period_hours)),
            duration_hours=job.duration_hours,
            level=job.level * float(rng.uniform(0.7, 1.3)),
            jitter_hours=job.jitter_hours,
            rng=rng,
        )
    if cpu.spike_rate_per_hour > 0:
        util = util + pareto_spikes(
            n_hours,
            rate_per_hour=cpu.spike_rate_per_hour,
            alpha=cpu.spike_alpha,
            scale=cpu.spike_scale,
            max_spike=cpu.spike_max,
            rng=rng,
        )
    if event_multiplier is not None:
        # Flash events multiply actual load: applied after the mean is
        # anchored, so correlated peaks add genuine demand on top.
        util = util * event_multiplier
    return np.clip(util, _UTIL_FLOOR, 1.0)


def _generate_memory_gb(
    profile: WorkloadClassProfile,
    cpu_util: np.ndarray,
    configured_gb: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate the committed-memory trace that tracks a CPU trace."""
    mem = profile.memory
    load_peak = max(float(cpu_util.max()), 1e-9)
    normalized_load = (cpu_util / load_peak) ** mem.load_exponent
    driver = ewma_smooth(normalized_load, mem.smoothing_alpha)
    committed_frac = mem.base_frac + mem.dynamic_frac * driver
    if mem.noise_sigma > 0:
        committed_frac = committed_frac * models.lognormal_noise(
            cpu_util.size, mem.noise_sigma, rng
        )
    committed = configured_gb * committed_frac
    return np.clip(committed, 0.01 * configured_gb, configured_gb)


def generate_server_trace(
    vm_id: str,
    profile: WorkloadClassProfile,
    source_model: ServerModel,
    n_hours: int,
    rng: np.random.Generator,
    *,
    mean_util: Optional[float] = None,
    labels: Optional[dict] = None,
    shared_log_factor: Optional[np.ndarray] = None,
    event_multiplier: Optional[np.ndarray] = None,
) -> ServerTrace:
    """Generate a full :class:`ServerTrace` for one source server.

    Parameters
    ----------
    vm_id:
        Identifier for the resulting VM.
    profile:
        Workload class profile controlling the statistical models.
    source_model:
        Hardware of the source physical server; bounds utilization and
        sets the configured memory.
    n_hours:
        Trace length (the paper uses 30 days = 720 hourly points).
    rng:
        Random generator; pass a per-server child of a seeded
        ``SeedSequence`` for reproducibility.
    mean_util:
        Per-server target mean utilization; defaults to the profile's.
    """
    if n_hours <= 0:
        raise ConfigurationError(f"n_hours must be > 0, got {n_hours}")
    target_mean = profile.mean_util if mean_util is None else mean_util
    if not 0 < target_mean <= 1:
        raise ConfigurationError(
            f"{vm_id}: mean_util must be in (0, 1], got {target_mean}"
        )
    cpu_util = _generate_cpu_util(
        profile,
        target_mean,
        n_hours,
        rng,
        shared_log_factor=shared_log_factor,
        event_multiplier=event_multiplier,
    )
    memory_gb = _generate_memory_gb(
        profile, cpu_util, source_model.memory_gb, rng
    )
    vm = VirtualMachine(
        vm_id=vm_id,
        memory_config_gb=source_model.memory_gb,
        workload_class=profile.workload_class,
        labels=dict(labels or {}, profile=profile.name),
    )
    return ServerTrace(
        vm=vm,
        source_spec=ServerSpec.from_model(source_model),
        cpu_util=ResourceTrace(cpu_util, unit="fraction"),
        memory_gb=ResourceTrace(memory_gb, unit="GB"),
    )


def _event_multiplier(
    events: Sequence[Tuple[int, int, float]],
    n_hours: int,
    participation: float,
    rng: np.random.Generator,
) -> Optional[np.ndarray]:
    """One server's flash-event exposure: a multiplicative load series."""
    if not events or participation <= 0:
        return None
    multiplier = np.ones(n_hours)
    hit_any = False
    for start, duration, magnitude in events:
        if rng.random() >= participation:
            continue
        hit_any = True
        # The server's own severity varies around the event magnitude.
        severity = magnitude * float(rng.uniform(0.5, 1.5))
        # The whole ramp at once: within one event the hit timestamps are
        # distinct, so an elementwise maximum over the slice reproduces
        # the per-offset max writes exactly.
        count = min(duration, n_hours - start)
        if count <= 0:
            continue
        decay = 1.0 - np.arange(count) / duration
        window = slice(start, start + count)
        np.maximum(
            multiplier[window], 1.0 + severity * decay, out=multiplier[window]
        )
    return multiplier if hit_any else None


def diurnal_profile(
    n_hours: int,
    *,
    peak_hour: float = 14.0,
    amplitude: float = 1.0,
    width_hours: float = 4.0,
    start_hour: int = 0,
) -> np.ndarray:
    """Multiplicative business-hours bump, mean-one-ish baseline of 1.

    The profile is ``1 + amplitude * exp(-d^2 / (2 width^2))`` where ``d``
    is the circular distance to ``peak_hour``.  ``amplitude=0`` yields a
    flat profile.
    """
    if amplitude < 0:
        raise ConfigurationError(f"amplitude must be >= 0, got {amplitude}")
    if width_hours <= 0:
        raise ConfigurationError(f"width_hours must be > 0, got {width_hours}")
    hod = hour_of_day(n_hours, start_hour).astype(float)
    distance = np.abs(hod - peak_hour)
    distance = np.minimum(distance, HOURS_PER_DAY - distance)
    return 1.0 + amplitude * np.exp(-(distance**2) / (2.0 * width_hours**2))


def pareto_spikes(
    n_hours: int,
    *,
    rate_per_hour: float,
    alpha: float,
    scale: float,
    max_spike: float,
    rng: np.random.Generator,
    max_duration_hours: int = 3,
) -> np.ndarray:
    """Sparse additive load spikes with Pareto-distributed magnitude.

    Spike arrivals are Poisson with the given hourly rate; each spike has
    magnitude ``min(scale * pareto(alpha), max_spike)`` and lasts 1 to
    ``max_duration_hours`` hours (uniform), decaying linearly.  This is
    the mechanism behind the extreme peak-to-average ratios of the
    Banking workload (>10 for 30% of servers at 1 h intervals).
    """
    if rate_per_hour < 0:
        raise ConfigurationError(
            f"rate_per_hour must be >= 0, got {rate_per_hour}"
        )
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be > 0, got {alpha}")
    if scale < 0 or max_spike < 0:
        raise ConfigurationError("scale and max_spike must be >= 0")
    if max_duration_hours < 1:
        raise ConfigurationError(
            f"max_duration_hours must be >= 1, got {max_duration_hours}"
        )
    spikes = np.zeros(n_hours)
    if rate_per_hour == 0 or scale == 0:
        return spikes
    n_spikes = rng.poisson(rate_per_hour * n_hours)
    if n_spikes == 0:
        return spikes
    starts = rng.integers(0, n_hours, size=n_spikes)
    magnitudes = np.minimum(scale * rng.pareto(alpha, size=n_spikes), max_spike)
    durations = rng.integers(1, max_duration_hours + 1, size=n_spikes)
    for start, magnitude, duration in zip(starts, magnitudes, durations):
        for offset in range(duration):
            t = start + offset
            if t >= n_hours:
                break
            decay = 1.0 - offset / duration
            spikes[t] = max(spikes[t], magnitude * decay)
    return spikes


def pareto_spike_matrix(
    n_rows: int,
    n_hours: int,
    *,
    rows: np.ndarray,
    starts: np.ndarray,
    magnitudes: np.ndarray,
    durations: np.ndarray,
) -> np.ndarray:
    """Pareto spike overlay scattered from pre-drawn spike draws.

    The dense oracle for the generator's ``_add_spikes_inplace``.  Each
    spike ``i`` lives on trace row ``rows[i]`` and decays linearly
    from ``starts[i]`` over ``durations[i]`` hours; overlapping spikes
    combine by max, exactly like the scalar loop (max is order-free).
    """
    spikes = np.zeros((n_rows, n_hours))
    starts = np.asarray(starts)
    durations = np.asarray(durations)
    if starts.size == 0:
        return spikes
    for offset in range(int(durations.max())):
        active = durations > offset
        times = starts + offset
        active &= times < n_hours
        if not active.any():
            continue
        decay = 1.0 - offset / durations[active]
        np.maximum.at(
            spikes, (rows[active], times[active]), magnitudes[active] * decay
        )
    return spikes


def scheduled_jobs(
    n_hours: int,
    *,
    period_hours: int,
    start_hour: int,
    duration_hours: int,
    level: float,
    jitter_hours: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Additive load from periodically scheduled batch jobs.

    Example: nightly payroll at 02:00 for 2 hours at 40% extra load is
    ``period_hours=24, start_hour=2, duration_hours=2, level=0.4``.
    ``jitter_hours`` shifts each occurrence by a uniform ±jitter, which is
    what makes "predictable" batch peaks imperfectly predictable.
    """
    if period_hours <= 0:
        raise ConfigurationError(f"period_hours must be > 0, got {period_hours}")
    if duration_hours <= 0:
        raise ConfigurationError(
            f"duration_hours must be > 0, got {duration_hours}"
        )
    if level < 0:
        raise ConfigurationError(f"level must be >= 0, got {level}")
    if jitter_hours < 0:
        raise ConfigurationError(f"jitter_hours must be >= 0, got {jitter_hours}")
    if jitter_hours > 0 and rng is None:
        raise ConfigurationError("jitter_hours > 0 requires an rng")
    load = np.zeros(n_hours)
    occurrence = start_hour % period_hours
    while occurrence < n_hours:
        begin = occurrence
        if jitter_hours > 0:
            assert rng is not None
            begin += int(rng.integers(-jitter_hours, jitter_hours + 1))
        for t in range(max(begin, 0), min(begin + duration_hours, n_hours)):
            load[t] = max(load[t], level)
        occurrence += period_hours
    return load


def ewma_smooth(values: np.ndarray, alpha: float) -> np.ndarray:
    """Exponentially weighted moving average with smoothing factor alpha.

    ``alpha`` is the weight of the *new* observation: 1.0 returns the
    input unchanged, small values respond slowly.  Used to model memory's
    sluggish response to load (committed memory does not spike and drop
    with each request burst the way CPU does).
    """
    if not 0 < alpha <= 1:
        raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ConfigurationError("ewma_smooth expects a 1-D array")
    if approx_eq(alpha, 1.0):
        return values.copy()
    smoothed = np.empty_like(values)
    smoothed[0] = values[0]
    for t in range(1, values.size):
        smoothed[t] = alpha * values[t] + (1.0 - alpha) * smoothed[t - 1]
    return smoothed
