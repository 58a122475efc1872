"""Synthetic server trace generation.

The paper's traces are proprietary (30-day hourly monitoring of >3000
production Windows servers).  This module generates statistically
equivalent traces: each server draws a *workload class profile* (web,
steady batch, scheduled batch, idle) that controls its CPU burstiness
model and its memory-follows-load model.  The four datacenter presets in
:mod:`repro.workloads.datacenters` are mixtures of these classes tuned to
reproduce the paper's Section-4 measurements.

CPU generation pipeline (per server):

1. deterministic shape: diurnal bump × weekend dip,
2. multiplicative stochastic texture: i.i.d. lognormal × exp(AR(1)),
3. rescale to the server's target mean utilization,
4. additive scheduled-batch windows and Pareto spikes,
5. clip to [floor, 1.0] (a source server cannot exceed its own capacity).

Memory generation: committed memory = configured × (base + dynamic ×
smoothed(load^exponent)) with small multiplicative noise — the sub-linear
exponent and smoothing are what make memory an order of magnitude less
bursty than CPU (Observation 2; validated against the paper's Olio
anecdote by :mod:`repro.workloads.appmodel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.infrastructure.server import ServerSpec
from repro.numerics import approx_eq
from repro.infrastructure.vm import VirtualMachine, WorkloadClass
from repro.metrics.catalog import ServerModel
from repro.workloads import models
from repro.workloads.fastdraw import (
    DrawBuffers,
    DrawParams,
    FastDrawKernel,
    make_fast_drawer,
)
from repro.workloads.fastseed import FastSeeder, make_fast_seeder
from repro.workloads.store import TraceStore
from repro.workloads.trace import TraceSet

__all__ = [
    "ScheduledJobSpec",
    "CpuModel",
    "MemoryModel",
    "CorrelationModel",
    "WorkloadClassProfile",
    "TraceBlock",
    "generate_trace_blocks",
    "generate_trace_matrix",
    "generate_trace_set",
    "WEB_BURSTY",
    "WEB_MODERATE",
    "STEADY_BATCH",
    "SCHEDULED_BATCH",
    "IDLE",
]

_UTIL_FLOOR = 0.002
#: Longest Pareto spike, in hours: each spike's duration is drawn
#: uniformly from ``1..3`` (the per-VM reference draws the same range).
_SPIKE_MAX_DURATION_HOURS = 3


@dataclass(frozen=True)
class CorrelationModel:
    """Cross-server demand correlation within a datacenter.

    Two mechanisms make enterprise workloads peak *together* (and thereby
    limit the statistical-multiplexing gains stochastic consolidation can
    bank on — the stability of correlation is Observation 5's stated
    reason why PCP works, and correlated bursts are what put dynamic
    consolidation at contention risk):

    * a shared mean-one AR(1) *business factor* multiplying every
      server's load (market open, month-end, campaign traffic), and
    * *flash events*: Poisson-arriving episodes during which a random
      subset of servers simultaneously multiply their demand.

    Each workload class scales its exposure via
    ``WorkloadClassProfile.correlation_sensitivity`` — front-end web
    servers ride every market event; back-office batch barely notices.
    """

    ar1_phi: float = 0.85
    ar1_sigma: float = 0.15
    event_rate_per_day: float = 0.5
    event_participation: float = 0.35
    event_magnitude_scale: float = 1.5
    event_alpha: float = 1.8
    event_max_multiplier: float = 8.0
    event_max_duration_hours: int = 3

    def __post_init__(self) -> None:
        if not -1.0 < self.ar1_phi < 1.0:
            raise ConfigurationError("ar1_phi must be in (-1, 1)")
        if self.ar1_sigma < 0:
            raise ConfigurationError("ar1_sigma must be >= 0")
        if self.event_rate_per_day < 0:
            raise ConfigurationError("event_rate_per_day must be >= 0")
        if not 0 <= self.event_participation <= 1:
            raise ConfigurationError(
                "event_participation must be in [0, 1]"
            )
        if self.event_magnitude_scale < 0:
            raise ConfigurationError("event_magnitude_scale must be >= 0")
        if self.event_alpha <= 0:
            raise ConfigurationError("event_alpha must be > 0")
        if self.event_max_multiplier < 1:
            raise ConfigurationError("event_max_multiplier must be >= 1")
        if self.event_max_duration_hours < 1:
            raise ConfigurationError(
                "event_max_duration_hours must be >= 1"
            )

    def draw_shared_log_factor(
        self, n_hours: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The shared AR(1) log-factor all servers are exposed to."""
        return models.ar1_noise(n_hours, self.ar1_phi, self.ar1_sigma, rng)

    def draw_events(
        self, n_hours: int, rng: np.random.Generator
    ) -> "list[tuple[int, int, float]]":
        """Flash events as ``(start_hour, duration, extra_multiplier)``."""
        n_events = rng.poisson(self.event_rate_per_day * n_hours / 24.0)
        events = []
        for _ in range(n_events):
            start = int(rng.integers(0, n_hours))
            duration = int(
                rng.integers(1, self.event_max_duration_hours + 1)
            )
            magnitude = min(
                self.event_magnitude_scale * rng.pareto(self.event_alpha),
                self.event_max_multiplier - 1.0,
            )
            events.append((start, duration, magnitude))
        return events


@dataclass(frozen=True)
class ScheduledJobSpec:
    """Periodic batch job parameters (:func:`models.scheduled_job_matrix`)."""

    period_hours: int = 24
    start_hour: int = 2
    duration_hours: int = 2
    level: float = 0.4
    jitter_hours: int = 1


@dataclass(frozen=True)
class CpuModel:
    """CPU burstiness model for one workload class."""

    diurnal_amplitude: float = 1.0
    diurnal_width_hours: float = 4.0
    weekend_factor: float = 0.6
    lognormal_sigma: float = 0.5
    ar1_phi: float = 0.7
    ar1_sigma: float = 0.2
    spike_rate_per_hour: float = 0.0
    spike_alpha: float = 1.6
    spike_scale: float = 0.15
    spike_max: float = 0.9
    scheduled: Optional[ScheduledJobSpec] = None

    def __post_init__(self) -> None:
        if self.lognormal_sigma < 0 or self.ar1_sigma < 0:
            raise ConfigurationError("noise sigmas must be >= 0")
        if self.spike_rate_per_hour < 0:
            raise ConfigurationError("spike_rate_per_hour must be >= 0")


@dataclass(frozen=True)
class MemoryModel:
    """Committed-memory model for one workload class.

    ``committed = configured × (base_frac + dynamic_frac × f(load))`` with
    ``f(load) = ewma(load_normalized ** load_exponent)``.
    """

    base_frac: float = 0.30
    dynamic_frac: float = 0.20
    load_exponent: float = 0.6
    smoothing_alpha: float = 0.3
    noise_sigma: float = 0.03

    def __post_init__(self) -> None:
        if not 0 <= self.base_frac <= 1:
            raise ConfigurationError(
                f"base_frac must be in [0, 1], got {self.base_frac}"
            )
        if self.dynamic_frac < 0 or self.base_frac + self.dynamic_frac > 1.0:
            raise ConfigurationError(
                "need 0 <= base_frac + dynamic_frac <= 1, got "
                f"{self.base_frac} + {self.dynamic_frac}"
            )
        if self.load_exponent <= 0:
            raise ConfigurationError(
                f"load_exponent must be > 0, got {self.load_exponent}"
            )
        if not 0 < self.smoothing_alpha <= 1:
            raise ConfigurationError(
                f"smoothing_alpha must be in (0, 1], got {self.smoothing_alpha}"
            )


@dataclass(frozen=True)
class WorkloadClassProfile:
    """A named workload class: CPU + memory models and metadata."""

    name: str
    workload_class: str
    mean_util: float
    cpu: CpuModel = field(default_factory=CpuModel)
    memory: MemoryModel = field(default_factory=MemoryModel)
    #: Exposure to the datacenter's :class:`CorrelationModel` (0 = immune,
    #: 1 = full exposure).  Front-end web is high; batch is low.
    correlation_sensitivity: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.mean_util <= 1:
            raise ConfigurationError(
                f"{self.name}: mean_util must be in (0, 1], got {self.mean_util}"
            )
        if not 0 <= self.correlation_sensitivity <= 1:
            raise ConfigurationError(
                f"{self.name}: correlation_sensitivity must be in [0, 1]"
            )
        WorkloadClass.top_level(self.workload_class)

    def with_mean_util(self, mean_util: float) -> "WorkloadClassProfile":
        """Copy of this profile at a different target mean utilization."""
        return replace(self, mean_util=mean_util)


#: Heavy-tailed interactive web workload (Banking-style): CoV >= 1,
#: peak-to-average often above 5-10 at short consolidation intervals.
WEB_BURSTY = WorkloadClassProfile(
    name="web-bursty",
    workload_class=WorkloadClass.WEB_INTERACTIVE,
    mean_util=0.05,
    cpu=CpuModel(
        diurnal_amplitude=1.8,
        weekend_factor=0.5,
        lognormal_sigma=0.55,
        ar1_phi=0.6,
        ar1_sigma=0.20,
        spike_rate_per_hour=0.007,
        spike_alpha=1.5,
        spike_scale=0.10,
        spike_max=0.85,
    ),
    memory=MemoryModel(
        base_frac=0.22,
        dynamic_frac=0.28,
        load_exponent=0.6,
        smoothing_alpha=0.25,
        noise_sigma=0.04,
    ),
)

#: Moderately bursty web workload (Airlines/Beverage-style front ends).
WEB_MODERATE = WorkloadClassProfile(
    name="web-moderate",
    workload_class=WorkloadClass.WEB_INTERACTIVE,
    mean_util=0.04,
    correlation_sensitivity=0.7,
    cpu=CpuModel(
        diurnal_amplitude=1.0,
        weekend_factor=0.6,
        lognormal_sigma=0.50,
        ar1_phi=0.7,
        ar1_sigma=0.20,
        spike_rate_per_hour=0.005,
        spike_alpha=1.8,
        spike_scale=0.08,
        spike_max=0.6,
    ),
    memory=MemoryModel(
        base_frac=0.35,
        dynamic_frac=0.15,
        load_exponent=0.6,
        smoothing_alpha=0.2,
        noise_sigma=0.03,
    ),
)

#: Long-running compute/analytics (Natural-Resources-style): sustained
#: load, CoV well below 1.
STEADY_BATCH = WorkloadClassProfile(
    name="steady-batch",
    workload_class=WorkloadClass.STEADY_BATCH,
    mean_util=0.12,
    correlation_sensitivity=0.25,
    cpu=CpuModel(
        diurnal_amplitude=0.3,
        weekend_factor=0.9,
        lognormal_sigma=0.25,
        ar1_phi=0.85,
        ar1_sigma=0.12,
        spike_rate_per_hour=0.001,
        spike_alpha=2.0,
        spike_scale=0.1,
        spike_max=0.5,
    ),
    memory=MemoryModel(
        base_frac=0.45,
        dynamic_frac=0.15,
        load_exponent=0.7,
        smoothing_alpha=0.15,
        noise_sigma=0.02,
    ),
)

#: Nightly/weekly scheduled jobs: predictable high peaks over a quiet base.
SCHEDULED_BATCH = WorkloadClassProfile(
    name="scheduled-batch",
    workload_class=WorkloadClass.SCHEDULED_BATCH,
    mean_util=0.05,
    correlation_sensitivity=0.3,
    cpu=CpuModel(
        diurnal_amplitude=0.2,
        weekend_factor=0.8,
        lognormal_sigma=0.35,
        ar1_phi=0.7,
        ar1_sigma=0.15,
        scheduled=ScheduledJobSpec(
            period_hours=24,
            start_hour=2,
            duration_hours=2,
            level=0.35,
            jitter_hours=1,
        ),
    ),
    memory=MemoryModel(
        base_frac=0.30,
        dynamic_frac=0.20,
        load_exponent=0.8,
        smoothing_alpha=0.35,
        noise_sigma=0.03,
    ),
)

#: Near-idle servers (common in the Airlines datacenter at 1% mean CPU).
IDLE = WorkloadClassProfile(
    name="idle",
    workload_class=WorkloadClass.IDLE,
    mean_util=0.006,
    correlation_sensitivity=0.4,
    cpu=CpuModel(
        diurnal_amplitude=0.4,
        weekend_factor=0.9,
        lognormal_sigma=0.40,
        ar1_phi=0.6,
        ar1_sigma=0.18,
        spike_rate_per_hour=0.0015,
        spike_alpha=2.0,
        spike_scale=0.03,
        spike_max=0.25,
    ),
    memory=MemoryModel(
        base_frac=0.40,
        dynamic_frac=0.08,
        load_exponent=0.8,
        smoothing_alpha=0.2,
        noise_sigma=0.02,
    ),
)


# ----------------------------------------------------------------------
# Batched (store-first) generation engine
#
# Each VM's randomness comes from its own
# ``SeedSequence(seed, spawn_key=(index + 1,))`` stream — per-VM draws
# stay per-VM calls on one reused generator — but all trace *arithmetic*
# runs on ``(n_vms, n_hours)`` matrices written straight into columnar
# storage.  Every batched operation below is elementwise-identical to
# the per-VM scalar pipeline kept in tests/reference/generation.py
# (same ufuncs, same operation order per element), so the two are
# bit-identical; tests/workloads/test_engine_equivalence.py pins that
# across every profile, correlation model, and flash calendar.

#: Scalar-reference uniform ranges, written as ``low + (high - low) * u``
#: exactly like ``Generator.uniform`` evaluates them.
_PEAK_HOUR_LOW, _PEAK_HOUR_HIGH = 9.0, 18.0
_SCHED_LEVEL_LOW, _SCHED_LEVEL_HIGH = 0.7, 1.3
_EVENT_SEVERITY_LOW, _EVENT_SEVERITY_HIGH = 0.5, 1.5


@dataclass(frozen=True)
class TraceBlock:
    """One generated row block: a profile group's slice of the fleet.

    ``cpu_util``/``memory_gb`` are ``(count, n_hours)`` matrices whose
    row ``k`` belongs to ``vm_ids[k]`` (global fleet row
    ``start_index + k``).  Blocks are what the streaming engine yields:
    big enough for batched math, small enough that a 100k fleet never
    materializes in RAM.
    """

    profile: WorkloadClassProfile
    source_model: ServerModel
    start_index: int
    vm_ids: Tuple[str, ...]
    cpu_util: np.ndarray
    memory_gb: np.ndarray

    def __post_init__(self) -> None:
        if self.start_index < 0:
            raise ConfigurationError(
                f"start_index must be >= 0, got {self.start_index}"
            )
        shape = (len(self.vm_ids), self.cpu_util.shape[-1])
        if self.cpu_util.shape != shape or self.memory_gb.shape != shape:
            raise ConfigurationError(
                f"block matrices must be {shape}: cpu "
                f"{self.cpu_util.shape}, memory {self.memory_gb.shape}"
            )

    @property
    def count(self) -> int:
        return len(self.vm_ids)

    @property
    def n_hours(self) -> int:
        return int(self.cpu_util.shape[1])

    @property
    def source_spec(self) -> ServerSpec:
        return ServerSpec.from_model(self.source_model)

    def virtual_machines(self) -> List[VirtualMachine]:
        """The block's VM objects (built on demand, rows stay columnar)."""
        memory_gb = self.source_model.memory_gb
        workload_class = self.profile.workload_class
        labels = {"profile": self.profile.name}
        return [
            VirtualMachine(
                vm_id=vm_id,
                memory_config_gb=memory_gb,
                workload_class=workload_class,
                labels=dict(labels),
            )
            for vm_id in self.vm_ids
        ]


def _shared_factors(
    correlation: Optional[CorrelationModel], n_hours: int, seed: int
) -> Tuple[Optional[np.ndarray], Tuple[Tuple[int, int, float], ...]]:
    """The fleet-wide correlation draws, from the reference shared stream.

    ``SeedSequence(seed).spawn(1)[0]`` is exactly
    ``SeedSequence(seed, spawn_key=(0,))``, so the shared business factor
    and flash calendar match the scalar path without touching the parent
    sequence's spawn bookkeeping.
    """
    if correlation is None:
        return None, ()
    shared_rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0,))
    )
    shared_log_factor = correlation.draw_shared_log_factor(n_hours, shared_rng)
    events = tuple(correlation.draw_events(n_hours, shared_rng))
    return shared_log_factor, events


def _plan_blocks(
    specs: Sequence[Tuple[WorkloadClassProfile, ServerModel, int]],
    *,
    block_rows: Optional[int] = None,
) -> Tuple[List[Tuple[WorkloadClassProfile, ServerModel, int, int]], int]:
    """Split the spec groups into ``(profile, hardware, start, count)`` units.

    ``start`` is the unit's first global fleet row.  ``block_rows`` caps
    unit size so streaming consumers bound their peak memory.
    """
    if block_rows is not None and block_rows <= 0:
        raise ConfigurationError(
            f"block_rows must be > 0, got {block_rows}"
        )
    total = 0
    plan: List[Tuple[WorkloadClassProfile, ServerModel, int, int]] = []
    for profile, hardware, count in specs:
        if count < 0:
            raise ConfigurationError(
                f"{profile.name}: count must be >= 0, got {count}"
            )
        lo, hi = total, total + count
        total = hi
        if lo >= hi:
            continue
        step = count if block_rows is None else block_rows
        for start in range(lo, hi, step):
            plan.append((profile, hardware, start, min(step, hi - start)))
    return plan, total


def _draw_block_kernel(
    profile: WorkloadClassProfile,
    n_hours: int,
    count: int,
    state_arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    drawer: FastDrawKernel,
    *,
    spread_sigma: float,
    events: Tuple[Tuple[int, int, float], ...],
    participation: float,
) -> dict:
    """C-kernel twin of the :func:`_draw_block` python loop.

    Allocates the same output buffers, hands them (with the per-VM PCG64
    state words) to the compiled draw loop, and reassembles the draws
    dict.  Spike buffers are sized from the Poisson expectation; if a
    block beats the 12-sigma headroom the kernel reports the exact need
    and the block is redrawn — per-VM state installs make that rerun
    deterministic.
    """
    n = n_hours
    cpu = profile.cpu
    mem = profile.memory
    spread_mu = -0.5 * spread_sigma**2
    ln_sigma = cpu.lognormal_sigma
    mem_sigma = mem.noise_sigma
    job = cpu.scheduled
    do_spikes = cpu.spike_rate_per_hour > 0 and cpu.spike_scale > 0
    spike_lam = cpu.spike_rate_per_hour * n
    n_events = len(events)
    do_events = n_events > 0 and participation > 0

    spreads = np.empty(count)
    peaks = np.empty(count)
    ln_rows = np.empty((count, n)) if ln_sigma > 0 else None
    gauss = np.empty((count, n)) if cpu.ar1_sigma > 0 else None
    mem_rows = np.empty((count, n)) if mem_sigma > 0 else None
    sched_starts = sched_levels = sched_jitters = None
    max_occurrences = 0
    if job is not None:
        max_occurrences = (n - 1) // job.period_hours + 1
        sched_starts = np.zeros(count, dtype=np.int64)
        sched_levels = np.empty(count)
        sched_jitters = np.zeros((count, max_occurrences), dtype=np.int64)
    spike_counts = spike_starts = spike_paretos = spike_durs = None
    spike_capacity = 0
    if do_spikes:
        expected = count * spike_lam
        spike_capacity = int(expected + 12.0 * np.sqrt(expected + 1.0)) + 64
        spike_counts = np.zeros(count, dtype=np.int64)
        spike_starts = np.empty(spike_capacity, dtype=np.int64)
        spike_paretos = np.empty(spike_capacity)
        spike_durs = np.empty(spike_capacity, dtype=np.int64)
    hit_events = hit_rows = hit_sevs = magnitudes = None
    if do_events:
        hit_capacity = count * n_events
        hit_events = np.empty(hit_capacity, dtype=np.int32)
        hit_rows = np.empty(hit_capacity, dtype=np.int32)
        hit_sevs = np.empty(hit_capacity)
        magnitudes = np.array([m for _, _, m in events], dtype=np.float64)

    params = DrawParams(
        count=count,
        n_hours=n,
        spread_mu=spread_mu,
        spread_sigma=spread_sigma,
        peak_low=_PEAK_HOUR_LOW,
        peak_span=_PEAK_HOUR_HIGH - _PEAK_HOUR_LOW,
        ln_mu=-0.5 * ln_sigma**2,
        ln_sigma=ln_sigma,
        draw_gauss=0 if gauss is None else 1,
        mem_mu=-0.5 * mem_sigma**2,
        mem_sigma=mem_sigma,
        has_sched=0 if job is None else 1,
        sched_period=0 if job is None else job.period_hours,
        sched_jitter=0 if job is None else job.jitter_hours,
        sched_max_occ=max_occurrences,
        sched_base_level=0.0 if job is None else job.level,
        level_low=_SCHED_LEVEL_LOW,
        level_span=_SCHED_LEVEL_HIGH - _SCHED_LEVEL_LOW,
        do_spikes=1 if do_spikes else 0,
        spike_lam=spike_lam,
        spike_alpha=cpu.spike_alpha,
        n_events=n_events,
        participation=participation,
        severity_low=_EVENT_SEVERITY_LOW,
        severity_span=_EVENT_SEVERITY_HIGH - _EVENT_SEVERITY_LOW,
    )

    def _address(array: Optional[np.ndarray]) -> int:
        return 0 if array is None else array.ctypes.data

    state_lo, state_hi, inc_lo, inc_hi = state_arrays
    needed = 0
    hits = 0
    while True:
        buffers = DrawBuffers(
            state_lo=state_lo.ctypes.data,
            state_hi=state_hi.ctypes.data,
            inc_lo=inc_lo.ctypes.data,
            inc_hi=inc_hi.ctypes.data,
            event_magnitudes=_address(magnitudes),
            spreads=spreads.ctypes.data,
            peaks=peaks.ctypes.data,
            ln_rows=_address(ln_rows),
            gauss=_address(gauss),
            mem_rows=_address(mem_rows),
            sched_starts=_address(sched_starts),
            sched_levels=_address(sched_levels),
            sched_jitters=_address(sched_jitters),
            spike_counts=_address(spike_counts),
            spike_starts=_address(spike_starts),
            spike_paretos=_address(spike_paretos),
            spike_durs=_address(spike_durs),
            spike_capacity=spike_capacity,
            hit_events=_address(hit_events),
            hit_rows=_address(hit_rows),
            hit_sevs=_address(hit_sevs),
        )
        overflowed, needed, hits = drawer.draw_block(params, buffers)
        if not overflowed:
            break
        spike_capacity = needed
        spike_starts = np.empty(spike_capacity, dtype=np.int64)
        spike_paretos = np.empty(spike_capacity)
        spike_durs = np.empty(spike_capacity, dtype=np.int64)

    event_rows = event_sevs = None
    if do_events:
        hit_events = hit_events[:hits]
        event_rows = []
        event_sevs = []
        for event_index in range(n_events):
            mask = hit_events == event_index
            event_rows.append(hit_rows[:hits][mask])
            event_sevs.append(hit_sevs[:hits][mask])
    return {
        "spreads": spreads,
        "peaks": peaks,
        "ln_rows": ln_rows,
        "gauss": gauss,
        "mem_rows": mem_rows,
        "sched": (
            None
            if job is None
            else (sched_starts, sched_levels, sched_jitters)
        ),
        "spikes": (
            None
            if not (do_spikes and needed > 0)
            else (
                np.repeat(np.arange(count, dtype=np.int64), spike_counts),
                spike_starts[:needed],
                np.minimum(
                    cpu.spike_scale * spike_paretos[:needed], cpu.spike_max
                ),
                spike_durs[:needed],
            )
        ),
        "event_rows": event_rows,
        "event_sevs": event_sevs,
    }


def _draw_block(
    profile: WorkloadClassProfile,
    n_hours: int,
    seed: int,
    start_index: int,
    count: int,
    *,
    spread_sigma: float,
    events: Tuple[Tuple[int, int, float], ...],
    participation: float,
    fast: Optional[FastSeeder],
    drawer: Optional[FastDrawKernel] = None,
) -> dict:
    """All per-VM random draws for one block, in reference stream order.

    Each VM's draws come from its own reference stream — installed into
    one reused generator via :class:`FastSeeder` when available, or a
    freshly constructed ``default_rng`` otherwise (bit-identical either
    way).  The per-VM draw *order* is the scalar pipeline's contract:
    mean-util spread, flash-event participation, diurnal peak hour,
    lognormal texture, AR(1) gaussians, scheduled-job draws, spike
    draws, memory noise — with every conditional matching the scalar
    guards so stream consumption is identical.

    With a verified :class:`FastDrawKernel` the whole loop runs as one
    compiled call through numpy's own C distribution functions —
    bit-identical again, minus the per-draw python dispatch.
    """
    if drawer is not None and fast is not None:
        state_arrays = fast.seeded_state_arrays(
            seed, start_index + 1, start_index + 1 + count
        )
        if state_arrays is not None:
            return _draw_block_kernel(
                profile,
                n_hours,
                count,
                state_arrays,
                drawer,
                spread_sigma=spread_sigma,
                events=events,
                participation=participation,
            )
    n = n_hours
    cpu = profile.cpu
    mem = profile.memory
    spread_mu = -0.5 * spread_sigma**2
    spreads = np.empty(count)
    peaks = np.empty(count)
    ln_sigma = cpu.lognormal_sigma
    ln_mu = -0.5 * ln_sigma**2
    ln_rows = np.empty((count, n)) if ln_sigma > 0 else None
    gauss = np.empty((count, n)) if cpu.ar1_sigma > 0 else None
    mem_sigma = mem.noise_sigma
    mem_mu = -0.5 * mem_sigma**2
    mem_rows = np.empty((count, n)) if mem_sigma > 0 else None
    job = cpu.scheduled
    sched_starts = sched_levels = sched_jitters = None
    if job is not None:
        sched_starts = np.zeros(count, dtype=np.int64)
        sched_levels = np.empty(count)
        max_occurrences = (n - 1) // job.period_hours + 1
        sched_jitters = np.zeros((count, max_occurrences), dtype=np.int64)
        period = job.period_hours
        jitter = job.jitter_hours
        base_level = job.level
    do_spikes = cpu.spike_rate_per_hour > 0 and cpu.spike_scale > 0
    spike_lam = cpu.spike_rate_per_hour * n
    spike_counts = np.zeros(count, dtype=np.int64) if do_spikes else None
    spike_starts: List[np.ndarray] = []
    spike_paretos: List[np.ndarray] = []
    spike_durs: List[np.ndarray] = []
    n_events = len(events)
    do_events = n_events > 0 and participation > 0
    event_rows: Optional[List[List[int]]] = None
    event_sevs: Optional[List[List[float]]] = None
    if do_events:
        two_events = 2 * n_events
        event_magnitudes = [magnitude for _, _, magnitude in events]
        event_rows = [[] for _ in range(n_events)]
        event_sevs = [[] for _ in range(n_events)]
        severity_span = _EVENT_SEVERITY_HIGH - _EVENT_SEVERITY_LOW
    peak_span = _PEAK_HOUR_HIGH - _PEAK_HOUR_LOW
    level_span = _SCHED_LEVEL_HIGH - _SCHED_LEVEL_LOW

    state_lists = None
    if fast is not None:
        state_lists = fast.seeded_state_lists(
            seed, start_index + 1, start_index + 1 + count
        )
    if state_lists is not None:
        states_0, states_1, states_2, states_3 = state_lists
        install = fast.install
        generator = fast.generator
        bit_generator = fast.bit_generator
        rand = generator.random
        lognormal = generator.lognormal
        standard_normal = generator.standard_normal
        integers = generator.integers
        poisson = generator.poisson
        pareto = generator.pareto

    for k in range(count):
        if state_lists is not None:
            install(states_0[k], states_1[k], states_2[k], states_3[k])
        else:
            generator = np.random.default_rng(
                np.random.SeedSequence(
                    seed, spawn_key=(start_index + 1 + k,)
                )
            )
            bit_generator = generator.bit_generator
            rand = generator.random
            lognormal = generator.lognormal
            standard_normal = generator.standard_normal
            integers = generator.integers
            poisson = generator.poisson
            pareto = generator.pareto
        spreads[k] = lognormal(spread_mu, spread_sigma)
        if do_events:
            # Clone trick: peek at enough uniforms for the worst case
            # (participation + severity per event), then rewind and
            # advance by what the scalar path actually consumed.
            if state_lists is not None:
                snapshot = fast.save()
            else:
                snapshot = bit_generator.state
            draws = rand(two_events).tolist()
            position = 0
            for event_index in range(n_events):
                hit = draws[position] < participation
                position += 1
                if hit:
                    severity_u = draws[position]
                    position += 1
                    event_rows[event_index].append(k)
                    event_sevs[event_index].append(
                        event_magnitudes[event_index]
                        * (_EVENT_SEVERITY_LOW + severity_span * severity_u)
                    )
            if state_lists is not None:
                fast.restore(snapshot)
            else:
                bit_generator.state = snapshot
            bit_generator.advance(position)
        peaks[k] = _PEAK_HOUR_LOW + peak_span * rand()
        if ln_rows is not None:
            ln_rows[k] = lognormal(ln_mu, ln_sigma, n)
        if gauss is not None:
            standard_normal(out=gauss[k])
        if job is not None:
            start = integers(0, period)
            sched_starts[k] = start
            sched_levels[k] = base_level * (
                _SCHED_LEVEL_LOW + level_span * rand()
            )
            if jitter > 0 and start < n:
                occurrences = (n - 1 - start) // period + 1
                sched_jitters[k, :occurrences] = integers(
                    -jitter, jitter + 1, size=occurrences
                )
        if do_spikes:
            n_spikes = poisson(spike_lam)
            if n_spikes > 0:
                spike_counts[k] = n_spikes
                spike_starts.append(integers(0, n, size=n_spikes))
                spike_paretos.append(pareto(cpu.spike_alpha, size=n_spikes))
                spike_durs.append(
                    integers(1, _SPIKE_MAX_DURATION_HOURS + 1, size=n_spikes)
                )
        if mem_rows is not None:
            mem_rows[k] = lognormal(mem_mu, mem_sigma, n)

    return {
        "spreads": spreads,
        "peaks": peaks,
        "ln_rows": ln_rows,
        "gauss": gauss,
        "mem_rows": mem_rows,
        "sched": (
            None
            if job is None
            else (sched_starts, sched_levels, sched_jitters)
        ),
        "spikes": (
            None
            if not spike_starts
            else (
                np.repeat(np.arange(count, dtype=np.int64), spike_counts),
                np.concatenate(spike_starts),
                # Same elementwise scale-and-cap the scalar path applies
                # per spike, batched over the block's spikes.
                np.minimum(
                    cpu.spike_scale * np.concatenate(spike_paretos),
                    cpu.spike_max,
                ),
                np.concatenate(spike_durs),
            )
        ),
        "event_rows": event_rows,
        "event_sevs": event_sevs,
    }


def _apply_event_hits(
    util: np.ndarray,
    events: Tuple[Tuple[int, int, float], ...],
    event_rows: List[List[int]],
    event_sevs: List[List[float]],
    n_hours: int,
) -> None:
    """Multiply flash-event severities into a util block, batched per event.

    The multiplier is materialized only over the union of event columns
    (a handful of hours out of the whole trace); rows that missed every
    event hold exactly ``1.0`` there, and ``x * 1.0 == x`` bitwise, so
    one sliced multiply per contiguous column run reproduces the scalar
    per-VM full-row multiply.
    """
    windows = []
    for (start, duration, _), rows, severities in zip(
        events, event_rows, event_sevs
    ):
        width = min(duration, n_hours - start)
        if width <= 0 or len(rows) == 0:
            continue
        windows.append(
            (
                start,
                width,
                duration,
                np.asarray(rows, dtype=np.intp),
                np.asarray(severities),
            )
        )
    if not windows:
        return
    columns = np.unique(
        np.concatenate(
            [np.arange(start, start + width) for start, width, *_ in windows]
        )
    )
    multiplier = np.ones((util.shape[0], columns.size))
    for start, width, duration, rows, severities in windows:
        positions = np.searchsorted(columns, np.arange(start, start + width))
        decay = 1.0 - np.arange(width) / duration
        contribution = 1.0 + severities[:, None] * decay[None, :]
        patch = multiplier[np.ix_(rows, positions)]
        np.maximum(patch, contribution, out=patch)
        multiplier[np.ix_(rows, positions)] = patch
    run_breaks = np.flatnonzero(np.diff(columns) > 1) + 1
    for run in np.split(np.arange(columns.size), run_breaks):
        first, last = int(run[0]), int(run[-1])
        column_slice = slice(int(columns[first]), int(columns[last]) + 1)
        util[:, column_slice] *= multiplier[:, first:last + 1]


def _add_spikes_inplace(
    util: np.ndarray,
    *,
    rows: np.ndarray,
    starts: np.ndarray,
    magnitudes: np.ndarray,
    durations: np.ndarray,
    n_hours: int,
) -> None:
    """Add the spike overlay to ``util`` without a dense scatter matrix.

    Bit-identical to ``util += pareto_spike_matrix(...)``, the dense
    scatter kept in ``tests/reference/generation.py``: the
    contributions landing on one (row, hour) cell combine by max (an
    order-free, exact operation), and adding the overlay's untouched
    ``0.0`` cells to the strictly positive util values is the identity.
    Sorting the sparse contributions and segment-reducing them is much
    faster than ``np.maximum.at`` plus a dense full-matrix add.
    """
    starts = np.asarray(starts)
    durations = np.asarray(durations)
    if starts.size == 0:
        return
    cell_chunks: List[np.ndarray] = []
    value_chunks: List[np.ndarray] = []
    for offset in range(int(durations.max())):
        active = durations > offset
        times = starts + offset
        active &= times < n_hours
        if not active.any():
            continue
        # Same decay expression as the reference pareto_spike_matrix.
        decay = 1.0 - offset / durations[active]
        cell_chunks.append(rows[active] * n_hours + times[active])
        value_chunks.append(magnitudes[active] * decay)
    if not cell_chunks:
        return
    cells = np.concatenate(cell_chunks)
    values = np.concatenate(value_chunks)
    order = np.argsort(cells, kind="stable")
    cells = cells[order]
    values = values[order]
    segment_starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(cells)) + 1)
    )
    combined = np.maximum.reduceat(values, segment_starts)
    unique_cells = cells[segment_starts]
    util[unique_cells // n_hours, unique_cells % n_hours] += combined


def _block_math(
    profile: WorkloadClassProfile,
    n_hours: int,
    draws: dict,
    *,
    events: Tuple[Tuple[int, int, float], ...],
    shared_log_factor: Optional[np.ndarray],
    mean_util_bounds: Tuple[float, float],
    configured_gb: float,
    cpu_out: np.ndarray,
    mem_out: np.ndarray,
    drawer: Optional[FastDrawKernel] = None,
    rpe2_out: Optional[np.ndarray] = None,
    rpe2_scale: float = 0.0,
) -> None:
    """The batched trace arithmetic for one block (CPU then memory).

    Every step is the scalar pipeline's operation applied matrix-wide,
    in the same per-element order, so rows are bit-identical to the
    per-VM reference pipeline.  With a verified C kernel the
    recurrences and the purely elementwise pass sequences run fused —
    identical per-element rounding, fewer trips over the matrices.  The
    SIMD-sensitive ufuncs (``exp``, ``power``, pairwise ``mean``) stay
    in numpy either way: libm scalars round differently.
    """
    cpu = profile.cpu
    mem = profile.memory
    count = cpu_out.shape[0]
    mean_utils = np.clip(
        profile.mean_util * draws["spreads"], *mean_util_bounds
    )
    if not bool(np.all((mean_utils > 0) & (mean_utils <= 1.0))):
        raise ConfigurationError(
            f"{profile.name}: mean_util must be in (0, 1] after clipping "
            f"to bounds {mean_util_bounds}"
        )
    util = cpu_out
    ar1 = None
    if draws["gauss"] is not None:
        if drawer is not None and -1.0 < cpu.ar1_phi < 1.0 and cpu.ar1_sigma > 0:
            ar1 = drawer.ar1_filter(draws["gauss"], cpu.ar1_phi, cpu.ar1_sigma)
        else:
            ar1 = models.ar1_filter_matrix(
                draws["gauss"], cpu.ar1_phi, cpu.ar1_sigma
            )
        np.exp(ar1, out=ar1)
    shared_column = None
    if shared_log_factor is not None and profile.correlation_sensitivity > 0:
        shared_column = np.exp(
            profile.correlation_sensitivity * shared_log_factor
        )
    if drawer is not None:
        # The diurnal pattern is periodic: gather it and apply every
        # multiplicative texture in a single fused pass.
        pattern = models.diurnal_pattern_matrix(
            draws["peaks"],
            amplitude=cpu.diurnal_amplitude,
            width_hours=cpu.diurnal_width_hours,
            weekend_factor=cpu.weekend_factor,
        )
        drawer.texture_fill(
            util, pattern, 0, draws["ln_rows"], ar1, shared_column
        )
    else:
        models.diurnal_profile_matrix(
            n_hours,
            draws["peaks"],
            amplitude=cpu.diurnal_amplitude,
            width_hours=cpu.diurnal_width_hours,
            weekend_factor=cpu.weekend_factor,
            out=util,
        )
        if draws["ln_rows"] is not None:
            util *= draws["ln_rows"]
        if ar1 is not None:
            util *= ar1
        if shared_column is not None:
            util *= shared_column
    row_means = util.mean(axis=1)
    if drawer is not None:
        drawer.row_scale(util, mean_utils, row_means)
    else:
        util *= mean_utils[:, None]
        util /= row_means[:, None]
    if draws["sched"] is not None:
        starts, levels, jitters = draws["sched"]
        job = cpu.scheduled
        util += models.scheduled_job_matrix(
            n_hours,
            period_hours=job.period_hours,
            duration_hours=job.duration_hours,
            starts=starts,
            levels=levels,
            jitters=jitters,
        )
    if draws["spikes"] is not None:
        rows, starts, magnitudes, durations = draws["spikes"]
        _add_spikes_inplace(
            util,
            rows=rows,
            starts=starts,
            magnitudes=magnitudes,
            durations=durations,
            n_hours=n_hours,
        )
    if draws["event_rows"] is not None:
        _apply_event_hits(
            util, events, draws["event_rows"], draws["event_sevs"], n_hours
        )
    committed = mem_out
    if drawer is not None:
        drawer.clip_scale_div(
            util,
            rpe2_out,
            committed,
            clip_low=_UTIL_FLOOR,
            clip_high=1.0,
            scale=rpe2_scale,
            peak_floor=1e-9,
        )
    else:
        np.clip(util, _UTIL_FLOOR, 1.0, out=util)
        if rpe2_out is not None:
            np.multiply(util, rpe2_scale, out=rpe2_out)
        load_peak = util.max(axis=1)
        np.maximum(load_peak, 1e-9, out=load_peak)
        np.divide(util, load_peak[:, None], out=committed)
    np.power(committed, mem.load_exponent, out=committed)
    alpha = mem.smoothing_alpha
    if drawer is not None and 0 < alpha <= 1 and not approx_eq(alpha, 1.0):
        drawer.mem_finish(
            committed,
            draws["mem_rows"],
            alpha=alpha,
            dynamic_frac=mem.dynamic_frac,
            base_frac=mem.base_frac,
            configured_gb=configured_gb,
            clip_low=0.01 * configured_gb,
            clip_high=configured_gb,
        )
    else:
        driver = models.ewma_smooth_matrix(committed, alpha)
        np.multiply(driver, mem.dynamic_frac, out=committed)
        committed += mem.base_frac
        if draws["mem_rows"] is not None:
            committed *= draws["mem_rows"]
        committed *= configured_gb
        np.clip(committed, 0.01 * configured_gb, configured_gb, out=committed)


def _generate_block(
    profile: WorkloadClassProfile,
    hardware: ServerModel,
    n_hours: int,
    seed: int,
    start_index: int,
    count: int,
    *,
    spread_sigma: float,
    mean_util_bounds: Tuple[float, float],
    shared_log_factor: Optional[np.ndarray],
    events: Tuple[Tuple[int, int, float], ...],
    correlation: Optional[CorrelationModel],
    fast: Optional[FastSeeder],
    cpu_out: np.ndarray,
    mem_out: np.ndarray,
    drawer: Optional[FastDrawKernel] = None,
    rpe2_out: Optional[np.ndarray] = None,
    rpe2_scale: float = 0.0,
) -> None:
    """Draw and synthesize one block straight into the output matrices."""
    participation = 0.0
    if correlation is not None:
        participation = (
            correlation.event_participation * profile.correlation_sensitivity
        )
    draws = _draw_block(
        profile,
        n_hours,
        seed,
        start_index,
        count,
        spread_sigma=spread_sigma,
        events=events,
        participation=participation,
        fast=fast,
        drawer=drawer,
    )
    _block_math(
        profile,
        n_hours,
        draws,
        events=events,
        shared_log_factor=shared_log_factor,
        mean_util_bounds=mean_util_bounds,
        configured_gb=hardware.memory_gb,
        cpu_out=cpu_out,
        mem_out=mem_out,
        drawer=drawer,
        rpe2_out=rpe2_out,
        rpe2_scale=rpe2_scale,
    )


def _validate_generation_args(n_hours: int, spread_sigma: float) -> None:
    if n_hours <= 0:
        raise ConfigurationError(f"n_hours must be > 0, got {n_hours}")
    if spread_sigma < 0:
        raise ConfigurationError("mean_util_spread_sigma must be >= 0")


def _draws_equal(reference: dict, candidate: dict) -> bool:
    def equal(x: object, y: object) -> bool:
        if x is None or y is None:
            return (x is None) == (y is None)
        if isinstance(x, (tuple, list)) or isinstance(y, (tuple, list)):
            return len(x) == len(y) and all(
                equal(a, b) for a, b in zip(x, y)
            )
        return bool(np.array_equal(np.asarray(x), np.asarray(y)))

    return all(equal(reference[key], candidate[key]) for key in reference)


_DRAWER_CHECKED: Optional[bool] = None


def _checked_drawer(fast: Optional[FastSeeder]) -> Optional[FastDrawKernel]:
    """The C draw kernel, after a one-time full-block cross-check.

    ``make_fast_drawer`` already proves the distribution calls; this
    additionally runs two small feature-complete blocks (spikes +
    events, scheduled jobs + jitter) through both the compiled loop and
    the pure-python loop and compares every output bit.  Any mismatch
    disables the kernel for the process — generation then runs on the
    python draw loop, which is bit-identical to the scalar reference by
    construction.
    """
    global _DRAWER_CHECKED
    if fast is None or _DRAWER_CHECKED is False:
        return None
    drawer = make_fast_drawer(fast)
    if drawer is None:
        return None
    if _DRAWER_CHECKED:
        return drawer
    events = ((2, 3, 1.5), (10, 2, 2.0), (25, 4, 1.1))
    cases = (
        (WEB_BURSTY, events, 0.45),
        (SCHEDULED_BATCH, events, 0.3),
    )
    try:
        for profile, case_events, participation in cases:
            keywords = dict(
                spread_sigma=0.6,
                events=case_events,
                participation=participation,
                fast=fast,
            )
            reference = _draw_block(profile, 40, 97, 3, 6, **keywords)
            candidate = _draw_block(
                profile, 40, 97, 3, 6, drawer=drawer, **keywords
            )
            if not _draws_equal(reference, candidate):
                _DRAWER_CHECKED = False  # repro-lint: disable=REPRO111
                return None
    except Exception:  # pragma: no cover - depends on toolchain
        _DRAWER_CHECKED = False  # repro-lint: disable=REPRO111
        return None
    # Capability memo, not result state: with the kernel or without it
    # the engine is bit-identical, so cached task outputs are unaffected.
    _DRAWER_CHECKED = True  # repro-lint: disable=REPRO111
    return drawer


def generate_trace_blocks(
    name: str,
    specs: Sequence[Tuple[WorkloadClassProfile, ServerModel, int]],
    n_hours: int,
    seed: int,
    *,
    mean_util_spread_sigma: float = 0.7,
    mean_util_bounds: Tuple[float, float] = (0.002, 0.6),
    correlation: Optional[CorrelationModel] = None,
    block_rows: Optional[int] = None,
) -> Iterator[TraceBlock]:
    """Stream the fleet as :class:`TraceBlock` row blocks.

    This is the streaming face of the batched engine: blocks arrive in
    global row order and are bit-identical to the matching rows of
    :func:`generate_trace_set`, whatever ``block_rows`` says — per-VM
    streams are keyed by global fleet index, and the shared correlation
    draws are made once up front.  The chunked writer passes
    ``block_rows`` to bound peak memory.
    """
    _validate_generation_args(n_hours, mean_util_spread_sigma)
    plan, _total = _plan_blocks(specs, block_rows=block_rows)
    shared_log_factor, events = _shared_factors(correlation, n_hours, seed)
    fast = make_fast_seeder()
    drawer = _checked_drawer(fast)
    for profile, hardware, start, count in plan:
        cpu_util = np.empty((count, n_hours))
        memory_gb = np.empty((count, n_hours))
        _generate_block(
            profile,
            hardware,
            n_hours,
            seed,
            start,
            count,
            spread_sigma=mean_util_spread_sigma,
            mean_util_bounds=mean_util_bounds,
            shared_log_factor=shared_log_factor,
            events=events,
            correlation=correlation,
            fast=fast,
            drawer=drawer,
            cpu_out=cpu_util,
            mem_out=memory_gb,
        )
        yield TraceBlock(
            profile=profile,
            source_model=hardware,
            start_index=start,
            vm_ids=tuple(
                f"{name}-vm{index:04d}" for index in range(start, start + count)
            ),
            cpu_util=cpu_util,
            memory_gb=memory_gb,
        )


def generate_trace_matrix(
    name: str,
    specs: Sequence[Tuple[WorkloadClassProfile, ServerModel, int]],
    n_hours: int,
    seed: int,
    *,
    mean_util_spread_sigma: float = 0.7,
    mean_util_bounds: Tuple[float, float] = (0.002, 0.6),
    correlation: Optional[CorrelationModel] = None,
) -> Tuple[TraceStore, Tuple[TraceBlock, ...]]:
    """Generate the fleet directly into a columnar :class:`TraceStore`.

    The store's matrices are allocated once and every block's arithmetic
    writes into its row slice — no per-trace objects, no restacking.
    The returned blocks are zero-copy row views of the store matrices,
    carrying the profile/hardware metadata needed to build VM objects
    lazily.
    """
    _validate_generation_args(n_hours, mean_util_spread_sigma)
    plan, n_rows = _plan_blocks(specs)
    cpu_util = np.empty((n_rows, n_hours))
    cpu_rpe2 = np.empty((n_rows, n_hours))
    memory_gb = np.empty((n_rows, n_hours))
    shared_log_factor, events = _shared_factors(correlation, n_hours, seed)
    fast = make_fast_seeder()
    drawer = _checked_drawer(fast)
    blocks: List[TraceBlock] = []
    vm_ids: List[str] = []
    cursor = 0
    for profile, hardware, start, count in plan:
        row_slice = slice(cursor, cursor + count)
        cursor += count
        _generate_block(
            profile,
            hardware,
            n_hours,
            seed,
            start,
            count,
            spread_sigma=mean_util_spread_sigma,
            mean_util_bounds=mean_util_bounds,
            shared_log_factor=shared_log_factor,
            events=events,
            correlation=correlation,
            fast=fast,
            drawer=drawer,
            cpu_out=cpu_util[row_slice],
            mem_out=memory_gb[row_slice],
            # Same broadcast multiply as ``TraceStore.from_demand``,
            # fused into the final clip pass.
            rpe2_out=cpu_rpe2[row_slice],
            rpe2_scale=ServerSpec.from_model(hardware).cpu_rpe2,
        )
        block_ids = tuple(
            f"{name}-vm{index:04d}" for index in range(start, start + count)
        )
        vm_ids.extend(block_ids)
        blocks.append(
            TraceBlock(
                profile=profile,
                source_model=hardware,
                start_index=start,
                vm_ids=block_ids,
                cpu_util=cpu_util[row_slice],
                memory_gb=memory_gb[row_slice],
            )
        )
    for matrix in (cpu_util, cpu_rpe2, memory_gb):
        matrix.flags.writeable = False
    store = TraceStore(
        vm_ids=tuple(vm_ids),
        cpu_util=cpu_util,
        cpu_rpe2=cpu_rpe2,
        memory_gb=memory_gb,
        interval_hours=1.0,
    )
    return store, tuple(blocks)


def generate_trace_set(
    name: str,
    specs: Sequence[Tuple[WorkloadClassProfile, ServerModel, int]],
    n_hours: int,
    seed: int,
    *,
    mean_util_spread_sigma: float = 0.7,
    mean_util_bounds: Tuple[float, float] = (0.002, 0.6),
    correlation: Optional[CorrelationModel] = None,
) -> TraceSet:
    """Generate a trace set from ``(profile, hardware, count)`` groups.

    Per-server mean utilizations are drawn lognormally around each
    profile's target mean (``mean_util_spread_sigma`` in log space) to
    reproduce the wide cross-server utilization spread of real
    datacenters, then clipped to ``mean_util_bounds``.

    When a :class:`CorrelationModel` is given, all servers share one
    AR(1) business factor and one flash-event calendar, each scaled by
    the server's class ``correlation_sensitivity``.

    The fleet is generated on ``(n_vms, n_hours)`` matrices straight
    into a columnar store (:func:`generate_trace_matrix`); the returned
    set is backed by that store and builds its per-VM objects lazily.
    """
    _validate_generation_args(n_hours, mean_util_spread_sigma)
    _plan, total = _plan_blocks(specs)
    if total == 0:
        return TraceSet(name=name)
    store, blocks = generate_trace_matrix(
        name,
        specs,
        n_hours,
        seed,
        mean_util_spread_sigma=mean_util_spread_sigma,
        mean_util_bounds=mean_util_bounds,
        correlation=correlation,
    )

    def vm_specs() -> List[Tuple[VirtualMachine, ServerSpec]]:
        pairs: List[Tuple[VirtualMachine, ServerSpec]] = []
        for block in blocks:
            spec = block.source_spec
            pairs.extend((vm, spec) for vm in block.virtual_machines())
        return pairs

    return TraceSet.from_store(name, store, vm_specs)
