"""The four datacenter workloads of the paper (Table 2), as presets.

| Name | Industry          | Servers | Mean CPU util | Character |
|------|-------------------|---------|---------------|-----------|
| A    | Banking           | 816     | 5%            | most web, most bursty, most CPU-intensive |
| B    | Airlines          | 445     | 1%            | near-idle, most memory-intensive |
| C    | Natural Resources | 1390    | 12%           | most batch, least bursty |
| D    | Beverage          | 722     | 6%            | bursty like Banking, memory-dominated |

Each preset is a mixture of workload-class profiles over source hardware
models, with per-class mean utilizations and memory models tuned so the
generated traces reproduce the paper's Section-4 measurements: the CPU /
memory peak-to-average and CoV CDFs (Figs. 2-5) and the aggregate
CPU:memory resource-ratio CDFs against the HS23 anchor of 160 RPE2/GB
(Fig. 6).  The calibration bands themselves live in
:mod:`repro.experiments.paper_targets` and are enforced by tests.

Presets are **scalable**: ``generate_datacenter("banking", scale=0.25)``
produces a quarter-size datacenter with the same statistics, which keeps
tests and benchmarks fast while full-scale runs stay available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.metrics.catalog import ServerModel, get_model, register_model
from repro.workloads.chunked import generate_chunked_store
from repro.workloads.generator import (
    IDLE,
    SCHEDULED_BATCH,
    STEADY_BATCH,
    WEB_BURSTY,
    WEB_MODERATE,
    CorrelationModel,
    MemoryModel,
    WorkloadClassProfile,
    generate_trace_set,
)
from repro.workloads.trace import HOURS_PER_DAY, TraceSet

__all__ = [
    "ClassGroup",
    "DatacenterConfig",
    "BANKING",
    "AIRLINES",
    "NATURAL_RESOURCES",
    "BEVERAGE",
    "ALL_DATACENTERS",
    "get_datacenter_config",
    "datacenter_specs",
    "generate_datacenter",
    "generate_datacenter_chunked",
    "STUDY_DAYS",
]

#: The paper analyses "hourly averages of the monitored data for the most
#: recent 30 days" (Section 3.1).
STUDY_DAYS = 30

#: Legacy compute-heavy tower (2006-era): high RPE2-per-GB ratio; common
#: in the Banking estate, which skews CPU-intensive in Fig. 6.
_COMPUTE_TOWER = ServerModel(
    name="tower-compute",
    cpu_rpe2=2250.0,
    memory_gb=3.0,
    idle_watts=120.0,
    peak_watts=250.0,
    description="legacy compute tower, 3 GB (750 RPE2/GB)",
)

#: Memory-rich database box: low RPE2-per-GB; common in the Airlines
#: estate, which is memory-bound for the entire study (Fig. 6b).
_DB_SERVER = ServerModel(
    name="rack-2u-db",
    cpu_rpe2=4000.0,
    memory_gb=32.0,
    idle_watts=190.0,
    peak_watts=400.0,
    description="2U database server, 32 GB (125 RPE2/GB)",
)

for _model in (_COMPUTE_TOWER, _DB_SERVER):
    try:
        register_model(_model)
    except ConfigurationError:
        pass  # already registered on module re-import


@dataclass(frozen=True)
class ClassGroup:
    """One slice of a datacenter: a workload class on a hardware model."""

    profile: WorkloadClassProfile
    hardware: str
    weight: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ConfigurationError(f"weight must be >= 0, got {self.weight}")
        get_model(self.hardware)  # validate eagerly


@dataclass(frozen=True)
class DatacenterConfig:
    """A reproducible datacenter preset."""

    key: str
    label: str
    industry: str
    server_count: int
    mean_cpu_util: float
    groups: Tuple[ClassGroup, ...]
    seed: int
    #: Cross-server correlation structure (shared business factor and
    #: flash-event calendar); None disables correlation entirely.
    correlation: Optional[CorrelationModel] = None

    def __post_init__(self) -> None:
        if self.server_count <= 0:
            raise ConfigurationError(
                f"{self.key}: server_count must be > 0, got {self.server_count}"
            )
        if not self.groups:
            raise ConfigurationError(f"{self.key}: needs at least one group")
        total = sum(g.weight for g in self.groups)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ConfigurationError(
                f"{self.key}: group weights must sum to 1, got {total}"
            )

    @property
    def web_fraction(self) -> float:
        """Fraction of servers labelled web (paper ordering: A > D > B > C)."""
        from repro.infrastructure.vm import WorkloadClass

        return sum(
            g.weight
            for g in self.groups
            if WorkloadClass.top_level(g.profile.workload_class)
            == WorkloadClass.WEB
        )


def _mem(profile: WorkloadClassProfile, **kwargs) -> WorkloadClassProfile:
    """Copy of a class profile with memory-model fields overridden."""
    return replace(profile, memory=replace(profile.memory, **kwargs))


#: Memory model for the minority of servers whose committed memory tracks
#: their bursty CPU almost one-to-one (in-memory caches, session stores).
#: These are the heavy-tailed-memory servers of Fig. 5a: ~20% of Banking,
#: <10% of Beverage, none in Airlines / Natural Resources.
_BURSTY_MEMORY = MemoryModel(
    base_frac=0.10,
    dynamic_frac=0.25,
    load_exponent=1.0,
    smoothing_alpha=0.9,
    noise_sigma=1.1,
)


BANKING = DatacenterConfig(
    key="banking",
    label="A",
    industry="Banking",
    server_count=816,
    mean_cpu_util=0.05,
    seed=11,
    # Market-driven flash events hit the whole customer-facing estate at
    # once: the mechanism behind Banking's dynamic-consolidation
    # contention (Figs. 8/9).
    correlation=CorrelationModel(
        ar1_sigma=0.18,
        event_rate_per_day=0.6,
        event_participation=0.40,
        event_magnitude_scale=1.8,
    ),
    groups=(
        # Heavy-tailed customer-facing web tier on compute-skewed hardware:
        # low committed memory keeps the aggregate ratio above the HS23
        # anchor for ~70% of intervals (Fig. 6a).
        ClassGroup(
            _mem(
                WEB_BURSTY.with_mean_util(0.055),
                base_frac=0.11,
                dynamic_frac=0.14,
            ),
            "tower-compute",
            0.38,
        ),
        ClassGroup(
            _mem(
                WEB_BURSTY.with_mean_util(0.06),
                base_frac=0.14,
                dynamic_frac=0.16,
            ),
            "rack-1u-small",
            0.15,
        ),
        ClassGroup(
            replace(WEB_BURSTY.with_mean_util(0.06), memory=_BURSTY_MEMORY),
            "rack-1u-small",
            0.22,
        ),
        ClassGroup(
            _mem(
                WEB_MODERATE.with_mean_util(0.04),
                base_frac=0.15,
                dynamic_frac=0.12,
            ),
            "rack-1u-small",
            0.10,
        ),
        ClassGroup(
            _mem(
                SCHEDULED_BATCH.with_mean_util(0.04),
                base_frac=0.15,
                dynamic_frac=0.12,
            ),
            "rack-1u-medium",
            0.15,
        ),
    ),
)

AIRLINES = DatacenterConfig(
    key="airlines",
    label="B",
    industry="Airlines",
    server_count=445,
    mean_cpu_util=0.01,
    seed=23,
    correlation=CorrelationModel(
        ar1_sigma=0.10,
        event_rate_per_day=0.15,
        event_participation=0.25,
        event_magnitude_scale=0.8,
    ),
    groups=(
        # Mostly near-idle reservation/back-office boxes with high memory
        # commitment: CPU:memory ratio stays below ~50 RPE2/GB throughout
        # (Fig. 6b), with no heavy-tailed memory servers (Fig. 5b).
        ClassGroup(
            _mem(
                IDLE.with_mean_util(0.007),
                base_frac=0.30,
                dynamic_frac=0.16,
                smoothing_alpha=0.15,
            ),
            "rack-1u-medium",
            0.40,
        ),
        ClassGroup(
            _mem(
                IDLE.with_mean_util(0.008),
                base_frac=0.34,
                dynamic_frac=0.18,
                smoothing_alpha=0.15,
            ),
            "rack-2u-db",
            0.25,
        ),
        ClassGroup(
            _mem(
                WEB_MODERATE.with_mean_util(0.014),
                base_frac=0.24,
                dynamic_frac=0.34,
                smoothing_alpha=0.3,
            ),
            "rack-1u-medium",
            0.30,
        ),
        ClassGroup(
            _mem(
                SCHEDULED_BATCH.with_mean_util(0.012),
                base_frac=0.24,
                dynamic_frac=0.34,
            ),
            "rack-1u-medium",
            0.05,
        ),
    ),
)

NATURAL_RESOURCES = DatacenterConfig(
    key="natural-resources",
    label="C",
    industry="Natural Resources",
    server_count=1390,
    mean_cpu_util=0.12,
    seed=37,
    correlation=CorrelationModel(
        ar1_sigma=0.08,
        event_rate_per_day=0.1,
        event_participation=0.20,
        event_magnitude_scale=0.6,
    ),
    groups=(
        # Custom mining/minerals compute: sustained load, lowest
        # burstiness of the four (Figs. 2c/3c), memory-constrained for
        # >90% of intervals (Fig. 6c).
        ClassGroup(
            _mem(
                STEADY_BATCH.with_mean_util(0.13),
                base_frac=0.56,
                dynamic_frac=0.32,
            ),
            "rack-1u-medium",
            0.45,
        ),
        ClassGroup(
            _mem(
                STEADY_BATCH.with_mean_util(0.14),
                base_frac=0.58,
                dynamic_frac=0.32,
            ),
            "rack-2u-large",
            0.20,
        ),
        ClassGroup(
            _mem(
                SCHEDULED_BATCH.with_mean_util(0.09),
                base_frac=0.26,
                dynamic_frac=0.68,
                smoothing_alpha=0.5,
            ),
            "rack-1u-medium",
            0.15,
        ),
        ClassGroup(
            _mem(
                WEB_MODERATE.with_mean_util(0.10),
                base_frac=0.26,
                dynamic_frac=0.68,
                smoothing_alpha=0.5,
            ),
            "rack-1u-medium",
            0.10,
        ),
        ClassGroup(
            _mem(
                WEB_BURSTY.with_mean_util(0.10),
                base_frac=0.26,
                dynamic_frac=0.68,
                smoothing_alpha=0.5,
            ),
            "rack-1u-medium",
            0.10,
        ),
    ),
)

BEVERAGE = DatacenterConfig(
    key="beverage",
    label="D",
    industry="Beverage",
    server_count=722,
    mean_cpu_util=0.06,
    seed=53,
    correlation=CorrelationModel(
        ar1_sigma=0.15,
        event_rate_per_day=0.45,
        event_participation=0.35,
        event_magnitude_scale=1.5,
    ),
    groups=(
        # Bursty like Banking (Figs. 2d/3d) but on more memory-committed
        # hardware, so >90% of intervals are memory-dominated (Fig. 6d)
        # while still having more CPU-intensive intervals than B or C.
        ClassGroup(
            _mem(
                WEB_BURSTY.with_mean_util(0.065),
                base_frac=0.25,
                dynamic_frac=0.22,
            ),
            "rack-1u-small",
            0.35,
        ),
        ClassGroup(
            replace(WEB_BURSTY.with_mean_util(0.06), memory=_BURSTY_MEMORY),
            "rack-1u-small",
            0.08,
        ),
        ClassGroup(
            _mem(
                WEB_BURSTY.with_mean_util(0.06),
                base_frac=0.23,
                dynamic_frac=0.20,
            ),
            "tower-compute",
            0.17,
        ),
        ClassGroup(
            _mem(
                WEB_MODERATE.with_mean_util(0.05),
                base_frac=0.27,
                dynamic_frac=0.16,
            ),
            "rack-1u-medium",
            0.15,
        ),
        ClassGroup(
            _mem(
                SCHEDULED_BATCH.with_mean_util(0.05),
                base_frac=0.27,
                dynamic_frac=0.16,
            ),
            "rack-1u-medium",
            0.25,
        ),
    ),
)

ALL_DATACENTERS: Tuple[DatacenterConfig, ...] = (
    BANKING,
    AIRLINES,
    NATURAL_RESOURCES,
    BEVERAGE,
)

_BY_KEY: Dict[str, DatacenterConfig] = {c.key: c for c in ALL_DATACENTERS}
_ALIASES = {
    "a": "banking",
    "b": "airlines",
    "c": "natural-resources",
    "d": "beverage",
    "natres": "natural-resources",
    "natural_resources": "natural-resources",
}


def get_datacenter_config(key: str) -> DatacenterConfig:
    """Look up a preset by key ('banking', ...) or label alias ('a', ...)."""
    normalized = key.strip().lower()
    normalized = _ALIASES.get(normalized, normalized)
    try:
        return _BY_KEY[normalized]
    except KeyError:
        known = ", ".join(sorted(_BY_KEY))
        raise ConfigurationError(
            f"unknown datacenter {key!r}; known: {known}"
        ) from None


def _group_counts(config: DatacenterConfig, total: int) -> Sequence[int]:
    """Split ``total`` servers across groups proportionally to weight.

    Largest-remainder apportionment: counts sum exactly to ``total`` and
    every positive-weight group gets at least one server when possible.
    """
    raw = [g.weight * total for g in config.groups]
    counts = [int(x) for x in raw]
    remainders = sorted(
        range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
    )
    shortfall = total - sum(counts)
    for i in remainders[:shortfall]:
        counts[i] += 1
    return counts


def datacenter_specs(
    key: str, *, scale: float = 1.0
) -> List[Tuple[WorkloadClassProfile, ServerModel, int]]:
    """The ``(profile, hardware, count)`` groups for a preset at scale.

    This is the preset's full generation plan — what
    :func:`generate_datacenter` feeds the engine — exposed so callers
    that stream (the chunked writer) can hand the exact same plan to
    the blockwise entry points.
    """
    config = get_datacenter_config(key)
    if scale <= 0:
        raise ConfigurationError(f"scale must be > 0, got {scale}")
    total = max(len(config.groups), int(round(config.server_count * scale)))
    counts = _group_counts(config, total)
    return [
        (group.profile, get_model(group.hardware), count)
        for group, count in zip(config.groups, counts)
    ]


def generate_datacenter(
    key: str,
    *,
    scale: float = 1.0,
    days: int = STUDY_DAYS,
    seed: Optional[int] = None,
) -> TraceSet:
    """Generate the trace set for one of the paper's datacenters.

    Parameters
    ----------
    key:
        Preset key or alias (``"banking"`` / ``"a"`` ...).
    scale:
        Server-count scale factor; 1.0 reproduces the paper's sizes
        (816/445/1390/722).  Scaled-down sets keep the same per-server
        statistics, so analysis CDFs are stable down to ~0.1.
    days:
        Trace length in days (paper: 30).
    seed:
        Override the preset's seed for alternative trace realizations.
    """
    config = get_datacenter_config(key)
    if days <= 0:
        raise ConfigurationError(f"days must be > 0, got {days}")
    return generate_trace_set(
        name=config.key,
        specs=datacenter_specs(key, scale=scale),
        n_hours=days * HOURS_PER_DAY,
        seed=config.seed if seed is None else seed,
        correlation=config.correlation,
    )


def generate_datacenter_chunked(
    key: str,
    directory: Union[str, Path],
    *,
    scale: float = 1.0,
    days: int = STUDY_DAYS,
    seed: Optional[int] = None,
    block_rows: int = 2048,
) -> Path:
    """Generate a preset straight to a chunked store directory.

    Streams row blocks from the array engine into
    :class:`~repro.workloads.chunked.ChunkedTraceWriter`, so arbitrarily
    scaled fleets (``scale=100`` is ~80k servers for banking) never
    materialize in RAM.  The on-disk store is bit-identical to
    ``generate_datacenter(key, ...).store``.
    """
    config = get_datacenter_config(key)
    if days <= 0:
        raise ConfigurationError(f"days must be > 0, got {days}")
    return generate_chunked_store(
        directory,
        config.key,
        datacenter_specs(key, scale=scale),
        days * HOURS_PER_DAY,
        config.seed if seed is None else seed,
        correlation=config.correlation,
        block_rows=block_rows,
    )
