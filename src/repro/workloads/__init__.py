"""Workload traces: data structures, generators, and datacenter presets."""

from repro.workloads.appmodel import OLIO_MODEL, AppResourceModel
from repro.workloads.chunked import generate_chunked_store
from repro.workloads.datacenters import (
    ALL_DATACENTERS,
    BANKING,
    BEVERAGE,
    AIRLINES,
    NATURAL_RESOURCES,
    STUDY_DAYS,
    ClassGroup,
    DatacenterConfig,
    datacenter_specs,
    generate_datacenter,
    generate_datacenter_chunked,
    get_datacenter_config,
)
from repro.workloads.generator import (
    IDLE,
    SCHEDULED_BATCH,
    STEADY_BATCH,
    WEB_BURSTY,
    WEB_MODERATE,
    CorrelationModel,
    CpuModel,
    MemoryModel,
    ScheduledJobSpec,
    TraceBlock,
    WorkloadClassProfile,
    generate_trace_blocks,
    generate_trace_matrix,
    generate_trace_set,
)
from repro.workloads.io import load_trace_set, save_trace_set
from repro.workloads.rolling import RollingTraceStore
from repro.workloads.store import TraceStore
from repro.workloads.trace import (
    HOURS_PER_DAY,
    ResourceTrace,
    ServerTrace,
    TraceSet,
)

__all__ = [
    "ALL_DATACENTERS",
    "AIRLINES",
    "AppResourceModel",
    "BANKING",
    "BEVERAGE",
    "ClassGroup",
    "CorrelationModel",
    "CpuModel",
    "DatacenterConfig",
    "HOURS_PER_DAY",
    "IDLE",
    "MemoryModel",
    "NATURAL_RESOURCES",
    "OLIO_MODEL",
    "ResourceTrace",
    "RollingTraceStore",
    "SCHEDULED_BATCH",
    "STEADY_BATCH",
    "STUDY_DAYS",
    "ScheduledJobSpec",
    "ServerTrace",
    "TraceBlock",
    "TraceSet",
    "TraceStore",
    "WEB_BURSTY",
    "WEB_MODERATE",
    "WorkloadClassProfile",
    "datacenter_specs",
    "generate_chunked_store",
    "generate_datacenter",
    "generate_datacenter_chunked",
    "generate_trace_blocks",
    "generate_trace_matrix",
    "generate_trace_set",
    "get_datacenter_config",
    "load_trace_set",
    "save_trace_set",
]
