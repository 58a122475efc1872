"""Virtual machine abstractions.

In this study every VM corresponds to one source server being virtualized
(the paper analyses non-virtualized Windows servers as consolidation
candidates).  A :class:`VirtualMachine` carries identity and classification
metadata; its time-varying resource demand lives in the workload trace
(:mod:`repro.workloads`), and its scalar *sized* demand for a planning
window is a :class:`VMDemand` produced by :mod:`repro.sizing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.exceptions import ConfigurationError

__all__ = ["WorkloadClass", "VirtualMachine", "VMDemand"]


class WorkloadClass:
    """Coarse application labels used by the paper (Section 3.2).

    The paper classifies every server as hosting either a web-based
    workload or a computational/batch workload.  We keep the same two
    top-level labels and add the sub-classes the generators distinguish.
    """

    WEB = "web"
    BATCH = "batch"

    #: Generator sub-classes (each maps to one of the two paper labels).
    WEB_INTERACTIVE = "web-interactive"
    STEADY_BATCH = "steady-batch"
    SCHEDULED_BATCH = "scheduled-batch"
    IDLE = "idle"

    _TOP_LEVEL = {
        WEB: WEB,
        WEB_INTERACTIVE: WEB,
        BATCH: BATCH,
        STEADY_BATCH: BATCH,
        SCHEDULED_BATCH: BATCH,
        IDLE: BATCH,
    }

    @classmethod
    def top_level(cls, label: str) -> str:
        """Map any class label onto the paper's web/batch dichotomy."""
        try:
            return cls._TOP_LEVEL[label]
        except KeyError:
            raise ConfigurationError(f"unknown workload class {label!r}") from None


@dataclass(frozen=True)
class VirtualMachine:
    """One consolidation candidate (a virtualized source server).

    Attributes
    ----------
    vm_id:
        Unique identifier within a trace set / datacenter.
    memory_config_gb:
        Configured (allocated) memory of the VM.  Actual demand may be
        lower; sizing decides how much to reserve.
    workload_class:
        One of the :class:`WorkloadClass` labels.
    labels:
        Free-form metadata (application name, tier, ...) used by
        constraints and reports.
    """

    vm_id: str
    memory_config_gb: float
    workload_class: str = WorkloadClass.WEB
    labels: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.vm_id:
            raise ConfigurationError("vm_id must be a non-empty string")
        if self.memory_config_gb <= 0:
            raise ConfigurationError(
                f"memory_config_gb must be > 0, got {self.memory_config_gb}"
            )
        WorkloadClass.top_level(self.workload_class)  # validates the label


@dataclass(frozen=True)
class VMDemand:
    """Scalar sized resource demand of one VM for a planning window.

    This is what the Placement step consumes: after Prediction and Size
    Estimation collapse a window of trace points into one number per
    resource (Section 2.1 of the paper).

    Attributes
    ----------
    vm_id:
        The VM this demand belongs to.
    cpu_rpe2:
        Sized CPU demand in RPE2 units (virtualization overhead included
        if the size estimator applied one).
    memory_gb:
        Sized memory demand in GB.
    tail_cpu_rpe2 / tail_memory_gb:
        Optional *tail* demand above the body, used by stochastic (PCP)
        placement: the body is reserved per-VM, the largest tail is
        reserved once per host.  ``0.0`` for non-stochastic sizing.
    network_mbps / disk_mbps:
        Sized link-bandwidth and storage-throughput demands.  Used as
        placement constraints (paper §3.1), not as optimized resources;
        both default to 0 (unconstrained) when no I/O model is
        configured.
    """

    vm_id: str
    cpu_rpe2: float
    memory_gb: float
    tail_cpu_rpe2: float = 0.0
    tail_memory_gb: float = 0.0
    network_mbps: float = 0.0
    disk_mbps: float = 0.0

    def __post_init__(self) -> None:
        # ``nan < 0`` is false, so the sign checks alone let a NaN through,
        # and the packers disagree on one: ``np.maximum`` propagates it,
        # builtin ``max`` can drop it.
        for name in (
            "cpu_rpe2", "memory_gb", "tail_cpu_rpe2", "tail_memory_gb",
            "network_mbps", "disk_mbps",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"{self.vm_id}: {name} must be finite, got {value}"
                )
        if self.cpu_rpe2 < 0 or self.memory_gb < 0:
            raise ConfigurationError(
                f"{self.vm_id}: sized demand must be non-negative "
                f"(cpu={self.cpu_rpe2}, mem={self.memory_gb})"
            )
        if self.tail_cpu_rpe2 < 0 or self.tail_memory_gb < 0:
            raise ConfigurationError(
                f"{self.vm_id}: tail demand must be non-negative"
            )
        if self.network_mbps < 0 or self.disk_mbps < 0:
            raise ConfigurationError(
                f"{self.vm_id}: I/O demand must be non-negative"
            )

    @property
    def total_cpu_rpe2(self) -> float:
        """Body plus tail CPU demand (worst-case reservation)."""
        return self.cpu_rpe2 + self.tail_cpu_rpe2

    @property
    def total_memory_gb(self) -> float:
        """Body plus tail memory demand (worst-case reservation)."""
        return self.memory_gb + self.tail_memory_gb
