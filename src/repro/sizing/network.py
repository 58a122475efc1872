"""Link-bandwidth demand model for placement feasibility (paper §3.1).

"Consolidation planning optimizes CPU and memory, while using network
and disk throughput as constraints to identify hosts with sufficient
link bandwidth."

Enterprise monitoring reports TCP/IP packet counts per server (Table 1
of the paper); planning tools convert them into a bandwidth reservation
roughly proportional to the server's compute activity, with web-facing
workloads moving far more bytes per unit of CPU than batch compute.
:class:`NetworkDemandModel` captures that conversion: sized network
demand = intensity(workload class) × sized CPU demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.infrastructure.vm import WorkloadClass

__all__ = ["NetworkDemandModel", "DiskDemandModel"]


@dataclass(frozen=True)
class _IoDemandModel:
    """Shared validation and reservation of the two I/O demand models:
    reservation = base + intensity(workload class) × sized CPU demand."""

    web_mbps_per_rpe2: float
    batch_mbps_per_rpe2: float
    base_mbps: float
    #: The resource the model reserves, named in validation errors.
    _resource: ClassVar[str]

    def __post_init__(self) -> None:
        if self.web_mbps_per_rpe2 < 0 or self.batch_mbps_per_rpe2 < 0:
            raise ConfigurationError(
                f"{self._resource} intensities must be >= 0"
            )
        if self.base_mbps < 0:
            raise ConfigurationError("base_mbps must be >= 0")

    def demand_mbps(
        self,
        workload_class: str,
        sized_cpu_rpe2: Union[float, np.ndarray],
    ) -> Union[float, np.ndarray]:
        """Reservation for one sized VM, or elementwise for an array of
        sized CPU demands of the same workload class."""
        if np.any(sized_cpu_rpe2 < 0):
            raise ConfigurationError(
                f"sized_cpu_rpe2 must be >= 0, got {np.min(sized_cpu_rpe2)}"
            )
        top_level = WorkloadClass.top_level(workload_class)
        intensity = (
            self.web_mbps_per_rpe2
            if top_level == WorkloadClass.WEB
            else self.batch_mbps_per_rpe2
        )
        return self.base_mbps + intensity * sized_cpu_rpe2


@dataclass(frozen=True)
class NetworkDemandModel(_IoDemandModel):
    """Converts sized CPU demand into a link-bandwidth reservation.

    Intensities are in Mbps per RPE2 of sized CPU demand.  Defaults are
    calibrated so a fully busy HS23 blade (20480 RPE2) of web workloads
    would saturate roughly one 10 GbE link — bandwidth matters but only
    binds for network-heavy estates, matching its constraint (not
    optimization-objective) role in the paper.
    """

    web_mbps_per_rpe2: float = 0.40
    batch_mbps_per_rpe2: float = 0.08
    #: Baseline per-VM chatter (monitoring, AD, backup control traffic).
    base_mbps: float = 2.0
    _resource: ClassVar[str] = "network"


@dataclass(frozen=True)
class DiskDemandModel(_IoDemandModel):
    """Converts sized CPU demand into a SAN-throughput reservation.

    The mirror of :class:`NetworkDemandModel` for the paper's second
    I/O constraint.  The intensity skew flips: batch/analytics jobs
    stream data (high MB/s per RPE2) while interactive web workloads
    mostly hit caches.
    """

    web_mbps_per_rpe2: float = 0.05
    batch_mbps_per_rpe2: float = 0.20
    #: Baseline per-VM churn (OS paging, logging).
    base_mbps: float = 1.0
    _resource: ClassVar[str] = "disk"
