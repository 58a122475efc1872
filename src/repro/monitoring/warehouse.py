"""The central monitoring data warehouse (paper §3.1).

"The central server acts as a data warehouse for the monitored data and
maintains data with policies on retention and expiration.  We get
monitored data for consolidation planning from the data warehouse."

The warehouse ingests agents' minute samples, aggregates them into the
hourly averages planning consumes, enforces a retention window, tracks
per-server completeness, and exports a
:class:`~repro.workloads.trace.TraceSet` — applying the paper's §3.2
filter: "We filter out any servers for which monitoring data or the
specifications of the server is not available in the data warehouse."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, TraceError
from repro.infrastructure.server import ServerSpec
from repro.infrastructure.vm import VirtualMachine
from repro.monitoring.agent import MINUTES_PER_HOUR, MonitoringAgent
from repro.workloads.store import TraceStore, check_demand_rows
from repro.workloads.trace import TraceSet

__all__ = ["WarehouseRecord", "DataWarehouse"]


@dataclass
class WarehouseRecord:
    """Aggregated hourly data for one server."""

    vm: VirtualMachine
    spec: Optional[ServerSpec]
    hourly_cpu_util: np.ndarray
    hourly_memory_gb: np.ndarray
    samples_received: np.ndarray  # per hour, of MINUTES_PER_HOUR expected

    @property
    def n_hours(self) -> int:
        return int(self.hourly_cpu_util.size)

    def completeness(self) -> float:
        """Fraction of expected minute samples that actually arrived."""
        expected = self.n_hours * MINUTES_PER_HOUR
        return float(self.samples_received.sum() / expected) if expected else 0.0


@dataclass
class DataWarehouse:
    """Ingests agents, aggregates hourly, retains, filters, exports.

    Parameters
    ----------
    retention_days:
        Hours beyond ``retention_days * 24`` are expired on ingest —
        the paper plans from "the most recent 30 days".
    """

    retention_days: int = 30
    _records: Dict[str, WarehouseRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.retention_days <= 0:
            raise ConfigurationError(
                f"retention_days must be > 0, got {self.retention_days}"
            )

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, vm_id: object) -> bool:
        return vm_id in self._records

    def ingest_agent(
        self,
        agent: MonitoringAgent,
        *,
        spec_available: bool = True,
    ) -> WarehouseRecord:
        """Pull an agent's full stream, aggregate, apply retention.

        ``spec_available=False`` models servers whose hardware record is
        missing from the CMDB — they are retained as monitoring rows but
        excluded from planning exports (the §3.2 filter).
        """
        if agent.vm_id in self._records:
            raise ConfigurationError(
                f"agent {agent.vm_id!r} already ingested"
            )
        minutes_cpu = agent.minute_cpu_util()
        minutes_memory = agent.minute_memory_gb()
        received = ~agent.dropped_mask()

        # Hourly average over *received* samples only; hours with no
        # samples at all surface as NaN and count against completeness.
        counts = received.sum(axis=1)
        with np.errstate(invalid="ignore"):
            cpu = np.where(
                counts > 0,
                np.where(received, minutes_cpu, 0.0).sum(axis=1)
                / np.maximum(counts, 1),
                np.nan,
            )
            memory = np.where(
                counts > 0,
                np.where(received, minutes_memory, 0.0).sum(axis=1)
                / np.maximum(counts, 1),
                np.nan,
            )

        keep = self.retention_days * 24
        if cpu.size > keep:
            cpu, memory, counts = cpu[-keep:], memory[-keep:], counts[-keep:]

        record = WarehouseRecord(
            vm=agent.trace.vm,
            spec=agent.trace.source_spec if spec_available else None,
            hourly_cpu_util=cpu,
            hourly_memory_gb=memory,
            samples_received=counts,
        )
        self._records[agent.vm_id] = record
        return record

    def record(self, vm_id: str) -> WarehouseRecord:
        try:
            return self._records[vm_id]
        except KeyError:
            raise TraceError(f"no warehouse record for {vm_id!r}") from None

    def completeness(self, vm_id: str) -> float:
        return self.record(vm_id).completeness()

    # ------------------------------------------------------------------

    def export_trace_set(
        self,
        name: str,
        *,
        min_completeness: float = 0.95,
    ) -> Tuple[TraceSet, Tuple[str, ...]]:
        """Build the planning trace set, filtering unusable servers.

        Returns ``(trace_set, excluded_vm_ids)``.  A server is excluded
        when its spec is missing, its sample completeness falls below
        ``min_completeness``, or any retained hour has no samples at all
        (NaN hourly average) — the paper's filter, §3.2.
        """
        if not 0 < min_completeness <= 1:
            raise ConfigurationError(
                f"min_completeness must be in (0, 1], got {min_completeness}"
            )
        kept = []
        excluded = []
        for vm_id, record in self._records.items():
            if (
                record.spec is None
                or record.completeness() < min_completeness
                or np.isnan(record.hourly_cpu_util).any()
            ):
                excluded.append(vm_id)
            else:
                kept.append(record)
        if not kept:
            return TraceSet(name), tuple(excluded)
        if len({record.n_hours for record in kept}) > 1:
            raise TraceError(f"{name}: servers cover different hour counts")
        store = TraceStore.from_demand(
            [record.vm.vm_id for record in kept],
            np.stack([record.hourly_cpu_util for record in kept]),
            np.stack([record.hourly_memory_gb for record in kept]),
            [record.spec.cpu_rpe2 for record in kept],  # type: ignore[union-attr]
            1.0,
        )
        check_demand_rows(store.cpu_util, store.vm_ids, f"{name} cpu_util")
        check_demand_rows(store.memory_gb, store.vm_ids, f"{name} memory_gb")
        trace_set = TraceSet.from_store(
            name, store, [(record.vm, record.spec) for record in kept]
        )
        return trace_set, tuple(excluded)
