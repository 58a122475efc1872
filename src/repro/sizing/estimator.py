"""Size estimation: from traces to placeable :class:`VMDemand` objects.

The Size-Estimation step of the consolidation flow (paper §2.1) applies a
sizing function to each VM's demand window and adjusts for the
virtualization platform:

* **CPU overhead** — a virtualized workload needs slightly more CPU than
  it did on bare metal (hypervisor scheduling, I/O virtualization); the
  paper's emulator "captures the impact of virtualization overhead ... in
  a configurable fashion".
* **Per-VM memory overhead** — hypervisor bookkeeping per VM.
* **Memory deduplication** — content-based page sharing reduces the
  memory that must be reserved (configurable; defaults to off because
  the paper's candidates are Windows physical servers whose monitored
  memory reflects real demand).

:class:`SizeEstimator` produces body-only demands; with a
:class:`~repro.sizing.functions.BodyTailSizing` it fills the tail fields
used by stochastic (PCP) placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.infrastructure.vm import VMDemand, WorkloadClass
from repro.sizing.functions import BodyTailSizing, MaxSizing, SizingFunction
from repro.sizing.network import DiskDemandModel, NetworkDemandModel
from repro.workloads.trace import ServerTrace, TraceSet

__all__ = ["VirtualizationOverhead", "SizeEstimator"]


def _split_matrix(
    matrix: np.ndarray, body_percentile: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise :meth:`BodyTailSizing.split` over a demand matrix.

    ``np.percentile(..., axis=1)`` runs the same interpolation per row
    as the 1-D call, so each ``(body, tail)`` pair is bit-identical to
    splitting the row on its own.
    """
    body = np.percentile(matrix, body_percentile, axis=1)
    tail = np.maximum(matrix.max(axis=1) - body, 0.0)
    return body, tail


@dataclass(frozen=True)
class DemandTable:
    """Columnar sized demands: one row per VM, one column per interval.

    The array counterpart of a ``List[VMDemand]`` per interval — all
    adjustments (overhead, dedup, I/O reservations) are already applied
    to whole matrices, and :class:`VMDemand` rows are materialized
    *lazily* (:meth:`demand`, :meth:`column`) only where an object is
    actually needed (error reporting, fallback interop).
    """

    vm_ids: Tuple[str, ...]
    cpu_rpe2: np.ndarray
    memory_gb: np.ndarray
    network_mbps: np.ndarray
    disk_mbps: np.ndarray

    @property
    def n_vms(self) -> int:
        return len(self.vm_ids)

    @property
    def n_columns(self) -> int:
        return self.cpu_rpe2.shape[1]

    def demand(self, row: int, column: int) -> VMDemand:
        """Materialize one sized VM at one interval."""
        return VMDemand(
            vm_id=self.vm_ids[row],
            cpu_rpe2=float(self.cpu_rpe2[row, column]),
            memory_gb=float(self.memory_gb[row, column]),
            network_mbps=float(self.network_mbps[row, column]),
            disk_mbps=float(self.disk_mbps[row, column]),
        )

    def column(self, column: int) -> List[VMDemand]:
        """Materialize one interval's full demand list (VM-row order)."""
        return [self.demand(row, column) for row in range(self.n_vms)]


@dataclass(frozen=True)
class VirtualizationOverhead:
    """Platform overhead and dedup parameters applied during sizing."""

    cpu_overhead_frac: float = 0.10
    memory_overhead_gb: float = 0.125
    dedup_savings_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu_overhead_frac < 0:
            raise ConfigurationError(
                f"cpu_overhead_frac must be >= 0, got {self.cpu_overhead_frac}"
            )
        if self.memory_overhead_gb < 0:
            raise ConfigurationError(
                f"memory_overhead_gb must be >= 0, got "
                f"{self.memory_overhead_gb}"
            )
        if not 0 <= self.dedup_savings_frac < 1:
            raise ConfigurationError(
                f"dedup_savings_frac must be in [0, 1), got "
                f"{self.dedup_savings_frac}"
            )

    def adjust_cpu(self, cpu_rpe2: float) -> float:
        """Inflate CPU demand by the hypervisor overhead."""
        return cpu_rpe2 * (1.0 + self.cpu_overhead_frac)

    def adjust_memory(self, memory_gb: float) -> float:
        """Apply dedup savings, then add the per-VM fixed overhead."""
        return memory_gb * (1.0 - self.dedup_savings_frac) + (
            self.memory_overhead_gb
        )


@dataclass(frozen=True)
class SizeEstimator:
    """Turns demand windows into :class:`VMDemand` reservations."""

    sizing: SizingFunction = field(default_factory=MaxSizing)
    overhead: VirtualizationOverhead = field(
        default_factory=VirtualizationOverhead
    )
    #: Optional I/O models; when set, every sized demand also carries a
    #: network / disk reservation (placement constraints, §3.1).
    network: Optional[NetworkDemandModel] = None
    disk: Optional[DiskDemandModel] = None

    def _network_for(self, workload_class: str, sized_cpu: float) -> float:
        if self.network is None:
            return 0.0
        return self.network.demand_mbps(workload_class, sized_cpu)

    def _disk_for(self, workload_class: str, sized_cpu: float) -> float:
        if self.disk is None:
            return 0.0
        return self.disk.demand_mbps(workload_class, sized_cpu)

    def estimate(self, trace: ServerTrace) -> VMDemand:
        """Size one VM over its (already windowed) trace."""
        cpu_window = trace.cpu_rpe2
        memory_window = trace.memory_gb.values
        if isinstance(self.sizing, BodyTailSizing):
            cpu_body, cpu_tail = self.sizing.split(cpu_window)
            memory_body, memory_tail = self.sizing.split(memory_window)
            adjusted_body = self.overhead.adjust_cpu(cpu_body)
            adjusted_tail = self.overhead.adjust_cpu(cpu_tail)
            return VMDemand(
                vm_id=trace.vm_id,
                cpu_rpe2=adjusted_body,
                memory_gb=self.overhead.adjust_memory(memory_body),
                tail_cpu_rpe2=adjusted_tail,
                # The fixed per-VM overhead is already counted in the body.
                tail_memory_gb=memory_tail
                * (1.0 - self.overhead.dedup_savings_frac),
                network_mbps=self._network_for(
                    trace.vm.workload_class, adjusted_body + adjusted_tail
                ),
                disk_mbps=self._disk_for(
                    trace.vm.workload_class, adjusted_body + adjusted_tail
                ),
            )
        adjusted_cpu = self.overhead.adjust_cpu(self.sizing.size(cpu_window))
        return VMDemand(
            vm_id=trace.vm_id,
            cpu_rpe2=adjusted_cpu,
            memory_gb=self.overhead.adjust_memory(
                self.sizing.size(memory_window)
            ),
            network_mbps=self._network_for(
                trace.vm.workload_class, adjusted_cpu
            ),
            disk_mbps=self._disk_for(
                trace.vm.workload_class, adjusted_cpu
            ),
        )

    def estimate_all(self, trace_set: TraceSet) -> List[VMDemand]:
        """Size every VM in a trace set (kept in trace-set order).

        Max and body/tail sizing run on the cached
        :class:`~repro.workloads.store.TraceStore` matrices in a few
        column reductions — exact row-wise reductions, so every demand
        equals :meth:`estimate` on its own trace.  Any other sizing
        function sizes trace by trace with :meth:`estimate`.
        """
        if not isinstance(self.sizing, (MaxSizing, BodyTailSizing)):
            return [self.estimate(trace) for trace in trace_set]
        store = trace_set.store
        cpu = store.cpu_rpe2
        memory = store.memory_gb
        if cpu.shape[1] == 0 or cpu.shape[0] == 0:
            # Delegate empty-window error reporting to estimate().
            return [self.estimate(trace) for trace in trace_set]
        classes = [trace.vm.workload_class for trace in trace_set]
        vm_ids = list(store.vm_ids)
        if isinstance(self.sizing, BodyTailSizing):
            cpu_body, cpu_tail = _split_matrix(
                cpu, self.sizing.body_percentile
            )
            memory_body, memory_tail = _split_matrix(
                memory, self.sizing.body_percentile
            )
            adjusted_body = cpu_body * (1.0 + self.overhead.cpu_overhead_frac)
            adjusted_tail = cpu_tail * (1.0 + self.overhead.cpu_overhead_frac)
            sized_cpu = adjusted_body + adjusted_tail
            network, disk = self._io_columns(classes, sized_cpu)
            dedup_keep = 1.0 - self.overhead.dedup_savings_frac
            adjusted_memory = (
                memory_body * dedup_keep + self.overhead.memory_overhead_gb
            )
            tail_memory = memory_tail * dedup_keep
            return [
                VMDemand(
                    vm_id=vm_ids[row],
                    cpu_rpe2=float(adjusted_body[row]),
                    memory_gb=float(adjusted_memory[row]),
                    tail_cpu_rpe2=float(adjusted_tail[row]),
                    tail_memory_gb=float(tail_memory[row]),
                    network_mbps=float(network[row]),
                    disk_mbps=float(disk[row]),
                )
                for row in range(len(vm_ids))
            ]
        adjusted_cpu = cpu.max(axis=1) * (
            1.0 + self.overhead.cpu_overhead_frac
        )
        adjusted_memory = memory.max(axis=1) * (
            1.0 - self.overhead.dedup_savings_frac
        ) + self.overhead.memory_overhead_gb
        network, disk = self._io_columns(classes, adjusted_cpu)
        return [
            VMDemand(
                vm_id=vm_ids[row],
                cpu_rpe2=float(adjusted_cpu[row]),
                memory_gb=float(adjusted_memory[row]),
                network_mbps=float(network[row]),
                disk_mbps=float(disk[row]),
            )
            for row in range(len(vm_ids))
        ]

    def _io_columns(
        self,
        workload_classes: Sequence[Optional[str]],
        sized_cpu: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Network/disk reservations for already-sized CPU columns.

        Grouped by workload class: each class resolves its intensity
        once and the reservation is one broadcast per class —
        elementwise identical to the per-VM model calls.
        """
        network = np.zeros_like(sized_cpu)
        disk = np.zeros_like(sized_cpu)
        if self.network is None and self.disk is None:
            return network, disk
        by_class: dict = {}
        for row, workload_class in enumerate(workload_classes):
            if workload_class is not None:
                by_class.setdefault(workload_class, []).append(row)
        for workload_class, row_list in by_class.items():
            rows = np.array(row_list, dtype=np.intp)
            top_level = WorkloadClass.top_level(workload_class)
            web = top_level == WorkloadClass.WEB
            if self.network is not None:
                intensity = (
                    self.network.web_mbps_per_rpe2
                    if web
                    else self.network.batch_mbps_per_rpe2
                )
                network[rows] = (
                    self.network.base_mbps + intensity * sized_cpu[rows]
                )
            if self.disk is not None:
                intensity = (
                    self.disk.web_mbps_per_rpe2
                    if web
                    else self.disk.batch_mbps_per_rpe2
                )
                disk[rows] = (
                    self.disk.base_mbps + intensity * sized_cpu[rows]
                )
        return network, disk

    def estimate_matrix(
        self,
        vm_ids: Sequence[str],
        cpu_rpe2: np.ndarray,
        memory_gb: np.ndarray,
        workload_classes: Optional[Sequence[Optional[str]]] = None,
    ) -> DemandTable:
        """Batched :meth:`estimate_from_values` over whole peak tables.

        ``cpu_rpe2`` / ``memory_gb`` are ``(n_vms, n_intervals)``
        predicted peaks; the overhead and I/O adjustments are applied to
        the full matrices (elementwise, so bit-identical to the scalar
        calls) and the result stays columnar — :class:`DemandTable`
        materializes :class:`VMDemand` rows only on request.
        """
        cpu_rpe2 = np.asarray(cpu_rpe2, dtype=float)
        memory_gb = np.asarray(memory_gb, dtype=float)
        if cpu_rpe2.ndim != 2 or cpu_rpe2.shape != memory_gb.shape:
            raise ConfigurationError(
                "estimate_matrix expects matching (n_vms, n_intervals) "
                "peak matrices"
            )
        if cpu_rpe2.shape[0] != len(vm_ids):
            raise ConfigurationError(
                f"{len(vm_ids)} vm_ids for {cpu_rpe2.shape[0]} peak rows"
            )
        negative = (cpu_rpe2 < 0).any(axis=1) | (memory_gb < 0).any(axis=1)
        if negative.any():
            offender = vm_ids[int(np.argmax(negative))]
            raise ConfigurationError(
                f"{offender}: predicted demand must be >= 0"
            )
        adjusted_cpu = cpu_rpe2 * (1.0 + self.overhead.cpu_overhead_frac)
        adjusted_memory = (
            memory_gb * (1.0 - self.overhead.dedup_savings_frac)
            + self.overhead.memory_overhead_gb
        )
        network = np.zeros_like(adjusted_cpu)
        disk = np.zeros_like(adjusted_cpu)
        if workload_classes is not None:
            network, disk = self._io_columns(workload_classes, adjusted_cpu)
        return DemandTable(
            vm_ids=tuple(vm_ids),
            cpu_rpe2=adjusted_cpu,
            memory_gb=adjusted_memory,
            network_mbps=network,
            disk_mbps=disk,
        )

    def estimate_from_values(
        self,
        vm_id: str,
        cpu_rpe2: float,
        memory_gb: float,
        workload_class: Optional[str] = None,
    ) -> VMDemand:
        """Size from already-predicted scalars (dynamic consolidation).

        Dynamic consolidation predicts a peak per interval before sizing;
        by the time it reaches the estimator the window is a single value
        per resource.  Pass ``workload_class`` to include the network
        reservation when a network model is configured.
        """
        if cpu_rpe2 < 0 or memory_gb < 0:
            raise ConfigurationError(
                f"{vm_id}: predicted demand must be >= 0"
            )
        adjusted_cpu = self.overhead.adjust_cpu(cpu_rpe2)
        network = 0.0
        disk = 0.0
        if workload_class is not None:
            network = self._network_for(workload_class, adjusted_cpu)
            disk = self._disk_for(workload_class, adjusted_cpu)
        return VMDemand(
            vm_id=vm_id,
            cpu_rpe2=adjusted_cpu,
            memory_gb=self.overhead.adjust_memory(memory_gb),
            network_mbps=network,
            disk_mbps=disk,
        )
