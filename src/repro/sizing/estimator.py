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
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.infrastructure.vm import VMDemand
from repro.sizing.functions import BodyTailSizing, MaxSizing, SizingFunction
from repro.sizing.network import DiskDemandModel, NetworkDemandModel
from repro.workloads.trace import TraceSet

__all__ = ["VirtualizationOverhead", "SizeEstimator"]

#: A demand value, or an array of them (adjusted elementwise).
Demand = Union[float, np.ndarray]


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

    def adjust_cpu(self, cpu_rpe2: Demand) -> Demand:
        """Inflate CPU demand (a value or an array) by the hypervisor
        overhead."""
        return cpu_rpe2 * (1.0 + self.cpu_overhead_frac)

    def dedup_memory(self, memory_gb: Demand) -> Demand:
        """Apply dedup savings alone: a shared tail, which carries no
        per-VM fixed overhead."""
        return memory_gb * (1.0 - self.dedup_savings_frac)

    def adjust_memory(self, memory_gb: Demand) -> Demand:
        """Apply dedup savings, then add the per-VM fixed overhead."""
        return self.dedup_memory(memory_gb) + self.memory_overhead_gb


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

    def estimate_all(self, trace_set: TraceSet) -> List[VMDemand]:
        """Size every VM in a trace set (kept in trace-set order).

        The sizing function reduces every row of the cached
        :class:`~repro.workloads.store.TraceStore` matrices at once; the
        reductions run row by row, so each demand equals sizing its own
        trace (``tests/reference/sizing.py`` pins it).  Body/tail sizing
        also fills the tail fields used by stochastic (PCP) placement.
        """
        store = trace_set.store
        if isinstance(self.sizing, BodyTailSizing):
            cpu, cpu_tail = self.sizing.split(store.cpu_rpe2)
            memory, memory_tail = self.sizing.split(store.memory_gb)
        else:
            cpu = self.sizing.size(store.cpu_rpe2)
            memory = self.sizing.size(store.memory_gb)
            cpu_tail = memory_tail = np.zeros_like(cpu)
        tail_cpu = self.overhead.adjust_cpu(cpu_tail)
        # The fixed per-VM overhead is already counted in the body.
        tail_memory = self.overhead.dedup_memory(memory_tail)
        table = self._adjust(
            store.vm_ids,
            cpu[:, None],
            memory[:, None],
            [vm.workload_class for vm, _spec in trace_set.identities],
            tail_cpu[:, None],
        )
        # One row per VM, the columns in VMDemand's field order.
        return [
            VMDemand(*fields)
            for fields in zip(
                table.vm_ids,
                table.cpu_rpe2[:, 0].tolist(),
                table.memory_gb[:, 0].tolist(),
                tail_cpu.tolist(),
                tail_memory.tolist(),
                table.network_mbps[:, 0].tolist(),
                table.disk_mbps[:, 0].tolist(),
            )
        ]

    def estimate_matrix(
        self,
        vm_ids: Sequence[str],
        cpu_rpe2: np.ndarray,
        memory_gb: np.ndarray,
        workload_classes: Optional[Sequence[Optional[str]]] = None,
    ) -> DemandTable:
        """Size whole ``(n_vms, n_intervals)`` predicted-peak tables.

        The overhead and I/O adjustments are applied to the full
        matrices (elementwise, so each cell equals sizing its value
        alone) and the result stays columnar — :class:`DemandTable`
        materializes :class:`VMDemand` rows only on request.  Negative
        or non-finite peaks are rejected, naming the first such VM.
        """
        return self._adjust(vm_ids, cpu_rpe2, memory_gb, workload_classes)

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
        reservation when a network model is configured.  A one-cell
        :meth:`estimate_matrix`.
        """
        return self._adjust(
            [vm_id], [[cpu_rpe2]], [[memory_gb]], [workload_class]
        ).demand(0, 0)

    def _adjust(
        self,
        vm_ids: Sequence[str],
        cpu_rpe2: np.ndarray,
        memory_gb: np.ndarray,
        workload_classes: Optional[Sequence[Optional[str]]],
        tail_cpu_rpe2: Optional[np.ndarray] = None,
    ) -> DemandTable:
        """The one sizing path: overhead, dedup and I/O reservations for
        ``(n_vms, t)`` peak matrices.

        ``tail_cpu_rpe2`` is an already-adjusted shared CPU tail; the
        I/O reservations then scale with body plus tail.
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
        finite = np.isfinite(cpu_rpe2) & np.isfinite(memory_gb)
        valid = finite & (cpu_rpe2 >= 0) & (memory_gb >= 0)
        if not valid.all():
            row = int(np.argmin(valid.all(axis=1)))
            problem = ">= 0" if finite[row].all() else "finite"
            raise ConfigurationError(
                f"{vm_ids[row]}: predicted demand must be {problem}"
            )
        adjusted_cpu = self.overhead.adjust_cpu(cpu_rpe2)
        sized_cpu = (
            adjusted_cpu if tail_cpu_rpe2 is None
            else adjusted_cpu + tail_cpu_rpe2
        )
        network, disk = self._io_columns(workload_classes, sized_cpu)
        return DemandTable(
            vm_ids=tuple(vm_ids),
            cpu_rpe2=adjusted_cpu,
            memory_gb=self.overhead.adjust_memory(memory_gb),
            network_mbps=network,
            disk_mbps=disk,
        )

    def _io_columns(
        self,
        workload_classes: Optional[Sequence[Optional[str]]],
        sized_cpu: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Network/disk reservations for already-sized CPU rows.

        Grouped by workload class: each model reserves a class's rows in
        one array call, elementwise identical to per-VM calls.  Rows
        without a class reserve no I/O.
        """
        network = np.zeros_like(sized_cpu)
        disk = np.zeros_like(sized_cpu)
        if workload_classes is None or (
            self.network is None and self.disk is None
        ):
            return network, disk
        by_class: dict = {}
        for row, workload_class in enumerate(workload_classes):
            if workload_class is not None:
                by_class.setdefault(workload_class, []).append(row)
        for workload_class, row_list in by_class.items():
            rows = np.array(row_list, dtype=np.intp)
            for model, out in ((self.network, network), (self.disk, disk)):
                if model is not None:
                    out[rows] = model.demand_mbps(
                        workload_class, sized_cpu[rows]
                    )
        return network, disk
