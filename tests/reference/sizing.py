"""Per-VM reference sizing for :class:`repro.sizing.estimator.SizeEstimator`.

The library sizes whole matrices: ``estimate_all`` reduces every row of
a trace set's store at once, and ``estimate_matrix`` (with its one-cell
view ``estimate_from_values``) adjusts whole ``(n_vms, n_intervals)``
predicted-peak tables.  This module keeps the per-VM arithmetic they
are pinned to: one trace, or one predicted value pair, at a time, with
each I/O model asked for one VM's reservation.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ConfigurationError
from repro.infrastructure.vm import VMDemand
from repro.sizing.estimator import SizeEstimator
from repro.sizing.functions import BodyTailSizing
from repro.workloads.trace import ServerTrace

__all__ = ["estimate_from_values_reference", "estimate_reference"]


def _io_for(model: object, workload_class: str, sized_cpu: float) -> float:
    if model is None:
        return 0.0
    return model.demand_mbps(workload_class, sized_cpu)


def estimate_reference(estimator: SizeEstimator, trace: ServerTrace) -> VMDemand:
    """Size one VM over its (already windowed) trace."""
    cpu_window = trace.cpu_rpe2
    memory_window = trace.memory_gb.values
    if isinstance(estimator.sizing, BodyTailSizing):
        cpu_body, cpu_tail = estimator.sizing.split(cpu_window)
        memory_body, memory_tail = estimator.sizing.split(memory_window)
        adjusted_body = estimator.overhead.adjust_cpu(cpu_body)
        adjusted_tail = estimator.overhead.adjust_cpu(cpu_tail)
        return VMDemand(
            vm_id=trace.vm_id,
            cpu_rpe2=adjusted_body,
            memory_gb=estimator.overhead.adjust_memory(memory_body),
            tail_cpu_rpe2=adjusted_tail,
            # The fixed per-VM overhead is already counted in the body.
            tail_memory_gb=memory_tail
            * (1.0 - estimator.overhead.dedup_savings_frac),
            network_mbps=_io_for(
                estimator.network,
                trace.vm.workload_class,
                adjusted_body + adjusted_tail,
            ),
            disk_mbps=_io_for(
                estimator.disk,
                trace.vm.workload_class,
                adjusted_body + adjusted_tail,
            ),
        )
    adjusted_cpu = estimator.overhead.adjust_cpu(
        estimator.sizing.size(cpu_window)
    )
    return VMDemand(
        vm_id=trace.vm_id,
        cpu_rpe2=adjusted_cpu,
        memory_gb=estimator.overhead.adjust_memory(
            estimator.sizing.size(memory_window)
        ),
        network_mbps=_io_for(
            estimator.network, trace.vm.workload_class, adjusted_cpu
        ),
        disk_mbps=_io_for(
            estimator.disk, trace.vm.workload_class, adjusted_cpu
        ),
    )


def estimate_from_values_reference(
    estimator: SizeEstimator,
    vm_id: str,
    cpu_rpe2: float,
    memory_gb: float,
    workload_class: Optional[str] = None,
) -> VMDemand:
    """Size one VM from already-predicted scalar peaks."""
    if cpu_rpe2 < 0 or memory_gb < 0:
        raise ConfigurationError(
            f"{vm_id}: predicted demand must be >= 0"
        )
    adjusted_cpu = estimator.overhead.adjust_cpu(cpu_rpe2)
    network = 0.0
    disk = 0.0
    if workload_class is not None:
        network = _io_for(estimator.network, workload_class, adjusted_cpu)
        disk = _io_for(estimator.disk, workload_class, adjusted_cpu)
    return VMDemand(
        vm_id=vm_id,
        cpu_rpe2=adjusted_cpu,
        memory_gb=estimator.overhead.adjust_memory(memory_gb),
        network_mbps=network,
        disk_mbps=disk,
    )
