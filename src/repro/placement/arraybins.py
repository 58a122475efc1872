"""Array-backed bin state for vectorized packing.

:class:`BinArray` is the structure-of-arrays counterpart of
:class:`~repro.placement.binpacking.Bin`: one NumPy vector per resource
dimension (capacity, accumulated body, pooled tail) across the whole
host pool, so the "does VM v fit on host h?" question is answered for
*every* host at once as a boolean mask instead of one Python call per
bin.

Float semantics are the contract: every arithmetic step mirrors the
scalar :class:`Bin` expressions operation for operation (same operand
order, same ``1e-9`` slack), so the admissibility mask equals the
vector of scalar ``fits`` answers bit for bit and :func:`pack` makes
the decisions of the bin-at-a-time scan in ``tests/reference/packing.py``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand

__all__ = ["BinArray"]

#: Capacity slack shared with the scalar ``Bin.fits`` comparisons.
_SLACK = 1e-9


class BinArray:
    """Packing state for a host pool, one array element per bin."""

    def __init__(
        self, hosts: Sequence[PhysicalServer], utilization_bound: float
    ) -> None:
        if not 0 < utilization_bound <= 1:
            raise ConfigurationError(
                f"utilization_bound must be in (0, 1], got {utilization_bound}"
            )
        self.hosts: List[PhysicalServer] = list(hosts)
        n = len(self.hosts)
        self.cpu_capacity = np.array(
            [h.cpu_rpe2 for h in self.hosts]
        ) * utilization_bound
        self.memory_capacity = np.array(
            [h.memory_gb for h in self.hosts]
        ) * utilization_bound
        self.network_capacity = np.array(
            [h.spec.network_mbps for h in self.hosts]
        ) * utilization_bound
        self.disk_capacity = np.array(
            [h.spec.disk_mbps for h in self.hosts]
        ) * utilization_bound
        self.body_cpu = np.zeros(n)
        self.body_memory = np.zeros(n)
        self.body_network = np.zeros(n)
        self.body_disk = np.zeros(n)
        self.max_tail_cpu = np.zeros(n)
        self.max_tail_memory = np.zeros(n)
        self.vm_count = np.zeros(n, dtype=np.intp)
        self.vm_ids: List[List[str]] = [[] for _ in range(n)]

    def __len__(self) -> int:
        return len(self.hosts)

    def fits_mask(self, demand: VMDemand) -> np.ndarray:
        """Boolean mask: would the VM fit on each bin?

        One vector expression per resource, evaluated in the same
        operand order as ``Bin.fits`` so each element equals the scalar
        answer exactly.
        """
        cpu_after = (
            self.body_cpu
            + demand.cpu_rpe2
            + np.maximum(self.max_tail_cpu, demand.tail_cpu_rpe2)
        )
        memory_after = (
            self.body_memory
            + demand.memory_gb
            + np.maximum(self.max_tail_memory, demand.tail_memory_gb)
        )
        network_after = self.body_network + demand.network_mbps
        disk_after = self.body_disk + demand.disk_mbps
        return (
            (cpu_after <= self.cpu_capacity + _SLACK)
            & (memory_after <= self.memory_capacity + _SLACK)
            & (network_after <= self.network_capacity + _SLACK)
            & (disk_after <= self.disk_capacity + _SLACK)
        )

    def fits_one(self, index: int, demand: VMDemand) -> bool:
        """Scalar fit check for a single bin (the preferred-host path)."""
        cpu_after = (
            self.body_cpu[index]
            + demand.cpu_rpe2
            + max(self.max_tail_cpu[index], demand.tail_cpu_rpe2)
        )
        memory_after = (
            self.body_memory[index]
            + demand.memory_gb
            + max(self.max_tail_memory[index], demand.tail_memory_gb)
        )
        network_after = self.body_network[index] + demand.network_mbps
        disk_after = self.body_disk[index] + demand.disk_mbps
        return bool(
            cpu_after <= self.cpu_capacity[index] + _SLACK
            and memory_after <= self.memory_capacity[index] + _SLACK
            and network_after <= self.network_capacity[index] + _SLACK
            and disk_after <= self.disk_capacity[index] + _SLACK
        )

    def residuals(self, indices: np.ndarray) -> np.ndarray:
        """Best-fit slack for the given bins: min normalized headroom.

        Mirrors ``Bin.residual`` elementwise: ``(capacity - used) /
        capacity`` per optimized dimension, reduced with ``min``.
        """
        used_cpu = self.body_cpu[indices] + self.max_tail_cpu[indices]
        used_memory = self.body_memory[indices] + self.max_tail_memory[indices]
        cpu_slack = (
            self.cpu_capacity[indices] - used_cpu
        ) / self.cpu_capacity[indices]
        memory_slack = (
            self.memory_capacity[indices] - used_memory
        ) / self.memory_capacity[indices]
        return np.minimum(cpu_slack, memory_slack)

    def add(self, index: int, demand: VMDemand) -> None:
        """Commit the VM to one bin (same accounting as ``Bin.add``)."""
        if not self.fits_one(index, demand):
            raise PlacementError(
                f"{demand.vm_id} does not fit on {self.hosts[index].host_id}"
            )
        self.body_cpu[index] += demand.cpu_rpe2
        self.body_memory[index] += demand.memory_gb
        self.body_network[index] += demand.network_mbps
        self.body_disk[index] += demand.disk_mbps
        self.max_tail_cpu[index] = max(
            self.max_tail_cpu[index], demand.tail_cpu_rpe2
        )
        self.max_tail_memory[index] = max(
            self.max_tail_memory[index], demand.tail_memory_gb
        )
        self.vm_count[index] += 1
        self.vm_ids[index].append(demand.vm_id)
