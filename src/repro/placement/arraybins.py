"""Array-backed bin state for vectorized packing.

:class:`BinArray` holds one NumPy vector per resource dimension
(capacity, accumulated body, pooled tail) across the whole host pool,
so the "does VM v fit on host h?" question is answered for *every* host
at once as a boolean mask instead of one Python call per bin.

Float semantics are the contract: a bin's load after adding a VM is
``body + demand body + max(pooled tail, demand tail)`` for CPU and
memory and ``body + demand`` for each link, in that operand order,
compared against the capacity scaled by the utilization bound plus a
``1e-9`` slack.  The scalar ``Bin`` in ``tests/reference/packing.py``
uses the same expressions, so the mask equals its ``fits`` answers bit
for bit and :func:`~repro.placement.binpacking.pack` makes the
decisions of the reference's bin-at-a-time scan.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand

__all__ = ["BinArray"]

#: Capacity slack of every fit comparison.
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

    def fits_mask(self, demand: VMDemand) -> np.ndarray:
        """Boolean mask: would the VM fit on each bin?

        One vector expression per resource, in the operand order of
        :meth:`fits_one`, so each element equals the scalar answer
        exactly.
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

    def add(self, index: int, demand: VMDemand) -> None:
        """Commit the VM to one bin: bodies add, tails pool (max)."""
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
