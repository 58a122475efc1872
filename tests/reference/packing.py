"""Scalar reference scan for :func:`repro.placement.binpacking.pack`.

:class:`Bin` is one host's running totals, including PCP's tail pooling;
the reference dynamic and power-budget planners fold onto it too.  The
scan makes one ``Bin.fits`` call per (VM, candidate bin), where the
library's ``pack()`` runs the dynamic planner's first-fit loop on an
``IncrementalPlan``.  :func:`pack_reference` keeps ``pack()``'s whole
contract — argument checks, the duplicate-VM check, FFD order with
constrained VMs first, the same ``PlacementError`` text and the final
``constraints.validate`` — so the equivalence suite can compare
placements and failures one for one on body-only demands.  Beyond that
contract it pools tails (``pack()`` rejects them) and takes the
``preferred`` hints the reference dynamic planner packs with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.constraints.manager import ConstraintSet
from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.placement.plan import Placement

__all__ = ["Bin", "pack_reference", "sort_decreasing"]


def sort_decreasing(
    demands: Sequence[VMDemand], reference: PhysicalServer
) -> List[VMDemand]:
    """FFD order: decreasing by the dominant normalized resource.

    Each VM is scored by ``max(cpu / host_cpu, memory / host_memory)``
    including its tail, ties broken on vm_id — what the library's
    ``ffd_order`` computes in one ``np.lexsort``.
    """
    def key(demand: VMDemand) -> Tuple[float, str]:
        score = max(
            demand.total_cpu_rpe2 / reference.cpu_rpe2,
            demand.total_memory_gb / reference.memory_gb,
        )
        return (-score, demand.vm_id)

    return sorted(demands, key=key)


@dataclass
class Bin:
    """One host's packing state.

    Capacity is the host spec scaled by the utilization bound.  Body
    demands accumulate; tail demands pool (only the per-host maximum is
    reserved) — the PCP sizing contract.  For body-only demands the tail
    fields stay zero and the bin behaves like a plain vector bin.
    """

    host: PhysicalServer
    cpu_capacity: float
    memory_capacity: float
    network_capacity: float = float("inf")
    disk_capacity: float = float("inf")
    body_cpu: float = 0.0
    body_memory: float = 0.0
    body_network: float = 0.0
    body_disk: float = 0.0
    max_tail_cpu: float = 0.0
    max_tail_memory: float = 0.0
    vm_ids: List[str] = field(default_factory=list)

    @classmethod
    def for_host(cls, host: PhysicalServer, utilization_bound: float) -> "Bin":
        if not 0 < utilization_bound <= 1:
            raise ConfigurationError(
                f"utilization_bound must be in (0, 1], got {utilization_bound}"
            )
        return cls(
            host=host,
            cpu_capacity=host.cpu_rpe2 * utilization_bound,
            memory_capacity=host.memory_gb * utilization_bound,
            network_capacity=host.spec.network_mbps * utilization_bound,
            disk_capacity=host.spec.disk_mbps * utilization_bound,
        )

    @property
    def used_cpu(self) -> float:
        """Reserved CPU: sum of bodies plus the pooled tail."""
        return self.body_cpu + self.max_tail_cpu

    @property
    def used_memory(self) -> float:
        return self.body_memory + self.max_tail_memory

    @property
    def is_empty(self) -> bool:
        return not self.vm_ids

    def fits(self, demand: VMDemand) -> bool:
        """Would adding the VM keep every resource within capacity?

        CPU and memory are the optimized dimensions; link bandwidth is a
        feasibility constraint (paper §3.1) checked the same way.
        """
        cpu_after = (
            self.body_cpu
            + demand.cpu_rpe2
            + max(self.max_tail_cpu, demand.tail_cpu_rpe2)
        )
        memory_after = (
            self.body_memory
            + demand.memory_gb
            + max(self.max_tail_memory, demand.tail_memory_gb)
        )
        network_after = self.body_network + demand.network_mbps
        disk_after = self.body_disk + demand.disk_mbps
        return (
            cpu_after <= self.cpu_capacity + 1e-9
            and memory_after <= self.memory_capacity + 1e-9
            and network_after <= self.network_capacity + 1e-9
            and disk_after <= self.disk_capacity + 1e-9
        )

    def add(self, demand: VMDemand) -> None:
        if not self.fits(demand):
            raise PlacementError(
                f"{demand.vm_id} does not fit on {self.host.host_id}"
            )
        self.body_cpu += demand.cpu_rpe2
        self.body_memory += demand.memory_gb
        self.body_network += demand.network_mbps
        self.body_disk += demand.disk_mbps
        self.max_tail_cpu = max(self.max_tail_cpu, demand.tail_cpu_rpe2)
        self.max_tail_memory = max(self.max_tail_memory, demand.tail_memory_gb)
        self.vm_ids.append(demand.vm_id)

    def residual(self) -> float:
        """Min normalized headroom; the reference planners sort by it."""
        cpu_slack = (self.cpu_capacity - self.used_cpu) / self.cpu_capacity
        memory_slack = (
            self.memory_capacity - self.used_memory
        ) / self.memory_capacity
        return min(cpu_slack, memory_slack)


def pack_reference(
    demands: Sequence[VMDemand],
    hosts: Sequence[PhysicalServer],
    *,
    utilization_bound: float = 1.0,
    constraints: Optional[ConstraintSet] = None,
    datacenter: Optional[Datacenter] = None,
    preferred: Optional[Mapping[str, str]] = None,
) -> Placement:
    """What ``pack(...)`` must return (or raise), one bin at a time."""
    if not hosts:
        raise PlacementError("no hosts to pack onto")
    if constraints and datacenter is None:
        raise ConfigurationError(
            "constraints require a datacenter for topology lookups"
        )
    seen: Set[str] = set()
    for demand in demands:
        if demand.vm_id in seen:
            raise PlacementError(f"duplicate demand for VM {demand.vm_id!r}")
        seen.add(demand.vm_id)

    ordered = sort_decreasing(demands, hosts[0])
    if constraints:
        ordered = sorted(
            ordered,
            key=lambda d: not constraints.constraints_for(d.vm_id),
        )
    assignment = _pack_scalar(
        ordered,
        hosts,
        utilization_bound,
        constraints=constraints,
        datacenter=datacenter,
        preferred=preferred,
    )
    if constraints and datacenter is not None:
        constraints.validate(assignment, datacenter)
    return Placement(assignment=assignment)


def _no_fit_error(
    demand: VMDemand, utilization_bound: float
) -> PlacementError:
    return PlacementError(
        f"VM {demand.vm_id} (cpu={demand.total_cpu_rpe2:.0f} RPE2, "
        f"mem={demand.total_memory_gb:.2f} GB) fits on no host at "
        f"bound {utilization_bound}"
    )


def _suffix_min_bodies(
    ordered: Sequence[VMDemand],
) -> Tuple[List[float], List[float]]:
    """Per position, the smallest body CPU/memory among demands[i:].

    A bin whose remaining capacity (in either optimized dimension)
    cannot even cover the smallest *future* body demand can never admit
    anything again — the FFD scan drops it permanently.
    """
    n = len(ordered)
    min_cpu = [0.0] * n
    min_memory = [0.0] * n
    running_cpu = float("inf")
    running_memory = float("inf")
    for i in range(n - 1, -1, -1):
        running_cpu = min(running_cpu, ordered[i].cpu_rpe2)
        running_memory = min(running_memory, ordered[i].memory_gb)
        min_cpu[i] = running_cpu
        min_memory[i] = running_memory
    return min_cpu, min_memory


def _pack_scalar(
    ordered: Sequence[VMDemand],
    hosts: Sequence[PhysicalServer],
    utilization_bound: float,
    *,
    constraints: Optional[ConstraintSet],
    datacenter: Optional[Datacenter],
    preferred: Optional[Mapping[str, str]],
) -> Dict[str, str]:
    """Reference engine: one ``Bin.fits`` call per (VM, candidate)."""
    bins = [Bin.for_host(host, utilization_bound) for host in hosts]
    bin_of_host = {b.host.host_id: b for b in bins}
    assignment: Dict[str, str] = {}
    suffix_min_cpu, suffix_min_memory = _suffix_min_bodies(ordered)
    dead = [False] * len(bins)

    for position, demand in enumerate(ordered):
        target = _choose_bin(
            demand,
            _live_bins(
                bins,
                dead,
                suffix_min_cpu[position],
                suffix_min_memory[position],
            ),
            bin_of_host,
            assignment,
            constraints=constraints,
            datacenter=datacenter,
            preferred=preferred,
        )
        if target is None:
            raise _no_fit_error(demand, utilization_bound)
        target.add(demand)
        assignment[demand.vm_id] = target.host.host_id
    return assignment


def _live_bins(
    bins: Sequence[Bin],
    dead: List[bool],
    min_future_cpu: float,
    min_future_memory: float,
) -> Iterator[Bin]:
    """The bins a scan reaches, in order, saturated ones dropped for good.

    A bin whose remaining capacity cannot cover the smallest body
    demand still to come is marked dead when the scan first reaches it.
    It stays saturated: suffix minima never fall and a bin's totals
    never fall, so dropping it is purely an optimization.
    """
    for index, candidate in enumerate(bins):
        if dead[index]:
            continue
        if _is_saturated(candidate, min_future_cpu, min_future_memory):
            dead[index] = True
            continue
        yield candidate


def _is_saturated(
    candidate: Bin, min_future_cpu: float, min_future_memory: float
) -> bool:
    """Can the bin never admit any remaining demand on capacity alone?"""
    remaining_cpu = candidate.cpu_capacity - candidate.used_cpu
    remaining_memory = candidate.memory_capacity - candidate.used_memory
    return (
        min_future_cpu > remaining_cpu + 1e-9
        or min_future_memory > remaining_memory + 1e-9
    )


def _choose_bin(
    demand: VMDemand,
    bins: Iterable[Bin],
    bin_of_host: Mapping[str, Bin],
    assignment: Mapping[str, str],
    *,
    constraints: Optional[ConstraintSet],
    datacenter: Optional[Datacenter],
    preferred: Optional[Mapping[str, str]],
) -> Optional[Bin]:
    """Pick the bin for one VM, or None if nothing admits it."""
    def admissible(candidate: Bin) -> bool:
        if not candidate.fits(demand):
            return False
        if constraints and datacenter is not None:
            return constraints.feasible(
                demand.vm_id, candidate.host, assignment, datacenter
            )
        return True

    if preferred is not None:
        hint = preferred.get(demand.vm_id)
        if hint is not None:
            hinted_bin = bin_of_host.get(hint)
            if hinted_bin is not None and admissible(hinted_bin):
                return hinted_bin

    for candidate in bins:
        if admissible(candidate):
            return candidate
    return None
