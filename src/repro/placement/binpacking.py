"""Multi-dimensional bin-packing heuristics for VM placement.

The paper uses First-Fit-Decreasing as the representative placement
heuristic for static and semi-static consolidation (§2.2.1), with a
utilization bound expressing the live-migration reservation (§4.3): a
bound of 0.8 leaves 20% of each host's CPU and memory unpacked.

Three pieces:

* :class:`Bin` — one host's running totals during packing, including
  PCP's *tail pooling*: per-VM bodies accumulate, but only the largest
  tail is reserved per host.  :func:`~repro.placement.improve
  .improve_placement` packs on it, and the scalar reference scan in
  ``tests/reference/packing.py`` pins :func:`pack` through it.
* :class:`~repro.placement.arraybins.BinArray` — the array-backed
  bins :func:`pack` runs on: per-resource capacity/body/tail vectors so
  each VM's admissibility is one boolean mask over all bins.
* :func:`pack` — FFD/BFD over a host list with constraint support,
  a preferred-host map (dynamic consolidation seeds it with the previous
  interval's assignment to avoid gratuitous migrations), and strict
  error reporting when a VM fits nowhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constraints.manager import ConstraintSet
from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.placement.arraybins import BinArray
from repro.placement.plan import Placement

__all__ = ["Bin", "pack", "sort_decreasing"]


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
        """Scalar slack measure used by best-fit: min normalized headroom."""
        cpu_slack = (self.cpu_capacity - self.used_cpu) / self.cpu_capacity
        memory_slack = (
            self.memory_capacity - self.used_memory
        ) / self.memory_capacity
        return min(cpu_slack, memory_slack)


def sort_decreasing(
    demands: Sequence[VMDemand], reference: PhysicalServer
) -> List[VMDemand]:
    """FFD order: decreasing by the dominant normalized resource.

    Each VM is scored by ``max(cpu / host_cpu, memory / host_memory)``
    including its tail — the standard scalarization for vector bin
    packing, which keeps memory-heavy and CPU-heavy VMs comparable.
    Ties break on vm_id for determinism.
    """
    def key(demand: VMDemand) -> Tuple[float, str]:
        score = max(
            demand.total_cpu_rpe2 / reference.cpu_rpe2,
            demand.total_memory_gb / reference.memory_gb,
        )
        return (-score, demand.vm_id)

    return sorted(demands, key=key)


def pack(
    demands: Sequence[VMDemand],
    hosts: Sequence[PhysicalServer],
    *,
    utilization_bound: float = 1.0,
    strategy: str = "ffd",
    constraints: Optional[ConstraintSet] = None,
    datacenter: Optional[Datacenter] = None,
    preferred: Optional[Mapping[str, str]] = None,
) -> Placement:
    """Pack VM demands onto hosts; returns a validated placement.

    Parameters
    ----------
    demands:
        Sized VM demands (bodies, optionally tails for PCP pooling).
    hosts:
        Candidate hosts, in preference order — earlier hosts fill first,
        so the number of *used* hosts is what the heuristic minimizes.
    utilization_bound:
        Fraction of each host's capacity available for packing; the rest
        is the live-migration reservation (paper baseline: 0.8).
    strategy:
        ``"ffd"`` (first fit) or ``"bfd"`` (best fit = tightest residual).
    constraints / datacenter:
        Deployment constraints; ``datacenter`` is required when
        constraints are given (topology lookups).
    preferred:
        Optional VM → host_id hints tried before any other host; used by
        dynamic consolidation to keep VMs where they already run.

    Raises
    ------
    PlacementError
        If any VM fits on no host (capacity or constraints).
    ConstraintViolation
        If the greedy pass finished but a group constraint ended up
        violated (e.g. a Colocate partner could not follow).
    """
    if strategy not in ("ffd", "bfd"):
        raise ConfigurationError(
            f"unknown strategy {strategy!r}; expected 'ffd' or 'bfd'"
        )
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
        # Constrained VMs first (stable within each group): a pinned or
        # affinity-bound VM must claim its feasible hosts before
        # unconstrained VMs fill them.
        ordered = sorted(
            ordered,
            key=lambda d: not constraints.constraints_for(d.vm_id),
        )

    # Admissibility is one mask over all bins.  FFD takes the first set
    # bit, BFD the first minimum residual among open admissible bins;
    # constraint hooks run only on the masked candidates, lowest index
    # first — the decisions of a bin-at-a-time ``Bin.fits`` scan.
    bins = BinArray(hosts, utilization_bound)
    index_of_host = {h.host_id: i for i, h in enumerate(bins.hosts)}
    assignment: Dict[str, str] = {}

    def constraint_ok(vm_id: str, index: int) -> bool:
        if constraints and datacenter is not None:
            return constraints.feasible(
                vm_id, bins.hosts[index], assignment, datacenter
            )
        return True

    for demand in ordered:
        target = _choose_bin(
            demand, bins, index_of_host, constraint_ok,
            strategy=strategy, preferred=preferred,
        )
        if target is None:
            raise _no_fit_error(demand, utilization_bound)
        bins.add(target, demand)
        assignment[demand.vm_id] = bins.hosts[target].host_id

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


def _choose_bin(
    demand: VMDemand,
    bins: BinArray,
    index_of_host: Mapping[str, int],
    constraint_ok,
    *,
    strategy: str,
    preferred: Optional[Mapping[str, str]],
) -> Optional[int]:
    """Pick the bin index for one VM, or None if nothing admits it."""
    if preferred is not None:
        hint = preferred.get(demand.vm_id)
        if hint is not None:
            hinted = index_of_host.get(hint)
            if (
                hinted is not None
                and bins.fits_one(hinted, demand)
                and constraint_ok(demand.vm_id, hinted)
            ):
                return hinted

    mask = bins.fits_mask(demand)
    if strategy == "ffd":
        first = int(np.argmax(mask))
        if not mask[first]:
            return None
        if constraint_ok(demand.vm_id, first):
            return first
        for index in np.flatnonzero(mask):
            index = int(index)
            if index == first:
                continue
            if constraint_ok(demand.vm_id, index):
                return index
        return None

    # Best fit: among open (non-empty) admissible bins pick the
    # tightest residual; open a new bin only when none admits the VM.
    open_candidates = np.flatnonzero(mask & (bins.vm_count > 0))
    if open_candidates.size:
        residuals = bins.residuals(open_candidates)
        # Stable residual order: the first bin (lowest index) among
        # equal residuals wins.
        for pick in open_candidates[np.argsort(residuals, kind="stable")]:
            if constraint_ok(demand.vm_id, int(pick)):
                return int(pick)
    for index in np.flatnonzero(mask & (bins.vm_count == 0)):
        if constraint_ok(demand.vm_id, int(index)):
            return int(index)
    return None
