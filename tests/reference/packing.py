"""Scalar reference scan for :func:`repro.placement.binpacking.pack`.

One ``Bin.fits`` call per (VM, candidate bin), where the library asks
:class:`~repro.placement.arraybins.BinArray` for one admissibility mask
over all bins.  :func:`pack_reference` keeps ``pack()``'s whole
contract — argument checks, the duplicate-VM check, FFD order with
constrained VMs first, the same ``PlacementError`` text and the final
``constraints.validate`` — so the equivalence suite can compare
placements and failures one for one.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.constraints.manager import ConstraintSet
from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.placement.binpacking import Bin, sort_decreasing
from repro.placement.plan import Placement

__all__ = ["pack_reference"]


def pack_reference(
    demands: Sequence[VMDemand],
    hosts: Sequence[PhysicalServer],
    *,
    utilization_bound: float = 1.0,
    strategy: str = "ffd",
    constraints: Optional[ConstraintSet] = None,
    datacenter: Optional[Datacenter] = None,
    preferred: Optional[Mapping[str, str]] = None,
) -> Placement:
    """What ``pack(...)`` must return (or raise), one bin at a time."""
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
        ordered = sorted(
            ordered,
            key=lambda d: not constraints.constraints_for(d.vm_id),
        )
    assignment = _pack_scalar(
        ordered,
        hosts,
        utilization_bound,
        strategy=strategy,
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
    strategy: str,
    constraints: Optional[ConstraintSet],
    datacenter: Optional[Datacenter],
    preferred: Optional[Mapping[str, str]],
) -> Dict[str, str]:
    """Reference engine: one ``Bin.fits`` call per (VM, candidate)."""
    bins = [Bin.for_host(host, utilization_bound) for host in hosts]
    bin_of_host = {b.host.host_id: b for b in bins}
    assignment: Dict[str, str] = {}
    suffix_min_cpu, suffix_min_memory = _suffix_min_bodies(ordered)
    scan_bins = list(bins)

    for position, demand in enumerate(ordered):
        if strategy == "ffd":
            # Drop permanently-saturated bins: remaining capacity below
            # the smallest body demand still to come means the bin can
            # never pass another fits() check.  Purely an optimization —
            # a dropped bin would have failed every future scan anyway.
            scan_bins = [
                b
                for b in scan_bins
                if not _is_saturated(
                    b,
                    suffix_min_cpu[position],
                    suffix_min_memory[position],
                )
            ]
        target = _choose_bin(
            demand,
            scan_bins if strategy == "ffd" else bins,
            bin_of_host,
            assignment,
            strategy=strategy,
            constraints=constraints,
            datacenter=datacenter,
            preferred=preferred,
        )
        if target is None:
            raise _no_fit_error(demand, utilization_bound)
        target.add(demand)
        assignment[demand.vm_id] = target.host.host_id
    return assignment


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
    bins: Sequence[Bin],
    bin_of_host: Mapping[str, Bin],
    assignment: Mapping[str, str],
    *,
    strategy: str,
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

    if strategy == "ffd":
        for candidate in bins:
            if admissible(candidate):
                return candidate
        return None

    # Best fit: among open (non-empty) bins pick the tightest residual
    # after adding; open a new bin only when no open bin admits the VM.
    best: Optional[Bin] = None
    best_residual = float("inf")
    for candidate in bins:
        if candidate.is_empty or not admissible(candidate):
            continue
        residual = candidate.residual()
        if residual < best_residual:
            best, best_residual = candidate, residual
    if best is not None:
        return best
    for candidate in bins:
        if candidate.is_empty and admissible(candidate):
            return candidate
    return None
