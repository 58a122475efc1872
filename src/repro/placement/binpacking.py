"""Multi-dimensional first-fit-decreasing bin packing for VM placement.

The paper uses First-Fit-Decreasing as the representative placement
heuristic for static and semi-static consolidation (§2.2.1), with a
utilization bound expressing the live-migration reservation (§4.3): a
bound of 0.8 leaves 20% of each host's CPU and memory unpacked.

Two pieces:

* :class:`~repro.placement.arraybins.BinArray` — the bins :func:`pack`
  runs on: per-resource capacity/body/tail vectors, including PCP's
  *tail pooling* (per-VM bodies accumulate, but only the largest tail
  is reserved per host), so each VM's admissibility is one boolean mask
  over all bins.
* :func:`pack` — FFD over a host list with constraint support, a
  preferred-host map (dynamic consolidation seeds it with the previous
  interval's assignment to avoid gratuitous migrations), and strict
  error reporting when a VM fits nowhere.

The bin-at-a-time scan in ``tests/reference/packing.py`` is the oracle
that pins :func:`pack`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.constraints.manager import ConstraintSet
from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.placement.arraybins import BinArray
from repro.placement.plan import Placement

__all__ = ["pack", "sort_decreasing"]


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
    constraints: Optional[ConstraintSet] = None,
    datacenter: Optional[Datacenter] = None,
    preferred: Optional[Mapping[str, str]] = None,
) -> Placement:
    """Pack VM demands onto hosts by FFD; returns a validated placement.

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

    # Admissibility is one mask over all bins and FFD takes the first set
    # bit; constraint hooks run only on the masked candidates, lowest
    # index first — the decisions of the bin-at-a-time ``Bin.fits`` scan
    # in ``tests/reference/packing.py``.
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
            demand, bins, index_of_host, constraint_ok, preferred=preferred
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
