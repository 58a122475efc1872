"""Multi-dimensional first-fit-decreasing bin packing for VM placement.

The paper uses First-Fit-Decreasing as the representative placement
heuristic for static and semi-static consolidation (§2.2.1), with a
utilization bound expressing the live-migration reservation (§4.3): a
bound of 0.8 leaves 20% of each host's CPU and memory unpacked.

:func:`pack` runs the dynamic planner's first-fit loop
(:func:`repro.core.dynamic_vector.first_fit`) on a fresh
:class:`~repro.core.incremental.IncrementalPlan`, so one FFD engine
serves every planner; it adds the input checks, constraint support and
strict error reporting when a VM fits nowhere.  The bin-at-a-time scan
in ``tests/reference/packing.py`` is the oracle that pins it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

import numpy as np

from repro.constraints.manager import ConstraintSet
from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.placement.plan import Placement

__all__ = ["pack"]


def pack(
    demands: Sequence[VMDemand],
    hosts: Sequence[PhysicalServer],
    *,
    utilization_bound: float = 1.0,
    constraints: Optional[ConstraintSet] = None,
    datacenter: Optional[Datacenter] = None,
) -> Placement:
    """Pack VM demands onto hosts by FFD; returns a validated placement.

    Parameters
    ----------
    demands:
        Sized VM demands, bodies only (a nonzero tail is rejected).
    hosts:
        Candidate hosts, in preference order — earlier hosts fill first,
        so the number of *used* hosts is what the heuristic minimizes.
    utilization_bound:
        Fraction of each host's capacity available for packing; the rest
        is the live-migration reservation (paper baseline: 0.8).
    constraints / datacenter:
        Deployment constraints; ``datacenter`` is required when
        constraints are given (topology lookups).

    Raises
    ------
    PlacementError
        If any VM fits on no host (capacity or constraints).
    ConstraintViolation
        If the greedy pass finished but a group constraint ended up
        violated (e.g. a Colocate partner could not follow).
    """
    # repro.core imports this module, so the loop is imported on call.
    from repro.core.dynamic_vector import _Rules, first_fit, id_ranks
    from repro.core.incremental import HostCapacities, IncrementalPlan

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
        if demand.tail_cpu_rpe2 or demand.tail_memory_gb:
            raise ConfigurationError(
                f"VM {demand.vm_id!r} has a tail demand; pack() places "
                "bodies only"
            )

    caps = HostCapacities(hosts, utilization_bound)
    vm_ids = tuple(demand.vm_id for demand in demands)
    cpu, mem, net, dsk = np.array(
        [
            (d.cpu_rpe2, d.memory_gb, d.network_mbps, d.disk_mbps)
            for d in demands
        ],
        dtype=float,
    ).reshape(-1, 4).T
    plan = IncrementalPlan(caps, vm_ids, cpu, mem)
    # Constrained VMs pack first; the final validate runs in the loop.
    rules = (
        _Rules(constraints, datacenter, vm_ids, hosts) if constraints else None
    )
    order, _ = first_fit(
        plan, hosts, cpu, mem, net, dsk, id_ranks(vm_ids), rules
    )
    host_of_row = plan.assignment_rows
    return Placement(
        {
            vm_ids[row]: caps.host_ids[host_of_row[row]]
            for row in order.tolist()
        }
    )


def _no_fit_error(
    demand: VMDemand, utilization_bound: float
) -> PlacementError:
    return PlacementError(
        f"VM {demand.vm_id} (cpu={demand.total_cpu_rpe2:.0f} RPE2, "
        f"mem={demand.total_memory_gb:.2f} GB) fits on no host at "
        f"bound {utilization_bound}"
    )
