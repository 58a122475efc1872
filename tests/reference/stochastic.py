"""Reference for :class:`StochasticConsolidation`'s PCP placement.

Sizes every VM trace by trace (``tests/reference/sizing.py``), clusters
with the reference scan, and first-fits VMs in ``pack()`` order — but
checks each candidate host by recomputing its whole reservation from
its member list:

    sum(bodies) + worst cluster tail sum + overlap * (other tail sums)

instead of carrying running totals.  The folds run in member order, so
every float equals the library's running state: the bodies its
``IncrementalPlan`` folds and its per-host, per-cluster tail sums.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.core.base import PlanningContext
from repro.core.stochastic import StochasticConsolidation
from repro.exceptions import PlacementError
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.placement.plan import Placement
from repro.sizing.estimator import SizeEstimator
from repro.sizing.functions import BodyTailSizing
from tests.reference.correlation import cluster_by_peaks_reference
from tests.reference.packing import sort_decreasing
from tests.reference.sizing import estimate_reference

__all__ = ["place_reference"]


def place_reference(
    algorithm: StochasticConsolidation, context: PlanningContext
) -> Placement:
    """The placement ``algorithm.plan(context)`` must hold."""
    estimator = SizeEstimator(
        sizing=BodyTailSizing(body_percentile=algorithm.body_percentile),
        overhead=context.config.overhead,
        network=context.config.network,
        disk=context.config.disk,
    )
    demands = [
        estimate_reference(estimator, trace) for trace in context.history
    ]
    clusters = cluster_by_peaks_reference(
        context.history,
        body_quantile=algorithm.envelope_quantile,
        similarity_threshold=algorithm.cluster_similarity_threshold,
    )
    cluster_of = dict(zip(clusters.vm_ids, clusters.cluster_of))
    constraints = context.constraints
    datacenter = context.datacenter
    hosts = datacenter.hosts
    ordered = sort_decreasing(demands, hosts[0])
    if constraints:
        ordered = sorted(
            ordered, key=lambda d: not constraints.constraints_for(d.vm_id)
        )
    members: Dict[str, List[VMDemand]] = {h.host_id: [] for h in hosts}
    assignment: Dict[str, str] = {}
    for demand in ordered:
        for host in hosts:
            admitted = members[host.host_id] + [demand]
            if not _fits(host, admitted, cluster_of, algorithm):
                continue
            if constraints and not constraints.feasible(
                demand.vm_id, host, assignment, datacenter
            ):
                continue
            members[host.host_id] = admitted
            assignment[demand.vm_id] = host.host_id
            break
        else:
            raise PlacementError(f"VM {demand.vm_id} fits on no host")
    if constraints:
        constraints.validate(assignment, datacenter)
    return Placement(assignment=assignment)


def _fits(
    host: PhysicalServer,
    members: List[VMDemand],
    cluster_of: Mapping[str, int],
    algorithm: StochasticConsolidation,
) -> bool:
    bound = algorithm.utilization_bound
    body_cpu = body_memory = body_network = body_disk = 0.0
    tails_cpu: Dict[int, float] = {}
    tails_memory: Dict[int, float] = {}
    for demand in members:
        body_cpu += demand.cpu_rpe2
        body_memory += demand.memory_gb
        body_network += demand.network_mbps
        body_disk += demand.disk_mbps
        cluster = cluster_of[demand.vm_id]
        tails_cpu[cluster] = tails_cpu.get(cluster, 0.0) + demand.tail_cpu_rpe2
        tails_memory[cluster] = (
            tails_memory.get(cluster, 0.0) + demand.tail_memory_gb
        )

    def pooled(tails: Dict[int, float]) -> float:
        worst = max(tails.values())
        rest = sum(tails.values()) - worst
        return worst + algorithm.tail_overlap_factor * rest

    return (
        body_cpu + pooled(tails_cpu) <= host.cpu_rpe2 * bound + 1e-9
        and body_memory + pooled(tails_memory)
        <= host.memory_gb * bound + 1e-9
        and body_network <= host.spec.network_mbps * bound + 1e-9
        and body_disk <= host.spec.disk_mbps * bound + 1e-9
    )
