"""Stochastic semi-static consolidation — the PCP variant (paper §5.1).

"This is the consolidation algorithm inspired from the PCP algorithm in
[27].  We use the following PCP parameters: (i) Body of the distribution
= 90 percentile (ii) Tail of the distribution = Max."

Peak-Clustering-based Placement in three steps:

1. **Sizing** — every VM gets a *body* (90th percentile of its history
   demand) and a *tail* (history max minus body).
2. **Peak clustering** — VMs whose demand peaks co-occur (similar peak
   envelopes) are grouped (:func:`repro.analysis.correlation.cluster_by_peaks`).
3. **Cluster-aware packing** — a host reserves the sum of its VMs'
   bodies plus, per resource, the largest *per-cluster tail sum*:
   same-cluster VMs peak together so their tails add; different clusters
   peak at different times so only the worst cluster's burst must fit.
   Stacking one cluster on one host therefore eats tail budget fast,
   which is exactly the spreading pressure PCP wants.

Like vanilla semi-static, PCP relocates during planned downtime and
holds no live-migration reservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.analysis.correlation import PeakClusters, cluster_by_peaks
from repro.constraints.manager import ConstraintSet
from repro.core.base import ConsolidationAlgorithm, PlanningContext
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.server import PhysicalServer
from repro.infrastructure.vm import VMDemand
from repro.placement.binpacking import sort_decreasing
from repro.placement.plan import Placement
from repro.sizing.estimator import SizeEstimator
from repro.sizing.functions import BodyTailSizing

__all__ = ["StochasticConsolidation"]

class _ClusterBin:
    """Host packing state with per-cluster tail pooling.

    Reservation per resource:

        sum(bodies) + max_cluster_tail + overlap * (other_tails)

    where ``max_cluster_tail`` is the largest within-cluster tail sum on
    this host and ``other_tails`` is the remaining tail mass.  With
    ``overlap = 0`` this is PCP's idealized bet (only one cluster ever
    peaks at a time); with ``overlap = 1`` it degenerates to max sizing.
    Real workloads sit in between — peak envelopes are correlated beyond
    what any finite clustering captures (shared business factor, shared
    diurnal phase), so a production planner keeps a partial reserve.
    """

    __slots__ = (
        "host",
        "cpu_capacity",
        "memory_capacity",
        "network_capacity",
        "disk_capacity",
        "body_cpu",
        "body_memory",
        "body_network",
        "body_disk",
        "cluster_tail_cpu",
        "cluster_tail_memory",
        "tail_overlap",
        "vm_ids",
    )

    def __init__(
        self, host: PhysicalServer, bound: float, tail_overlap: float
    ) -> None:
        self.host = host
        self.cpu_capacity = host.cpu_rpe2 * bound
        self.memory_capacity = host.memory_gb * bound
        self.network_capacity = host.spec.network_mbps * bound
        self.disk_capacity = host.spec.disk_mbps * bound
        self.body_cpu = 0.0
        self.body_memory = 0.0
        self.body_network = 0.0
        self.body_disk = 0.0
        self.cluster_tail_cpu: Dict[int, float] = {}
        self.cluster_tail_memory: Dict[int, float] = {}
        self.tail_overlap = tail_overlap
        self.vm_ids: List[str] = []

    def _pooled(self, tails: Dict[int, float]) -> float:
        if not tails:
            return 0.0
        worst = max(tails.values())
        rest = sum(tails.values()) - worst
        return worst + self.tail_overlap * rest

    def fits(self, demand: VMDemand, cluster: int) -> bool:
        tail_cpu = dict(self.cluster_tail_cpu)
        tail_cpu[cluster] = tail_cpu.get(cluster, 0.0) + demand.tail_cpu_rpe2
        tail_memory = dict(self.cluster_tail_memory)
        tail_memory[cluster] = (
            tail_memory.get(cluster, 0.0) + demand.tail_memory_gb
        )
        cpu_after = self.body_cpu + demand.cpu_rpe2 + self._pooled(tail_cpu)
        memory_after = (
            self.body_memory + demand.memory_gb + self._pooled(tail_memory)
        )
        network_after = self.body_network + demand.network_mbps
        disk_after = self.body_disk + demand.disk_mbps
        return (
            cpu_after <= self.cpu_capacity + 1e-9
            and memory_after <= self.memory_capacity + 1e-9
            and network_after <= self.network_capacity + 1e-9
            and disk_after <= self.disk_capacity + 1e-9
        )

    def add(self, demand: VMDemand, cluster: int) -> None:
        if not self.fits(demand, cluster):
            raise PlacementError(
                f"{demand.vm_id} does not fit on {self.host.host_id}"
            )
        self.body_cpu += demand.cpu_rpe2
        self.body_memory += demand.memory_gb
        self.body_network += demand.network_mbps
        self.body_disk += demand.disk_mbps
        self.cluster_tail_cpu[cluster] = (
            self.cluster_tail_cpu.get(cluster, 0.0) + demand.tail_cpu_rpe2
        )
        self.cluster_tail_memory[cluster] = (
            self.cluster_tail_memory.get(cluster, 0.0) + demand.tail_memory_gb
        )
        self.vm_ids.append(demand.vm_id)


@dataclass
class StochasticConsolidation(ConsolidationAlgorithm):
    """PCP-style body/tail sizing with cluster-aware tail pooling."""

    name: str = "stochastic"
    body_percentile: float = 90.0
    envelope_quantile: float = 0.9
    cluster_similarity_threshold: float = 0.25
    #: Fraction of cross-cluster tail mass still reserved (see
    #: :class:`_ClusterBin`); 0 = fully trust the clustering.
    tail_overlap_factor: float = 0.55
    utilization_bound: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.utilization_bound <= 1:
            raise ConfigurationError(
                f"utilization_bound must be in (0, 1], got "
                f"{self.utilization_bound}"
            )
        if not 0 <= self.tail_overlap_factor <= 1:
            raise ConfigurationError(
                f"tail_overlap_factor must be in [0, 1], got "
                f"{self.tail_overlap_factor}"
            )

    def plan(self, context: PlanningContext) -> PlacementSchedule:
        estimator = SizeEstimator(
            sizing=BodyTailSizing(body_percentile=self.body_percentile),
            overhead=context.config.overhead,
            network=context.config.network,
            disk=context.config.disk,
        )
        demands = estimator.estimate_all(context.history)
        clusters = cluster_by_peaks(
            context.history,
            body_quantile=self.envelope_quantile,
            similarity_threshold=self.cluster_similarity_threshold,
        )
        placement = self._pack(
            demands,
            clusters,
            context.datacenter,
            context.constraints,
        )
        return PlacementSchedule.static(
            placement, context.evaluation.duration_hours
        )

    def _pack(
        self,
        demands: List[VMDemand],
        clusters: PeakClusters,
        datacenter: Datacenter,
        constraints: ConstraintSet,
    ) -> Placement:
        hosts = datacenter.hosts
        if not hosts:
            raise PlacementError("no hosts to pack onto")
        cluster_of = {
            vm_id: cluster
            for vm_id, cluster in zip(clusters.vm_ids, clusters.cluster_of)
        }
        ordered = sort_decreasing(demands, hosts[0])
        if constraints:
            # Constrained VMs claim their feasible hosts first (see
            # repro.placement.binpacking.pack).
            ordered = sorted(
                ordered,
                key=lambda d: not constraints.constraints_for(d.vm_id),
            )
        bins = [
            _ClusterBin(host, self.utilization_bound, self.tail_overlap_factor)
            for host in hosts
        ]
        assignment: Dict[str, str] = {}
        for demand in ordered:
            cluster = cluster_of[demand.vm_id]
            target = self._first_fit(
                demand, cluster, bins, assignment, constraints, datacenter
            )
            if target is None:
                raise PlacementError(
                    f"VM {demand.vm_id} fits on no host "
                    f"(body cpu={demand.cpu_rpe2:.0f}, "
                    f"tail cpu={demand.tail_cpu_rpe2:.0f})"
                )
            target.add(demand, cluster)
            assignment[demand.vm_id] = target.host.host_id
        if constraints:
            constraints.validate(assignment, datacenter)
        return Placement(assignment=assignment)

    def _first_fit(
        self,
        demand: VMDemand,
        cluster: int,
        bins: List[_ClusterBin],
        assignment: Mapping[str, str],
        constraints: ConstraintSet,
        datacenter: Datacenter,
    ) -> Optional[_ClusterBin]:
        for candidate in bins:
            if not candidate.fits(demand, cluster):
                continue
            if constraints and not constraints.feasible(
                demand.vm_id, candidate.host, assignment, datacenter
            ):
                continue
            return candidate
        return None
