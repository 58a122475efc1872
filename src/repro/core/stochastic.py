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

The pack runs on the state every planner packs on: bodies fold onto an
:class:`~repro.core.incremental.IncrementalPlan` over
:class:`~repro.core.incremental.HostCapacities`, the FFD order comes
from :func:`~repro.core.dynamic_vector.ffd_order` (scored on bodies
plus tails) and constraints are checked through the dynamic planner's
rules.  The only state of its own is each host's tail sum per cluster.

Like vanilla semi-static, PCP relocates during planned downtime and
holds no live-migration reservation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

from repro.analysis.correlation import PeakClusters, cluster_by_peaks
from repro.constraints.manager import ConstraintSet
from repro.core.base import ConsolidationAlgorithm, PlanningContext
from repro.core.dynamic_vector import _Rules, ffd_order, id_ranks
from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import ConfigurationError, PlacementError
from repro.infrastructure.datacenter import Datacenter
from repro.infrastructure.vm import VMDemand
from repro.placement.plan import Placement
from repro.sizing.estimator import SizeEstimator
from repro.sizing.functions import BodyTailSizing

__all__ = ["StochasticConsolidation"]


def _pooled_tail(
    tails: Mapping[int, float], cluster: int, tail: float, overlap: float
) -> float:
    """A host's tail reservation once ``tail`` joins ``cluster``'s sum.

    ``tails`` maps each cluster on the host to its members' tail sum.
    The reservation is the worst cluster's sum plus ``overlap`` times
    the other clusters' mass, summed in insertion order with a new
    cluster last.  With ``overlap = 0`` this is PCP's idealized bet
    (only one cluster ever peaks at a time); with ``overlap = 1`` it
    degenerates to max sizing.  Real workloads sit in between — peak
    envelopes are correlated beyond what any finite clustering captures
    (shared business factor, shared diurnal phase), so a production
    planner keeps a partial reserve.
    """
    sums = dict(tails)
    sums[cluster] = sums.get(cluster, 0.0) + tail
    worst = max(sums.values())
    return worst + overlap * (sum(sums.values()) - worst)


@dataclass
class StochasticConsolidation(ConsolidationAlgorithm):
    """PCP-style body/tail sizing with cluster-aware tail pooling."""

    name: str = "stochastic"
    body_percentile: float = 90.0
    envelope_quantile: float = 0.9
    cluster_similarity_threshold: float = 0.25
    #: Fraction of cross-cluster tail mass still reserved (see
    #: :func:`_pooled_tail`); 0 = fully trust the clustering.
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
        """First fit in FFD order, tails pooled per host and cluster.

        A host admits a VM if its bodies plus the VM's stay within
        ``eps`` (capacity plus slack) on all four resources and, for
        CPU and memory, ``(body + demand) + _pooled_tail(...) <= eps``.
        The body-only test runs first: a pooled tail is never negative,
        so it rejects only hosts the full test rejects.
        """
        hosts = datacenter.hosts
        caps = HostCapacities(hosts, self.utilization_bound)
        cluster_index = dict(zip(clusters.vm_ids, clusters.cluster_of))
        vm_ids = tuple(demand.vm_id for demand in demands)
        cpu, mem, net, dsk, tail_cpu, tail_mem = np.array(
            [
                (
                    d.cpu_rpe2, d.memory_gb, d.network_mbps, d.disk_mbps,
                    d.tail_cpu_rpe2, d.tail_memory_gb,
                )
                for d in demands
            ],
            dtype=float,
        ).reshape(-1, 6).T
        plan = IncrementalPlan(caps, vm_ids, cpu, mem, net, dsk)
        rules = (
            _Rules(constraints, datacenter, vm_ids, hosts)
            if constraints
            else None
        )
        # FFD scores count the tails.
        order, n_checked = ffd_order(
            cpu + tail_cpu, mem + tail_mem, hosts[0], id_ranks(vm_ids), rules
        )
        overlap = self.tail_overlap_factor
        eps_cpu, eps_mem = caps.eps_cpu, caps.eps_mem
        eps_net, eps_dsk = caps.eps_net, caps.eps_dsk
        body_cpu, body_mem = plan.body_cpu, plan.body_mem
        body_net, body_dsk = plan.body_net, plan.body_dsk
        # Per host, each cluster's tail sum, clusters in arrival order.
        tails_cpu: List[Dict[int, float]] = [{} for _ in hosts]
        tails_mem: List[Dict[int, float]] = [{} for _ in hosts]
        for position, row in enumerate(order.tolist()):
            demand = demands[row]
            cluster = cluster_index[demand.vm_id]
            t_cpu = demand.tail_cpu_rpe2
            t_mem = demand.tail_memory_gb
            for host in range(caps.n):
                cpu_after = body_cpu[host] + demand.cpu_rpe2
                mem_after = body_mem[host] + demand.memory_gb
                if (
                    cpu_after <= eps_cpu[host]
                    and mem_after <= eps_mem[host]
                    and body_net[host] + demand.network_mbps <= eps_net[host]
                    and body_dsk[host] + demand.disk_mbps <= eps_dsk[host]
                    and cpu_after
                    + _pooled_tail(tails_cpu[host], cluster, t_cpu, overlap)
                    <= eps_cpu[host]
                    and mem_after
                    + _pooled_tail(tails_mem[host], cluster, t_mem, overlap)
                    <= eps_mem[host]
                    and (
                        position >= n_checked
                        or rules.allows(row, host, rules.assigned)
                    )
                ):
                    break
            else:
                raise PlacementError(
                    f"VM {demand.vm_id} fits on no host "
                    f"(body cpu={demand.cpu_rpe2:.0f}, "
                    f"tail cpu={t_cpu:.0f})"
                )
            plan.assign(row, host)
            held = tails_cpu[host]
            held[cluster] = held.get(cluster, 0.0) + t_cpu
            held = tails_mem[host]
            held[cluster] = held.get(cluster, 0.0) + t_mem
            if position < n_checked:
                rules.place(row, host)
        if rules is not None:
            constraints.validate(rules.assigned, datacenter)
        hosts_of = np.array(plan.assignment_rows, dtype=np.intp)[order]
        return Placement.from_indices(vm_ids, caps.host_ids, order, hosts_of)
