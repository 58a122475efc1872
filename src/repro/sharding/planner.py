"""Sharded consolidation planning.

:class:`ShardedConsolidation` is a :class:`ConsolidationAlgorithm` that
partitions the fleet along the datacenter topology
(:func:`~repro.sharding.partition.partition_fleet`), plans each shard
independently with :class:`~repro.core.dynamic.DynamicConsolidation` on
its own sub-context — per-shard host scans are what makes planning
superlinear, so ``S`` shards of ``n/S`` VMs are substantially cheaper
than one plan of ``n`` — merges the per-interval placements, and
finally runs the hierarchical reconciliation pass of
:mod:`repro.sharding.reconcile` so the merged plan's active-host count
stays close to the unsharded plan's.

From the merge to the output the fleet assignment is one
``(n_intervals, n_vms)`` matrix of host indices in fleet row order:
shards are contiguous row blocks, so each shard segment fills its own
column slice; reconciliation rewrites rows in place; and each output
:class:`~repro.placement.plan.Placement` is built once, from its row.

With one shard the pipeline degenerates to the dynamic planner on the
original inputs (reconciliation is cross-shard by definition and is
skipped), so a 1-shard plan is **bitwise identical** to the unsharded
plan — the property the equivalence suite pins.

Reconciliation needs the fleet-wide sized demand of every interval.
That table comes from the dynamic planner's own builder,
:func:`~repro.core.dynamic_vector.size_demand_rows` (all of it is
per-VM-row, so the global table is bit-identical to the shard tables
stacked) — called on row blocks, so a memory-mapped fleet store is
never materialized whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import ConsolidationAlgorithm, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.dynamic_vector import size_demand_rows
from repro.core.incremental import HostCapacities, IncrementalPlan
from repro.emulator.schedule import PlacementSchedule
from repro.exceptions import ConfigurationError
from repro.infrastructure.datacenter import Datacenter
from repro.placement.plan import Placement
from repro.sharding.partition import ShardSpec, host_groups, partition_fleet
from repro.sharding.reconcile import reconcile_assignment
from repro.sizing.estimator import DemandTable
# Not called here: perfbench/selftest.py checks its tracer restores it.
from repro.sizing.prediction import build_peak_table  # noqa: F401
from repro.workloads.store import TraceStore

__all__ = [
    "ShardedConsolidation",
    "ShardedPlanReport",
    "build_demand_table",
    "merge_shard_schedules",
    "shard_context",
]

#: Row-block size for the blockwise demand-table build: large enough to
#: amortize kernel dispatch, small enough that a 100k-row memory-mapped
#: fleet never has more than one block's full-width slice resident.
_TABLE_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ShardedPlanReport:
    """Diagnostics of one sharded plan (exposed for benches and tests)."""

    shards: Tuple[ShardSpec, ...]
    reconcile_moves: int
    active_hosts_before: Tuple[int, ...]
    active_hosts_after: Tuple[int, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)


def build_demand_table(
    algorithm: DynamicConsolidation,
    history_store: TraceStore,
    evaluation_store: TraceStore,
    workload_classes: Sequence[Optional[str]],
    context: PlanningContext,
    *,
    block_rows: int = _TABLE_BLOCK_ROWS,
) -> DemandTable:
    """Fleet-wide per-interval sized demands, built in row blocks.

    Each block of ``block_rows`` rows goes through the dynamic planner's
    own table builder,
    :func:`~repro.core.dynamic_vector.size_demand_rows`, on zero-copy
    row slices of the two stores (:meth:`TraceStore.rows`); the
    builder works row by row, so the stacked blocks equal one
    whole-matrix pass bit for bit, while peak memory stays at one
    block's history+evaluation slice (the fleet store itself may be
    memory-mapped).
    """
    if history_store.vm_ids != evaluation_store.vm_ids:
        raise ConfigurationError(
            "history and evaluation windows must list the VMs in the "
            "same row order"
        )
    n_vms = len(evaluation_store.vm_ids)
    blocks = [
        size_demand_rows(
            algorithm,
            history_store.rows(start, min(start + block_rows, n_vms)),
            evaluation_store.rows(start, min(start + block_rows, n_vms)),
            workload_classes[start:start + block_rows],
            context,
        )
        for start in range(0, n_vms, block_rows)
    ]
    if len(blocks) == 1:
        return blocks[0]
    return DemandTable(
        vm_ids=evaluation_store.vm_ids,
        cpu_rpe2=np.concatenate([b.cpu_rpe2 for b in blocks]),
        memory_gb=np.concatenate([b.memory_gb for b in blocks]),
        network_mbps=np.concatenate([b.network_mbps for b in blocks]),
        disk_mbps=np.concatenate([b.disk_mbps for b in blocks]),
    )


def merge_shard_schedules(
    shards: Sequence[ShardSpec],
    schedules: Sequence[PlacementSchedule],
    index_of: Mapping[str, int],
) -> np.ndarray:
    """Merge the per-shard schedules into one host-index matrix.

    Row ``i`` of the ``(n_intervals, n_vms)`` result is interval ``i``'s
    fleet assignment in fleet row order, each entry an index into
    ``index_of`` (host id → position in the fleet's host order).  Shard
    ``k``'s segments fill the columns ``[vm_start, vm_stop)`` of
    ``shards[k]``, its shared id tuples looked up once.  All shard
    schedules must tile the evaluation window identically, and each
    segment must place exactly its shard's VMs on hosts of ``index_of``;
    otherwise :class:`~repro.exceptions.ConfigurationError` names the
    shard and the first VM out of place.
    """
    if not schedules:
        raise ConfigurationError("no shard schedules to merge")
    if len(schedules) != len(shards):
        raise ConfigurationError(
            f"{len(schedules)} shard schedules for {len(shards)} shards"
        )
    boundaries = [
        tuple((s.start_hour, s.end_hour) for s in schedule)
        for schedule in schedules
    ]
    if len(set(boundaries)) != 1:
        raise ConfigurationError(
            "shard schedules tile the window differently; cannot merge"
        )
    stops = [0] + [shard.vm_stop for shard in shards]
    if any(shard.vm_start != stop for shard, stop in zip(shards, stops)):
        raise ConfigurationError(
            "shards must cover the VM rows as consecutive blocks"
        )
    hosts = np.empty((len(boundaries[0]), stops[-1]), dtype=np.intp)
    memo: dict = {}
    for shard, schedule in zip(shards, schedules):
        row_of = {vm: shard.vm_start + k for k, vm in enumerate(shard.vm_ids)}
        for interval, segment in enumerate(schedule):
            placement = segment.placement
            rows, host_rows = placement.indices(row_of, index_of, memo)
            known = min(rows.min(initial=0), host_rows.min(initial=0)) >= 0
            if len(rows) != shard.n_vms or not known:
                raise _misplaced(shard, interval, placement, rows, host_rows)
            hosts[interval, rows] = host_rows
    return hosts


def _misplaced(
    shard: ShardSpec,
    interval: int,
    placement: Placement,
    rows: np.ndarray,
    host_rows: np.ndarray,
) -> ConfigurationError:
    """The error for a shard segment that does not place exactly the
    shard's VMs on known hosts: the first missing VM, else the first
    VM outside the shard, else the first unknown host."""
    where = f"shard {shard.index}: segment {interval}"
    missing = np.setdiff1d(np.arange(shard.vm_start, shard.vm_stop), rows)
    if missing.size:
        vm_id = shard.vm_ids[missing[0] - shard.vm_start]
        return ConfigurationError(f"{where} is missing VM {vm_id!r}")
    foreign = rows < 0
    k = int(np.argmax(foreign if foreign.any() else host_rows < 0))
    vm_id = placement.vm_ids[placement.rows[k]]
    if foreign[k]:
        return ConfigurationError(
            f"{where} places VM {vm_id!r}, which is outside the shard"
        )
    host_id = placement.host_ids[placement.hosts[k]]
    return ConfigurationError(
        f"{where} places VM {vm_id!r} on unknown host {host_id!r}"
    )


def _active_host_counts(
    hosts: np.ndarray, n_hosts: int
) -> Tuple[int, ...]:
    """Distinct hosts used by each row of a host-index matrix."""
    used = np.zeros((hosts.shape[0], n_hosts), dtype=bool)
    used[np.arange(hosts.shape[0])[:, None], hosts] = True
    return tuple(used.sum(axis=1).tolist())


@dataclass
class ShardedConsolidation(ConsolidationAlgorithm):
    """Partition → per-shard dynamic plan → merge → reconcile.

    Each shard is planned by a fresh :class:`DynamicConsolidation`
    (instances keep per-plan caches, so shards do not share one).

    Parameters
    ----------
    n_shards:
        Shard count; must not exceed the number of topology groups.
    by:
        Topology label shards align to (``"rack"`` or ``"subnet"``).
    reconcile:
        Run the cross-shard reconciliation pass.
    fill_threshold / max_reconcile_sweeps:
        Reconciliation knobs (see :mod:`repro.sharding.reconcile`).
    plan_shards:
        Optional override executing the whole shard batch — the runner
        fan-out hook (:mod:`repro.sharding.tasks` submits one task per
        shard to the process pool).  Defaults to planning each shard
        in-process.
    """

    name: str = "sharded-dynamic"
    n_shards: int = 4
    by: str = "rack"
    reconcile: bool = True
    fill_threshold: float = 0.5
    max_reconcile_sweeps: int = 2
    plan_shards: Optional[
        Callable[
            [Tuple[ShardSpec, ...], PlanningContext],
            Sequence[PlacementSchedule],
        ]
    ] = None
    #: Diagnostics of the most recent :meth:`plan` call.
    last_report: Optional[ShardedPlanReport] = field(
        default=None, repr=False, compare=False
    )

    def plan(self, context: PlanningContext) -> PlacementSchedule:
        if context.constraints:
            raise ConfigurationError(
                "sharded planning does not support deployment constraints "
                "(a constraint can bind VMs across shard boundaries)"
            )
        weights = context.history.store.cpu_rpe2.mean(axis=1)
        shards = partition_fleet(
            context.evaluation.vm_ids,
            context.datacenter,
            self.n_shards,
            by=self.by,
            vm_weights=weights,
        )
        if self.plan_shards is not None:
            schedules = list(self.plan_shards(shards, context))
        else:
            schedules = [
                DynamicConsolidation().plan(shard_context(shard, context))
                for shard in shards
            ]
        caps = HostCapacities(
            list(context.datacenter.hosts), context.config.utilization_bound
        )
        hosts = merge_shard_schedules(shards, schedules, caps.index_of)
        active_before = _active_host_counts(hosts, caps.n)
        active_after = active_before
        moves = 0
        if len(shards) == 1:
            # The shard plan itself, bitwise (iteration order included).
            merged = schedules[0]
        else:
            if self.reconcile:
                moves = self._reconcile(hosts, context, caps)
                if moves:
                    active_after = _active_host_counts(hosts, caps.n)
            # One placement per row, in fleet row order, all sharing the
            # id tuples and one rows array (int32, as placements store).
            ids = (tuple(context.evaluation.vm_ids), caps.host_ids)
            rows = np.arange(hosts.shape[1], dtype=np.int32)
            merged = PlacementSchedule(
                segments=tuple(
                    replace(s, placement=Placement.from_indices(*ids, rows, h))
                    for h, s in zip(hosts, schedules[0])
                )
            )
        self.last_report = ShardedPlanReport(
            shards=shards,
            reconcile_moves=moves,
            active_hosts_before=active_before,
            active_hosts_after=active_after,
        )
        return merged

    # ------------------------------------------------------------------

    def _reconcile(
        self,
        hosts: np.ndarray,
        context: PlanningContext,
        caps: HostCapacities,
    ) -> int:
        """Reconcile every row of ``hosts`` in place; returns the moves.

        All intervals share one :class:`IncrementalPlan` workspace,
        reloaded from each interval's row that needs reconciling.
        """
        table = build_demand_table(
            DynamicConsolidation(),
            context.history.store,
            context.evaluation.store,
            [vm.workload_class for vm, _spec in context.evaluation.identities],
            context,
        )
        group_of_host = _group_index(context.datacenter, self.by, caps)
        zeros = [0.0] * len(table.vm_ids)
        plan = IncrementalPlan(caps, table.vm_ids, zeros, zeros)
        total_moves = 0
        for column in range(hosts.shape[0]):
            row, moves = reconcile_assignment(
                hosts[column],
                table,
                column,
                plan,
                group_of_host,
                fill_threshold=self.fill_threshold,
                max_sweeps=self.max_reconcile_sweeps,
            )
            if moves:
                hosts[column] = row
                total_moves += moves
        return total_moves


def shard_context(
    shard: ShardSpec, context: PlanningContext
) -> PlanningContext:
    """The planning sub-problem one shard sees.

    History and evaluation restrict to the shard's VM rows (zero-copy
    row gathers of an already-built store); the datacenter restricts to
    the shard's hosts, preserving the fleet's host order so FFD scans
    inside the shard visit hosts exactly as the unsharded planner
    would.
    """
    datacenter = Datacenter(name=context.datacenter.name)
    for host_id in shard.host_ids:
        datacenter.add_host(context.datacenter.host(host_id))
    return PlanningContext(
        history=context.history.subset(shard.vm_ids),
        evaluation=context.evaluation.subset(shard.vm_ids),
        datacenter=datacenter,
        config=context.config,
    )


def _group_index(
    datacenter: Datacenter, by: str, caps: HostCapacities
) -> List[int]:
    """Map each host index onto its topology group's dense id."""
    group_of_host = [0] * caps.n
    for group_id, (_, hosts) in enumerate(host_groups(datacenter, by)):
        for host in hosts:
            group_of_host[caps.index_of[host.host_id]] = group_id
    return group_of_host
