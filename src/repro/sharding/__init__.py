"""Hierarchical sharded planning for datacenter-scale fleets.

A single centralized planner is the scaling bottleneck once the fleet
outgrows a few thousand servers: every displaced VM scans every host.
This package partitions the fleet along the ``Datacenter`` rack/subnet
topology (:mod:`repro.sharding.partition`), plans each shard
independently with the dynamic planner
(:mod:`repro.sharding.planner`), and then runs a hierarchical
cross-shard reconciliation pass (:mod:`repro.sharding.reconcile`) —
pack intra-rack first, then consolidate residual under-filled hosts
across racks — so the consolidation ratio stays close to the unsharded
plan.  :mod:`repro.sharding.tasks` fans shards across the
:mod:`repro.runner` process pool and feeds them from chunked
memory-mapped trace stores (:mod:`repro.workloads.chunked`) so no
worker ever holds the whole fleet's matrices.
"""

from repro.sharding.partition import ShardSpec, partition_fleet
from repro.sharding.planner import (
    ShardedConsolidation,
    ShardedPlanReport,
    build_demand_table,
)
from repro.sharding.reconcile import reconcile_assignment
from repro.sharding.tasks import (
    KIND_SHARD_PLAN,
    ShardedPlanRun,
    chunked_source,
    run_sharded_plan,
    shard_plan_task,
)

__all__ = [
    "ShardSpec",
    "partition_fleet",
    "ShardedConsolidation",
    "ShardedPlanReport",
    "build_demand_table",
    "reconcile_assignment",
    "KIND_SHARD_PLAN",
    "ShardedPlanRun",
    "chunked_source",
    "shard_plan_task",
    "run_sharded_plan",
]
