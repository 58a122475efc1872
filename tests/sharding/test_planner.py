"""Sharded planning equivalence and safety invariants.

The load-bearing guarantees:

* a **1-shard** sharded plan is *bitwise identical* to the unsharded
  dynamic plan (the pipeline degenerates to the dynamic planner);
* a **multi-shard** plan places every VM exactly once per interval,
  never overfills a host (checked by refolding the fleet-wide demand
  table), and stays within a bounded active-host gap of the unsharded
  plan — the consolidation-quality contract reconciliation exists for.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constraints.affinity import AntiColocate
from repro.constraints.manager import ConstraintSet
from repro.core.base import PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.incremental import HostCapacities
from repro.emulator.schedule import PlacementSchedule, ScheduledPlacement
from repro.exceptions import ConfigurationError
from repro.placement.plan import Placement
from repro.sharding import (
    ShardedConsolidation,
    build_demand_table,
)
from repro.sharding.planner import merge_shard_schedules, shard_context


def _classes(context):
    return [trace.vm.workload_class for trace in context.evaluation]


class TestSingleShardEquivalence:
    def test_one_shard_is_bitwise_identical(
        self, fleet_context, unsharded_schedule
    ) -> None:
        sharded = ShardedConsolidation(n_shards=1).plan(fleet_context)
        assert len(sharded) == len(unsharded_schedule)
        for left, right in zip(unsharded_schedule, sharded):
            assert list(left.placement.assignment.items()) == list(
                right.placement.assignment.items()
            )
            assert left.start_hour == right.start_hour
            assert left.end_hour == right.end_hour


class TestMultiShardInvariants:
    @pytest.fixture(scope="class")
    def algorithm(self) -> ShardedConsolidation:
        return ShardedConsolidation(n_shards=3)

    @pytest.fixture(scope="class")
    def sharded_schedule(self, algorithm, fleet_context):
        return algorithm.plan(fleet_context)

    def test_every_vm_placed_exactly_once(
        self, sharded_schedule, fleet_context
    ) -> None:
        vm_ids = set(fleet_context.evaluation.vm_ids)
        for segment in sharded_schedule:
            assert segment.placement.assignment.keys() == vm_ids

    def test_segments_list_vms_in_fleet_row_order(
        self, sharded_schedule, fleet_context
    ) -> None:
        vm_ids = list(fleet_context.evaluation.vm_ids)
        for segment in sharded_schedule:
            assert list(segment.placement.assignment) == vm_ids

    def test_same_interval_boundaries_as_unsharded(
        self, sharded_schedule, unsharded_schedule
    ) -> None:
        assert [
            (s.start_hour, s.end_hour) for s in sharded_schedule
        ] == [(s.start_hour, s.end_hour) for s in unsharded_schedule]

    def test_no_host_overfills(
        self, algorithm, sharded_schedule, fleet_context
    ) -> None:
        table = build_demand_table(
            DynamicConsolidation(),
            fleet_context.history.store,
            fleet_context.evaluation.store,
            _classes(fleet_context),
            fleet_context,
        )
        caps = HostCapacities(
            list(fleet_context.datacenter.hosts),
            fleet_context.config.utilization_bound,
        )
        row_of = {vm: row for row, vm in enumerate(table.vm_ids)}
        host_of = {host: i for i, host in enumerate(caps.host_ids)}
        for column, segment in enumerate(sharded_schedule):
            rows = np.array(
                [row_of[vm] for vm in segment.placement.assignment]
            )
            hosts = np.array(
                [
                    host_of[host]
                    for host in segment.placement.assignment.values()
                ]
            )
            for matrix, eps in (
                (table.cpu_rpe2, np.array(caps.eps_cpu)),
                (table.memory_gb, np.array(caps.eps_mem)),
                (table.network_mbps, np.array(caps.eps_net)),
                (table.disk_mbps, np.array(caps.eps_dsk)),
            ):
                load = np.bincount(
                    hosts, weights=matrix[rows, column], minlength=caps.n
                )
                assert (load <= eps).all()

    def test_active_host_gap_is_bounded(
        self, sharded_schedule, unsharded_schedule
    ) -> None:
        sharded = np.array(
            [s.placement.active_host_count for s in sharded_schedule]
        )
        flat = np.array(
            [s.placement.active_host_count for s in unsharded_schedule]
        )
        # Reconciliation must keep the sharded plan's consolidation
        # ratio close to the unsharded optimum: within 10% (and never
        # more than 3 hosts) on this fleet, on average.
        gap = float(np.mean(sharded) - np.mean(flat))
        assert gap <= max(0.1 * float(np.mean(flat)), 3.0)

    def test_report_records_reconciliation(self, algorithm) -> None:
        report = algorithm.last_report
        assert report is not None
        assert report.n_shards == 3
        assert report.reconcile_moves >= 0
        assert len(report.active_hosts_before) == len(
            report.active_hosts_after
        )
        assert sum(report.active_hosts_after) <= sum(
            report.active_hosts_before
        )

    def test_reconcile_only_reduces_active_hosts(
        self, fleet_context
    ) -> None:
        raw = ShardedConsolidation(n_shards=3, reconcile=False)
        merged_only = raw.plan(fleet_context)
        reconciled = ShardedConsolidation(n_shards=3).plan(fleet_context)
        before = sum(
            s.placement.active_host_count for s in merged_only
        )
        after = sum(
            s.placement.active_host_count for s in reconciled
        )
        assert after <= before


class TestConfiguration:
    def test_rejects_constraints(self, fleet_context) -> None:
        vm_ids = fleet_context.evaluation.vm_ids
        constrained = PlanningContext(
            history=fleet_context.history,
            evaluation=fleet_context.evaluation,
            datacenter=fleet_context.datacenter,
            config=fleet_context.config,
            constraints=ConstraintSet([AntiColocate(vm_ids[0], vm_ids[1])]),
        )
        with pytest.raises(ConfigurationError, match="constraint"):
            ShardedConsolidation(n_shards=2).plan(constrained)


def _index_of(context):
    return {
        host.host_id: index
        for index, host in enumerate(context.datacenter.hosts)
    }


class TestMergeShardSchedules:
    @pytest.fixture(scope="class")
    def two_shards(self, fleet_context):
        algorithm = ShardedConsolidation(n_shards=2, reconcile=False)
        algorithm.plan(fleet_context)
        return algorithm.last_report.shards

    def test_rejects_empty(self) -> None:
        with pytest.raises(ConfigurationError, match="no shard schedules"):
            merge_shard_schedules((), [], {})

    def test_rejects_mismatched_boundaries(
        self, fleet_context, two_shards
    ) -> None:
        algorithm = ShardedConsolidation(n_shards=2, reconcile=False)
        shards_plan = algorithm.plan(fleet_context)
        full = DynamicConsolidation().plan(fleet_context)
        trimmed = type(full)(segments=full.segments[:-1])
        with pytest.raises(ConfigurationError, match="tile the window"):
            merge_shard_schedules(
                two_shards, [shards_plan, trimmed], _index_of(fleet_context)
            )

    def test_rejects_vm_outside_its_shard(
        self, fleet_context, two_shards, unsharded_schedule
    ) -> None:
        # Each shard's schedule places the whole fleet: the error names
        # the first VM of shard 0's segment 0 that belongs to shard 1.
        members = set(two_shards[0].vm_ids)
        foreign = next(
            vm
            for vm in unsharded_schedule.segments[0].placement.assignment
            if vm not in members
        )
        with pytest.raises(
            ConfigurationError,
            match=(
                f"shard 0: segment 0 places VM '{foreign}', which is "
                "outside the shard"
            ),
        ):
            merge_shard_schedules(
                two_shards,
                [unsharded_schedule, unsharded_schedule],
                _index_of(fleet_context),
            )

    def test_fills_each_shard_column_block(
        self, fleet_context, two_shards
    ) -> None:
        schedules = [
            DynamicConsolidation().plan(shard_context(shard, fleet_context))
            for shard in two_shards
        ]
        index_of = _index_of(fleet_context)
        hosts = merge_shard_schedules(two_shards, schedules, index_of)
        assert hosts.shape == (
            len(schedules[0]),
            len(fleet_context.evaluation.vm_ids),
        )
        for shard, schedule in zip(two_shards, schedules):
            for interval, segment in enumerate(schedule):
                assignment = segment.placement.assignment
                block = hosts[interval, shard.vm_start:shard.vm_stop]
                assert block.tolist() == [
                    index_of[assignment[vm]] for vm in shard.vm_ids
                ]


def _replace_segments(schedule, edit):
    """``schedule`` with every segment's mapping passed through ``edit``."""
    return PlacementSchedule(
        segments=tuple(
            ScheduledPlacement(
                placement=Placement(
                    assignment=edit(dict(segment.placement.assignment))
                ),
                start_hour=segment.start_hour,
                end_hour=segment.end_hour,
            )
            for segment in schedule
        )
    )


class TestShardScheduleCoverage:
    """A shard schedule must place exactly its shard's VMs.

    Driven through :meth:`ShardedConsolidation.plan` with a
    ``plan_shards`` hook that tampers with the shard plans, with and
    without reconciliation.
    """

    @pytest.fixture(scope="class")
    def shard_plans(self, fleet_context):
        algorithm = ShardedConsolidation(n_shards=2, reconcile=False)
        algorithm.plan(fleet_context)
        shards = algorithm.last_report.shards
        return shards, [
            DynamicConsolidation().plan(shard_context(shard, fleet_context))
            for shard in shards
        ]

    def _plan(self, context, shard_plans, reconcile, tamper):
        shards, schedules = shard_plans

        def plan_shards(planned_shards, _context):
            assert planned_shards == shards
            return tamper(shards, list(schedules))

        return ShardedConsolidation(
            n_shards=2, reconcile=reconcile, plan_shards=plan_shards
        ).plan(context)

    @pytest.mark.parametrize("reconcile", [False, True])
    def test_rejects_a_shard_schedule_missing_a_vm(
        self, fleet_context, shard_plans, reconcile
    ) -> None:
        dropped = shard_plans[0][0].vm_ids[0]

        def drop_one(shards, schedules):
            schedules[0] = _replace_segments(
                schedules[0],
                lambda mapping: {
                    vm: host for vm, host in mapping.items() if vm != dropped
                },
            )
            return schedules

        with pytest.raises(
            ConfigurationError,
            match=f"shard 0: segment 0 is missing VM '{dropped}'",
        ):
            self._plan(fleet_context, shard_plans, reconcile, drop_one)

    @pytest.mark.parametrize("reconcile", [False, True])
    def test_rejects_a_shard_schedule_with_a_foreign_vm(
        self, fleet_context, shard_plans, reconcile
    ) -> None:
        foreign = shard_plans[0][0].vm_ids[0]

        def add_one(shards, schedules):
            schedules[1] = _replace_segments(
                schedules[1],
                lambda mapping: {**mapping, foreign: shards[1].host_ids[0]},
            )
            return schedules

        with pytest.raises(
            ConfigurationError,
            match=(
                f"shard 1: segment 0 places VM '{foreign}', which is "
                "outside the shard"
            ),
        ):
            self._plan(fleet_context, shard_plans, reconcile, add_one)

    def test_rejects_an_unknown_host(
        self, fleet_context, shard_plans
    ) -> None:
        moved = shard_plans[0][1].vm_ids[0]

        def misplace(shards, schedules):
            schedules[1] = _replace_segments(
                schedules[1], lambda mapping: {**mapping, moved: "nowhere"}
            )
            return schedules

        with pytest.raises(
            ConfigurationError, match="on unknown host 'nowhere'"
        ):
            self._plan(fleet_context, shard_plans, True, misplace)


class TestShardContext:
    def test_preserves_host_order_and_rows(self, fleet_context) -> None:
        algorithm = ShardedConsolidation(n_shards=2, reconcile=False)
        algorithm.plan(fleet_context)
        shard = algorithm.last_report.shards[1]
        sub = shard_context(shard, fleet_context)
        assert tuple(h.host_id for h in sub.datacenter) == shard.host_ids
        assert sub.evaluation.vm_ids == shard.vm_ids
        assert sub.config is fleet_context.config
        np.testing.assert_array_equal(
            sub.evaluation.store.cpu_rpe2,
            fleet_context.evaluation.store.cpu_rpe2[
                shard.vm_start:shard.vm_stop
            ],
        )


class TestBuildDemandTable:
    def test_blockwise_build_is_bit_identical(self, fleet_context) -> None:
        args = (
            DynamicConsolidation(),
            fleet_context.history.store,
            fleet_context.evaluation.store,
            _classes(fleet_context),
            fleet_context,
        )
        whole = build_demand_table(*args)
        blocked = build_demand_table(*args, block_rows=7)
        assert whole.vm_ids == blocked.vm_ids
        for metric in ("cpu_rpe2", "memory_gb", "network_mbps", "disk_mbps"):
            np.testing.assert_array_equal(
                getattr(whole, metric), getattr(blocked, metric)
            )
