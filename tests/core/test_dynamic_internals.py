"""Unit tests for dynamic consolidation's internal mechanisms."""

import numpy as np
import pytest

from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.core.dynamic_vector import _HostArrays, _try_vacate
from repro.core.incremental import IncrementalPlan
from repro.migration.cost import MigrationCostModel
from repro.placement.plan import Placement
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace
from tests.reference.dynamic import host_order, predict_interval


def _context(small_pool, n_vms=8, days=3):
    hours = days * 24
    history = TraceSet(name="h")
    evaluation = TraceSet(name="e")
    rng = np.random.default_rng(0)
    for i in range(n_vms):
        util = np.full(hours, 0.05)
        for day in range(days):
            util[day * 24 + 9:day * 24 + 18] = 0.5
        util = util * (1.0 + 0.1 * rng.random(hours))
        for ts in (history, evaluation):
            ts.add(
                make_server_trace(
                    f"vm{i}", np.clip(util, 0, 1), np.full(hours, 1.0),
                    cpu_rpe2=4000.0,
                )
            )
    return PlanningContext(
        history=history, evaluation=evaluation, datacenter=small_pool
    )


class TestHostOrdering:
    def test_warm_hosts_come_first(self, small_pool):
        previous = Placement(
            {"a": small_pool.hosts[7].host_id, "b": small_pool.hosts[3].host_id}
        )
        ordered = host_order(small_pool, previous)
        warm = {small_pool.hosts[7].host_id, small_pool.hosts[3].host_id}
        assert {h.host_id for h in ordered[:2]} == warm
        assert len(ordered) == len(small_pool)

    def test_no_previous_keeps_pool_order(self, small_pool):
        ordered = host_order(small_pool, None)
        assert [h.host_id for h in ordered] == [
            h.host_id for h in small_pool
        ]


class TestMigrationCostGate:
    def test_prohibitive_cost_blocks_all_vacating(self, small_pool):
        context = _context(small_pool)
        # An SLA price so high no idle-power saving can justify a move.
        expensive = MigrationCostModel(sla_cost_per_second=1e6)
        gated = DynamicConsolidation(
            migration_cost=expensive, consider_migration_cost=True
        ).plan(context)
        free = DynamicConsolidation(consider_migration_cost=False).plan(
            context
        )

        def mean_active(schedule):
            return float(
                np.mean([s.placement.active_host_count for s in schedule])
            )

        # Without affordable migrations, hosts stay powered on.
        assert mean_active(gated) >= mean_active(free)

    def test_cost_cache_reused(self, small_pool):
        algorithm = DynamicConsolidation()
        first = algorithm._cached_cost(2.0)
        second = algorithm._cached_cost(2.04)  # rounds to the same key
        assert first == second
        assert len(algorithm._cost_cache) == 1


class _CountingCost(DynamicConsolidation):
    """Counts migration-cost lookups."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.cost_lookups = 0

    def _cached_cost(self, memory_gb: float) -> float:
        self.cost_lookups += 1
        return super()._cached_cost(memory_gb)


class TestVacateAttempt:
    """One vacate attempt: the fit search first, then the cost gate."""

    @staticmethod
    def _attempt(small_pool, algorithm, source_shares):
        """Host 1 half full; host 0 holds VMs of the given cpu shares."""
        context = _context(small_pool)
        host_arrays = _HostArrays(algorithm, context)
        cap = host_arrays.caps.cap_cpu[1]
        loads = [0.5 * cap] + [share * cap for share in source_shares]
        plan = IncrementalPlan(
            host_arrays.caps,
            [f"vm{row}" for row in range(len(loads))],
            loads,
            [1.0] * len(loads),
        )
        plan.assign(0, 1)
        for row in range(1, len(loads)):
            plan.assign(row, 0)

        def attempt() -> bool:
            return _try_vacate(
                algorithm, host_arrays, plan, 0, [0, 1],
                context.config.interval_hours, None,
            )

        return plan, attempt

    @staticmethod
    def _state(plan):
        return (
            list(plan.assignment_rows),
            [list(rows) for rows in plan.vm_rows_of_host],
            list(plan.body_cpu),
            list(plan.body_mem),
            list(plan.body_net),
            list(plan.body_dsk),
        )

    def test_unplaceable_vm_skips_the_cost_gate(self, small_pool):
        algorithm = _CountingCost()
        # The 0.4 share fits on host 1; the 0.3 share then does not, and
        # the source itself is no target.
        plan, attempt = self._attempt(small_pool, algorithm, [0.4, 0.3])
        before = self._state(plan)
        assert attempt() is False
        assert algorithm.cost_lookups == 0
        assert self._state(plan) == before

    def test_failed_cost_gate_leaves_plan_unchanged(self, small_pool):
        algorithm = _CountingCost(
            migration_cost=MigrationCostModel(sla_cost_per_second=1e6)
        )
        plan, attempt = self._attempt(small_pool, algorithm, [0.3, 0.1])
        before = self._state(plan)
        assert attempt() is False
        # Both VMs found a target before the gate priced them.
        assert algorithm.cost_lookups == 2
        assert self._state(plan) == before

        free = DynamicConsolidation(consider_migration_cost=False)
        plan, attempt = self._attempt(small_pool, free, [0.3, 0.1])
        assert attempt() is True
        assert plan.vm_rows_of_host[0] == []
        assert plan.vm_rows_of_host[1] == [0, 1, 2]


class TestPlanShape:
    def test_each_interval_capacity_bounded_by_predictions(self, small_pool):
        context = _context(small_pool)
        algorithm = DynamicConsolidation()
        schedule = algorithm.plan(context)
        # Re-derive each interval's sized demands and check every host's
        # packed body fits the utilization bound.
        points = context.points_per_interval
        history_points = context.history.n_points
        cpu_full = np.hstack(
            [
                context.history.cpu_rpe2_matrix(),
                context.evaluation.cpu_rpe2_matrix(),
            ]
        )
        memory_full = np.hstack(
            [
                context.history.memory_gb_matrix(),
                context.evaluation.memory_gb_matrix(),
            ]
        )
        from repro.sizing.estimator import SizeEstimator
        from repro.sizing.functions import MaxSizing

        estimator = SizeEstimator(
            sizing=MaxSizing(), overhead=context.config.overhead
        )
        bound = context.config.utilization_bound
        for interval, segment in enumerate(schedule):
            now = history_points + interval * points
            demands = predict_interval(
                algorithm,
                list(context.evaluation.vm_ids),
                cpu_full,
                memory_full,
                now,
                points,
                estimator,
                {},
            )
            by_id = {d.vm_id: d for d in demands}
            for host in small_pool:
                members = [
                    by_id[v]
                    for v in segment.placement.vms_on(host.host_id)
                ]
                if not members:
                    continue
                assert sum(m.cpu_rpe2 for m in members) <= (
                    host.cpu_rpe2 * bound + 1e-6
                )
                assert sum(m.memory_gb for m in members) <= (
                    host.memory_gb * bound + 1e-6
                )
