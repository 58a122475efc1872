"""Tests for dynamic consolidation."""

import pickle

import numpy as np
import pytest

from repro.constraints.affinity import AntiColocate
from repro.constraints.manager import ConstraintSet
from repro.core.base import PlanningConfig, PlanningContext
from repro.core.dynamic import DynamicConsolidation
from repro.sizing.prediction import OraclePredictor
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


def _diurnal_context(small_pool, n_vms=12, days=4, constraints=None,
                     utilization_bound=0.8):
    """VMs with strong day/night cycles: dynamic's favourite diet."""
    hours = days * 24
    history, evaluation = [], []
    for i in range(n_vms):
        util = np.full(hours, 0.04)
        for day in range(days):
            start = day * 24 + 8
            util[start:start + 10] = 0.6
        memory = np.full(hours, 1.0 + 0.02 * i)
        for ts in (history, evaluation):
            ts.append(
                make_server_trace(f"vm{i}", util, memory, cpu_rpe2=4000.0)
            )
    return PlanningContext(
        history=TraceSet("h", history),
        evaluation=TraceSet("e", evaluation),
        datacenter=small_pool,
        constraints=constraints or ConstraintSet(),
        config=PlanningConfig(utilization_bound=utilization_bound),
    )


class TestDynamicConsolidation:
    def test_one_placement_per_interval(self, small_pool):
        context = _diurnal_context(small_pool)
        schedule = DynamicConsolidation().plan(context)
        assert len(schedule) == context.n_intervals
        assert schedule.duration_hours == 96

    def test_every_interval_places_all_vms(self, small_pool):
        context = _diurnal_context(small_pool)
        schedule = DynamicConsolidation().plan(context)
        for segment in schedule:
            assert len(segment.placement) == 12

    def test_segments_share_id_tuples_across_a_pickle(self, small_pool):
        schedule = DynamicConsolidation().plan(_diurnal_context(small_pool))
        back = pickle.loads(pickle.dumps(schedule))
        assert back == schedule
        assert back.total_migrations() == schedule.total_migrations()
        for placements in (schedule, back):
            assert len({id(s.placement.vm_ids) for s in placements}) == 1
            assert len({id(s.placement.host_ids) for s in placements}) == 1

    def test_night_uses_fewer_hosts_than_day(self, small_pool):
        context = _diurnal_context(small_pool)
        schedule = DynamicConsolidation().plan(context)
        # Interval 0-2h is night (all quiet); 8-18h is busy.
        night = schedule.segments[1].placement.active_host_count
        day = schedule.segments[5].placement.active_host_count
        assert night <= day

    def test_migrations_happen_but_are_not_constant_churn(self, small_pool):
        context = _diurnal_context(small_pool)
        schedule = DynamicConsolidation().plan(context)
        migrations = schedule.total_migrations()
        assert migrations > 0
        # Sticky placement: far fewer migrations than "replace everything
        # every interval" (12 VMs x 47 transitions).
        assert migrations < 12 * 47 * 0.5

    def test_tighter_bound_uses_more_hosts(self, small_pool):
        loose = DynamicConsolidation().plan(
            _diurnal_context(small_pool, utilization_bound=1.0)
        )
        tight = DynamicConsolidation().plan(
            _diurnal_context(small_pool, utilization_bound=0.6)
        )

        def max_active(schedule):
            return max(
                s.placement.active_host_count for s in schedule
            )

        assert max_active(tight) >= max_active(loose)

    def test_respects_constraints_every_interval(self, small_pool):
        constraints = ConstraintSet([AntiColocate("vm0", "vm1")])
        context = _diurnal_context(small_pool, constraints=constraints)
        schedule = DynamicConsolidation().plan(context)
        for segment in schedule:
            assert segment.placement.host_of("vm0") != (
                segment.placement.host_of("vm1")
            )

    def test_oracle_predictor_supported(self, small_pool):
        context = _diurnal_context(small_pool)
        schedule = DynamicConsolidation(
            predictor=OraclePredictor(), cpu_burst_factor=1.0
        ).plan(context)
        assert len(schedule) == context.n_intervals

    def test_migration_cost_gate_reduces_churn(self, small_pool):
        context = _diurnal_context(small_pool)
        gated = DynamicConsolidation(consider_migration_cost=True).plan(
            context
        )
        ungated = DynamicConsolidation(consider_migration_cost=False).plan(
            context
        )
        assert gated.total_migrations() <= ungated.total_migrations()

    def test_burst_factor_inflates_sizing(self, small_pool):
        plain = DynamicConsolidation(cpu_burst_factor=1.0).plan(
            _diurnal_context(small_pool)
        )
        inflated = DynamicConsolidation(cpu_burst_factor=2.0).plan(
            _diurnal_context(small_pool)
        )

        def peak_hosts(schedule):
            return max(s.placement.active_host_count for s in schedule)

        assert peak_hosts(inflated) >= peak_hosts(plain)
