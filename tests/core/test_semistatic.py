"""Tests for vanilla semi-static consolidation."""

import numpy as np
import pytest

from repro.core.base import PlanningContext
from repro.core.semistatic import SemiStaticConsolidation
from repro.sizing.estimator import VirtualizationOverhead
from repro.core.base import PlanningConfig
from repro.workloads.trace import TraceSet
from tests.conftest import make_server_trace


def _context(small_pool, history_utils, eval_utils, mem=1.0):
    history, evaluation = [], []
    for vm_id, utils in history_utils.items():
        history.append(
            make_server_trace(vm_id, utils, [mem] * len(utils), cpu_rpe2=1000)
        )
    for vm_id, utils in eval_utils.items():
        evaluation.append(
            make_server_trace(vm_id, utils, [mem] * len(utils), cpu_rpe2=1000)
        )
    return PlanningContext(
        history=TraceSet("h", history),
        evaluation=TraceSet("e", evaluation),
        datacenter=small_pool,
        config=PlanningConfig(
            overhead=VirtualizationOverhead(
                cpu_overhead_frac=0.0, memory_overhead_gb=0.0
            )
        ),
    )


class TestSemiStatic:
    def test_single_static_segment(self, small_pool):
        context = _context(
            small_pool,
            {"a": [0.1] * 48, "b": [0.2] * 48},
            {"a": [0.1] * 48, "b": [0.2] * 48},
        )
        schedule = SemiStaticConsolidation().plan(context)
        assert len(schedule) == 1
        assert schedule.duration_hours == 48
        assert schedule.total_migrations() == 0

    def test_sizes_at_history_peak(self, small_pool):
        # Two VMs that peak at 0.9 of a 1000-RPE2 source each: their
        # peak demands (900 RPE2) are far below one HS23 blade, so both
        # consolidate onto a single host.
        history = {"a": [0.1] * 47 + [0.9], "b": [0.9] + [0.1] * 47}
        context = _context(small_pool, history, history)
        schedule = SemiStaticConsolidation().plan(context)
        placement = schedule.segments[0].placement
        assert placement.active_host_count == 1

    def test_no_migration_reservation_by_default(self, small_pool):
        # Three 36 GB VMs fill 108 of a blade's 128 GB: one host at full
        # capacity, two under the config's 0.8 dynamic bound (102.4 GB).
        utils = {vm_id: [0.1] * 48 for vm_id in ("a", "b", "c")}
        context = _context(small_pool, utils, utils, mem=36.0)
        assert context.config.utilization_bound == 0.8
        schedule = SemiStaticConsolidation().plan(context)
        assert schedule.segments[0].placement.active_host_count == 1

    def test_all_vms_placed(self, small_pool, generated_trace_set):
        half = generated_trace_set.n_points // 2
        context = PlanningContext(
            history=generated_trace_set.window(0, half),
            evaluation=generated_trace_set.window(
                half, generated_trace_set.n_points
            ),
            datacenter=small_pool,
        )
        schedule = SemiStaticConsolidation().plan(context)
        placement = schedule.segments[0].placement
        assert set(placement.assignment) == set(generated_trace_set.vm_ids)
