"""ConsolidationController: ingest semantics, replan decisions, twin mode.

The streaming contracts (watermark, duplicate, late, gap-fill), the
Neat-style decision loop (overload eviction, all-or-nothing underload
vacate), and the headline equivalence: a controller carrying
delta-mutated plan state produces the *same schedule* as its twin that
rebuilds the plan from scratch every cycle.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.exceptions import PlacementError, ServiceError
from repro.service.controller import (
    ConsolidationController,
    ControllerConfig,
    MonitoringSample,
)
from repro.service.detectors import (
    ThresholdOverloadDetector,
    ThresholdUnderloadDetector,
)
from repro.service.harness import ScriptedFeed, SimulationHarness
from repro.service.clock import VirtualClock

from tests.service.conftest import (
    assert_plan_consistent,
    build_controller,
    scripted_feed_for,
)


class TestIngest:
    def test_complete_tick_flushes(self):
        controller = build_controller(n_vms=3)
        tick = controller.store.total_points
        before = controller.store.total_points
        for i, vm_id in enumerate(controller.store.vm_ids):
            accepted = controller.ingest(
                MonitoringSample(tick, vm_id, 0.5, 2.0)
            )
            assert accepted
        assert controller.store.total_points == before + 1
        assert controller.stats.ticks_flushed == 1
        np.testing.assert_array_equal(
            controller.store.last_cpu_util(), [0.5, 0.5, 0.5]
        )

    def test_duplicate_ignored_and_counted(self):
        controller = build_controller(n_vms=3)
        tick = controller.store.total_points
        assert controller.ingest(MonitoringSample(tick, "vm0", 0.5, 2.0))
        assert not controller.ingest(
            MonitoringSample(tick, "vm0", 0.9, 9.0)
        )
        assert controller.stats.duplicates_ignored == 1
        # The first value wins once the tick flushes.
        for vm_id in ("vm1", "vm2"):
            controller.ingest(MonitoringSample(tick, vm_id, 0.5, 2.0))
        assert controller.store.last_cpu_util()[0] == 0.5

    def test_late_sample_dropped(self):
        controller = build_controller(n_vms=2)
        tick = controller.store.total_points
        for vm_id in controller.store.vm_ids:
            controller.ingest(MonitoringSample(tick, vm_id, 0.5, 2.0))
        assert not controller.ingest(
            MonitoringSample(tick - 1, "vm0", 0.4, 1.0)
        )
        assert not controller.ingest(
            MonitoringSample(tick, "vm0", 0.4, 1.0)
        )
        assert controller.stats.late_dropped == 2

    def test_gap_fill_when_stream_moves_past(self):
        controller = build_controller(n_vms=2)
        tick = controller.store.total_points
        last_util = np.array(controller.store.last_cpu_util())
        # Tick t gets only vm0; tick t+1 completes → both flush.
        controller.ingest(MonitoringSample(tick, "vm0", 0.7, 3.0))
        for vm_id in controller.store.vm_ids:
            controller.ingest(
                MonitoringSample(tick + 1, vm_id, 0.4, 2.0)
            )
        assert controller.stats.ticks_flushed == 2
        # vm1's missing cell at tick t was filled from last-known.
        window = controller.store.view().cpu_util
        assert window[0, -2] == 0.7
        assert window[1, -2] == last_util[1]
        assert controller.stats.gaps_filled == 1

    def test_skipped_tick_entirely_gap_filled(self):
        controller = build_controller(n_vms=2)
        tick = controller.store.total_points
        for vm_id in controller.store.vm_ids:
            controller.ingest(
                MonitoringSample(tick + 1, vm_id, 0.6, 2.0)
            )
        # Tick `tick` never got a sample; both cells were gap-filled.
        assert controller.stats.ticks_flushed == 2
        assert controller.stats.gaps_filled == 2

    def test_far_jump_equals_tick_by_tick(self):
        """Ticks that age out unread are folded, not appended.

        The reference is the same stream into a store whose retention
        window covers the whole jump, so every tick is appended one by
        one; the jumped store must retain the same trailing columns.
        """
        window = 16
        jumped = build_controller(n_vms=3, retention_points=window)
        stepped = build_controller(n_vms=3, retention_points=8 * window)
        start = jumped.store.total_points
        end = start + 5 * window + 3
        samples = [
            # Buffered partial ticks deep inside the skipped range ...
            MonitoringSample(start + 2, "vm0", 0.7, 3.0),
            MonitoringSample(start + 20, "vm1", 0.2, 1.5),
            MonitoringSample(start + 20, "vm2", 0.9, 2.5),
            MonitoringSample(end - window - 1, "vm0", 0.3, 2.2),
            # ... one in the retained tail, then the completing tick.
            MonitoringSample(end - 4, "vm2", 0.1, 1.0),
        ] + [
            MonitoringSample(end, vm_id, 0.5, 2.0)
            for vm_id in ("vm0", "vm1", "vm2")
        ]
        for controller in (jumped, stepped):
            for sample in samples:
                assert controller.ingest(sample)
        assert jumped.store.n_points == window
        for matrix in ("cpu_util", "cpu_rpe2", "memory_gb"):
            np.testing.assert_array_equal(
                getattr(jumped.store.view(), matrix),
                getattr(stepped.store.view(), matrix)[:, -window:],
            )
        assert jumped.store.total_points == stepped.store.total_points
        assert jumped.store.total_points == end + 1
        assert jumped._watermark == stepped._watermark == end + 1
        assert jumped.stats.gaps_filled == stepped.stats.gaps_filled
        assert jumped.stats.ticks_flushed == stepped.stats.ticks_flushed
        assert not jumped._pending

    def test_malformed_samples_raise_service_error(self):
        controller = build_controller(n_vms=2)
        tick = controller.store.total_points
        with pytest.raises(ServiceError):
            controller.ingest(MonitoringSample(tick, "nope", 0.5, 2.0))
        with pytest.raises(ServiceError):
            controller.ingest(
                MonitoringSample(tick, "vm0", float("nan"), 2.0)
            )
        with pytest.raises(ServiceError):
            controller.ingest(MonitoringSample(tick, "vm0", -0.1, 2.0))
        # Values that are not numbers, or too large for a float, are
        # the same documented error, and touch nothing.
        controller.ingest(MonitoringSample(tick, "vm1", 0.5, 2.0))
        before = (controller.stats.snapshot(), repr(controller._pending))
        for bad in ("0.5", None, 10**400, [0.5], b"0.5"):
            for sample in (
                MonitoringSample(tick, "vm0", bad, 2.0),
                MonitoringSample(tick, "vm0", 0.5, bad),
                MonitoringSample(tick, "nope", bad, 2.0),
            ):
                with pytest.raises(ServiceError):
                    controller.ingest(sample)
        assert (controller.stats.snapshot(), repr(controller._pending)) == (
            before
        )
        assert controller.ingest(MonitoringSample(tick, "vm0", 0.5, 2.0))

    def test_cpu_util_overflowing_capacity_raises(self):
        # 1e308 × 500 RPE2 of capacity overflows to Inf in the store.
        controller = build_controller(n_vms=2)
        tick = controller.store.total_points
        controller.ingest(MonitoringSample(tick, "vm1", 0.5, 2.0))
        before = (
            controller.stats.snapshot(),
            repr(controller._pending),
            controller.store.total_points,
        )
        with pytest.raises(ServiceError, match="overflow"):
            controller.ingest(MonitoringSample(tick, "vm0", 1e308, 2.0))
        assert (
            controller.stats.snapshot(),
            repr(controller._pending),
            controller.store.total_points,
        ) == before
        # Up to the store's limit, a huge cpu_util is still a sample.
        limit = controller.store.cpu_util_limit[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert controller.ingest(
                MonitoringSample(tick, "vm0", limit, 2.0)
            )
        assert controller.store.total_points == tick + 1
        assert np.isfinite(controller.store.view().cpu_rpe2).all()

    def test_flush_pending_forces_partial_ticks(self):
        controller = build_controller(n_vms=3)
        tick = controller.store.total_points
        controller.ingest(MonitoringSample(tick, "vm0", 0.5, 2.0))
        assert controller.flush_pending() == 1
        assert controller.store.total_points == tick + 1
        assert controller.flush_pending() == 0


class TestBootstrapAndQueries:
    def test_bootstrap_places_everything(self):
        controller = build_controller(bootstrap=False)
        assignment = controller.bootstrap()
        assert set(assignment) == set(controller.store.vm_ids)
        assert_plan_consistent(controller)
        assert controller.host_of("vm0") == assignment["vm0"]

    def test_bootstrap_requires_data(self):
        controller = build_controller(warmup_points=0, bootstrap=False)
        with pytest.raises(ServiceError):
            controller.bootstrap()

    def test_bootstrap_infeasible_fleet_raises(self):
        # One tiny host cannot take VMs sized at ~500 RPE2 peaks.
        controller = build_controller(
            n_hosts=1, n_vms=8, bootstrap=False, vm_capacity_rpe2=5000.0
        )
        with pytest.raises(PlacementError):
            controller.bootstrap()

    def test_unknown_vm_query(self):
        controller = build_controller()
        with pytest.raises(ServiceError):
            controller.host_of("nope")


class TestReplanDecisions:
    def test_overload_evicts_until_host_fits(self):
        controller = build_controller(n_hosts=3, n_vms=4)
        # Everything lands hot on whatever host carries it: drive all
        # VMs of one host to saturation.
        victim_host = controller.host_of("vm0")
        hot = [
            1.0 if controller.host_of(vm_id) == victim_host else 0.1
            for vm_id in controller.store.vm_ids
        ]
        feed = scripted_feed_for(
            controller, np.tile(np.array(hot)[:, None], (1, 3))
        )
        harness = SimulationHarness(controller, feed, replan_every=1)
        reports = harness.run()
        migrations = harness.migrations()
        assert migrations, "overloaded host should shed VMs"
        assert all(move[1] == victim_host for move in migrations)
        assert_plan_consistent(controller)
        # Replan scope stayed bounded: only source+target hosts.
        for report in reports:
            assert len(report.touched_hosts) <= 2 * len(migrations) + 1

    def test_underload_vacates_all_or_nothing(self):
        controller = build_controller(n_hosts=4, n_vms=6)
        # Everything idles → underload detector consolidates down.
        feed = scripted_feed_for(
            controller, np.full((6, 4), 0.05)
        )
        harness = SimulationHarness(controller, feed, replan_every=1)
        harness.run()
        active_before = len(controller.plan.active_hosts())
        assert active_before <= 2
        # Vacated VMs all moved; none left dangling.
        assert set(controller.plan.assignment()) == set(
            controller.store.vm_ids
        )
        assert_plan_consistent(controller)

    def test_vacate_failure_leaves_host_alone(self):
        # Two hosts, one big VM each (peak 500 of a 900 bound):
        # underloaded by the detector but neither host can absorb the
        # other's VM → counted, no moves.
        controller = build_controller(
            n_hosts=2,
            n_vms=2,
            warmup_points=0,
            bootstrap=False,
            vm_capacity_rpe2=2000.0,
            underload_detector=ThresholdUnderloadDetector(threshold=0.99),
            overload_detector=ThresholdOverloadDetector(threshold=1.0),
        )
        controller.store.append_samples(
            np.full((2, 4), 0.25), np.full((2, 4), 2.0)
        )
        controller.bootstrap()
        assert len(controller.plan.active_hosts()) == 2
        feed = scripted_feed_for(controller, np.full((2, 2), 0.15))
        SimulationHarness(controller, feed, replan_every=1).run()
        assert controller.stats.vacate_failures > 0
        assert len(controller.plan.active_hosts()) == 2
        assert_plan_consistent(controller)

    def test_stats_snapshot_shape(self):
        controller = build_controller()
        controller.replan_cycle()
        snapshot = controller.stats.snapshot()
        for key in (
            "cycles",
            "samples_ingested",
            "duplicates_ignored",
            "late_dropped",
            "gaps_filled",
            "detector_errors",
            "deadline_aborts",
            "migrations_total",
            "latency_seconds_p99",
            "replan_scope_p99",
        ):
            assert key in snapshot
        assert snapshot["cycles"] == 1


class TestEquivalenceTwin:
    def _run_pair(self, seed: int, n_ticks: int = 24):
        rng = np.random.default_rng(seed)
        n_vms = 8
        cpu_util = np.clip(
            rng.uniform(0.05, 0.6, (n_vms, n_ticks))
            + 0.5 * (rng.random((n_vms, n_ticks)) < 0.1),
            0.0,
            1.0,
        )
        memory_gb = rng.uniform(1.0, 6.0, (n_vms, n_ticks))
        assignments = []
        migration_logs = []
        for rebuild in (False, True):
            controller = build_controller(
                n_hosts=4,
                n_vms=n_vms,
                seed=seed,
                config=ControllerConfig(
                    sizing_window_points=4,
                    rebuild_plan_each_cycle=rebuild,
                ),
            )
            feed = scripted_feed_for(controller, cpu_util, memory_gb)
            harness = SimulationHarness(controller, feed, replan_every=2)
            harness.run()
            assert_plan_consistent(controller)
            assignments.append(controller.plan.assignment())
            migration_logs.append(harness.migrations())
        return assignments, migration_logs

    @pytest.mark.parametrize("seed", [3, 17, 4242])
    def test_incremental_matches_rebuild_twin(self, seed):
        (a, b), (moves_a, moves_b) = self._run_pair(seed)
        assert moves_a == moves_b
        assert a == b


class TestDeadline:
    class _AutoAdvanceClock(VirtualClock):
        """Every reading costs virtual time — simulates a slow cycle."""

        def __init__(self, step_seconds: float) -> None:
            super().__init__()
            self._step_seconds = step_seconds

        def now(self) -> float:
            self.advance(self._step_seconds)
            return super().now()

    def test_deadline_defers_remaining_hosts(self):
        clock = self._AutoAdvanceClock(step_seconds=0.5)
        controller = build_controller(
            n_hosts=4,
            n_vms=8,
            config=ControllerConfig(
                sizing_window_points=4, deadline_seconds=0.75
            ),
            clock=clock,
        )
        # Saturate everything so several hosts get flagged at once.
        tick = controller.store.total_points
        for offset in range(3):
            for vm_id in controller.store.vm_ids:
                controller.ingest(
                    MonitoringSample(tick + offset, vm_id, 1.0, 2.0)
                )
        report = controller.replan_cycle()
        assert report.deadline_hit
        assert controller.stats.deadline_aborts == 1
        # Degraded, not corrupted: plan state is still canonical.
        assert_plan_consistent(controller)
